// Per-virtual-cluster event sharding. The sequential Engine executes every
// event on one goroutine in (at, seq) order. The cluster it simulates,
// however, is naturally partitioned: each virtual cluster owns its jobs and
// queues, and only a minority of interactions (placement on the shared
// physical cluster, fair-share preemption, cluster-wide telemetry ticks)
// couple VCs to each other. Per-VC sharding exploits that structure
// without giving up one bit of determinism, and it runs on Fleet: one lane
// per VC, every event scheduled from global context.
//
// # Model
//
// Every event is either *local* to a shard (it reads and writes only state
// owned by that shard) or *global* (it may touch anything). Local events
// go onto the shard's lane with AtShard, global ones onto the barrier heap
// with At. The coordinator advances the simulation in virtual-time
// windows:
//
//  1. The earliest pending global event g defines the window barrier — the
//     ordering key (g.at, g.seq).
//  2. Every lane runs its local events with keys below the barrier, each
//     lane sequentially in (at, seq) order, different lanes concurrently
//     on the shared worker pool (window-level fork-join).
//  3. At the barrier the lanes join and the coordinator executes g alone.
//
// # Determinism contract
//
// The result is bit-identical to the sequential Engine executing the same
// events in full (at, seq) order, because the only reordering sharding
// ever introduces is between local events of *different* shards inside one
// window — and those commute by definition: they touch disjoint state, and
// every global event (which may observe any state) still runs at exactly
// its sequential position. Three rules make the argument airtight, and the
// executor enforces them at runtime:
//
//   - Local callbacks must not schedule events (At/AtShard on the Fleet
//     from a lane callback panics). All scheduling happens in global
//     context — setup or global callbacks — on the coordinator goroutine,
//     so every event, local or global, draws its key from the one
//     coordinator counter and carries the exact (at, seq) the sequential
//     Engine would assign it. A lane orders its events by its own counter,
//     which over global-context schedules is the same order. Causal chains
//     that need to schedule therefore pass through a barrier: the
//     conservative lookahead is "a local event never creates work", which
//     core satisfies by scheduling a failing attempt's local classification
//     together with the global commit at the episode's end (see
//     internal/core).
//   - Local callbacks must not touch another shard's state or any shared
//     mutable state. The executor cannot check this directly; the race
//     detector over the invariance matrix does (make check).
//   - Stop, like scheduling, is global-context-only.
//
// Window execution is a fork-join on an internal/par pool: the budget is
// shared with the telemetry walk and every other parallel layer, and a busy
// or absent pool degrades to inline lane-order execution with identical
// results.
package simulation

// ShardID names an event shard: a dense lane index from 0. Global marks
// events that must run alone at a window barrier.
type ShardID int

// Global is the pseudo-shard of barrier events.
const Global ShardID = -1

// Executor is the scheduling surface the study driver runs on, implemented
// by the sequential Engine, the windowed Fleet and a Fleet's Member views.
// At schedules a global event; AtShard schedules a shard-local one (the
// sequential Engine treats both identically, which is what makes the
// executors interchangeable: the callback set and the observable execution
// order of non-commuting events are the same).
type Executor interface {
	// Now returns the current simulated time: the barrier clock for
	// Fleet, the event clock for Engine. Local callbacks receive their
	// own time explicitly and must not consult Now.
	Now() Time
	// At schedules a global event at absolute time at.
	At(at Time, fn func())
	// After schedules a global event d seconds from Now.
	After(d Time, fn func())
	// AtShard schedules an event local to the given shard. The callback
	// must touch only that shard's state and must not schedule or Stop.
	AtShard(shard ShardID, at Time, fn func())
	// Ticker invokes fn every interval seconds as a global event.
	Ticker(start, interval Time, fn func(now Time) bool)
	// Stop halts the run loop; global-context-only.
	Stop()
	// Run executes events until the queue drains or the clock passes
	// horizon; returns the number executed during this call.
	Run(horizon Time) uint64
	// Processed returns the number of executed events so far.
	Processed() uint64
	// Pending returns how many events are waiting.
	Pending() int
}

// Engine schedules shard-tagged events like any other: one heap, full
// (at, seq) order. This is the sequential reference per-VC sharding is
// measured against.
func (e *Engine) AtShard(_ ShardID, at Time, fn func()) { e.At(at, fn) }

var _ Executor = (*Engine)(nil)

// WindowStats describes how much intra-window parallelism a run exposed.
// All counts are deterministic: they depend on the event schedule only,
// never on pool size or thread timing.
type WindowStats struct {
	// Windows is the number of barrier-to-barrier windows executed.
	Windows uint64
	// MultiShardWindows counts windows in which at least two distinct
	// shards executed local events — the windows where shards genuinely
	// advanced concurrently in virtual time.
	MultiShardWindows uint64
	// MaxShardsInWindow is the largest number of distinct shards active in
	// any single window.
	MaxShardsInWindow int
	// LocalEvents and GlobalEvents partition Processed().
	LocalEvents, GlobalEvents uint64
	// Barriers counts barrier drain cycles: consecutive global events with
	// no shard-local event ordered between them — a same-instant arrival
	// storm, a batch of commits — execute inside one cycle, so Barriers is
	// the number of times the run actually synchronized, not the number of
	// global events. Barriers <= GlobalEvents.
	Barriers uint64
}

// Sharded and NewSharded are the names the benchmark module (perfbench/)
// installs per-VC sharding by; they are Fleet and NewFleet.
type Sharded = Fleet

// NewSharded returns NewFleet(n): one lane per shard.
func NewSharded(n int) *Sharded { return NewFleet(n) }
