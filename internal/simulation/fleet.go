// Fleet is the windowed executor. Each lane is a private, fully ordered
// event timeline; lanes advance concurrently inside bounded virtual-time
// windows and interact only through global events that execute alone at
// window barriers. Two layers build on it:
//
//   - Per-VC sharding (sharded.go): one lane per virtual cluster of one
//     study, every event scheduled from global context through At and
//     AtShard, lane callbacks forbidden to schedule.
//   - Federation: each lane is an entire member cluster (Philly-scale,
//     Helios-like, ...) running its own study through its Member view;
//     members interact only through coarse-grained fleet events — job
//     spillover, quota rebalancing — at barriers.
//
// # Member scheduling
//
// A member cluster cannot live under sharding's no-scheduling rule — a
// cluster's study schedules constantly (arrivals pump the scheduler,
// episode ends arm new episodes, tickers re-arm themselves). Fleet
// therefore keys each lane by its own counter:
//
//   - Lane events are keyed (at, lseq): lseq is the member-local schedule
//     counter, so within one member the execution order is exactly the
//     sequential Engine's FIFO-at-equal-times order. A member callback may
//     schedule onto its own member and may stop its own member.
//   - Cross-member and member-to-global scheduling from member context is
//     a contract violation and panics, exactly like a sharded lane
//     callback scheduling: members share no state except through barriers.
//   - Global (fleet) events are keyed (at, gseq) by the coordinator-owned
//     counter and run alone at window barriers, in exactly the order the
//     sequential Engine would run them.
//
// # Window rule
//
// The earliest pending global event defines the barrier key (bAt, bSeq).
// Each lane runs, sequentially in (at, lseq) order, while its head event
// is ordered before the barrier; different lanes run concurrently on the
// shared pool. A lane event's position against the barrier is decided by
// its own global-order stamp gseq:
//
//   - Scheduled from global context (setup or a barrier callback), the
//     event's gseq is drawn from the same counter as global events, so
//     instant ties against barriers resolve exactly as the sequential
//     Engine's FIFO would. This is the only path per-VC sharding uses, and
//     on it (at, lseq) and (at, gseq) order a lane identically: every event
//     carries the (at, seq) key the sequential Engine would assign it.
//   - Scheduled from member context, the event inherits the stamp of the
//     window it was created in (the barrier's gseq): at an instant tie it
//     runs after the fleet events of that instant and before any fleet
//     event scheduled later — the order a sequential interleaving of
//     "member work, then barrier" would produce.
//
// The stamp orders a lane head against barriers only; it never reorders
// events within a lane (lanes are FIFO by (at, lseq)). Determinism follows
// the argument in sharded.go: the only reordering Fleet introduces is
// between events of different lanes inside one window, and those commute
// because lanes touch disjoint state; every barrier event runs at its
// exact global position. The race detector over the invariance matrices
// enforces the disjointness the executor cannot check.
package simulation

import (
	"fmt"
	"math"
	"sync/atomic"

	"philly/internal/par"
)

// NoHorizon is the default member horizon: the member runs as far as the
// fleet does.
const NoHorizon Time = math.MaxInt64

// laneEvent is one member-lane event. Lane order is (at, lseq) — the
// member's own FIFO. gseq is the global-order stamp consulted only when the
// lane head ties with a window barrier at the same instant.
type laneEvent struct {
	at   Time
	lseq uint64
	gseq uint64
	fn   func()
}

// laneLess orders lane events by (at, lseq); the pair is unique per lane.
func (e *laneEvent) less(o *laneEvent) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.lseq < o.lseq
}

// laneHeap is a value-typed 4-ary min-heap over (at, lseq), the same layout
// as eventHeap (see engine.go) with the lane key.
type laneHeap []laneEvent

func (h *laneHeap) push(e laneEvent) {
	*h = append(*h, e)
	q := *h
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !q[i].less(&q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

func (h *laneHeap) pop() laneEvent {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = laneEvent{} // release the fn reference for GC
	q = q[:n]
	*h = q
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if q[c].less(&q[min]) {
				min = c
			}
		}
		if !q[min].less(&q[i]) {
			break
		}
		q[i], q[min] = q[min], q[i]
		i = min
	}
	return top
}

// memberLane is one member cluster's private timeline.
type memberLane struct {
	queue laneHeap
	// now is the member clock: the time of the member's last executed
	// event. It is what the member's driver observes as Now, so it is never
	// dragged by barrier time — it advances only through the member's own
	// events and the final drain-to-horizon step.
	now Time
	// seq is the member-local schedule counter (lseq source).
	seq uint64
	// horizon bounds the member's own run, independent of the fleet's:
	// events past it stay pending, exactly like the sequential Engine's
	// Run(horizon) for a standalone study.
	horizon Time
	// stopped marks a member that halted itself (Stop); its remaining
	// events stay pending, like a stopped Engine's.
	stopped bool
	// active marks that the lane's window task is currently executing
	// events — the member-context detector. Written and read only by that
	// task's goroutine on the legitimate paths.
	active    bool
	processed uint64
}

// Fleet is the multi-cluster coordinator engine. The zero value is not
// usable; call NewFleet. It is driven from one goroutine (Run); only the
// window fork-join fans out, one task per member.
type Fleet struct {
	lanes   []memberLane
	members []Member
	global  eventHeap
	// seq is the coordinator-owned global-order counter: every event
	// scheduled from global context — fleet events and member events alike
	// — draws its gseq here, which is what makes instant ties against
	// barriers resolve exactly as the sequential Engine's FIFO.
	seq       uint64
	now       Time
	stopped   bool
	processed uint64 // global events executed
	stats     WindowStats

	// windowSeq is the gseq stamp member-context schedules inherit: the
	// current window's barrier seq. Written by the coordinator before the
	// window fork, read by lane tasks during it (fork-join ordered).
	windowSeq uint64

	// pool runs window fork-joins; nil executes members inline.
	pool *par.Pool
	// inWindow marks that a window fork-join is executing, to reject
	// global scheduling and Stop from member callbacks.
	inWindow atomic.Bool

	// runnable is the reused per-window list of member indexes with work.
	runnable []int
}

// NewFleet returns a coordinator with n member lanes and the clock at zero.
func NewFleet(n int) *Fleet {
	if n < 1 {
		panic("simulation: fleet needs at least one member")
	}
	f := &Fleet{
		lanes:  make([]memberLane, n),
		global: make(eventHeap, 0, 64),
	}
	f.members = make([]Member, n)
	for i := range f.members {
		f.lanes[i].horizon = NoHorizon
		f.members[i] = Member{f: f, id: ShardID(i)}
	}
	return f
}

// SetPool attaches the worker pool used for window-level fork-join. A nil
// pool (or one of size 1) runs every window inline in member order —
// results are identical either way; only wall-clock changes.
func (f *Fleet) SetPool(p *par.Pool) { f.pool = p }

// Member returns the executor view of member i: the Executor a member
// cluster's driver runs on. Unlike the Fleet surface itself, a member view
// accepts scheduling and Stop from inside its own callbacks.
func (f *Fleet) Member(i ShardID) *Member {
	return &f.members[i]
}

// Now returns the barrier clock: the time of the last executed global
// event, or the horizon after a drained Run.
func (f *Fleet) Now() Time { return f.now }

// Stats returns the window statistics accumulated so far.
func (f *Fleet) Stats() WindowStats { return f.stats }

// Processed returns the number of executed events (member + global).
func (f *Fleet) Processed() uint64 {
	total := f.processed
	for i := range f.lanes {
		total += f.lanes[i].processed
	}
	return total
}

// Pending returns how many events are waiting across all heaps.
func (f *Fleet) Pending() int {
	n := len(f.global)
	for i := range f.lanes {
		n += len(f.lanes[i].queue)
	}
	return n
}

// checkGlobalContext panics when called from inside a window fork-join:
// global scheduling from a member callback would make gseq assignment (and
// with it the barrier order) depend on thread timing.
func (f *Fleet) checkGlobalContext(what string) {
	if f.inWindow.Load() {
		panic(fmt.Sprintf("simulation: %s on the fleet from a member callback; only barrier events may %s (federation barrier contract)", what, what))
	}
}

// At schedules a global fleet event at absolute time at. Global events run
// alone at window barriers, in exactly the sequential engine's (at, seq)
// order. Global-context-only.
func (f *Fleet) At(at Time, fn func()) {
	f.checkGlobalContext("scheduling")
	if fn == nil {
		panic("simulation: scheduling nil event")
	}
	if at < f.now {
		panic(fmt.Sprintf("simulation: scheduling event in the past (%v < now %v)", at, f.now))
	}
	f.seq++
	f.global.push(event{at: at, seq: f.seq, fn: fn})
}

// After schedules a global fleet event d seconds from Now.
func (f *Fleet) After(d Time, fn func()) {
	if d < 0 {
		d = 0
	}
	f.At(f.now+d, fn)
}

// AtShard schedules an event onto lane sh from global context (Global
// routes to At) — per-VC sharding's local-event path. Like At it rejects
// times behind the barrier clock, which a lane's own clock may trail.
// A federation member's study uses its Member view instead, which
// additionally allows member-context scheduling.
func (f *Fleet) AtShard(sh ShardID, at Time, fn func()) {
	if sh == Global {
		f.At(at, fn)
		return
	}
	f.checkGlobalContext("scheduling")
	if int(sh) < 0 || int(sh) >= len(f.lanes) {
		panic(fmt.Sprintf("simulation: member %d out of range [0, %d)", sh, len(f.lanes)))
	}
	if at < f.now {
		panic(fmt.Sprintf("simulation: scheduling event in the past (%v < now %v)", at, f.now))
	}
	f.scheduleMember(&f.lanes[sh], at, fn, false)
}

// scheduleMember pushes one event onto a member lane. fromMember selects
// the gseq stamp: the shared global counter from global context, the
// current window's barrier seq from inside the member's own callbacks.
func (f *Fleet) scheduleMember(lane *memberLane, at Time, fn func(), fromMember bool) {
	if fn == nil {
		panic("simulation: scheduling nil event")
	}
	if at < lane.now {
		panic(fmt.Sprintf("simulation: scheduling event in the member's past (%v < now %v)", at, lane.now))
	}
	var gseq uint64
	if fromMember {
		gseq = f.windowSeq
	} else {
		f.seq++
		gseq = f.seq
	}
	lane.seq++
	lane.queue.push(laneEvent{at: at, lseq: lane.seq, gseq: gseq, fn: fn})
}

// Ticker invokes fn every interval seconds as a global fleet event, like
// Engine.Ticker.
func (f *Fleet) Ticker(start, interval Time, fn func(now Time) bool) {
	if interval <= 0 {
		panic("simulation: ticker interval must be positive")
	}
	var tick func()
	at := start
	tick = func() {
		if !fn(f.now) {
			return
		}
		at += interval
		f.At(at, tick)
	}
	f.At(start, tick)
}

// Stop halts the fleet run loop after the currently executing global event
// returns. Member callbacks must not call it (they may stop their own
// member view instead).
func (f *Fleet) Stop() {
	f.checkGlobalContext("stopping")
	f.stopped = true
}

// barrierKey returns the ordering key of the earliest pending global event,
// or (horizon+1, 0) when none is pending within the horizon — the open
// window in which members drain everything they have left.
func (f *Fleet) barrierKey(horizon Time) (Time, uint64, bool) {
	if len(f.global) == 0 || f.global[0].at > horizon {
		return horizon + 1, 0, false
	}
	return f.global[0].at, f.global[0].seq, true
}

// laneRunnable reports whether the lane's head event is ordered before the
// (bAt, bSeq) barrier and within both horizons.
func laneRunnable(lane *memberLane, bAt Time, bSeq uint64, horizon Time) bool {
	if lane.stopped || len(lane.queue) == 0 {
		return false
	}
	e := &lane.queue[0]
	if e.at > horizon || e.at > lane.horizon {
		return false
	}
	return e.at < bAt || (e.at == bAt && e.gseq < bSeq)
}

// runWindow executes, on every member, the lane events ordered before the
// (at, seq) barrier key and not past the horizons. It reports whether any
// lane ran.
func (f *Fleet) runWindow(bAt Time, bSeq uint64, horizon Time) bool {
	runnable := f.runnable[:0]
	for i := range f.lanes {
		if laneRunnable(&f.lanes[i], bAt, bSeq, horizon) {
			runnable = append(runnable, i)
		}
	}
	f.runnable = runnable
	if len(runnable) == 0 {
		return false
	}

	f.stats.Windows++
	if len(runnable) > 1 {
		f.stats.MultiShardWindows++
	}
	if len(runnable) > f.stats.MaxShardsInWindow {
		f.stats.MaxShardsInWindow = len(runnable)
	}

	f.windowSeq = bSeq
	run := func(t int) {
		lane := &f.lanes[runnable[t]]
		lane.active = true
		for laneRunnable(lane, bAt, bSeq, horizon) {
			next := lane.queue.pop()
			lane.now = next.at
			next.fn()
			lane.processed++
		}
		lane.active = false
	}
	f.inWindow.Store(true)
	if f.pool == nil || len(runnable) == 1 {
		for t := range runnable {
			run(t)
		}
	} else {
		f.pool.ForkJoin(len(runnable), run)
	}
	f.inWindow.Store(false)
	return true
}

// Run executes events in windows until every heap drains or the clock
// would pass horizon (events at exactly horizon still run). It returns the
// number of events executed during this call. Semantics match Engine.Run:
// Stop (from a global event) halts after that event; the clock advances to
// the horizon when the queues drain first. Each member lane additionally
// honors its own horizon and Stop with the sequential Engine's exact
// semantics, so a member's observable timeline is byte-identical to a
// standalone run.
//
// Consecutive global events with no lane event ordered between them — a
// same-instant arrival storm, a batch of commits — form one barrier drain
// cycle, counted once in WindowStats.Barriers; the execution order is
// exactly the sequential engine's either way.
func (f *Fleet) Run(horizon Time) uint64 {
	f.stopped = false
	for i := range f.lanes {
		f.lanes[i].stopped = false
	}
	start := f.Processed()
	draining := false // a barrier drain cycle is open
	for !f.stopped {
		bAt, bSeq, haveGlobal := f.barrierKey(horizon)
		if f.runWindow(bAt, bSeq, horizon) {
			draining = false
		}
		if !haveGlobal {
			// No global event within the horizon: the members just drained
			// everything runnable, so this Run is done.
			break
		}
		if !draining {
			f.stats.Barriers++
			draining = true
		}
		next := f.global.pop()
		f.now = next.at
		next.fn()
		f.processed++
		f.stats.GlobalEvents++
	}
	f.stats.LocalEvents = f.Processed() - f.stats.GlobalEvents
	if !f.stopped {
		if f.now < horizon && f.Pending() == 0 {
			f.now = horizon
		}
		// Drained members advance to their own horizon, exactly like a
		// standalone Engine.Run: only when not stopped and fully drained.
		for i := range f.lanes {
			lane := &f.lanes[i]
			h := lane.horizon
			if horizon < h {
				h = horizon
			}
			if !lane.stopped && len(lane.queue) == 0 && lane.now < h {
				lane.now = h
			}
		}
	}
	return f.Processed() - start
}

// Member is the executor view a member cluster's driver runs on. It
// implements Executor: Now/At/After/AtShard/Ticker observe and feed the
// member's private lane, Stop halts the member (not the fleet), and —
// unlike per-VC sharding's lane callbacks — scheduling from inside the
// member's own callbacks is allowed, because the lane is totally ordered
// by its own counter. Scheduling or stopping another member's view from a
// member callback panics (federation barrier contract).
type Member struct {
	f  *Fleet
	id ShardID
}

var _ Executor = (*Fleet)(nil)
var _ Executor = (*Member)(nil)

func (m *Member) lane() *memberLane { return &m.f.lanes[m.id] }

// fromMember reports whether the call is executing inside this member's
// own window task, and panics when it comes from a different member's
// callback — the cross-member mutation the barrier contract forbids.
func (m *Member) fromMember(what string) bool {
	if !m.f.inWindow.Load() {
		return false
	}
	if !m.lane().active {
		panic(fmt.Sprintf("simulation: %s on member %d from another member's callback; cross-member interactions must go through fleet barrier events (federation barrier contract)", what, m.id))
	}
	return true
}

// ID returns the member's shard index in the fleet.
func (m *Member) ID() ShardID { return m.id }

// SetHorizon bounds the member's own run: events past it stay pending and
// the member clock drains to it, exactly like the sequential Engine's
// Run(horizon) for a standalone study. Must be set before the fleet runs.
func (m *Member) SetHorizon(h Time) { m.lane().horizon = h }

// Now returns the member clock: the time of the member's last executed
// event (or its horizon after a full drain) — what the member's driver
// would observe on a standalone sequential engine.
func (m *Member) Now() Time { return m.lane().now }

// At schedules an event on the member's lane at absolute time at.
func (m *Member) At(at Time, fn func()) {
	m.f.scheduleMember(m.lane(), at, fn, m.fromMember("scheduling"))
}

// After schedules an event d seconds from the member clock.
func (m *Member) After(d Time, fn func()) {
	if d < 0 {
		d = 0
	}
	m.At(m.lane().now+d, fn)
}

// AtShard schedules on the member's lane regardless of the shard tag, like
// the sequential Engine (the member is one timeline; its driver's internal
// shard labels do not partition it further).
func (m *Member) AtShard(_ ShardID, at Time, fn func()) { m.At(at, fn) }

// Ticker invokes fn every interval seconds on the member's lane, with
// Engine.Ticker's exact semantics against the member clock.
func (m *Member) Ticker(start, interval Time, fn func(now Time) bool) {
	if interval <= 0 {
		panic("simulation: ticker interval must be positive")
	}
	var tick func()
	at := start
	tick = func() {
		if !fn(m.Now()) {
			return
		}
		at += interval
		m.At(at, tick)
	}
	m.At(start, tick)
}

// Stop halts this member: its remaining events stay pending and its clock
// freezes at the current event, exactly like Engine.Stop for a standalone
// study. Callable from the member's own callbacks and from global context;
// never from another member's.
func (m *Member) Stop() {
	m.fromMember("stopping")
	m.lane().stopped = true
}

// Run is not callable on a member view: the fleet coordinator drives all
// members. It exists to satisfy Executor so a study driver can run
// unchanged on a member view (drivers split into arm and collect phases
// never call Run).
func (m *Member) Run(Time) uint64 {
	panic("simulation: a federation member is driven by the fleet coordinator; call Fleet.Run")
}

// Processed returns the number of events executed on this member's lane.
func (m *Member) Processed() uint64 { return m.lane().processed }

// Pending returns how many events wait on this member's lane.
func (m *Member) Pending() int { return len(m.lane().queue) }

// Stopped reports whether the member halted itself.
func (m *Member) Stopped() bool { return m.lane().stopped }
