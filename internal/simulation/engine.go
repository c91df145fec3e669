// Package simulation implements the deterministic discrete-event engines
// the cluster simulator runs on: a virtual clock with second resolution
// and event queues with stable FIFO ordering for simultaneous events.
//
// Two executors share one Executor surface. Engine is the sequential
// reference: one heap, one goroutine, full (at, seq) order. Determinism —
// identical results for identical seeds — is a design requirement (every
// figure in EXPERIMENTS.md must be regenerable bit-for-bit), and the
// single event loop is the simplest way to guarantee it. No event callback
// on Engine forks: each runs to completion on the loop's goroutine, so the
// engine never observes concurrent mutation and the event schedule is
// identical for every worker count.
//
// Fleet (see fleet.go) partitions the loop itself into lanes — one per
// virtual cluster under per-VC sharding (see sharded.go), one per member
// cluster under federation: lane events run concurrently inside bounded
// virtual-time windows while global events execute at window barriers in
// the sequential engine's exact (at, seq) order, keeping results
// bit-identical to Engine.
package simulation

import (
	"fmt"
	"time"
)

// Time is simulated time in seconds since the start of the run.
type Time int64

// Common durations in simulated seconds.
const (
	Second Time = 1
	Minute Time = 60
	Hour   Time = 3600
	Day    Time = 24 * Hour
)

// Minutes converts a Time to floating-point minutes, the unit the paper
// reports queueing delays and runtimes in.
func (t Time) Minutes() float64 { return float64(t) / 60 }

// Hours converts a Time to floating-point hours.
func (t Time) Hours() float64 { return float64(t) / 3600 }

// Duration converts a Time to a time.Duration for formatting.
func (t Time) Duration() time.Duration { return time.Duration(t) * time.Second }

// String formats the time as d.hh:mm:ss.
func (t Time) String() string {
	neg := ""
	if t < 0 {
		neg = "-"
		t = -t
	}
	d := t / Day
	h := (t % Day) / Hour
	m := (t % Hour) / Minute
	s := t % Minute
	return fmt.Sprintf("%s%d.%02d:%02d:%02d", neg, d, h, m, s)
}

// FromMinutes builds a Time from floating-point minutes, rounding to the
// nearest second.
func FromMinutes(m float64) Time { return Time(m*60 + 0.5) }

// Event is a scheduled callback.
type event struct {
	at  Time
	seq uint64 // tie-break: FIFO among events at the same instant
	fn  func()
}

// less orders events by (at, seq). The pair is unique per event, so the
// order is total and the pop sequence is independent of heap shape — the
// 4-ary layout below pops in exactly the order the old binary heap did.
func (e *event) less(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// eventHeap is a value-typed 4-ary min-heap. Events are stored by value —
// pushing never allocates beyond amortized slice growth, unlike the previous
// container/heap implementation which boxed one *event per At call and paid
// an interface{} conversion on every Push/Pop. The 4-ary layout halves tree
// depth versus a binary heap, trading slightly more comparisons per level
// for many fewer cache-missing swaps on the sift-down path.
type eventHeap []event

// push inserts an event and sifts it up.
func (h *eventHeap) push(e event) {
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

// pop removes and returns the minimum event.
func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = event{} // release the fn reference for GC
	q = q[:n]
	*h = q
	// Sift down.
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

// Engine is the discrete-event loop. The zero value is not usable; call
// NewEngine.
type Engine struct {
	now     Time
	queue   eventHeap
	seq     uint64
	stopped bool
	// processed counts executed events, useful for progress reporting and
	// as a safety valve in tests.
	processed uint64
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	// Seed the queue with enough room that early scheduling bursts (e.g. a
	// whole workload's arrival events) do not regrow it repeatedly.
	return &Engine{queue: make(eventHeap, 0, 256)}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Processed returns how many events have been executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending returns how many events are waiting in the queue.
func (e *Engine) Pending() int { return len(e.queue) }

// At schedules fn to run at the absolute simulated time at. Scheduling in
// the past (before Now) panics: it always indicates a logic bug and letting
// it pass would silently reorder causality.
func (e *Engine) At(at Time, fn func()) {
	if fn == nil {
		panic("simulation: scheduling nil event")
	}
	if at < e.now {
		panic(fmt.Sprintf("simulation: scheduling event in the past (%v < now %v)", at, e.now))
	}
	e.seq++
	e.queue.push(event{at: at, seq: e.seq, fn: fn})
}

// After schedules fn to run d seconds from now.
func (e *Engine) After(d Time, fn func()) {
	if d < 0 {
		d = 0
	}
	e.At(e.now+d, fn)
}

// Stop halts the run loop after the currently executing event returns.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events in order until the queue drains or the clock would
// pass horizon (events at exactly horizon still run). It returns the number
// of events executed during this call.
func (e *Engine) Run(horizon Time) uint64 {
	e.stopped = false
	start := e.processed
	for len(e.queue) > 0 && !e.stopped {
		if e.queue[0].at > horizon {
			break
		}
		next := e.queue.pop()
		e.now = next.at
		next.fn()
		e.processed++
	}
	// Advance the clock to the horizon even if we ran out of events, so
	// callers measuring elapsed simulated time see a consistent value.
	if !e.stopped && e.now < horizon && len(e.queue) == 0 {
		e.now = horizon
	}
	return e.processed - start
}

// Ticker invokes fn every interval seconds, starting at start, until fn
// returns false or the engine stops. It is used for telemetry sampling and
// scheduler retry sweeps.
func (e *Engine) Ticker(start, interval Time, fn func(now Time) bool) {
	if interval <= 0 {
		panic("simulation: ticker interval must be positive")
	}
	var tick func()
	at := start
	tick = func() {
		if !fn(e.now) {
			return
		}
		at += interval
		e.At(at, tick)
	}
	e.At(start, tick)
}
