package main

import (
	"sync/atomic"
	"time"

	"philly/internal/simulation"
)

// tracer is a simulation.Executor that forwards every call to the executor
// a study really runs on and times each callback by how it was scheduled.
// It is installed with core.Study.SetExecutor, so it observes the study
// from outside: the study's code and its event order are unchanged, only
// each callback is wrapped in a pair of clock reads.
//
//   - At callbacks are global events: arrivals, scheduler wakes, finish
//     commits and outages. scheduler.Pump dominates them.
//   - AtShard callbacks are shard-local: failure-log render and classify,
//     and convergence analysis. On a sharded executor with a pool they run
//     concurrently on several workers, and their times are summed across
//     workers, so localNs is CPU time rather than wall time.
//   - Ticker callbacks are the telemetry draw and fold.
//
// Run is timed too; run minus global minus tick time is the executor's own
// time: window fork-joins, barriers, heap work and the shard-local events.
type tracer struct {
	inner simulation.Executor

	// Written only on the goroutine that calls Run.
	runNs, globalNs, tickNs int64
	globalN, ticks          uint64

	// Written by shard-local callbacks, possibly from several workers.
	localNs atomic.Int64
	localN  atomic.Uint64
}

var _ simulation.Executor = (*tracer)(nil)

func newTracer(inner simulation.Executor) *tracer { return &tracer{inner: inner} }

func (t *tracer) Now() simulation.Time { return t.inner.Now() }

func (t *tracer) At(at simulation.Time, fn func()) { t.inner.At(at, t.global(fn)) }

func (t *tracer) After(d simulation.Time, fn func()) { t.inner.After(d, t.global(fn)) }

func (t *tracer) AtShard(shard simulation.ShardID, at simulation.Time, fn func()) {
	if shard == simulation.Global {
		t.At(at, fn)
		return
	}
	t.inner.AtShard(shard, at, func() {
		start := time.Now()
		fn()
		t.localNs.Add(int64(time.Since(start)))
		t.localN.Add(1)
	})
}

func (t *tracer) Ticker(start, interval simulation.Time, fn func(now simulation.Time) bool) {
	t.inner.Ticker(start, interval, func(now simulation.Time) bool {
		begin := time.Now()
		more := fn(now)
		t.tickNs += int64(time.Since(begin))
		t.ticks++
		return more
	})
}

func (t *tracer) Stop() { t.inner.Stop() }

func (t *tracer) Run(horizon simulation.Time) uint64 {
	start := time.Now()
	n := t.inner.Run(horizon)
	t.runNs += int64(time.Since(start))
	return n
}

func (t *tracer) Processed() uint64 { return t.inner.Processed() }

func (t *tracer) Pending() int { return t.inner.Pending() }

// global wraps a global-event callback with its timer.
func (t *tracer) global(fn func()) func() {
	return func() {
		start := time.Now()
		fn()
		t.globalNs += int64(time.Since(start))
		t.globalN++
	}
}

// addLayers adds the tracer's totals to the per-layer metrics, so the
// studies of one workload sum.
func (t *tracer) addLayers(m metrics) {
	run := seconds(t.runNs)
	m.add("simulation.run_s", run)
	m.add("simulation.self_s", run-seconds(t.globalNs)-seconds(t.tickNs))
	m.add("core.global_s", seconds(t.globalNs))
	m.add("core.global_events", float64(t.globalN))
	m.add("core.tick_s", seconds(t.tickNs))
	m.add("core.ticks", float64(t.ticks))
	m.add("core.local_s", seconds(t.localNs.Load()))
	m.add("core.local_events", float64(t.localN.Load()))
}

func seconds(ns int64) float64 { return float64(ns) / 1e9 }
