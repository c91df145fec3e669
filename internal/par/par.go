// Package par provides the shared, budgeted worker pool behind every layer
// of parallelism in the simulator: across-study workers in internal/sweep,
// the intra-study telemetry shards in internal/core, rack scoring in
// internal/cluster, speculative placement in internal/scheduler, and event
// windows in internal/simulation.
//
// One pool, one budget. A Pool of size N never runs more than N tasks at
// once, no matter how the layers nest: callers always execute their own
// fork-join work (the caller is one of the N), and extra shards are handed
// only to workers that are idle at that instant (TrySubmit never blocks and
// never queues). When internal/sweep saturates the pool with studies, each
// study's intra-study fork-joins simply run inline on that study's worker —
// zero oversubscription, zero idle cores. As studies drain and workers go
// idle, the remaining studies' shards start landing on them automatically.
//
// Determinism contract: the pool only decides *where* a shard runs, never
// what it computes or how results merge. Every caller in this repository
// shards work over fixed, worker-count-independent boundaries and folds
// shard results in fixed shard order, so results are bit-identical for any
// pool size, including none (a nil *Pool runs everything inline).
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a fixed-size worker pool. The zero value is not usable; nil is: a
// nil *Pool runs all work inline on the caller.
type Pool struct {
	// size is the total parallelism budget, counting the caller.
	size int
	// tasks hands work to idle helpers. The channel is unbuffered on
	// purpose: a send succeeds only when a helper is blocked receiving —
	// i.e. provably idle — which is what makes the budget hard.
	tasks chan func()
	// done closes the helpers on Close.
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// NewPool builds a pool with a total budget of n concurrent tasks,
// including the calling goroutine of every ForkJoin; n-1 helper goroutines
// are spawned. n <= 0 means runtime.GOMAXPROCS(0). A budget of 1 spawns no
// helpers at all — every ForkJoin runs inline, which is the sequential
// engine.
func NewPool(n int) *Pool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	p := &Pool{size: n, tasks: make(chan func())}
	for i := 0; i < n-1; i++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for f := range p.tasks {
				f()
			}
		}()
	}
	return p
}

// Size returns the pool's total budget (helpers + the caller), or 1 for a
// nil pool.
func (p *Pool) Size() int {
	if p == nil {
		return 1
	}
	return p.size
}

// Close stops the helper goroutines and waits for in-flight tasks to
// finish. ForkJoin on a closed pool panics (send on closed channel) — close
// only after all users are done. Close on a nil pool is a no-op.
func (p *Pool) Close() {
	if p == nil {
		return
	}
	p.closeOnce.Do(func() {
		close(p.tasks)
		p.wg.Wait()
	})
}

// ForkJoin runs fn(0..n-1) and returns when every call has finished. The
// caller executes shards itself and idle helpers (if any) are enlisted via
// non-blocking handoff, so the call makes progress even when the whole pool
// is busy — nested ForkJoins cannot deadlock. Shard execution order and
// placement are unspecified; callers must make shards independent and fold
// their outputs in shard order if float accumulation order matters.
func (p *Pool) ForkJoin(n int, fn func(shard int)) {
	if n <= 0 {
		return
	}
	if p == nil || p.size == 1 || n == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	run := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(i)
		}
	}
	var wg sync.WaitGroup
	for enlisted := 0; enlisted < p.size-1 && enlisted < n-1; enlisted++ {
		wg.Add(1)
		task := func() {
			defer wg.Done()
			run()
		}
		ok := false
		select {
		case p.tasks <- task:
			ok = true
		default:
			// No helper is idle right now; stop recruiting and do the
			// rest ourselves.
		}
		if !ok {
			wg.Done()
			break
		}
	}
	run()
	wg.Wait()
}
