// Package par provides the shared, budgeted worker pool behind every layer
// of parallelism in the simulator: across-study units in internal/sweep,
// speculative placement in internal/scheduler, and event windows in
// internal/simulation.
//
// One pool, one budget. A Pool of size N never runs more than N tasks at
// once, no matter how the layers nest: callers always execute their own
// fork-join work (the caller is one of the N), and extra shards are handed
// only to helpers that are idle at that instant (a non-blocking send that
// never queues). So nested fork-joins cannot deadlock or oversubscribe.
//
// The handoff is offered once, on ForkJoin's entry. A helper that is not
// parked at that instant is never recruited for that fork-join, however
// long it runs. internal/sweep calls ForkJoin over its units right after
// building the pool, before the helpers park, so a sweep runs its units
// one at a time on the caller and the helpers pick up only the units'
// intra-study shards (ROADMAP item 1). A single study's first fork-join
// comes well after its pool is built, so its shards do reach the helpers.
//
// Determinism contract: the pool only decides *where* a shard runs, never
// what it computes or how results merge. Every caller in this repository
// shards work over fixed, worker-count-independent boundaries and folds
// shard results in fixed shard order, so results are bit-identical for any
// pool size, including none (a nil *Pool runs everything inline).
package par

import (
	"fmt"
	"runtime"
	"runtime/debug"
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

// ShardPanic is the value ForkJoin re-panics with on its caller when
// shards panicked: the lowest-index shard that panicked, its panic value
// and the stack it panicked on.
type ShardPanic struct {
	Shard int
	Value any
	Stack []byte
}

// Error renders the shard, its panic value and its stack, so an
// unrecovered ShardPanic prints where the shard panicked.
func (e *ShardPanic) Error() string {
	return fmt.Sprintf("par: shard %d panicked: %v\n\n%s", e.Shard, e.Value, e.Stack)
}

// ForkJoin runs fn(0..n-1) and returns when every call has finished. The
// caller executes shards itself and idle helpers (if any) are enlisted via
// non-blocking handoff, so the call makes progress even when the whole pool
// is busy — nested ForkJoins cannot deadlock. Shard execution order and
// placement are unspecified; callers must make shards independent and fold
// their outputs in shard order if float accumulation order matters.
//
// A shard's panic is recovered wherever the shard runs, so a helper
// survives it. The remaining shards still run; after the join, ForkJoin
// panics on the caller with a *ShardPanic for the lowest-index shard that
// panicked. A nil pool, a pool of 1 and a single shard run fn inline, so
// there a panic unwinds straight out of ForkJoin.
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
	var (
		next  atomic.Int64
		mu    sync.Mutex
		first *ShardPanic
	)
	call := func(i int) {
		defer func() {
			if v := recover(); v != nil {
				mu.Lock()
				if first == nil || i < first.Shard {
					first = &ShardPanic{Shard: i, Value: v, Stack: debug.Stack()}
				}
				mu.Unlock()
			}
		}()
		fn(i)
	}
	run := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			call(i)
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
	if first != nil {
		panic(first)
	}
}
