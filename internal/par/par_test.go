package par

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestForkJoinCoversAllShards checks every shard runs exactly once, across
// pool sizes and shard counts (including n < size and n > size).
func TestForkJoinCoversAllShards(t *testing.T) {
	for _, size := range []int{1, 2, 4, 8} {
		p := NewPool(size)
		for _, n := range []int{0, 1, 3, 17, 256} {
			counts := make([]atomic.Int32, n)
			p.ForkJoin(n, func(i int) { counts[i].Add(1) })
			for i := range counts {
				if got := counts[i].Load(); got != 1 {
					t.Fatalf("size=%d n=%d shard %d ran %d times", size, n, i, got)
				}
			}
		}
		p.Close()
	}
}

// TestNilPoolRunsInline checks the nil pool executes shards in order on the
// calling goroutine.
func TestNilPoolRunsInline(t *testing.T) {
	var p *Pool
	if p.Size() != 1 {
		t.Fatalf("nil pool size = %d", p.Size())
	}
	var order []int
	p.ForkJoin(5, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("inline order %v", order)
		}
	}
	p.Close() // must not panic
}

// TestNestedForkJoinNoDeadlock saturates the pool with outer tasks that
// each fork inner work; the caller running its own shards, with helpers
// recruited only when idle, must keep everything moving.
func TestNestedForkJoinNoDeadlock(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var total atomic.Int64
	p.ForkJoin(16, func(outer int) {
		p.ForkJoin(16, func(inner int) {
			total.Add(1)
		})
	})
	if got := total.Load(); got != 256 {
		t.Fatalf("nested shards ran %d times, want 256", got)
	}
}

// TestBudgetNeverExceeded counts concurrently running shards and asserts
// the pool's hard budget holds even under nesting.
func TestBudgetNeverExceeded(t *testing.T) {
	const size = 4
	p := NewPool(size)
	defer p.Close()
	var cur, max atomic.Int64
	var mu sync.Mutex
	enter := func() {
		c := cur.Add(1)
		mu.Lock()
		if c > max.Load() {
			max.Store(c)
		}
		mu.Unlock()
	}
	p.ForkJoin(32, func(outer int) {
		enter()
		defer cur.Add(-1)
		p.ForkJoin(8, func(inner int) {
			enter()
			defer cur.Add(-1)
			for i := 0; i < 1000; i++ {
				_ = i * i
			}
		})
	})
	// Outer shard + its nested inner shard run on the same goroutine (the
	// caller executes its own fork-join), so one worker can hold two
	// "entered" frames at once; the budget bound on goroutines is size.
	if got := max.Load(); got > 2*size {
		t.Fatalf("observed %d concurrent frames, budget %d (max allowed %d)", got, size, 2*size)
	}
}

// rendezvous runs a two-shard ForkJoin whose shards each wait, up to a
// timeout, for the other to start, then call after. A shard that met the
// other adds to met first; both meet only when a helper ran one shard
// while the caller ran the other.
func rendezvous(p *Pool, met *atomic.Int32, after func(shard int)) {
	var arrived sync.WaitGroup
	arrived.Add(2)
	both := make(chan struct{})
	go func() {
		arrived.Wait()
		close(both)
	}()
	p.ForkJoin(2, func(shard int) {
		arrived.Done()
		select {
		case <-both:
			met.Add(1)
		case <-time.After(200 * time.Millisecond):
		}
		after(shard)
	})
}

// meets reports whether a plain rendezvous on p met.
func meets(p *Pool) bool {
	var met atomic.Int32
	rendezvous(p, &met, func(int) {})
	return met.Load() == 2
}

// untilMet retries try until one attempt reports that its shards met. A
// fresh pool's first offer can miss while its helper has not parked yet.
func untilMet(t *testing.T, what string, try func() bool) {
	t.Helper()
	for attempt := 0; attempt < 50; attempt++ {
		if try() {
			return
		}
	}
	t.Fatalf("%s: no two-shard rendezvous in 50 attempts", what)
}

// TestForkJoinShardPanics: shards that panic on the caller and on a helper
// at once come back to the caller as one *ShardPanic for the lowest-index
// shard, with its stack, after the join; the helper survives and joins a
// later rendezvous on the same pool.
func TestForkJoinShardPanics(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	untilMet(t, "warm-up", func() bool { return meets(p) })

	untilMet(t, "panicking shards", func() bool {
		var met atomic.Int32
		var got any
		func() {
			defer func() { got = recover() }()
			rendezvous(p, &met, func(shard int) { panic(fmt.Sprintf("shard %d", shard)) })
		}()
		sp, ok := got.(*ShardPanic)
		if !ok {
			t.Fatalf("recovered %#v, want a *ShardPanic", got)
		}
		if sp.Shard != 0 || sp.Value != "shard 0" {
			t.Fatalf("ShardPanic{Shard: %d, Value: %v}, want the lowest-index shard 0", sp.Shard, sp.Value)
		}
		if !bytes.Contains(sp.Stack, []byte("TestForkJoinShardPanics")) {
			t.Fatalf("ShardPanic stack does not reach the panicking shard:\n%s", sp.Stack)
		}
		return met.Load() == 2
	})

	untilMet(t, "after the panic", func() bool { return meets(p) })
}

// TestForkJoinJoinsBeforeRepanic: ForkJoin re-panics only after every
// shard has finished, whichever goroutine ran the panicking ones.
func TestForkJoinJoinsBeforeRepanic(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	const n = 8
	var finished [n]atomic.Bool
	got := func() (v any) {
		defer func() { v = recover() }()
		p.ForkJoin(n, func(shard int) {
			if shard%2 == 1 {
				panic(shard)
			}
			time.Sleep(10 * time.Millisecond)
			finished[shard].Store(true)
		})
		return nil
	}()
	sp, ok := got.(*ShardPanic)
	if !ok || sp.Shard != 1 || sp.Value != 1 {
		t.Fatalf("recovered %#v, want a *ShardPanic for shard 1", got)
	}
	for i := 0; i < n; i += 2 {
		if !finished[i].Load() {
			t.Fatalf("shard %d had not finished when ForkJoin re-panicked", i)
		}
	}
}
