package simulation

import (
	"fmt"
	"reflect"
	"testing"

	"philly/internal/par"
)

// TestFleetMemberSelfScheduling pins the capability that separates a
// federation member from a sharded lane: a member callback may schedule
// onto its own member — the
// causal chains a cluster driver needs — and the lane executes in exactly
// the sequential FIFO order, including zero-delay chains, for any pool.
func TestFleetMemberSelfScheduling(t *testing.T) {
	for _, workers := range []int{0, 4} {
		f := NewFleet(2)
		var pool *par.Pool
		if workers > 0 {
			pool = par.NewPool(workers)
			defer pool.Close()
			f.SetPool(pool)
		}
		m0, m1 := f.Member(0), f.Member(1)
		var got []string
		m0.At(1, func() {
			got = append(got, "a@1")
			m0.At(1, func() { got = append(got, "b@1") }) // zero-duration chain
			m0.After(2, func() { got = append(got, "c@3") })
			m0.Ticker(5, 5, func(now Time) bool {
				got = append(got, "tick")
				return now < 10
			})
		})
		// Keep the other member busy so windows genuinely fork.
		m1.At(1, func() {})
		m1.At(6, func() {})
		f.Run(20)
		want := []string{"a@1", "b@1", "c@3", "tick", "tick"}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: order = %v, want %v", workers, got, want)
		}
		if m0.Processed() != 5 {
			t.Fatalf("member 0 processed %d events, want 5", m0.Processed())
		}
	}
}

// TestFleetMemberStopIsLocal checks that a member stopping itself freezes
// only its own lane — remaining events stay pending, its clock holds —
// while the fleet and other members run on.
func TestFleetMemberStopIsLocal(t *testing.T) {
	f := NewFleet(2)
	m0, m1 := f.Member(0), f.Member(1)
	ran := map[string]bool{}
	m0.At(2, func() {
		ran["m0-pre"] = true
		m0.Stop()
	})
	m0.At(5, func() { ran["m0-post"] = true })
	m1.At(7, func() { ran["m1"] = true })
	f.At(9, func() { ran["global"] = true })
	f.Run(10)
	if !ran["m0-pre"] || ran["m0-post"] {
		t.Fatalf("member stop did not freeze its own lane: %v", ran)
	}
	if !ran["m1"] || !ran["global"] {
		t.Fatalf("member stop leaked into the fleet: %v", ran)
	}
	if !m0.Stopped() || m1.Stopped() {
		t.Fatal("Stopped() flags wrong")
	}
	if m0.Now() != 2 {
		t.Fatalf("stopped member clock = %v, want 2", m0.Now())
	}
	if m0.Pending() != 1 {
		t.Fatalf("stopped member pending = %d, want 1", m0.Pending())
	}
	if m1.Now() != 10 {
		t.Fatalf("drained member clock = %v, want horizon 10", m1.Now())
	}
}

// TestFleetMemberHorizon checks per-member horizons: a member's events
// past its own horizon stay pending even though the fleet runs longer, and
// a drained member's clock settles exactly at its horizon — the standalone
// Engine.Run semantics a member study's SimEnd depends on.
func TestFleetMemberHorizon(t *testing.T) {
	f := NewFleet(2)
	m0, m1 := f.Member(0), f.Member(1)
	m0.SetHorizon(5)
	var m0Ran, m1Ran int
	m0.At(4, func() { m0Ran++ })
	m0.At(6, func() { m0Ran++ }) // past the member horizon: must stay pending
	m1.At(8, func() { m1Ran++ })
	f.Run(10)
	if m0Ran != 1 || m1Ran != 1 {
		t.Fatalf("ran = %d/%d, want 1/1", m0Ran, m1Ran)
	}
	if m0.Pending() != 1 {
		t.Fatalf("member 0 pending = %d, want 1", m0.Pending())
	}
	// With an event still pending the member clock stays at the last
	// executed event, exactly like Engine.Run.
	if m0.Now() != 4 {
		t.Fatalf("member 0 clock = %v, want 4", m0.Now())
	}

	// Fully drained under its horizon: the clock settles at the horizon.
	f2 := NewFleet(1)
	m := f2.Member(0)
	m.SetHorizon(5)
	m.At(2, func() {})
	f2.Run(10)
	if m.Now() != 5 {
		t.Fatalf("drained member clock = %v, want member horizon 5", m.Now())
	}
}

// TestFleetContractPanics enforces the federation barrier contract: fleet
// scheduling and Stop from member callbacks panic, as does touching
// another member's view from inside a member callback.
func TestFleetContractPanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func(f *Fleet)
	}{
		{"fleet At", func(f *Fleet) { f.At(10, func() {}) }},
		{"fleet AtShard", func(f *Fleet) { f.AtShard(1, 10, func() {}) }},
		{"fleet Stop", func(f *Fleet) { f.Stop() }},
		{"cross-member At", func(f *Fleet) { f.Member(1).At(10, func() {}) }},
		{"cross-member Stop", func(f *Fleet) { f.Member(1).Stop() }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := NewFleet(2)
			panicked := false
			f.Member(0).At(1, func() {
				defer func() {
					if recover() != nil {
						panicked = true
					}
				}()
				tc.fn(f)
			})
			f.Run(5)
			if !panicked {
				t.Fatalf("%s from a member callback did not panic", tc.name)
			}
		})
	}
}

// TestFleetGlobalMayTouchMembers pins the sanctioned path: barrier events
// scheduling onto member lanes and stopping members, with the injected
// events landing after the barrier at the same instant (they were created
// by it) and in FIFO order.
func TestFleetGlobalMayTouchMembers(t *testing.T) {
	f := NewFleet(2)
	m0, m1 := f.Member(0), f.Member(1)
	var order []string
	m0.At(5, func() { order = append(order, "m0-before") })
	f.At(5, func() {
		order = append(order, "barrier")
		m0.At(5, func() { order = append(order, "m0-injected") })
		m1.At(5, func() { order = append(order, "m1-injected") })
	})
	f.At(7, func() { m1.Stop() })
	m1.At(9, func() { order = append(order, "m1-after-stop") })
	f.Run(10)
	want := []string{"m0-before", "barrier", "m0-injected", "m1-injected"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	if !m1.Stopped() {
		t.Fatal("member 1 not stopped by the barrier event")
	}
}

// TestFleetMemberRunPanics: members are driven by the coordinator only.
func TestFleetMemberRunPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Member.Run did not panic")
		}
	}()
	NewFleet(1).Member(0).Run(10)
}

// TestFleetPastSchedulingPanics mirrors the Engine's guards on both the
// fleet and member surfaces, including the member's own clock.
func TestFleetPastSchedulingPanics(t *testing.T) {
	f := NewFleet(1)
	m := f.Member(0)
	m.At(8, func() {})
	f.At(10, func() {})
	f.Run(20)
	for name, fn := range map[string]func(){
		"fleet At":  func() { f.At(5, func() {}) },
		"member At": func() { m.At(7, func() {}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s in the past did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestFleetAtShardBehindBarrierPanics: a lane's clock trails the barrier
// clock while the lane is idle, so AtShard must also check the barrier
// clock — an event accepted behind it would later run in the past.
func TestFleetAtShardBehindBarrierPanics(t *testing.T) {
	f := NewFleet(1)
	panicked := false
	f.At(10, func() {
		defer func() { panicked = recover() != nil }()
		f.AtShard(0, 5, func() { t.Error("an event behind the barrier clock ran") })
	})
	f.Run(20)
	if !panicked {
		t.Fatal("AtShard behind the barrier clock did not panic")
	}
}

// TestFleetWindowStats checks the deterministic window accounting over a
// schedule that genuinely forks members inside one window.
func TestFleetWindowStats(t *testing.T) {
	f := NewFleet(3)
	f.Member(0).At(1, func() {})
	f.Member(1).At(2, func() {})
	f.At(5, func() {})
	f.Member(2).At(7, func() {})
	f.Run(10)
	st := f.Stats()
	if st.Windows != 2 || st.MultiShardWindows != 1 || st.MaxShardsInWindow != 2 || st.Barriers != 1 {
		t.Fatalf("window stats = %+v", st)
	}
	if st.LocalEvents != 3 || st.GlobalEvents != 1 {
		t.Fatalf("event split = %d/%d, want 3/1", st.LocalEvents, st.GlobalEvents)
	}
	if f.Processed() != 4 {
		t.Fatalf("Processed = %d, want 4", f.Processed())
	}
}

// schedOp is one scheduling instruction for the equivalence harness: at
// setup (or inside global event gi's callback when from >= 0), schedule an
// event on the given shard (Global for a barrier event) at time at.
type schedOp struct {
	shard ShardID
	at    Time
}

// buildTrace runs the given schedule on an Executor and records execution
// as "shard@time:idx" strings, one lane per shard (lane 0 is Global).
// Local events of different shards commute by contract, so comparing the
// per-shard lanes — not one interleaved list — is exactly the equivalence
// per-VC sharding promises. Each event appends only to its own shard's
// lane, respecting the disjoint-state rule under a real pool.
func buildTrace(ex Executor, ops []schedOp, lanes int, horizon Time) [][]string {
	trace := make([][]string, lanes)
	for i, op := range ops {
		i, op := i, op
		lane := int(op.shard) + 1 // Global = -1 -> lane 0
		if op.shard == Global {
			ex.At(op.at, func() {
				trace[lane] = append(trace[lane], fmt.Sprintf("g@%v:%d", op.at, i))
			})
		} else {
			ex.AtShard(op.shard, op.at, func() {
				trace[lane] = append(trace[lane], fmt.Sprintf("%d@%v:%d", op.shard, op.at, i))
			})
		}
	}
	ex.Run(horizon)
	return trace
}

// The TestSharded* cases below pin per-VC sharding: a Fleet whose lanes are
// fed only from global context, through AtShard.

// TestShardedMatchesEngineOrder pins the core equivalence: for a schedule
// mixing local and global events (including exact time ties), a sharded
// Fleet must execute each shard's locals in the same relative order as the
// sequential engine, and the global sequence identically. Local events of
// different shards may interleave differently — that is the whole point —
// so traces are compared per shard.
func TestShardedMatchesEngineOrder(t *testing.T) {
	// A deliberately tie-heavy schedule: globals and locals at the same
	// instants, multiple shards, an event exactly at the horizon.
	ops := []schedOp{
		{0, 5}, {1, 5}, {Global, 5}, {0, 5}, // ties at t=5 across kinds
		{Global, 10}, {1, 7}, {0, 12}, {2, 3},
		{Global, 12}, {2, 12}, {1, 12}, {Global, 20},
		{0, 20}, {2, 20}, // at the horizon
		{1, 21}, // beyond the horizon: must not run
	}
	const horizon = Time(20)
	const lanes = 4 // Global + shards 0..2

	want := buildTrace(NewEngine(), ops, lanes, horizon)
	for _, workers := range []int{0, 4} {
		s := NewFleet(3)
		var pool *par.Pool
		if workers > 0 {
			pool = par.NewPool(workers)
			defer pool.Close()
			s.SetPool(pool)
		}
		got := buildTrace(s, ops, lanes, horizon)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("workers=%d: trace diverged\nwant %v\ngot  %v", workers, want, got)
		}
	}
}

// TestShardedBarrierOrdersLocalsAgainstGlobals checks the (at, seq) barrier
// rule at a shared instant: a local scheduled before a same-time global
// runs before it, one scheduled after runs after it — exactly the
// sequential tie-break.
func TestShardedBarrierOrdersLocalsAgainstGlobals(t *testing.T) {
	s := NewFleet(2)
	var order []string
	s.AtShard(0, 10, func() { order = append(order, "local-before") })
	s.At(10, func() { order = append(order, "global") })
	s.AtShard(0, 10, func() { order = append(order, "local-after") })
	s.Run(20)
	want := []string{"local-before", "global", "local-after"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

// TestShardedWindowStats checks the deterministic concurrency accounting
// when lanes are fed through AtShard: two shards with events inside one
// window must be reported as a multi-shard window.
func TestShardedWindowStats(t *testing.T) {
	s := NewFleet(3)
	s.AtShard(0, 1, func() {})
	s.AtShard(1, 2, func() {})
	s.At(5, func() {})
	s.AtShard(2, 7, func() {})
	s.Run(10)
	st := s.Stats()
	if st.MultiShardWindows != 1 {
		t.Fatalf("MultiShardWindows = %d, want 1", st.MultiShardWindows)
	}
	if st.MaxShardsInWindow != 2 {
		t.Fatalf("MaxShardsInWindow = %d, want 2", st.MaxShardsInWindow)
	}
	if st.LocalEvents != 3 || st.GlobalEvents != 1 {
		t.Fatalf("event split = %d local / %d global, want 3/1", st.LocalEvents, st.GlobalEvents)
	}
	if s.Processed() != 4 {
		t.Fatalf("Processed = %d, want 4", s.Processed())
	}
}

// TestShardedBatchedBarrierDrain pins the batched-drain accounting on a
// tie-heavy replay-style schedule: a storm of same-instant global events
// with no shard event ordered between them executes in ONE barrier drain
// cycle (Barriers counts synchronizations, not global events), and the
// storm adds no windows of its own.
func TestShardedBatchedBarrierDrain(t *testing.T) {
	s := NewFleet(2)
	ran := 0
	s.AtShard(0, 5, func() {})
	for i := 0; i < 50; i++ {
		s.At(10, func() { ran++ })
	}
	s.AtShard(1, 15, func() {})
	for i := 0; i < 30; i++ {
		s.At(20, func() { ran++ })
	}
	s.Run(30)
	st := s.Stats()
	if ran != 80 || st.GlobalEvents != 80 {
		t.Fatalf("executed %d globals, stats %d, want 80", ran, st.GlobalEvents)
	}
	if st.Barriers != 2 {
		t.Fatalf("Barriers = %d, want 2 (one per storm)", st.Barriers)
	}
	if st.Windows != 2 {
		t.Fatalf("Windows = %d, want 2 (storms add no zero-width windows)", st.Windows)
	}
	if st.LocalEvents != 2 {
		t.Fatalf("LocalEvents = %d, want 2", st.LocalEvents)
	}
}

// TestShardedSameInstantTieSplitsDrain checks the drain's ordering guard:
// a shard-local event scheduled BETWEEN two same-instant globals carries a
// seq between theirs, so the drain must stop for it — batching never
// reorders the sequential (at, seq) execution.
func TestShardedSameInstantTieSplitsDrain(t *testing.T) {
	s := NewFleet(2)
	var order []string
	s.At(10, func() { order = append(order, "g1") })
	s.AtShard(0, 10, func() { order = append(order, "local") })
	s.At(10, func() { order = append(order, "g2") })
	s.Run(20)
	want := []string{"g1", "local", "g2"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	if st := s.Stats(); st.Barriers != 2 {
		t.Fatalf("Barriers = %d, want 2 (the tie splits the drain)", st.Barriers)
	}
}

// TestShardedSchedulingFromLocalPanics enforces the window-merge contract:
// a local callback that schedules (or stops) would make the event order
// depend on thread timing, so the Fleet must reject it loudly.
func TestShardedSchedulingFromLocalPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		fn   func(s *Fleet)
	}{
		{"At", func(s *Fleet) { s.At(10, func() {}) }},
		{"AtShard", func(s *Fleet) { s.AtShard(0, 10, func() {}) }},
		{"Stop", func(s *Fleet) { s.Stop() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewFleet(2)
			panicked := false
			s.AtShard(0, 1, func() {
				defer func() {
					if recover() != nil {
						panicked = true
					}
				}()
				tc.fn(s)
			})
			s.Run(5)
			if !panicked {
				t.Fatalf("%s from a local callback did not panic", tc.name)
			}
		})
	}
}

// TestShardedGlobalMayScheduleLocals checks the sanctioned path: global
// events scheduling future local and global work, with the clock and
// horizon semantics of the sequential engine.
func TestShardedGlobalMayScheduleLocals(t *testing.T) {
	s := NewFleet(2)
	var ran []string
	s.At(5, func() {
		s.AtShard(1, 8, func() { ran = append(ran, "local") })
		s.After(10, func() { ran = append(ran, "global") })
	})
	n := s.Run(100)
	if n != 3 {
		t.Fatalf("Run executed %d events, want 3", n)
	}
	if !reflect.DeepEqual(ran, []string{"local", "global"}) {
		t.Fatalf("ran = %v", ran)
	}
	if s.Now() != 100 {
		t.Fatalf("drained clock = %v, want horizon 100", s.Now())
	}
}

// TestShardedStop checks that Stop from a global event halts the loop and
// leaves later work pending, like Engine.Stop.
func TestShardedStop(t *testing.T) {
	s := NewFleet(2)
	ran := 0
	s.AtShard(0, 1, func() { ran++ })
	s.At(5, func() { s.Stop() })
	s.AtShard(1, 7, func() { ran++ })
	s.Run(100)
	if ran != 1 {
		t.Fatalf("ran = %d locals, want 1 (post-Stop local must stay pending)", ran)
	}
	if s.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", s.Pending())
	}
	if s.Now() != 5 {
		t.Fatalf("Now = %v, want 5 (stopped clock must not advance to horizon)", s.Now())
	}
}

// TestShardedPastSchedulingPanics mirrors the Engine's past-scheduling
// guard on both the global and shard paths after a drained run.
func TestShardedPastSchedulingPanics(t *testing.T) {
	s := NewFleet(1)
	s.At(10, func() {})
	s.Run(20)
	for _, fn := range []func(){
		func() { s.At(5, func() {}) },
		func() { s.AtShard(0, 5, func() {}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("scheduling in the past did not panic")
				}
			}()
			fn()
		}()
	}
}
