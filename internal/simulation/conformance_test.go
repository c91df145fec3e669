package simulation

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"philly/internal/par"
)

// Cross-executor conformance suite: the windowed Fleet, fed from global
// context as per-VC sharding feeds it, at several lane counts and with and
// without a pool, must execute the same schedule with the same observable
// (at, seq) order as the sequential Engine. The suite replays
// deterministic edge-case schedules and randomized tie-heavy ones through
// both executors and compares:
//
//   - per-lane execution order (locals of one lane are totally ordered;
//     locals of different lanes commute by contract, so lanes are compared
//     independently),
//   - the global event sequence, with a snapshot of every lane's progress
//     at each global event — which pins each global's barrier position
//     against every lane, i.e. the full (at, seq) order of non-commuting
//     pairs,
//   - Stop/horizon semantics: processed and pending counts, and the final
//     clock where the engines define it identically.
//
// Executors with fewer lanes than the schedule's shard space fold shards
// modulo the lane count, and the Engine reference is folded the same way,
// so one schedule checks every layout.

// confChild is an event scheduled from inside a global event's callback
// (global context, so every engine accepts it): shard -1 is Global, dt is
// the offset from the parent's time (0 = a zero-duration chain).
type confChild struct {
	shard ShardID
	dt    Time
}

// confOp is one event of a conformance schedule, installed at setup.
type confOp struct {
	shard    ShardID
	at       Time
	children []confChild
	stop     bool // global events only: call Stop after recording
}

// confTrace is the observable execution record of one replay.
type confTrace struct {
	lanes     [][]string // lane 0 = globals, 1+i = folded shard i
	counts    []int      // per-folded-shard executed-event counts
	processed uint64
	pending   int
	now       Time
	stopped   bool // whether some global called Stop
	nowValid  bool // Now is comparable across engines (see replay)
}

// replay installs the schedule on ex (folding shards modulo lanes) and
// runs it to the horizon, recording per-lane execution order and, at each
// global event, a snapshot of every lane's progress.
func replay(ex Executor, sched []confOp, lanes int, horizon Time) *confTrace {
	tr := &confTrace{
		lanes:  make([][]string, lanes+1),
		counts: make([]int, lanes),
	}
	id := 0
	var install func(op confOp)
	install = func(op confOp) {
		opID := id
		id++
		if op.shard == Global {
			ex.At(op.at, func() {
				snap := fmt.Sprintf("g#%d@%v%v", opID, op.at, tr.counts)
				tr.lanes[0] = append(tr.lanes[0], snap)
				for _, ch := range op.children {
					at := ex.Now() + ch.dt
					child := confOp{shard: ch.shard, at: at}
					install(child)
				}
				if op.stop {
					tr.stopped = true
					ex.Stop()
				}
			})
			return
		}
		lane := int(op.shard) % lanes
		ex.AtShard(ShardID(lane), op.at, func() {
			tr.lanes[lane+1] = append(tr.lanes[lane+1], fmt.Sprintf("%d#%d@%v", lane, opID, op.at))
			tr.counts[lane]++
		})
	}
	for _, op := range sched {
		install(op)
	}
	ex.Run(horizon)
	tr.processed = ex.Processed()
	tr.pending = ex.Pending()
	tr.now = ex.Now()
	// The executors define the final clock identically after a full drain
	// (horizon) and after a global Stop (the stop event's time). With
	// events left pending past the horizon they legitimately differ —
	// Engine reports the last executed event, Fleet the barrier clock —
	// so Now is compared only where the contract defines it.
	tr.nowValid = tr.stopped || tr.pending == 0
	return tr
}

// confExecutors builds the executor matrix under test for a given lane
// fold: the Fleet at that lane count, with and without a real pool. The
// Engine reference is built separately per fold by the caller.
func confExecutors(t *testing.T, lanes int, pool *par.Pool) map[string]*Fleet {
	t.Helper()
	fl := NewFleet(lanes)
	flPool := NewFleet(lanes)
	flPool.SetPool(pool)
	return map[string]*Fleet{
		"fleet":      fl,
		"fleet+pool": flPool,
	}
}

// runConformance replays one schedule through the full executor matrix and
// fails on any observable divergence from the folded Engine reference.
func runConformance(t *testing.T, name string, sched []confOp, shardSpace int, horizon Time) {
	t.Helper()
	pool := par.NewPool(4)
	defer pool.Close()
	for _, lanes := range []int{1, 2, shardSpace} {
		if lanes < 1 {
			continue
		}
		want := replay(NewEngine(), sched, lanes, horizon)
		for ename, ex := range confExecutors(t, lanes, pool) {
			got := replay(ex, sched, lanes, horizon)
			if !reflect.DeepEqual(want.lanes, got.lanes) {
				t.Fatalf("%s: %s lanes=%d: execution order diverged\nengine: %v\n%s: %v",
					name, ename, lanes, want.lanes, ename, got.lanes)
			}
			if want.processed != got.processed || want.pending != got.pending {
				t.Fatalf("%s: %s lanes=%d: processed/pending = %d/%d, want %d/%d",
					name, ename, lanes, got.processed, got.pending, want.processed, want.pending)
			}
			if want.nowValid && got.now != want.now {
				t.Fatalf("%s: %s lanes=%d: Now = %v, want %v", name, ename, lanes, got.now, want.now)
			}
		}
	}
}

// confDigest is the compressed observable record of one replay: an FNV-1a
// accumulator per lane instead of replay's per-event strings, so schedules
// with millions of events fit in memory. Lane 0 digests the global
// sequence and, at every global event, every lane's executed-event count —
// the same barrier-position pinning replay gets from its snapshots.
type confDigest struct {
	lanes     []uint64
	processed uint64
	pending   int
	now       Time
}

const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// fnvMix folds one 64-bit value into an FNV-1a accumulator byte by byte.
func fnvMix(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}

// replayDigest is replay with hashed lanes: same install semantics (shards
// fold modulo lanes, children install from global context), same disjoint-
// state discipline (a local writes only its own lane's accumulator and
// count, globals read all counts at a barrier), O(1) memory per event.
func replayDigest(ex Executor, sched []confOp, lanes int, horizon Time) *confDigest {
	d := &confDigest{lanes: make([]uint64, lanes+1)}
	for i := range d.lanes {
		d.lanes[i] = fnvOffset
	}
	counts := make([]int, lanes)
	id := 0
	var install func(op confOp)
	install = func(op confOp) {
		opID := uint64(id)
		id++
		if op.shard == Global {
			ex.At(op.at, func() {
				h := fnvMix(d.lanes[0], opID)
				for _, c := range counts {
					h = fnvMix(h, uint64(c))
				}
				d.lanes[0] = h
				for _, ch := range op.children {
					install(confOp{shard: ch.shard, at: ex.Now() + ch.dt})
				}
			})
			return
		}
		lane := int(op.shard) % lanes
		ex.AtShard(ShardID(lane), op.at, func() {
			d.lanes[lane+1] = fnvMix(d.lanes[lane+1], opID)
			counts[lane]++
		})
	}
	for _, op := range sched {
		install(op)
	}
	ex.Run(horizon)
	d.processed = ex.Processed()
	d.pending = ex.Pending()
	d.now = ex.Now()
	return d
}

// TestConformanceMillionEventSchedule replays one synthetic million-event
// schedule — tie-heavy (~32 events per instant), ~6% globals, a fraction
// of which fan out zero-and-short-delay children — through the same executor
// matrix as the small suites, comparing lane digests instead of traces.
// This is the scale leg: barrier batching, the drain's same-instant split
// and per-lane heap growth only meet their steady state after hundreds of
// thousands of events. Gated behind -short; run it under -race to check
// the pool discipline at scale.
func TestConformanceMillionEventSchedule(t *testing.T) {
	if testing.Short() {
		t.Skip("the million-event conformance leg is not a -short test")
	}
	const (
		nOps       = 1_000_000
		shardSpace = 4
		span       = nOps / 32
	)
	r := rand.New(rand.NewPCG(99, 0x9e3779b97f4a7c15))
	sched := make([]confOp, 0, nOps)
	for i := 0; i < nOps; i++ {
		op := confOp{at: Time(r.IntN(span))}
		if r.IntN(16) == 0 {
			op.shard = Global
			if r.IntN(4) == 0 {
				for c := 1 + r.IntN(3); c > 0; c-- {
					ch := confChild{shard: ShardID(r.IntN(shardSpace)), dt: Time(r.IntN(3))}
					if r.IntN(4) == 0 {
						ch.shard = Global
					}
					op.children = append(op.children, ch)
				}
			}
		} else {
			op.shard = ShardID(r.IntN(shardSpace))
		}
		sched = append(sched, op)
	}
	// Children land at most 2 ticks after a parent at span-1, so this
	// horizon drains everything: pending must come out 0 on every engine.
	const horizon = Time(span + 3)

	pool := par.NewPool(4)
	defer pool.Close()
	for _, lanes := range []int{1, 2, shardSpace} {
		want := replayDigest(NewEngine(), sched, lanes, horizon)
		if want.processed < nOps {
			t.Fatalf("lanes=%d: reference processed %d events, want >= %d", lanes, want.processed, nOps)
		}
		if want.pending != 0 {
			t.Fatalf("lanes=%d: reference left %d events pending before the horizon", lanes, want.pending)
		}
		for ename, ex := range confExecutors(t, lanes, pool) {
			got := replayDigest(ex, sched, lanes, horizon)
			if !reflect.DeepEqual(want.lanes, got.lanes) {
				t.Fatalf("%s lanes=%d: lane digests diverged\nengine: %x\n%s: %x",
					ename, lanes, want.lanes, ename, got.lanes)
			}
			if want.processed != got.processed || want.pending != got.pending {
				t.Fatalf("%s lanes=%d: processed/pending = %d/%d, want %d/%d",
					ename, lanes, got.processed, got.pending, want.processed, want.pending)
			}
			if got.now != want.now {
				t.Fatalf("%s lanes=%d: Now = %v, want %v", ename, lanes, got.now, want.now)
			}
			if st := ex.Stats(); st.Barriers == 0 || st.Barriers > st.GlobalEvents {
				t.Fatalf("%s lanes=%d: Barriers = %d with %d globals", ename, lanes, st.Barriers, st.GlobalEvents)
			}
		}
	}
}

// TestConformanceEdgeSchedules replays hand-built schedules covering the
// contract's edges: exact-time ties between locals and globals, Stop in
// the middle of a multi-shard window, zero-duration event chains, and
// events exactly at and beyond the horizon.
func TestConformanceEdgeSchedules(t *testing.T) {
	cases := []struct {
		name       string
		sched      []confOp
		shardSpace int
		horizon    Time
	}{
		{
			name: "tie-heavy",
			sched: []confOp{
				{shard: 0, at: 5}, {shard: 1, at: 5}, {shard: Global, at: 5},
				{shard: 0, at: 5}, {shard: 2, at: 5}, {shard: Global, at: 5},
				{shard: 1, at: 5}, {shard: 3, at: 5},
			},
			shardSpace: 4, horizon: 10,
		},
		{
			name: "stop-mid-window",
			sched: []confOp{
				{shard: 0, at: 1}, {shard: 1, at: 2}, {shard: 2, at: 3},
				{shard: Global, at: 4, stop: true},
				{shard: 0, at: 4}, {shard: 1, at: 5}, {shard: Global, at: 6},
				{shard: 2, at: 7},
			},
			shardSpace: 3, horizon: 20,
		},
		{
			name: "zero-duration-chains",
			sched: []confOp{
				{shard: Global, at: 3, children: []confChild{
					{shard: 0, dt: 0}, {shard: Global, dt: 0}, {shard: 1, dt: 0},
				}},
				{shard: 0, at: 3}, {shard: 1, at: 3},
				{shard: Global, at: 3, children: []confChild{{shard: 2, dt: 2}}},
			},
			shardSpace: 3, horizon: 10,
		},
		{
			name: "horizon-edges",
			sched: []confOp{
				{shard: 0, at: 10}, {shard: Global, at: 10}, {shard: 1, at: 10},
				{shard: 0, at: 11}, {shard: Global, at: 11}, // beyond horizon: stay pending
			},
			shardSpace: 2, horizon: 10,
		},
		{
			name: "empty-schedule",
			sched: []confOp{
				{shard: Global, at: 15}, // beyond horizon
			},
			shardSpace: 2, horizon: 10,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			runConformance(t, tc.name, tc.sched, tc.shardSpace, tc.horizon)
		})
	}
}

// TestConformanceOutageSchedules replays outage-shaped schedules through
// the executor matrix: core's outage engine runs a begin event (a global
// that mass-kills and requeues, i.e. fans out same-instant work) paired
// with a later repair global, with shard-local activity landing at the
// same instants. The suite pins the (at, seq) order of exactly these
// shapes — same-instant mass kills, overlapping outage windows, and a
// repair tied with local events — so retry-budget accounting downstream
// cannot depend on which engine ran the schedule.
func TestConformanceOutageSchedules(t *testing.T) {
	cases := []struct {
		name       string
		sched      []confOp
		shardSpace int
		horizon    Time
	}{
		{
			// One cluster-wide outage: the begin global fans out a kill
			// chain (zero-dt globals, the Release+Submit pump) while every
			// shard has local work at the outage instant; the repair global
			// lands later and fans out its own pump.
			name: "mass-kill",
			sched: []confOp{
				{shard: 0, at: 4}, {shard: 1, at: 4}, {shard: 2, at: 4}, {shard: 3, at: 4},
				{shard: Global, at: 4, children: []confChild{
					{shard: Global, dt: 0}, {shard: Global, dt: 0},
					{shard: 0, dt: 0}, {shard: 1, dt: 0},
				}},
				{shard: Global, at: 7, children: []confChild{
					{shard: Global, dt: 0}, {shard: 2, dt: 0},
				}},
				{shard: 2, at: 7}, {shard: 3, at: 7},
			},
			shardSpace: 4, horizon: 12,
		},
		{
			// Overlapping windows: a rack outage begins inside a cluster
			// outage, and the two repairs tie at the same instant — the
			// 0→1/1→0 hold transitions must see the same order everywhere.
			name: "overlapping-windows",
			sched: []confOp{
				{shard: Global, at: 2, children: []confChild{{shard: 0, dt: 0}, {shard: 1, dt: 0}}},
				{shard: Global, at: 3, children: []confChild{{shard: Global, dt: 0}}},
				{shard: Global, at: 6, children: []confChild{{shard: 0, dt: 0}}}, // repair A
				{shard: Global, at: 6, children: []confChild{{shard: 1, dt: 0}}}, // repair B, same instant
				{shard: 0, at: 6}, {shard: 1, at: 6}, {shard: 2, at: 6},
			},
			shardSpace: 3, horizon: 10,
		},
		{
			// Same-instant begins on different domains plus locals on every
			// shard: the plan-order scheduling at Arm must tie-break
			// identically across engines.
			name: "simultaneous-begins",
			sched: []confOp{
				{shard: Global, at: 5, children: []confChild{{shard: 0, dt: 0}}},
				{shard: Global, at: 5, children: []confChild{{shard: 1, dt: 0}}},
				{shard: Global, at: 5, children: []confChild{{shard: 2, dt: 0}, {shard: Global, dt: 1}}},
				{shard: 0, at: 5}, {shard: 1, at: 5}, {shard: 2, at: 5}, {shard: 3, at: 5},
				{shard: 0, at: 6}, {shard: 3, at: 6},
			},
			shardSpace: 4, horizon: 10,
		},
		{
			// An outage whose repair would land beyond the horizon: the
			// begin fires, the repair stays pending — core skips scheduling
			// repairs past the horizon, but the engines must agree on the
			// pending count when one is installed anyway.
			name: "repair-past-horizon",
			sched: []confOp{
				{shard: Global, at: 8, children: []confChild{{shard: 0, dt: 0}, {shard: 1, dt: 0}}},
				{shard: Global, at: 15}, // repair beyond horizon: stays pending
				{shard: 0, at: 9}, {shard: 1, at: 9},
			},
			shardSpace: 2, horizon: 10,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			runConformance(t, tc.name, tc.sched, tc.shardSpace, tc.horizon)
		})
	}
}

// TestConformanceRandomSchedules replays randomized tie-heavy schedules —
// timestamps drawn from a tiny range so simultaneous events dominate,
// global events that fan out zero-and-short-delay children, and an
// occasional mid-run Stop — through the full executor matrix. Seeds are
// fixed: every run replays the same 24 schedules.
func TestConformanceRandomSchedules(t *testing.T) {
	const shardSpace = 4
	for seed := uint64(0); seed < 24; seed++ {
		r := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
		nOps := 12 + r.IntN(20)
		sched := make([]confOp, 0, nOps)
		for i := 0; i < nOps; i++ {
			op := confOp{at: Time(r.IntN(9))}
			if r.IntN(10) < 3 {
				op.shard = Global
				for c := r.IntN(4); c > 0; c-- {
					ch := confChild{shard: ShardID(r.IntN(shardSpace)), dt: Time(r.IntN(3))}
					if r.IntN(4) == 0 {
						ch.shard = Global
					}
					op.children = append(op.children, ch)
				}
				// One schedule in three stops somewhere mid-run.
				if seed%3 == 0 && r.IntN(8) == 0 {
					op.stop = true
				}
			} else {
				op.shard = ShardID(r.IntN(shardSpace))
			}
			sched = append(sched, op)
		}
		horizon := Time(6 + r.IntN(6))
		runConformance(t, fmt.Sprintf("seed=%d", seed), sched, shardSpace, horizon)
	}
}
