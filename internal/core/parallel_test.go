package core

import (
	"reflect"
	"testing"

	"philly/internal/par"
	"philly/internal/scheduler"
)

// parallelConfig is SmallConfig with three times the servers and VC
// quotas: enough load for every VC lane and the speculative placement
// path, while staying fast enough to run ~30 times in this test file.
func parallelConfig() Config {
	cfg := SmallConfig()
	for i := range cfg.Cluster.Racks {
		cfg.Cluster.Racks[i].Servers *= 3
	}
	for i := range cfg.Workload.VCs {
		cfg.Workload.VCs[i].QuotaGPUs *= 3
	}
	cfg.Workload.TotalJobs = 1000
	cfg.Workload.Duration = SmallConfig().Workload.Duration / 4
	return cfg
}

// runWithPool executes one study over a pool of the given size (0 = no
// pool: the pure sequential engine). It returns the result and the study
// for white-box inspection.
func runWithPool(t *testing.T, cfg Config, workers int) (*StudyResult, *Study) {
	t.Helper()
	st, err := NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var pool *par.Pool
	if workers > 0 {
		pool = par.NewPool(workers)
		defer pool.Close()
		st.SetPool(pool)
	}
	res, err := st.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res, st
}

// runShardedWithPool executes one study with per-VC event sharding over a
// pool of the given size (0 = no pool).
func runShardedWithPool(t *testing.T, cfg Config, workers int) (*StudyResult, *Study) {
	t.Helper()
	st, err := NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st.ShardEvents()
	if workers > 0 {
		pool := par.NewPool(workers)
		defer pool.Close()
		st.SetPool(pool)
	}
	res, err := st.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res, st
}

// TestWorkerCountInvariance is the tentpole's hard bar: the full-precision
// StudyResult — every float in every job record, every histogram bucket and
// sum, every occupancy sample — must be bit-identical across
//
//   - intra-study worker counts 1, 2, 4 and 8 on the sequential engine, and
//   - per-VC event sharding at worker counts 1 and 4,
//
// all against the sequential no-pool engine, for 3 seeds × 2 policies.
// reflect.DeepEqual compares unexported recorder state too, so this is
// strictly stronger than hashing a rendered report.
//
// On the sequential engine the pool carries the scheduler's speculative
// candidate searches; workers=1 runs them inline on one goroutine, workers
// ≥ 2 adds real concurrency (and, under make check, the race detector).
// The sharded legs additionally pin the window merge: shard-local prepare
// steps interleave differently across VC lanes than the sequential event
// order, and the result must not care. The telemetry walk is sequential on
// every leg; TestStudyOutputGolden in the root package pins its fold order.
func TestWorkerCountInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run invariance matrix is not a -short test")
	}
	cfg := parallelConfig()
	for _, policy := range []scheduler.Policy{scheduler.PolicyPhilly, scheduler.PolicyFIFO} {
		for _, seed := range []uint64{1, 7, 42} {
			cfg.Scheduler.Policy = policy
			cfg.Seed = seed
			seq, _ := runWithPool(t, cfg, 0)
			// The speculative placement path is on by default and its
			// counters are part of the compared result, so the matrix
			// below also pins their worker/shard invariance — provided the
			// workload actually speculates.
			if seq.Sched.SpeculativeCommits == 0 {
				t.Fatalf("policy=%v seed=%d: no speculative placement commits", policy, seed)
			}
			for _, workers := range []int{1, 2, 4, 8} {
				res, _ := runWithPool(t, cfg, workers)
				if !reflect.DeepEqual(seq, res) {
					diffStudyResults(t, seq, res)
					t.Fatalf("policy=%v seed=%d workers=%d diverged from sequential engine",
						policy, seed, workers)
				}
			}
			// Sharded-event legs, with and without real pool concurrency.
			for _, workers := range []int{1, 4} {
				res, st := runShardedWithPool(t, cfg, workers)
				if !reflect.DeepEqual(seq, res) {
					diffStudyResults(t, seq, res)
					t.Fatalf("policy=%v seed=%d sharded workers=%d diverged from sequential engine",
						policy, seed, workers)
				}
				ws := st.WindowStats()
				if ws.LocalEvents == 0 {
					t.Fatal("no events ran on the VC lanes")
				}
				// White-box guard: the window merge must actually batch
				// multiple VC lanes into single windows — lanes advancing
				// concurrently in virtual time — or the sharded path under
				// test degenerated to a serialized replay. The counter is
				// deterministic (a function of the event schedule, not of
				// thread timing), so an exact zero is a real regression.
				if ws.MultiShardWindows == 0 {
					t.Fatalf("policy=%v seed=%d: no window advanced multiple VC lanes",
						policy, seed)
				}
			}
		}
	}
}

// TestMillionEventInvariance is TestWorkerCountInvariance at engine scale:
// one saturated study processing over a million events (16000 jobs arriving
// at the small matrix's load factor, so deep queues, preemption churn and
// telemetry ticks all contribute), bit-compared with per-VC event sharding
// at workers {1, 2, 4} against the sequential no-pool reference. The small matrix catches logic divergence;
// this leg exists for scale-dependent failure modes — arena growth, the
// batched arrival/barrier drains, attempt-slice recycling and running-set
// compaction only hit their steady state after thousands of jobs. One seed
// and one policy: the schedule variety comes from volume here, the small
// matrix covers the config space.
func TestMillionEventInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("the million-event invariance matrix is not a -short test")
	}
	cfg := parallelConfig()
	// Hold the arrival rate at 5000 jobs per parallelConfig duration — a
	// saturating load where queue churn, preemption and telemetry ticks
	// together cross a million events at 16000 jobs (calibrated: ~1.11M)
	// without the super-linear queue-scan blowup of packing the same jobs
	// into the small config's window.
	cfg.Workload.Duration = cfg.Workload.Duration / 5000 * 16000
	cfg.Workload.TotalJobs = 16000
	cfg.Seed = 42

	seq, seqStudy := runWithPool(t, cfg, 0)
	if p := seqStudy.engine.Processed(); p < 1_000_000 {
		t.Fatalf("reference run processed %d events, want >= 1e6 (recalibrate the config)", p)
	}
	if seq.Sched.SpeculativeCommits == 0 || seq.Sched.CacheShortCircuits == 0 {
		t.Fatalf("saturated run did not exercise the cached/speculative paths: %+v", seq.Sched)
	}
	cells := []int{1, 2, 4}
	if raceDetectorOn {
		// Under the race detector each million-event run costs minutes, not
		// seconds. Race coverage wants concurrency shapes, not config
		// breadth — keep the two concurrent cells at full event volume and
		// leave the workers=1 DeepEqual leg to the plain run.
		cells = []int{2, 4}
	}
	for _, workers := range cells {
		res, st := runShardedWithPool(t, cfg, workers)
		if !reflect.DeepEqual(seq, res) {
			diffStudyResults(t, seq, res)
			t.Fatalf("sharded workers=%d diverged from sequential engine at scale", workers)
		}
		ws := st.WindowStats()
		if ws.Barriers == 0 || ws.Barriers > ws.GlobalEvents {
			t.Fatalf("workers=%d: Barriers = %d with %d globals — batched drain accounting broke",
				workers, ws.Barriers, ws.GlobalEvents)
		}
	}
}

// diffStudyResults narrows a DeepEqual failure to the first diverging part.
func diffStudyResults(t *testing.T, a, b *StudyResult) {
	t.Helper()
	for i := range a.Jobs {
		if i < len(b.Jobs) && !reflect.DeepEqual(a.Jobs[i], b.Jobs[i]) {
			t.Errorf("first diverging job %d:\n%+v\nvs\n%+v", a.Jobs[i].Spec.ID, a.Jobs[i], b.Jobs[i])
			return
		}
	}
	if !reflect.DeepEqual(a.Telemetry, b.Telemetry) {
		t.Errorf("telemetry recorders diverged")
	}
	if !reflect.DeepEqual(a.OccupancySamples, b.OccupancySamples) {
		t.Errorf("occupancy series diverged")
	}
	if a.Sched != b.Sched {
		t.Errorf("scheduler stats diverged: %+v vs %+v", a.Sched, b.Sched)
	}
}

// TestPoolStreamingEquivalence checks that StreamJobs (the sweep's path)
// composes with the pool: streamed-and-released results must match the
// non-streaming run's scalar fields on a pooled study.
func TestPoolStreamingEquivalence(t *testing.T) {
	cfg := parallelConfig()
	cfg.Workload.TotalJobs = 300
	plain, _ := runWithPool(t, cfg, 0)

	st, err := NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pool := par.NewPool(4)
	defer pool.Close()
	st.SetPool(pool)
	streamed := 0
	st.StreamJobs(func(i int, r *JobResult) {
		if !reflect.DeepEqual(plain.Jobs[i].Attempts, r.Attempts) {
			t.Errorf("job %d streamed attempts diverged", r.Spec.ID)
		}
		streamed++
	})
	res, err := st.Run()
	if err != nil {
		t.Fatal(err)
	}
	if streamed == 0 {
		t.Fatal("observer never called")
	}
	for i := range res.Jobs {
		if res.Jobs[i].MeanUtil != plain.Jobs[i].MeanUtil {
			t.Fatalf("job %d MeanUtil diverged under streaming+pool", res.Jobs[i].Spec.ID)
		}
	}
}
