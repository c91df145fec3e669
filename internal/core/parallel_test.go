package core

import (
	"reflect"
	"testing"

	"philly/internal/par"
	"philly/internal/scheduler"
)

// parallelConfig is SmallConfig with three times the servers and VC
// quotas: enough load for every VC lane, while staying fast enough to run
// many times in this package's tests.
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

// runSequential executes one study on the sequential engine with no pool:
// the reference every invariance leg compares against. A pool would change
// nothing here, since only a sharded study's Fleet forks. It returns the
// result and the study for white-box inspection.
func runSequential(t *testing.T, cfg Config) (*StudyResult, *Study) {
	t.Helper()
	st, err := NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
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
// sum, every occupancy sample — must be bit-identical under per-VC event
// sharding at worker counts 1 and 4 against the sequential no-pool engine,
// for 3 seeds × 2 policies. reflect.DeepEqual compares unexported recorder
// state too, so this is strictly stronger than hashing a rendered report.
//
// The sharded pool is the only one inside a study that forks: workers=1
// runs the windows inline on one goroutine, workers=4 adds real
// concurrency (and, under make check, the race detector). The legs pin the
// window merge: a failing attempt's shard-local classification runs on its
// VC lane, apart from the sequential event order, and the result must not
// care. At 1,000 uncontended jobs two lanes share a window only when two
// failing attempts on different VCs start in one pump, which some seeds
// never do, so TestMillionEventInvariance's saturated study carries the
// guard that lanes really advance together. The telemetry walk is
// sequential on every leg; TestStudyOutputGolden in the root package pins
// its fold order.
func TestWorkerCountInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run invariance matrix is not a -short test")
	}
	cfg := parallelConfig()
	for _, policy := range []scheduler.Policy{scheduler.PolicyPhilly, scheduler.PolicyFIFO} {
		for _, seed := range []uint64{1, 7, 42} {
			cfg.Scheduler.Policy = policy
			cfg.Seed = seed
			seq, _ := runSequential(t, cfg)
			// Sharded-event legs, with and without real pool concurrency.
			for _, workers := range []int{1, 4} {
				res, st := runShardedWithPool(t, cfg, workers)
				if !reflect.DeepEqual(seq, res) {
					diffStudyResults(t, seq, res)
					t.Fatalf("policy=%v seed=%d sharded workers=%d diverged from sequential engine",
						policy, seed, workers)
				}
				if st.WindowStats().LocalEvents == 0 {
					t.Fatalf("policy=%v seed=%d: no events ran on the VC lanes", policy, seed)
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

	seq, seqStudy := runSequential(t, cfg)
	if p := seqStudy.engine.Processed(); p < 1_000_000 {
		t.Fatalf("reference run processed %d events, want >= 1e6 (recalibrate the config)", p)
	}
	if seq.Sched.BlockedAttempts == 0 {
		t.Fatalf("saturated run never blocked a placement: %+v", seq.Sched)
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
		// White-box guard: the window merge must actually batch multiple
		// VC lanes into single windows — lanes advancing concurrently in
		// virtual time — or the sharded path under test degenerated to a
		// serialized replay. The counter is deterministic (a function of
		// the event schedule, not of thread timing), so an exact zero is a
		// real regression; this study reads 276.
		if ws.MultiShardWindows == 0 {
			t.Fatalf("workers=%d: no window advanced multiple VC lanes", workers)
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
// non-streaming run's scalar fields on a pooled study. The study shards its
// events, so the pool really forks.
func TestPoolStreamingEquivalence(t *testing.T) {
	cfg := parallelConfig()
	cfg.Workload.TotalJobs = 300
	plain, _ := runSequential(t, cfg)

	st, err := NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st.ShardEvents()
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
