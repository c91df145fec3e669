package core

import (
	"fmt"
	"reflect"
	"testing"

	"philly/internal/cluster"
	"philly/internal/simulation"
	"philly/internal/stats"
	"philly/internal/workload"
)

// temporalConfig is parallelConfig under the diurnal phase program — the
// same sharding-guaranteed scale, with arrivals shaped by the pattern.
func temporalConfig(t *testing.T, preset string) Config {
	t.Helper()
	cfg := parallelConfig()
	p, err := workload.PresetPattern(preset)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workload.Pattern = p
	return cfg
}

// TestPatternWorkerInvariance extends the worker-count invariance bar to
// pattern-driven workloads: a diurnal study must be bit-identical across
// worker counts {1, 2, 4}, and with per-VC event sharding, all against the
// sequential no-pool engine.
func TestPatternWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("invariance matrix is not a -short test")
	}
	for _, preset := range []string{workload.PatternDiurnal, workload.PatternBurst} {
		cfg := temporalConfig(t, preset)
		for _, seed := range []uint64{1, 42} {
			cfg.Seed = seed
			seq, _ := runWithPool(t, cfg, 0)
			for _, workers := range []int{1, 2, 4} {
				res, _ := runWithPool(t, cfg, workers)
				if !reflect.DeepEqual(seq, res) {
					diffStudyResults(t, seq, res)
					t.Fatalf("pattern=%s seed=%d workers=%d diverged from sequential engine",
						preset, seed, workers)
				}
			}
			res, st := runShardedWithPool(t, cfg, 4)
			if st.WindowStats().LocalEvents == 0 {
				t.Fatal("no events ran on the VC lanes")
			}
			if !reflect.DeepEqual(seq, res) {
				diffStudyResults(t, seq, res)
				t.Fatalf("pattern=%s seed=%d sharded run diverged from sequential engine",
					preset, seed)
			}
		}
	}
}

// TestReplayWorkerInvariance extends the invariance bar to replay-driven
// workloads: a study running a fixed spec stream must be bit-identical
// across worker counts and event engines. The stream itself comes from the
// generator, so it carries real retry/failure structure.
func TestReplayWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("invariance matrix is not a -short test")
	}
	cfg := parallelConfig()
	cfg.Seed = 7
	g := stats.NewRNG(cfg.Seed).Split("workload")
	gen, err := workload.NewGenerator(cfg.Workload, g)
	if err != nil {
		t.Fatal(err)
	}
	specs := gen.Generate(g)

	rcfg := parallelConfig()
	rcfg.Seed = 7
	rcfg.Workload.Replay = specs
	seq, _ := runWithPool(t, rcfg, 0)
	for _, workers := range []int{1, 2, 4} {
		res, _ := runWithPool(t, rcfg, workers)
		if !reflect.DeepEqual(seq, res) {
			diffStudyResults(t, seq, res)
			t.Fatalf("replay workers=%d diverged from sequential engine", workers)
		}
	}
	if res, _ := runShardedWithPool(t, rcfg, 4); !reflect.DeepEqual(seq, res) {
		diffStudyResults(t, seq, res)
		t.Fatal("sharded replay diverged from sequential engine")
	}
	// And the replay study reproduces the generative study it came from —
	// the engine-level half of the round-trip acceptance bar (the CSV half
	// lives in internal/trace).
	gcfg := parallelConfig()
	gcfg.Seed = 7
	want, _ := runWithPool(t, gcfg, 0)
	if !reflect.DeepEqual(want.Jobs, seq.Jobs) {
		t.Fatal("replaying the generator's own stream changed the job population")
	}
	if want.Sched != seq.Sched || want.SimEnd != seq.SimEnd {
		t.Fatal("replaying the generator's own stream changed the study trajectory")
	}
}

// TestDiurnalShiftsQueueDelay pins the reason the temporal engine exists:
// holding cluster, job count and mean load fixed, concentrating arrivals
// into a daily peak must push the queueing-delay tail well past the
// stationary pattern's — the paper's queues are a product of burstiness,
// not mean load.
func TestDiurnalShiftsQueueDelay(t *testing.T) {
	p95 := func(preset string) float64 {
		cfg := SmallConfig()
		cfg.Seed = 7
		p, err := workload.PresetPattern(preset)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Workload.Pattern = p
		res, _ := runWithPool(t, cfg, 0)
		var delays []float64
		for i := range res.Jobs {
			if res.Jobs[i].Completed {
				delays = append(delays, res.Jobs[i].FirstQueueDelay.Minutes())
			}
		}
		if len(delays) == 0 {
			t.Fatalf("%s: no completed jobs", preset)
		}
		return quantile(delays, 0.95)
	}
	stationary := p95(workload.PatternStationary)
	diurnal := p95(workload.PatternDiurnal)
	if diurnal < 1.5*stationary || diurnal < stationary+10 {
		t.Fatalf("diurnal p95 queue delay %.1f min vs stationary %.1f min: temporal burstiness shifted nothing",
			diurnal, stationary)
	}
}

func quantile(xs []float64, q float64) float64 {
	sorted := append([]float64(nil), xs...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	return sorted[int(q*float64(len(sorted)-1))]
}

// TestTieHeavyReplayBatchesArrivals pins the Arm-level arrival batching on
// a tie-heavy replay schedule (the shape a quantized-timestamp trace
// produces): same-instant submissions fuse into one engine event, so an
// armed study's pending-event count tracks the number of DISTINCT arrival
// instants, not the job count — and the fused schedule stays bit-identical
// between the sequential and sharded engines.
func TestTieHeavyReplayBatchesArrivals(t *testing.T) {
	cfg := parallelConfig()
	cfg.Seed = 11
	g := stats.NewRNG(cfg.Seed).Split("workload")
	gen, err := workload.NewGenerator(cfg.Workload, g)
	if err != nil {
		t.Fatal(err)
	}
	specs := gen.Generate(g)
	// Quantize arrivals to a coarse grid: monotone, so replay validation
	// holds, and massively tie-heavy.
	const grid = 4 * simulation.Hour
	instants := map[simulation.Time]bool{}
	for i := range specs {
		specs[i].SubmitAt -= specs[i].SubmitAt % grid
		instants[specs[i].SubmitAt] = true
	}
	if len(instants)*4 > len(specs) {
		t.Fatalf("schedule not tie-heavy enough: %d instants for %d jobs", len(instants), len(specs))
	}

	rcfg := parallelConfig()
	rcfg.Seed = 11
	rcfg.Workload.Replay = specs

	st, err := NewStudy(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	st.Arm()
	// Pending events right after Arm: one fused event per arrival instant
	// plus a fixed handful of tickers (telemetry, faults, defrag) — far
	// below one event per job, which is what the unbatched path scheduled.
	if p := st.engine.(*simulation.Engine).Pending(); p >= len(instants)+10 || p >= len(specs) {
		t.Fatalf("Pending after Arm = %d; want about %d arrival groups (%d jobs)",
			p, len(instants), len(specs))
	}

	seq, _ := runWithPool(t, rcfg, 0)
	res, sh := runShardedWithPool(t, rcfg, 4)
	if !reflect.DeepEqual(seq, res) {
		diffStudyResults(t, seq, res)
		t.Fatal("sharded tie-heavy replay diverged from sequential engine")
	}
	ws := sh.WindowStats()
	if ws.Barriers == 0 || ws.Barriers > ws.GlobalEvents {
		t.Fatalf("barrier accounting out of range: %d barriers, %d globals",
			ws.Barriers, ws.GlobalEvents)
	}
}

// TestNewStudyRefusesOverwideReplay pins the replay width check: a replayed
// job wider than the whole cluster can never be placed, and the scheduler
// refuses it when it arrives. NewStudy must refuse the study up front with
// an error naming the job and both widths, instead of panicking mid-run.
func TestNewStudyRefusesOverwideReplay(t *testing.T) {
	cfg := SmallConfig()
	g := stats.NewRNG(cfg.Seed).Split("workload")
	gen, err := workload.NewGenerator(cfg.Workload, g)
	if err != nil {
		t.Fatal(err)
	}
	specs := gen.Generate(g)
	specs[6].GPUs = 4096
	cfg.Workload.Replay = specs

	st, err := NewStudy(cfg)
	if st != nil || err == nil {
		t.Fatal("NewStudy accepted a job wider than the cluster")
	}
	cl, cerr := cluster.New(cfg.Cluster)
	if cerr != nil {
		t.Fatal(cerr)
	}
	want := fmt.Sprintf("core: job %d requests 4096 GPUs but the cluster has %d", specs[6].ID, cl.TotalGPUs())
	if err.Error() != want {
		t.Fatalf("NewStudy error = %q, want %q", err, want)
	}
}
