// Benchmarks regenerate every table and figure of the paper (one benchmark
// per experiment) plus the ablations DESIGN.md calls out. Each benchmark
// reports the experiment's headline numbers via b.ReportMetric so that
// `go test -bench=. -benchmem` doubles as a results sheet; bench_output.txt
// in the repository root records a full run.
//
// Simulation inputs are cached per configuration: the timed section of each
// benchmark is the experiment computation over the simulated study, and the
// domain metrics are what the paper reports.
package philly_test

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"philly"
	"philly/internal/analysis"
	"philly/internal/cluster"
	"philly/internal/failures"
	"philly/internal/perfmodel"
	"philly/internal/scheduler"
	"philly/internal/simulation"
	"philly/internal/stats"
	"philly/internal/sweep"
)

// metricKey makes a bucket label usable as a benchmark metric unit
// (units must not contain whitespace).
func metricKey(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		if s[i] == ' ' {
			continue
		}
		out = append(out, s[i])
	}
	return string(out)
}

// studyCache memoizes simulation runs across benchmarks.
var studyCache sync.Map // string -> *philly.StudyResult

func cachedStudy(b *testing.B, key string, mk func() philly.Config) *philly.StudyResult {
	b.Helper()
	if v, ok := studyCache.Load(key); ok {
		return v.(*philly.StudyResult)
	}
	res, err := philly.Run(mk())
	if err != nil {
		b.Fatal(err)
	}
	studyCache.Store(key, res)
	return res
}

// benchStudy is the shared workload for the per-experiment benchmarks.
func benchStudy(b *testing.B) *philly.StudyResult {
	return cachedStudy(b, "small", func() philly.Config {
		cfg := philly.SmallConfig()
		cfg.Seed = 1
		return cfg
	})
}

func BenchmarkFigure2RunTimeCDF(b *testing.B) {
	res := benchStudy(b)
	var f analysis.Figure2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f = analysis.ComputeFigure2(res)
	}
	b.ReportMetric(f.BySize[failures.Size1].Median(), "p50RunMin_1gpu")
	b.ReportMetric(f.BySize[failures.SizeOver8].Median(), "p50RunMin_over8")
	b.ReportMetric(100*f.WeekLongFraction, "pctWeekLong")
}

func BenchmarkFigure3QueueingDelayCDF(b *testing.B) {
	res := benchStudy(b)
	var f analysis.Figure3
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f = analysis.ComputeFigure3(res)
	}
	if len(f.VCs) > 0 {
		b.ReportMetric(f.VCs[0].BySize[failures.Size1].Percentile(90), "p90DelayMin_vc1_1gpu")
		b.ReportMetric(f.VCs[0].BySize[failures.Size5to8].Percentile(90), "p90DelayMin_vc1_5to8")
	}
}

func BenchmarkFigure4LocalityRelaxation(b *testing.B) {
	res := benchStudy(b)
	var f analysis.Figure4
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f = analysis.ComputeFigure4(res)
	}
	if n := len(f.Dist5to8); n > 0 {
		b.ReportMetric(f.Dist5to8[0].MedianDelayMin, "p50DelayMin_packed")
		b.ReportMetric(f.Dist5to8[n-1].MedianDelayMin, "p50DelayMin_spread")
	}
}

func BenchmarkTable2DelayCauses(b *testing.B) {
	res := benchStudy(b)
	var t analysis.Table2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t = analysis.ComputeTable2(res)
	}
	for _, r := range t.Rows {
		b.ReportMetric(r.FairSharePct(), "pctFairShare_"+metricKey(r.Bucket.String()))
	}
	b.ReportMetric(100*t.FragShareOfDelayTime, "pctFragDelayTime")
}

func BenchmarkFigure5UtilizationCDF(b *testing.B) {
	res := benchStudy(b)
	var f analysis.Figure5
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f = analysis.ComputeFigure5(res)
	}
	b.ReportMetric(f.Rec.AllByStatus(failures.Passed).Percentile(50), "p50Util_passed")
	b.ReportMetric(f.Rec.AllByStatus(failures.Killed).Percentile(50), "p50Util_killed")
}

func BenchmarkTable3MeanUtilization(b *testing.B) {
	res := benchStudy(b)
	var t analysis.Table3
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t = analysis.ComputeTable3(res)
	}
	b.ReportMetric(t.Overall, "meanUtilPct")               // paper: 52.32
	b.ReportMetric(t.AllByStatus[1], "meanUtilPct_killed") // paper: 42.98
}

func BenchmarkTable4ResNet50Placement(b *testing.B) {
	var rows []perfmodel.ResNet50Result
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = perfmodel.ResNet50Table(perfmodel.DefaultResNet50Params())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.GPUUtil, "utilPct_"+r.Config.String())
	}
}

func BenchmarkFigure6DedicatedUtilization(b *testing.B) {
	res := benchStudy(b)
	var f analysis.Figure6
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f = analysis.ComputeFigure6(res)
	}
	b.ReportMetric(f.Mean8, "meanUtil_8gpu")   // paper: 56.9
	b.ReportMetric(f.Mean16, "meanUtil_16gpu") // paper: 34.3-43.7
}

func BenchmarkFigure7HostResources(b *testing.B) {
	res := benchStudy(b)
	var f analysis.Figure7
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f = analysis.ComputeFigure7(res)
	}
	b.ReportMetric(f.CPUMedian, "p50HostCPU")
	b.ReportMetric(f.MemMedian, "p50HostMem")
}

func BenchmarkTable5SpreadUtilization(b *testing.B) {
	res := benchStudy(b)
	var t analysis.Table5
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t = analysis.ComputeTable5(res)
	}
	for _, r := range t.Rows {
		if r.Servers == 2 || r.Servers == 4 || r.Servers == 8 {
			b.ReportMetric(r.Mean, fmt.Sprintf("meanUtil_%dsrv", r.Servers))
		}
	}
}

func BenchmarkTable6StatusDistribution(b *testing.B) {
	res := benchStudy(b)
	var t analysis.Table6
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t = analysis.ComputeTable6(res)
	}
	b.ReportMetric(t.CountPct[0], "pctPassed")             // paper: 69.3
	b.ReportMetric(t.GPUTimeShares[1], "pctGPUTimeKilled") // paper: 37.69
}

func BenchmarkFigure8EpochEffectiveness(b *testing.B) {
	res := benchStudy(b)
	var f analysis.Figure8
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f = analysis.ComputeFigure8(res)
	}
	b.ReportMetric(f.WithinPassed.Median(), "p50FracEpochsWithinTenth")
	b.ReportMetric(100*f.GPUTimeToLastTenthPassed, "pctGPUTimeLastTenth") // paper: 62
}

func BenchmarkFigure9RetriesBySize(b *testing.B) {
	res := benchStudy(b)
	var f analysis.Figure9
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f = analysis.ComputeFigure9(res)
	}
	b.ReportMetric(f.MeanRetries[failures.Size1], "retries_1gpu")
	b.ReportMetric(f.MeanRetries[failures.SizeOver8], "retries_over8")
	b.ReportMetric(f.UnsuccessfulRate[failures.SizeOver8], "unsuccRate_over8")
}

func BenchmarkTable7FailureTable(b *testing.B) {
	res := benchStudy(b)
	var t analysis.Table7
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t = analysis.ComputeTable7(res)
	}
	b.ReportMetric(float64(t.TotalTrials), "trials")
	b.ReportMetric(t.MisclassifiedPct, "pctMisclassified")
	if len(t.Rows) > 0 {
		b.ReportMetric(float64(t.Rows[0].Trials), "topReasonTrials")
	}
}

func BenchmarkFigure10RTFvsDemand(b *testing.B) {
	res := benchStudy(b)
	var f analysis.Figure10
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f = analysis.ComputeFigure10(res)
	}
	for _, s := range f.Series {
		if s.Reason == failures.CodeSemanticError {
			b.ReportMetric(s.MedianSmall, "p50RTF_semantic_small")
			b.ReportMetric(s.MedianLarge, "p50RTF_semantic_large")
		}
	}
}

// BenchmarkTable1SchedulerComparison runs the same contended workload under
// every policy of Table 1 and reports mean job completion time.
func BenchmarkTable1SchedulerComparison(b *testing.B) {
	policies := map[string]philly.Policy{
		"philly":   philly.PolicyPhilly,
		"fifo":     philly.PolicyFIFO,
		"srtf":     philly.PolicySRTF,
		"tiresias": philly.PolicyTiresias,
		"gandiva":  philly.PolicyGandiva,
	}
	for i := 0; i < b.N; i++ {
		for name, p := range policies {
			p := p
			res := cachedStudy(b, "policy-"+name, func() philly.Config {
				cfg := philly.SmallConfig()
				cfg.Seed = 11
				cfg.Workload.TotalJobs = 3600
				cfg.Scheduler.Policy = p
				return cfg
			})
			var jct []float64
			for k := range res.Jobs {
				if res.Jobs[k].Completed {
					jct = append(jct, (res.Jobs[k].EndAt - res.Jobs[k].Spec.SubmitAt).Minutes())
				}
			}
			b.ReportMetric(stats.Mean(jct), "jctMeanMin_"+name)
		}
	}
}

// BenchmarkAblationLocalityWait sweeps how long the scheduler insists on
// locality before relaxing (§5 "prioritizing locality"): impatient (relax
// immediately), the paper's default, and patient.
func BenchmarkAblationLocalityWait(b *testing.B) {
	settings := map[string][2]int{
		"impatient": {0, 0},
		"default":   {4, 8},
		"patient":   {16, 32},
	}
	for i := 0; i < b.N; i++ {
		for name, s := range settings {
			s := s
			res := cachedStudy(b, "locality-"+name, func() philly.Config {
				cfg := philly.SmallConfig()
				cfg.Seed = 5
				cfg.Scheduler.RelaxToRackAfter = s[0]
				cfg.Scheduler.RelaxToAnyAfter = s[1]
				return cfg
			})
			var delays []float64
			spread := 0
			big := 0
			for k := range res.Jobs {
				j := &res.Jobs[k]
				if !j.Completed {
					continue
				}
				delays = append(delays, j.FirstQueueDelay.Minutes())
				if j.Spec.GPUs > 8 {
					big++
					if j.LastServers > 2 {
						spread++
					}
				}
			}
			b.ReportMetric(stats.Percentile(delays, 90), "p90DelayMin_"+name)
			if big > 0 {
				b.ReportMetric(100*float64(spread)/float64(big), "pctSpreadBigJobs_"+name)
			}
		}
	}
}

// BenchmarkAblationInterference toggles colocation interference off to
// measure how much utilization the paper's observed sharing costs.
func BenchmarkAblationInterference(b *testing.B) {
	settings := map[string]float64{
		"interference":   perfmodel.DefaultUtilParams().ColocationFactor,
		"noInterference": 1.0,
	}
	for i := 0; i < b.N; i++ {
		for name, factor := range settings {
			factor := factor
			res := cachedStudy(b, "interf-"+name, func() philly.Config {
				cfg := philly.SmallConfig()
				cfg.Seed = 5
				cfg.Util.ColocationFactor = factor
				return cfg
			})
			b.ReportMetric(res.Telemetry.All().Mean(), "meanUtilPct_"+name)
		}
	}
}

// BenchmarkAblationFailFast quantifies §5's "pre-run on a single GPU"
// guideline: GPU-time that deterministic user errors would have cost on a
// 1-GPU validation pool instead of the full gang.
func BenchmarkAblationFailFast(b *testing.B) {
	res := benchStudy(b)
	var wasted, saved float64
	for i := 0; i < b.N; i++ {
		wasted, saved = 0, 0
		for k := range res.Jobs {
			j := &res.Jobs[k]
			if !j.Completed {
				continue
			}
			for _, a := range j.Attempts {
				if !a.Failed {
					continue
				}
				cost := a.RuntimeMinutes * float64(j.Spec.GPUs)
				wasted += cost
				// Deterministic errors reproduce on 1 GPU within the first
				// iteration(s); the pre-run pool catches anything failing
				// inside 30 minutes.
				if a.RuntimeMinutes <= 30 && j.Spec.GPUs > 1 {
					saved += cost - a.RuntimeMinutes // re-run on 1 GPU instead
				}
			}
		}
	}
	b.ReportMetric(wasted, "gpuMinWastedOnFailures")
	b.ReportMetric(100*saved/wasted, "pctSavedByFailFastPool")
}

// BenchmarkAblationEarlyStop quantifies §4.1's early-termination
// opportunity: GPU-time spent improving the final 0.1% of the loss.
func BenchmarkAblationEarlyStop(b *testing.B) {
	res := benchStudy(b)
	var f analysis.Figure8
	for i := 0; i < b.N; i++ {
		f = analysis.ComputeFigure8(res)
	}
	b.ReportMetric(100*f.GPUTimeToLastTenthPassed, "pctGPUTimeSavablePassed") // paper: 62
	b.ReportMetric(100*f.GPUTimeToLastTenthKilled, "pctGPUTimeSavableKilled") // paper: 56
}

// BenchmarkAblationAdaptiveRetry compares fixed-retry Philly against the
// §5 proposal of classifying failures online and not retrying the
// deterministic ones, measured in GPU-minutes burnt on failed attempts.
func BenchmarkAblationAdaptiveRetry(b *testing.B) {
	variants := map[string]bool{"fixedRetry": false, "adaptiveRetry": true}
	for i := 0; i < b.N; i++ {
		for name, adaptive := range variants {
			adaptive := adaptive
			res := cachedStudy(b, "adaptive-"+name, func() philly.Config {
				cfg := philly.SmallConfig()
				cfg.Seed = 5
				cfg.AdaptiveRetry = adaptive
				return cfg
			})
			var wasted float64
			for k := range res.Jobs {
				j := &res.Jobs[k]
				for _, a := range j.Attempts {
					if a.Failed {
						wasted += a.RuntimeMinutes * float64(j.Spec.GPUs)
					}
				}
			}
			b.ReportMetric(wasted, "gpuMinOnFailures_"+name)
		}
	}
}

// BenchmarkAblationDefrag compares Philly with and without §5's
// migration-based defragmentation, measured by large-job queueing delay
// and migration volume.
func BenchmarkAblationDefrag(b *testing.B) {
	variants := map[string]bool{"noDefrag": false, "defrag": true}
	for i := 0; i < b.N; i++ {
		for name, enabled := range variants {
			enabled := enabled
			res := cachedStudy(b, "defrag-"+name, func() philly.Config {
				cfg := philly.SmallConfig()
				cfg.Seed = 5
				cfg.Defrag.Enabled = enabled
				return cfg
			})
			var bigDelays []float64
			for k := range res.Jobs {
				j := &res.Jobs[k]
				if !j.Completed || j.Spec.GPUs <= 8 {
					continue
				}
				bigDelays = append(bigDelays, j.FirstQueueDelay.Minutes())
			}
			b.ReportMetric(stats.Percentile(bigDelays, 90), "p90DelayMinOver8_"+name)
			b.ReportMetric(float64(res.Sched.Migrations), "migrations_"+name)
		}
	}
}

// BenchmarkSweepWorkerScaling runs a fixed 2-axis × 2-value matrix with 4
// seed replicas (16 studies) at increasing worker counts. On a multi-core
// box ns/op should fall as workers rise; the sweep test suite separately
// guarantees the aggregated results are bit-identical at every worker
// count, so this benchmark is purely a wall-clock trajectory.
func BenchmarkSweepWorkerScaling(b *testing.B) {
	base := philly.SmallConfig()
	base.Workload.TotalJobs = 600
	base.Workload.Duration /= 2
	var axes []sweep.Axis
	for _, spec := range []string{"sched.policy=philly,fifo", "defrag=off,on"} {
		ax, err := sweep.ParseAxis(spec)
		if err != nil {
			b.Fatal(err)
		}
		axes = append(axes, ax)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var res *sweep.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = sweep.Matrix{Base: base, Axes: axes}.
					Run(sweep.Options{Replicas: 4, Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(res.Scenarios)*res.Replicas), "studiesPerSweep")
			b.ReportMetric(float64(res.Scenarios[0].Summary["JCT p50 (min)"].Mean), "jctP50Min_scenario0")
		})
	}
}

// BenchmarkSimulationThroughput measures the simulator itself: full studies
// per unit time (jobs simulated per second reported as a metric).
func BenchmarkSimulationThroughput(b *testing.B) {
	cfg := philly.SmallConfig()
	cfg.Workload.TotalJobs = 800
	cfg.Workload.Duration /= 2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		res, err := philly.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Jobs) != 800 {
			b.Fatal("short run")
		}
	}
	b.ReportMetric(800, "jobsPerRun")
}

// BenchmarkStudyParallel is the intra-study scaling curve: ONE study —
// paper-scale cluster (~2050 GPUs, 288 servers), minute telemetry — at
// increasing intra-study worker counts. The telemetry walk is sequential
// on every leg; what the workers share is the per-VC sharded event
// engine's window lanes.
// TestWorkerCountInvariance separately pins the StudyResult bit-identical
// across all of these worker counts, so this benchmark is purely a
// wall-clock trajectory. workers=1 is the inline path on the sequential
// engine and doubles as its regression guard; workers >= 2 run the per-VC
// sharded event engine end to end (RunParallel shards events whenever
// workers > 1), so the curve prices the window merge.
func BenchmarkStudyParallel(b *testing.B) {
	// A quarter-length window at the paper's full arrival rate and cluster
	// scale: the running set peaks in the thousands, like the full study.
	cfg := philly.MediumConfig()
	cfg.Workload.TotalJobs /= 4
	cfg.Workload.Duration /= 4
	cfg.Workload.MaxRuntimeMinutes = 2 * 24 * 60
	cfg.Seed = 1
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var res *philly.StudyResult
			for i := 0; i < b.N; i++ {
				var err error
				res, err = philly.RunParallel(cfg, workers)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(res.Jobs)), "jobsPerRun")
			b.ReportMetric(res.Telemetry.All().Mean(), "meanUtilPct")
		})
	}
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB from
// /proc/self/status. Linux-only; ok is false elsewhere. The value is a
// process-wide high-water mark — monotone across the whole test binary —
// so it is only comparable between baselines recorded with the same
// `make bench-json` invocation (same benchmark set, same order), which is
// exactly how BENCH_PR*_*.json files are produced.
func peakRSSMB() (mb float64, ok bool) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, false
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if !bytes.HasPrefix(line, []byte("VmHWM:")) {
			continue
		}
		fields := bytes.Fields(line[len("VmHWM:"):])
		if len(fields) < 1 {
			return 0, false
		}
		kb, err := strconv.ParseFloat(string(fields[0]), 64)
		if err != nil {
			return 0, false
		}
		return kb / 1024, true
	}
	return 0, false
}

// BenchmarkFederatedSweepMemory is the memory-regression gate: one
// federated sweep (two policies × a two-member fleet, 2 replicas — every
// row crosses the streaming fleet reducer) reporting, on top of the usual
// -benchmem numbers, the two metrics `bench-compare -threshold` gates as
// higher-is-worse:
//
//   - allocs_total: heap allocations for one full sweep, from a
//     runtime.MemStats delta around the timed loop — the same accounting
//     as allocs/op, but reported unconditionally, so the gate keeps its
//     metric even if -benchmem ever drops out of the recording command.
//   - peak_rss_mb: the process's VmHWM high-water mark (see peakRSSMB for
//     the comparability caveat). This is what pins the streaming
//     federated reduction: buffering whole member StudyResults for the
//     fleet rows again would move this number, not allocs/op.
func BenchmarkFederatedSweepMemory(b *testing.B) {
	base := philly.SmallConfig()
	base.Workload.TotalJobs = 400
	var axes []sweep.Axis
	for _, spec := range []string{"sched.policy=philly,fifo", "fleet.members=philly-small+helios-like"} {
		ax, err := sweep.ParseAxis(spec)
		if err != nil {
			b.Fatal(err)
		}
		axes = append(axes, ax)
	}
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sweep.Matrix{Base: base, Axes: axes}.
			Run(sweep.Options{Replicas: 2, Workers: 2})
		if err != nil {
			b.Fatal(err)
		}
		// 2 policies × (2 member rows + 1 fleet row) per federated scenario.
		if len(res.Scenarios) != 6 {
			b.Fatalf("sweep produced %d scenario rows, want 6", len(res.Scenarios))
		}
	}
	b.StopTimer()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N), "allocs_total")
	if mb, ok := peakRSSMB(); ok {
		b.ReportMetric(mb, "peak_rss_mb")
	}
}

// BenchmarkSchedulerPumpChurn isolates the scheduler's barrier-side cost on
// a retry storm: a near-full cluster whose free GPUs are scattered
// two-per-server, so a deep queue of locality-constrained gangs re-runs
// doomed packed searches on every backoff expiry. It pins relaxation off,
// a shape no study runs: the paper's scheduler relaxes a blocked gang's
// locality after a fixed number of retries (Jeon et al. §2.3), and in a
// full-scale study placement search is well under 2% of CPU. A light
// allocate/release churn every few pumps keeps the steady state a mix of
// failed retries and genuine placements.
func BenchmarkSchedulerPumpChurn(b *testing.B) {
	cl, err := cluster.New(cluster.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	cfg := scheduler.DefaultConfig()
	// Pin every gang to packed placement so blocked jobs keep retrying at
	// the strictest level instead of relaxing their way onto the scattered
	// free GPUs.
	cfg.RelaxToRackAfter = 1 << 20
	cfg.RelaxToAnyAfter = 1 << 20
	total := cl.TotalGPUs()
	vcs := []scheduler.VC{
		{Name: "tenant-0", Quota: total},
		{Name: "tenant-1", Quota: total},
		{Name: "tenant-2", Quota: total},
		{Name: "tenant-3", Quota: total},
		{Name: "churn", Quota: total},
	}
	s, err := scheduler.New(cfg, cl, vcs)
	if err != nil {
		b.Fatal(err)
	}

	now := simulation.Time(0)
	nextID := cluster.JobID(1)
	submit := func(vc string, gpus int) *scheduler.Job {
		j := scheduler.NewJob(nextID, vc, gpus, now)
		nextID++
		if err := s.Submit(j, now); err != nil {
			b.Fatal(err)
		}
		return j
	}

	// Fill the 2-GPU racks completely with single-GPU fillers (best-fit
	// lands them there while every 8-GPU server is still fully free), then
	// take every 8-GPU server down to 2 free GPUs with 6-GPU runners.
	var fillers []*scheduler.Job
	for i := 0; i < 96; i++ {
		fillers = append(fillers, submit("churn", 1))
	}
	s.Pump(now)
	for i := 0; i < 192; i++ {
		submit(fmt.Sprintf("tenant-%d", i%4), 6)
	}
	s.Pump(now)
	if free := cl.FreeGPUs(); free != 2*192 {
		b.Fatalf("setup: %d free GPUs, want %d", free, 2*192)
	}

	// The blocked queue: 256 gangs whose packed searches all fail against
	// the fragmented free state (no server has more than 2 free GPUs).
	widths := []int{4, 6, 8}
	for i := 0; i < 256; i++ {
		submit(fmt.Sprintf("tenant-%d", i%4), widths[i%len(widths)])
	}
	now += cfg.Backoff
	s.Pump(now)
	if got := len(s.QueuedJobs()); got != 256 {
		b.Fatalf("setup: %d queued jobs, want 256", got)
	}

	fillerAt := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += cfg.Backoff + 1
		if i%16 == 0 {
			// Churn tick: one filler finishes and a replacement arrives,
			// dirtying the free state without disturbing the steady state
			// (the replacement is the only gang that fits the freed slot).
			old := fillers[fillerAt]
			if err := s.Release(old, now); err != nil {
				b.Fatal(err)
			}
			fillers[fillerAt] = submit("churn", 1)
			fillerAt = (fillerAt + 1) % len(fillers)
		}
		s.Pump(now)
	}
	b.StopTimer()
	st := s.Stats()
	if st.Starts != int(nextID)-1-256 {
		b.Fatalf("steady state broken: %d starts, want %d", st.Starts, int(nextID)-1-256)
	}
	b.ReportMetric(float64(st.BlockedAttempts)/float64(b.N), "blocked/op")
	b.ReportMetric(float64(st.PlacementSearches)/float64(b.N), "searches/op")
}

// BenchmarkTraceExport is one study's export as philly-sim writes it —
// the trace tables, the jobs CSV and the trace JSON — into io.Discard,
// over a medium seed-3 study simulated once outside the timer. Its B/op is
// what the export allocates: about the trace tables themselves, since
// FromStudy sizes them once and WriteJSON streams one record at a time. It
// sits after BenchmarkFederatedSweepMemory so that benchmark's peak_rss_mb
// is read before this one's study runs.
func BenchmarkTraceExport(b *testing.B) {
	res := cachedStudy(b, "medium-3", func() philly.Config {
		cfg := philly.MediumConfig()
		cfg.Seed = 3
		return cfg
	})
	var tr *philly.Trace
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr = philly.NewTrace(res)
		if err := tr.WriteJobsCSV(io.Discard); err != nil {
			b.Fatal(err)
		}
		if err := tr.WriteJSON(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(tr.Jobs)), "jobsExported")
	b.ReportMetric(float64(len(tr.Attempts)), "attemptsExported")
}
