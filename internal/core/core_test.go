package core

import (
	"reflect"
	"sync"
	"testing"

	"philly/internal/failures"
	"philly/internal/scheduler"
)

// sharedResult runs the SmallConfig study once and reuses it across tests.
var (
	sharedOnce sync.Once
	shared     *StudyResult
	sharedErr  error
)

func smallResult(t *testing.T) *StudyResult {
	t.Helper()
	sharedOnce.Do(func() {
		st, err := NewStudy(SmallConfig())
		if err != nil {
			sharedErr = err
			return
		}
		shared, sharedErr = st.Run()
	})
	if sharedErr != nil {
		t.Fatal(sharedErr)
	}
	return shared
}

func TestConfigValidation(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if err := SmallConfig().Validate(); err != nil {
		t.Fatalf("small config invalid: %v", err)
	}
	bad := SmallConfig()
	bad.TelemetryInterval = 0
	if err := bad.Validate(); err == nil {
		t.Error("want error for zero telemetry interval")
	}
	bad2 := SmallConfig()
	bad2.CheckpointRetention = 2
	if err := bad2.Validate(); err == nil {
		t.Error("want error for retention > 1")
	}
	bad3 := SmallConfig()
	bad3.HorizonFactor = 0.5
	if err := bad3.Validate(); err == nil {
		t.Error("want error for horizon < 1")
	}
	bad4 := SmallConfig()
	bad4.Workload.TotalJobs = 0
	if _, err := NewStudy(bad4); err == nil {
		t.Error("NewStudy must reject invalid config")
	}
}

func TestStudyCompletes(t *testing.T) {
	res := smallResult(t)
	if len(res.Jobs) != SmallConfig().Workload.TotalJobs {
		t.Fatalf("jobs = %d, want %d", len(res.Jobs), SmallConfig().Workload.TotalJobs)
	}
	done := 0
	for i := range res.Jobs {
		if res.Jobs[i].Completed {
			done++
		}
	}
	if frac := float64(done) / float64(len(res.Jobs)); frac < 0.95 {
		t.Errorf("only %.2f of jobs completed before horizon", frac)
	}
}

func TestJobResultConsistency(t *testing.T) {
	res := smallResult(t)
	for i := range res.Jobs {
		j := &res.Jobs[i]
		if !j.Completed {
			continue
		}
		if j.Outcome != j.Spec.Plan.Outcome {
			t.Fatalf("job %d outcome %v != planned %v", j.Spec.ID, j.Outcome, j.Spec.Plan.Outcome)
		}
		if len(j.Attempts) != j.Spec.Plan.TotalAttempts() {
			t.Fatalf("job %d attempts %d != planned %d", j.Spec.ID, len(j.Attempts), j.Spec.Plan.TotalAttempts())
		}
		if j.FirstQueueDelay < 0 {
			t.Fatalf("job %d negative queue delay", j.Spec.ID)
		}
		if j.EndAt < j.FirstStartAt || j.FirstStartAt < j.Spec.SubmitAt {
			t.Fatalf("job %d time ordering broken: submit=%v start=%v end=%v",
				j.Spec.ID, j.Spec.SubmitAt, j.FirstStartAt, j.EndAt)
		}
		if j.RunMinutes <= 0 || j.GPUMinutes < j.RunMinutes*float64(j.Spec.GPUs)*0.999 {
			t.Fatalf("job %d accounting broken: run=%v gpu=%v gpus=%d",
				j.Spec.ID, j.RunMinutes, j.GPUMinutes, j.Spec.GPUs)
		}
		for k, a := range j.Attempts {
			if a.Index != k {
				t.Fatalf("job %d attempt index %d at position %d", j.Spec.ID, a.Index, k)
			}
			if a.EndAt < a.StartAt {
				t.Fatalf("job %d attempt %d ends before start", j.Spec.ID, k)
			}
			if a.Failed && a.ClassifiedReason == "" {
				t.Fatalf("job %d failed attempt %d lacks classification", j.Spec.ID, k)
			}
			if a.Servers < 1 {
				t.Fatalf("job %d attempt %d spread %d", j.Spec.ID, k, a.Servers)
			}
		}
		// Final attempt of an unsuccessful job must be failed; final
		// attempt of passed/killed must be clean.
		last := j.Attempts[len(j.Attempts)-1]
		if (j.Outcome == failures.Unsuccessful) != last.Failed {
			t.Fatalf("job %d final attempt failed=%v but outcome=%v", j.Spec.ID, last.Failed, j.Outcome)
		}
	}
}

func TestDeterminism(t *testing.T) {
	cfg := SmallConfig()
	cfg.Workload.TotalJobs = 300
	cfg.Workload.Duration = SmallConfig().Workload.Duration / 4
	run := func() *StudyResult {
		st, err := NewStudy(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := st.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if len(a.Jobs) != len(b.Jobs) {
		t.Fatal("job counts differ")
	}
	for i := range a.Jobs {
		ja, jb := &a.Jobs[i], &b.Jobs[i]
		if ja.EndAt != jb.EndAt || ja.FirstQueueDelay != jb.FirstQueueDelay ||
			ja.GPUMinutes != jb.GPUMinutes || ja.Outcome != jb.Outcome ||
			ja.MeanUtil != jb.MeanUtil {
			t.Fatalf("job %d diverged between identical runs", ja.Spec.ID)
		}
	}
	if a.Sched != b.Sched {
		t.Fatalf("scheduler stats diverged: %+v vs %+v", a.Sched, b.Sched)
	}
}

func TestSeedChangesResults(t *testing.T) {
	cfg := SmallConfig()
	cfg.Workload.TotalJobs = 200
	cfg.Workload.Duration = SmallConfig().Workload.Duration / 8
	st1, err := NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := st1.Run()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 99
	st2, err := NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := st2.Run()
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range r1.Jobs {
		if r1.Jobs[i].Spec.GPUs == r2.Jobs[i].Spec.GPUs {
			same++
		}
	}
	if same == len(r1.Jobs) {
		t.Error("different seeds produced identical workloads")
	}
}

// Table 6 calibration: status mix within tolerance of the paper.
func TestStatusMixMatchesTable6(t *testing.T) {
	res := smallResult(t)
	var counts [3]int
	total := 0
	for i := range res.Jobs {
		if res.Jobs[i].Completed {
			counts[int(res.Jobs[i].Outcome)]++
			total++
		}
	}
	passed := float64(counts[0]) / float64(total)
	killed := float64(counts[1]) / float64(total)
	unsucc := float64(counts[2]) / float64(total)
	if passed < 0.63 || passed > 0.75 {
		t.Errorf("passed fraction %.3f, paper 0.693", passed)
	}
	if killed < 0.09 || killed > 0.19 {
		t.Errorf("killed fraction %.3f, paper 0.135", killed)
	}
	if unsucc < 0.12 || unsucc > 0.23 {
		t.Errorf("unsuccessful fraction %.3f, paper 0.172", unsucc)
	}
}

// §4: killed + unsuccessful jobs consume an outsized GPU-time share
// (paper: ~55%).
func TestFailedGPUTimeShare(t *testing.T) {
	res := smallResult(t)
	var byOutcome [3]float64
	total := 0.0
	for i := range res.Jobs {
		j := &res.Jobs[i]
		if !j.Completed {
			continue
		}
		byOutcome[int(j.Outcome)] += j.GPUMinutes
		total += j.GPUMinutes
	}
	share := (byOutcome[1] + byOutcome[2]) / total
	if share < 0.38 || share > 0.68 {
		t.Errorf("killed+unsuccessful GPU-time share %.3f, paper ~0.55", share)
	}
}

// Figure 2: larger jobs run longer (medians increase with bucket).
func TestRunTimesGrowWithSize(t *testing.T) {
	res := smallResult(t)
	var byBucket [failures.NumSizeBuckets][]float64
	for i := range res.Jobs {
		j := &res.Jobs[i]
		if j.Completed {
			byBucket[j.Spec.SizeBucket()] = append(byBucket[j.Spec.SizeBucket()], j.RunMinutes)
		}
	}
	med := func(v []float64) float64 {
		if len(v) == 0 {
			return 0
		}
		s := append([]float64(nil), v...)
		for i := 1; i < len(s); i++ {
			for k := i; k > 0 && s[k] < s[k-1]; k-- {
				s[k], s[k-1] = s[k-1], s[k]
			}
		}
		return s[len(s)/2]
	}
	m1, m4 := med(byBucket[failures.Size1]), med(byBucket[failures.SizeOver8])
	if m4 <= m1 {
		t.Errorf(">8 GPU median runtime (%.1f) should exceed 1 GPU (%.1f)", m4, m1)
	}
}

// §3.1.1: out-of-order scheduling is common (paper: 38.1% of decisions) and
// mostly harmless (paper: 85% for large jobs).
func TestOutOfOrderScheduling(t *testing.T) {
	res := smallResult(t)
	st := res.Sched
	if st.Starts == 0 {
		t.Fatal("no scheduling decisions")
	}
	ooo := float64(st.OutOfOrderStarts) / float64(st.Starts)
	if ooo < 0.10 || ooo > 0.75 {
		t.Errorf("out-of-order fraction %.3f, paper 0.381", ooo)
	}
	if st.OutOfOrderStarts > 0 {
		harmless := float64(st.HarmlessOutOfOrder) / float64(st.OutOfOrderStarts)
		if harmless < 0.5 {
			t.Errorf("harmless fraction %.3f, paper ~0.85", harmless)
		}
	}
}

// Failure attribution flows through logs: classified reasons almost always
// match ground truth, and no-signature shows up at its calibrated rate.
func TestLogClassificationPipeline(t *testing.T) {
	res := smallResult(t)
	match, total, noSig := 0, 0, 0
	for i := range res.Jobs {
		for _, a := range res.Jobs[i].Attempts {
			if !a.Failed {
				continue
			}
			total++
			if a.ClassifiedReason == a.PlannedReason {
				match++
			}
			if a.ClassifiedReason == failures.CodeNoSignature {
				noSig++
			}
		}
	}
	if total == 0 {
		t.Fatal("no failed attempts")
	}
	if acc := float64(match) / float64(total); acc < 0.99 {
		t.Errorf("classification accuracy %.4f, want >= 0.99", acc)
	}
	frac := float64(noSig) / float64(total)
	if frac < 0.01 || frac > 0.10 {
		t.Errorf("no-signature fraction %.3f, paper 0.042", frac)
	}
}

// Telemetry sanity: overall utilization mean near the paper's 52%.
func TestOverallUtilizationCalibration(t *testing.T) {
	res := smallResult(t)
	mean := res.Telemetry.All().Mean()
	if mean < 42 || mean > 62 {
		t.Errorf("overall mean utilization %.1f, paper 52.32", mean)
	}
}

// Queueing delays exist but most jobs start reasonably quickly.
func TestQueueingDelaysShape(t *testing.T) {
	res := smallResult(t)
	delayed := 0
	n := 0
	for i := range res.Jobs {
		j := &res.Jobs[i]
		if !j.Completed {
			continue
		}
		n++
		if j.FirstQueueDelay.Minutes() > 10 {
			delayed++
		}
	}
	frac := float64(delayed) / float64(n)
	// Figure 3: the >=10-minute delay fraction is roughly 10-25% depending
	// on VC and size.
	if frac < 0.02 || frac > 0.5 {
		t.Errorf("fraction of jobs delayed > 10 min = %.3f, expect moderate queueing", frac)
	}
}

// Preemption happens under load and preempted jobs still finish.
func TestPreemptionOccurs(t *testing.T) {
	res := smallResult(t)
	if res.Sched.FairSharePreemptions == 0 {
		t.Skip("no fair-share preemption in this run (load-dependent)")
	}
	for i := range res.Jobs {
		j := &res.Jobs[i]
		if j.Preemptions > 0 && j.Completed && j.Outcome == failures.Passed {
			return // found a preempted job that completed fine
		}
	}
	t.Error("preemptions occurred but no preempted job completed")
}

// Convergence subsample matches the configured fraction and Figure 8 shape.
func TestConvergenceSubset(t *testing.T) {
	res := smallResult(t)
	n := 0
	needAll, early := 0, 0
	for i := range res.Jobs {
		c := res.Jobs[i].Convergence
		if c == nil {
			continue
		}
		n++
		if c.FractionForLowest > 0.9 {
			needAll++
		}
		if c.FractionWithinTenth <= 0.6 {
			early++
		}
	}
	if n == 0 {
		t.Fatal("no convergence data")
	}
	if float64(needAll)/float64(n) < 0.55 {
		t.Errorf("only %d/%d curves need ~all epochs; paper ~80%%", needAll, n)
	}
	if float64(early)/float64(n) < 0.55 {
		t.Errorf("only %d/%d curves reach 0.1%% early; paper ~75%%", early, n)
	}
}

func TestSchedulerPolicySwap(t *testing.T) {
	cfg := SmallConfig()
	cfg.Workload.TotalJobs = 300
	cfg.Workload.Duration = SmallConfig().Workload.Duration / 4
	cfg.Scheduler.Policy = scheduler.PolicyFIFO
	st, err := NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := st.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Sched.OutOfOrderStarts != 0 {
		t.Errorf("FIFO produced %d out-of-order starts", res.Sched.OutOfOrderStarts)
	}
}

// TestScaleConfig pins the scale table every CLI and the serve Spec share:
// each name maps to its constructor, and an unknown name keeps the error
// text the service returns for a bad scale field.
func TestScaleConfig(t *testing.T) {
	for name, want := range map[string]Config{"small": SmallConfig(), "medium": MediumConfig(), "full": DefaultConfig()} {
		got, err := ScaleConfig(name)
		if err != nil {
			t.Fatalf("ScaleConfig(%q): %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("ScaleConfig(%q) differs from its constructor", name)
		}
	}
	if _, err := ScaleConfig("galactic"); err == nil || err.Error() != `unknown scale "galactic"` {
		t.Errorf("ScaleConfig(galactic) error %v, want unknown scale \"galactic\"", err)
	}
}
