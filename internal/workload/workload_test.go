package workload

import (
	"math"
	"testing"
	"testing/quick"

	"philly/internal/failures"
	"philly/internal/simulation"
	"philly/internal/stats"
)

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.TotalJobs = 3000
	cfg.Duration = 4 * simulation.Day
	return cfg
}

func TestConfigValidation(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.TotalJobs = 0 },
		func(c *Config) { c.Duration = 0 },
		func(c *Config) { c.VCs = nil },
		func(c *Config) { c.VCs = append(c.VCs, c.VCs[0]) },
		func(c *Config) { c.VCs[0].QuotaGPUs = 0 },
		func(c *Config) { c.NumUsers = 0 },
		func(c *Config) { c.SizeWeights = nil },
		func(c *Config) { c.SizeWeights[-1] = 1 },
		func(c *Config) { c.ErrorProneUserFraction = 2 },
		func(c *Config) { c.ConvergenceLogFraction = -1 },
		func(c *Config) { c.KilledRuntimeMultiplier = 0.5 },
		func(c *Config) { c.MaxRuntimeMinutes = 0 },
	}
	for i, mutate := range mutations {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestGenerateBasicInvariants(t *testing.T) {
	g := stats.NewRNG(1)
	gen, err := NewGenerator(smallConfig(), g)
	if err != nil {
		t.Fatal(err)
	}
	jobs := gen.Generate(g)
	if len(jobs) != 3000 {
		t.Fatalf("generated %d jobs", len(jobs))
	}
	vcNames := map[string]bool{}
	for _, vc := range smallConfig().VCs {
		vcNames[vc.Name] = true
	}
	seen := map[int64]bool{}
	var prev simulation.Time
	for _, j := range jobs {
		if seen[j.ID] {
			t.Fatalf("duplicate job ID %d", j.ID)
		}
		seen[j.ID] = true
		if j.SubmitAt < prev {
			t.Fatal("jobs not sorted by submit time")
		}
		prev = j.SubmitAt
		if !vcNames[j.VC] {
			t.Fatalf("job %d in unknown VC %q", j.ID, j.VC)
		}
		if j.GPUs < 1 || j.GPUs > 32 {
			t.Fatalf("job %d has %d GPUs", j.ID, j.GPUs)
		}
		if j.User == "" {
			t.Fatalf("job %d has no user", j.ID)
		}
		if err := j.Train.Validate(); err != nil {
			t.Fatalf("job %d train plan: %v", j.ID, err)
		}
		if j.SubmitAt < 0 || j.SubmitAt >= smallConfig().Duration {
			t.Fatalf("job %d submit %v outside window", j.ID, j.SubmitAt)
		}
		for _, a := range j.Plan.FailedAttempts {
			if a.RTFMinutes > smallConfig().MaxRuntimeMinutes {
				t.Fatalf("job %d RTF %v exceeds cap", j.ID, a.RTFMinutes)
			}
		}
	}
}

func TestSizeDistribution(t *testing.T) {
	g := stats.NewRNG(2)
	cfg := smallConfig()
	cfg.TotalJobs = 20000
	gen, err := NewGenerator(cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	jobs := gen.Generate(g)
	counts := map[int]int{}
	for _, j := range jobs {
		counts[j.GPUs]++
	}
	frac1 := float64(counts[1]) / float64(len(jobs))
	if math.Abs(frac1-0.60) > 0.03 {
		t.Errorf("1-GPU fraction %.3f, want ~0.60", frac1)
	}
	if counts[16] == 0 || counts[32] == 0 {
		t.Error("large sizes never generated")
	}
}

func TestRuntimesGrowWithSize(t *testing.T) {
	g := stats.NewRNG(3)
	cfg := smallConfig()
	cfg.TotalJobs = 20000
	gen, err := NewGenerator(cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	jobs := gen.Generate(g)
	var small, big []float64
	for _, j := range jobs {
		if j.Plan.Outcome != failures.Passed {
			continue // killed jobs carry the multiplier; compare clean ones
		}
		switch j.SizeBucket() {
		case failures.Size1:
			small = append(small, j.PlannedRuntimeMinutes())
		case failures.SizeOver8:
			big = append(big, j.PlannedRuntimeMinutes())
		}
	}
	ms, mb := stats.Percentile(small, 50), stats.Percentile(big, 50)
	if mb <= ms*2 {
		t.Errorf("big-job median %.1f should be well above small-job median %.1f", mb, ms)
	}
}

func TestKilledJobsRunLonger(t *testing.T) {
	g := stats.NewRNG(4)
	cfg := smallConfig()
	cfg.TotalJobs = 20000
	gen, err := NewGenerator(cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	jobs := gen.Generate(g)
	var passed, killed []float64
	for _, j := range jobs {
		if j.SizeBucket() != failures.Size1 {
			continue
		}
		switch j.Plan.Outcome {
		case failures.Passed:
			passed = append(passed, j.PlannedRuntimeMinutes())
		case failures.Killed:
			killed = append(killed, j.PlannedRuntimeMinutes())
		}
	}
	mp, mk := stats.Percentile(passed, 50), stats.Percentile(killed, 50)
	if mk < mp*3 {
		t.Errorf("killed median %.1f should be several times passed median %.1f", mk, mp)
	}
}

func TestRuntimeCap(t *testing.T) {
	g := stats.NewRNG(5)
	cfg := smallConfig()
	cfg.TotalJobs = 20000
	cfg.MaxRuntimeMinutes = 100
	gen, err := NewGenerator(cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range gen.Generate(g) {
		if j.PlannedRuntimeMinutes() > 101 {
			t.Fatalf("job %d runtime %.1f exceeds cap", j.ID, j.PlannedRuntimeMinutes())
		}
	}
}

func TestUsersStayInVC(t *testing.T) {
	g := stats.NewRNG(6)
	gen, err := NewGenerator(smallConfig(), g)
	if err != nil {
		t.Fatal(err)
	}
	jobs := gen.Generate(g)
	userVC := map[string]string{}
	for _, j := range jobs {
		if vc, ok := userVC[j.User]; ok && vc != j.VC {
			t.Fatalf("user %s appears in VCs %s and %s", j.User, vc, j.VC)
		}
		userVC[j.User] = j.VC
	}
	if len(userVC) < 50 {
		t.Errorf("only %d distinct users", len(userVC))
	}
}

func TestErrorProneUsersConcentrateFailures(t *testing.T) {
	g := stats.NewRNG(7)
	cfg := smallConfig()
	cfg.TotalJobs = 30000
	cfg.ErrorProneUserFraction = 1.0 // every user has a favorite reason
	cfg.Failures.UserFavoriteBias = 1.0
	gen, err := NewGenerator(cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	jobs := gen.Generate(g)
	// Every unsuccessful job of a user hits that user's single reason.
	byUser := map[string]map[string]bool{}
	for _, j := range jobs {
		if j.Plan.Outcome != failures.Unsuccessful {
			continue
		}
		if byUser[j.User] == nil {
			byUser[j.User] = map[string]bool{}
		}
		byUser[j.User][j.Plan.FailedAttempts[0].Reason.Code] = true
	}
	multi := 0
	for _, reasons := range byUser {
		if len(reasons) > 1 {
			multi++
		}
	}
	if multi > 0 {
		t.Errorf("%d users have multiple failure reasons despite full bias", multi)
	}
}

func TestVCLoadProportionalToQuota(t *testing.T) {
	g := stats.NewRNG(8)
	cfg := smallConfig()
	cfg.TotalJobs = 30000
	gen, err := NewGenerator(cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	jobs := gen.Generate(g)
	counts := map[string]int{}
	for _, j := range jobs {
		counts[j.VC]++
	}
	// Arrival shares are proportional to quota x load factor.
	vcs := cfg.VCs
	byName := map[string]VirtualCluster{}
	for _, vc := range vcs {
		byName[vc.Name] = vc
	}
	weight := func(n string) float64 {
		return float64(byName[n].QuotaGPUs) * byName[n].LoadFactor
	}
	r := float64(counts["vc1"]) / float64(counts["vc2"])
	expect := weight("vc1") / weight("vc2")
	if math.Abs(r-expect) > 0.25 {
		t.Errorf("vc1/vc2 job ratio %.2f, want ~%.2f", r, expect)
	}
	// vc5 oversubscribes via its load factor.
	r5 := float64(counts["vc5"]) / float64(counts["vc2"])
	expect5 := weight("vc5") / weight("vc2")
	if math.Abs(r5-expect5) > 0.25 {
		t.Errorf("vc5/vc2 ratio %.2f, want ~%.2f (oversubscription)", r5, expect5)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	run := func() []JobSpec {
		g := stats.NewRNG(42)
		gen, err := NewGenerator(smallConfig(), g)
		if err != nil {
			t.Fatal(err)
		}
		return gen.Generate(g)
	}
	a, b := run(), run()
	for i := range a {
		if a[i].ID != b[i].ID || a[i].GPUs != b[i].GPUs || a[i].SubmitAt != b[i].SubmitAt ||
			a[i].User != b[i].User || a[i].Plan.Outcome != b[i].Plan.Outcome {
			t.Fatalf("generation diverged at job %d", i)
		}
	}
}

// Property: every generated job spec is internally consistent for any seed.
func TestGenerateProperty(t *testing.T) {
	cfg := smallConfig()
	cfg.TotalJobs = 200
	f := func(seed uint64) bool {
		g := stats.NewRNG(seed)
		gen, err := NewGenerator(cfg, g)
		if err != nil {
			return false
		}
		for _, j := range gen.Generate(g) {
			if j.Train.Validate() != nil || j.GPUs < 1 {
				return false
			}
			if j.Plan.Outcome == failures.Unsuccessful && len(j.Plan.FailedAttempts) == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
