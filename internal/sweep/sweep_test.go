package sweep

import (
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"philly/internal/core"
	"philly/internal/scheduler"
	"philly/internal/simulation"
)

// tinyConfig is a fast base for runner tests: a few hundred jobs over two
// simulated days keeps one run in the tens of milliseconds.
func tinyConfig() core.Config {
	cfg := core.SmallConfig()
	cfg.Workload.TotalJobs = 200
	cfg.Workload.Duration = cfg.Workload.Duration / 4
	return cfg
}

func TestScenariosCrossProduct(t *testing.T) {
	boolAxis := func(name string, set func(*core.Config, bool)) Axis {
		return Axis{Name: name, Values: []Value{
			{Label: "off", Apply: func(c *core.Config) { set(c, false) }},
			{Label: "on", Apply: func(c *core.Config) { set(c, true) }},
		}}
	}
	cases := []struct {
		name string
		axes []Axis
		want int
	}{
		{"no axes", nil, 1},
		{"single axis", []Axis{boolAxis("defrag", func(c *core.Config, v bool) { c.Defrag.Enabled = v })}, 2},
		{"two axes", []Axis{
			boolAxis("defrag", func(c *core.Config, v bool) { c.Defrag.Enabled = v }),
			boolAxis("adaptive-retry", func(c *core.Config, v bool) { c.AdaptiveRetry = v }),
		}, 4},
		{"three axes 3x2x2", []Axis{
			{Name: "jobs", Values: []Value{
				{Label: "100", Apply: func(c *core.Config) { c.Workload.TotalJobs = 100 }},
				{Label: "200", Apply: func(c *core.Config) { c.Workload.TotalJobs = 200 }},
				{Label: "300", Apply: func(c *core.Config) { c.Workload.TotalJobs = 300 }},
			}},
			boolAxis("defrag", func(c *core.Config, v bool) { c.Defrag.Enabled = v }),
			boolAxis("adaptive-retry", func(c *core.Config, v bool) { c.AdaptiveRetry = v }),
		}, 12},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := Matrix{Base: tinyConfig(), Axes: tc.axes}
			scs, err := m.Scenarios()
			if err != nil {
				t.Fatal(err)
			}
			if len(scs) != tc.want {
				t.Fatalf("got %d scenarios, want %d", len(scs), tc.want)
			}
			seen := map[string]bool{}
			for i, sc := range scs {
				if sc.Index != i {
					t.Errorf("scenario %d has Index %d", i, sc.Index)
				}
				if seen[sc.Name] {
					t.Errorf("duplicate scenario name %q", sc.Name)
				}
				seen[sc.Name] = true
			}
		})
	}
}

func TestScenariosEmptyAxisErrors(t *testing.T) {
	m := Matrix{Base: tinyConfig(), Axes: []Axis{{Name: "empty"}}}
	if _, err := m.Scenarios(); err == nil {
		t.Fatal("want error for axis with no values")
	}
	m = Matrix{Base: tinyConfig(), Axes: []Axis{{Values: []Value{{Label: "x", Apply: func(*core.Config) {}}}}}}
	if _, err := m.Scenarios(); err == nil {
		t.Fatal("want error for axis with empty name")
	}
}

// Scenario configs must not alias: mutating one scenario's rack slice must
// not leak into its siblings.
func TestScenariosDoNotAlias(t *testing.T) {
	ax, err := ParseAxis("cluster.scale=0.5,1,2")
	if err != nil {
		t.Fatal(err)
	}
	base := tinyConfig()
	scs, err := Matrix{Base: base, Axes: []Axis{ax}}.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	orig := base.Cluster.Racks[0].Servers
	for i, factor := range []float64{0.5, 1, 2} {
		want := int(float64(orig)*factor + 0.5)
		if got := scs[i].Config.Cluster.Racks[0].Servers; got != want {
			t.Fatalf("scenario %q rack0 servers = %d, want %d (axis values aliased?)",
				scs[i].Name, got, want)
		}
	}
	if base.Cluster.Racks[0].Servers != orig {
		t.Fatal("base config mutated by expansion")
	}
}

func TestParseAxis(t *testing.T) {
	cases := []struct {
		spec    string
		wantN   int
		wantErr bool
	}{
		{"sched.policy=fifo,srtf,tiresias", 3, false},
		{"sched.policy=bogus", 0, true},
		{"defrag=on,off", 2, false},
		{"defrag=maybe", 0, true},
		{"adaptive-retry=on", 1, false},
		{"checkpoint.retention=0.5,0.9", 2, false},
		{"checkpoint.retention=high", 0, true},
		{"locality.relax=0:0,4:8", 2, false},
		{"locality.relax=44", 0, true},
		{"jobs=100,200", 2, false},
		{"jobs=-5", 0, true},
		{"cluster.scale=0.5,2", 2, false},
		{"workload.mix=default,small,large", 3, false},
		{"workload.mix=1:0.7;8:0.3", 1, false},
		{"workload.mix=tiny", 0, true},
		{"workload.mix=1:-0.5", 0, true},
		{"failure.scale=0,1,2.5", 3, false},
		{"failure.scale=-1", 0, true},
		{"telemetry.cadence=1,5", 2, false},
		{"telemetry.cadence=0", 0, true},
		{"no-such-knob=1", 0, true},
		{"missing-equals", 0, true},
		{"jobs=", 0, true},
	}
	for _, tc := range cases {
		ax, err := ParseAxis(tc.spec)
		if tc.wantErr {
			if err == nil {
				t.Errorf("ParseAxis(%q): want error", tc.spec)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseAxis(%q): %v", tc.spec, err)
			continue
		}
		if len(ax.Values) != tc.wantN {
			t.Errorf("ParseAxis(%q): %d values, want %d", tc.spec, len(ax.Values), tc.wantN)
		}
	}
}

func TestParseAxisAppliesKnob(t *testing.T) {
	ax, err := ParseAxis("sched.policy=fifo")
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyConfig()
	ax.Values[0].Apply(&cfg)
	if cfg.Scheduler.Policy != scheduler.PolicyFIFO {
		t.Fatalf("policy = %v, want fifo", cfg.Scheduler.Policy)
	}
}

// TestWorkloadAxes pins the semantics of the PR-4 axes: the mix replaces
// the size distribution (with per-scenario map isolation), failure.scale
// multiplies-and-clamps the outcome probabilities, and telemetry.cadence
// sets the sampling period — every applied config must still validate.
func TestWorkloadAxes(t *testing.T) {
	base := tinyConfig()

	ax := mustParse(t, "workload.mix=large,1:0.7;8:0.3")
	var cfgA, cfgB core.Config
	cfgA, cfgB = base, base
	ax.Values[0].Apply(&cfgA)
	ax.Values[1].Apply(&cfgB)
	if cfgA.Workload.SizeWeights[8] != 0.25 {
		t.Fatalf("large preset weight for 8 GPUs = %v, want 0.25", cfgA.Workload.SizeWeights[8])
	}
	if len(cfgB.Workload.SizeWeights) != 2 || cfgB.Workload.SizeWeights[1] != 0.7 || cfgB.Workload.SizeWeights[8] != 0.3 {
		t.Fatalf("explicit mix = %v, want map[1:0.7 8:0.3]", cfgB.Workload.SizeWeights)
	}
	// Two applications of the same value must not share the map.
	var cfgC core.Config = base
	ax.Values[0].Apply(&cfgC)
	cfgC.Workload.SizeWeights[8] = 99
	if cfgA.Workload.SizeWeights[8] == 99 {
		t.Fatal("workload.mix applications alias one map across scenarios")
	}
	if err := cfgA.Validate(); err != nil {
		t.Fatalf("mix-applied config invalid: %v", err)
	}

	ax = mustParse(t, "failure.scale=2")
	cfg := base
	before := cfg.Workload.Failures
	ax.Values[0].Apply(&cfg)
	after := cfg.Workload.Failures
	for b := range after.UnsuccessfulProb {
		want := before.UnsuccessfulProb[b] * 2
		if max := 1 - before.KilledProb[b]; want > max {
			want = max
		}
		if after.UnsuccessfulProb[b] != want {
			t.Fatalf("bucket %d unsuccessful = %v, want %v", b, after.UnsuccessfulProb[b], want)
		}
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("failure.scale=2 config invalid: %v", err)
	}
	// An extreme multiplier must clamp into validity, not explode.
	cfg = base
	mustParse(t, "failure.scale=100").Values[0].Apply(&cfg)
	if err := cfg.Validate(); err != nil {
		t.Fatalf("failure.scale=100 config invalid after clamping: %v", err)
	}

	cfg = base
	mustParse(t, "telemetry.cadence=5").Values[0].Apply(&cfg)
	if cfg.TelemetryInterval != 5*simulation.Minute {
		t.Fatalf("TelemetryInterval = %v, want 5 minutes", cfg.TelemetryInterval)
	}
}

func TestDeriveSeedStability(t *testing.T) {
	// Golden values: the derivation is part of the output contract — a
	// change here silently invalidates every recorded sweep.
	golden := []struct {
		base     uint64
		scenario int
		replica  int
		want     uint64
	}{
		{1, 0, 0, 0xcd63fe028821e419},
		{1, 0, 1, 0x94aa8cf12516fe88},
		{1, 1, 0, 0x3d8cb3d8e912971d},
		{42, 3, 7, 0xc1bc76a2540cd72},
	}
	for _, g := range golden {
		if got := DeriveSeed(g.base, g.scenario, g.replica); got != g.want {
			t.Fatalf("DeriveSeed(%d,%d,%d) unstable: %d vs %d", g.base, g.scenario, g.replica, got, g.want)
		}
	}
	// Distinctness across a realistic grid, plus sensitivity to each input.
	seen := map[uint64][3]int{}
	for base := uint64(1); base <= 3; base++ {
		for s := 0; s < 16; s++ {
			for r := 0; r < 16; r++ {
				seed := DeriveSeed(base, s, r)
				if prev, dup := seen[seed]; dup {
					t.Fatalf("seed collision: (%d,%d,%d) and (%d,%d,%d) -> %d",
						base, s, r, prev[0], prev[1], prev[2], seed)
				}
				seen[seed] = [3]int{int(base), s, r}
			}
		}
	}
	if DeriveSeed(1, 2, 3) == DeriveSeed(1, 3, 2) {
		t.Fatal("scenario and replica indices are interchangeable")
	}
}

func TestRunErrorPropagation(t *testing.T) {
	bad := tinyConfig()
	m := Matrix{Base: bad, Axes: []Axis{{
		Name: "retention",
		Values: []Value{
			{Label: "ok", Apply: func(c *core.Config) { c.CheckpointRetention = 0.9 }},
			{Label: "bad", Apply: func(c *core.Config) { c.CheckpointRetention = 7 }},
		},
	}}}
	done := make(chan struct{})
	var err error
	go func() {
		_, err = m.Run(Options{Replicas: 2, Workers: 4})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("pool hung on invalid scenario")
	}
	if err == nil {
		t.Fatal("want validation error surfaced from sweep")
	}
	if !strings.Contains(err.Error(), "retention=bad") {
		t.Fatalf("error does not name the offending scenario: %v", err)
	}
}

func TestAggregateHandComputed(t *testing.T) {
	a := aggregate([]float64{2, 4, 6, 8})
	if a.N != 4 {
		t.Fatalf("N = %d", a.N)
	}
	if a.Mean != 5 {
		t.Fatalf("mean = %v, want 5", a.Mean)
	}
	if a.P50 != 5 { // linear interpolation between 4 and 6
		t.Fatalf("p50 = %v, want 5", a.P50)
	}
	if a.Min != 2 || a.Max != 8 {
		t.Fatalf("min/max = %v/%v", a.Min, a.Max)
	}
	// Sample sd of {2,4,6,8} is sqrt(20/3); CI95 = t(0.975, df=3)*sd/2
	// with the Student-t critical value 3.182 for 3 degrees of freedom.
	wantCI := 3.182 * math.Sqrt(20.0/3.0) / 2
	if math.Abs(float64(a.CI95)-wantCI) > 1e-12 {
		t.Fatalf("ci95 = %v, want %v", a.CI95, wantCI)
	}
	// p95 of 4 points at ranks 0,1,2,3: rank 2.85 -> 6*(0.15)+8*(0.85).
	wantP95 := 6*0.15 + 8*0.85
	if math.Abs(float64(a.P95)-wantP95) > 1e-12 {
		t.Fatalf("p95 = %v, want %v", a.P95, wantP95)
	}

	single := aggregate([]float64{3})
	if single.CI95 != 0 || single.Mean != 3 || single.Min != 3 || single.Max != 3 {
		t.Fatalf("single-replica aggregate wrong: %+v", single)
	}
}

func TestSummarizeUsesMetricDefs(t *testing.T) {
	reps := []ReplicaMetrics{
		{JCTp50: 10, MeanUtilPct: 50, Preemptions: 3},
		{JCTp50: 20, MeanUtilPct: 60, Preemptions: 5},
	}
	s := Summarize(reps)
	if len(s) != len(Metrics()) {
		t.Fatalf("summary has %d metrics, want %d", len(s), len(Metrics()))
	}
	if jct := s["JCT p50 (min)"]; jct.Mean != 15 {
		t.Fatalf("JCT p50 aggregate = %+v, want mean 15", jct)
	}
	if pre := s["preempts"]; pre.Mean != 4 {
		t.Fatalf("preempts aggregate = %+v, want mean 4", pre)
	}
}

// TestWorkerCountInvariance is the harness's core guarantee (and an ISSUE
// acceptance criterion): a 2-axis × 2-value matrix with 4 replicas must
// produce byte-identical aggregated output with 1 worker and with 8.
func TestWorkerCountInvariance(t *testing.T) {
	base := tinyConfig()
	axes := []Axis{
		mustParse(t, "sched.policy=philly,fifo"),
		mustParse(t, "defrag=on,off"),
	}
	run := func(workers int) *Result {
		res, err := Matrix{Base: base, Axes: axes}.Run(Options{Replicas: 4, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r1, r8 := run(1), run(8)
	if !reflect.DeepEqual(r1, r8) {
		t.Fatal("sweep results differ between workers=1 and workers=8")
	}
	if r1.RenderTable() != r8.RenderTable() {
		t.Fatal("rendered tables differ between workers=1 and workers=8")
	}
	// Different base seeds must actually change the numbers.
	other, err := Matrix{Base: base, Axes: axes}.Run(Options{Replicas: 4, Workers: 8, BaseSeed: 99})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(r1.Scenarios[0].Replicas, other.Scenarios[0].Replicas) {
		t.Fatal("changing the base seed left replica metrics identical")
	}
}

func TestProgressCallback(t *testing.T) {
	var (
		mu    sync.Mutex
		calls int
		last  int
	)
	m := Matrix{Base: tinyConfig()}
	res, err := m.Run(Options{Replicas: 3, Workers: 2, Progress: func(done, total int) {
		if total != 3 {
			t.Errorf("total = %d, want 3", total)
		}
		mu.Lock()
		calls++
		if done > last {
			last = done
		}
		mu.Unlock()
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Scenarios) != 1 || len(res.Scenarios[0].Replicas) != 3 {
		t.Fatalf("unexpected shape: %d scenarios", len(res.Scenarios))
	}
	if calls != 3 || last != 3 {
		t.Fatalf("progress calls = %d (last %d), want 3", calls, last)
	}
}

func mustParse(t *testing.T, spec string) Axis {
	t.Helper()
	ax, err := ParseAxis(spec)
	if err != nil {
		t.Fatal(err)
	}
	return ax
}

// TestAlignLabels pins the structured-label prettifier: shared "a:b"
// structures component-align, everything else passes through untouched.
func TestAlignLabels(t *testing.T) {
	got := AlignLabels([]string{"4:8", "16:32", "0:0"})
	want := []string{" 4: 8", "16:32", " 0: 0"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("AlignLabels = %q, want %q", got, want)
	}
	// Mixed structure: unchanged.
	mixed := []string{"4:8", "fifo"}
	if got := AlignLabels(mixed); !reflect.DeepEqual(got, mixed) {
		t.Fatalf("mixed labels mutated: %q", got)
	}
	// No structure: unchanged.
	plain := []string{"philly", "fifo"}
	if got := AlignLabels(plain); !reflect.DeepEqual(got, plain) {
		t.Fatalf("plain labels mutated: %q", got)
	}
}

// TestRenderTableAxisColumns checks the comparison table renders one column
// per axis with aligned structured values instead of one opaque scenario
// string.
func TestRenderTableAxisColumns(t *testing.T) {
	base := tinyConfig()
	axes := []Axis{
		mustParse(t, "locality.relax=4:8,16:32"),
		mustParse(t, "sched.policy=philly,fifo"),
	}
	res, err := Matrix{Base: base, Axes: axes}.Run(Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	table := res.RenderTable()
	for _, want := range []string{"locality.relax", "sched.policy", " 4: 8", "16:32"} {
		if !strings.Contains(table, want) {
			t.Fatalf("table missing %q:\n%s", want, table)
		}
	}
	if strings.Contains(table, "locality.relax=") {
		t.Fatalf("table still renders opaque scenario names:\n%s", table)
	}
	// The no-axes fallback keeps the single scenario column.
	plain, err := Matrix{Base: base}.Run(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plain.RenderTable(), "scenario") {
		t.Fatalf("no-axis table lost the scenario column:\n%s", plain.RenderTable())
	}
}
