package federation

import (
	"reflect"
	"testing"

	"philly/internal/cluster"
	"philly/internal/core"
	"philly/internal/par"
	"philly/internal/simulation"
)

// tinyMember returns a fast member config: SmallConfig distributions on a
// reduced cluster and trace so a federated run takes well under a second.
func tinyMember(seed uint64, racks []cluster.RackConfig, jobs int) core.Config {
	cfg := core.SmallConfig()
	cfg.Seed = seed
	cfg.Cluster = cluster.Config{Racks: racks}
	cfg.Workload.TotalJobs = jobs
	cfg.Workload.Duration = 2 * simulation.Day
	return cfg
}

// pressuredFleet returns a 3-member federation with real queue pressure on
// the first member (a deliberately undersized cluster), so spillover has
// work to do, plus rebalancing on.
func pressuredFleet() Config {
	return Config{
		Members: []Member{
			{Name: "philly-tight", Config: tinyMember(11, []cluster.RackConfig{
				{Servers: 4, SKU: cluster.SKU8GPU},
			}, 260)},
			{Name: "philly-roomy", Config: tinyMember(12, []cluster.RackConfig{
				{Servers: 9, SKU: cluster.SKU8GPU},
				{Servers: 6, SKU: cluster.SKU2GPU},
			}, 140)},
			{Name: "helios-ish", Config: tinyMember(13, []cluster.RackConfig{
				{Servers: 8, SKU: cluster.SKU8GPU},
			}, 160)},
		},
		Spillover: Spillover{
			Enabled:          true,
			MinWait:          10 * simulation.Minute,
			Interval:         10 * simulation.Minute,
			MaxMovesPerCheck: 8,
		},
		Rebalance: Rebalance{Enabled: true, Interval: simulation.Hour},
	}
}

// runFleet executes one federated study over a pool of the given size
// (0 = no pool).
func runFleet(t *testing.T, cfg Config, workers int) *Result {
	t.Helper()
	st, err := NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if workers > 0 {
		pool := par.NewPool(workers)
		defer pool.Close()
		st.SetPool(pool)
	}
	res, err := st.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestFederationWorkerInvariance is the acceptance bar: a 3-member
// federated study with spillover and rebalancing enabled produces a
// bit-identical federation.Result across worker counts {1, 4} and the
// no-pool layout, all against the no-pool reference — member lanes run
// concurrently inside fleet windows at workers 4, inline at 1/none, and
// the result must not care. reflect.DeepEqual compares unexported
// telemetry recorder state too, so this is strictly stronger than hashing
// a rendered report.
func TestFederationWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("federated invariance matrix is not a -short test")
	}
	cfg := pressuredFleet()
	ref := runFleet(t, cfg, 0)

	// The invariance claim is only interesting if the cross-cluster
	// machinery actually engaged.
	if ref.Fleet.SpilloverMoves == 0 {
		t.Fatal("fleet exercised no spillover; the test config lost its queue pressure")
	}
	if ref.Fleet.QuotaChanges == 0 {
		t.Fatal("fleet exercised no quota rebalancing")
	}
	if ref.Fleet.Windows.MultiShardWindows == 0 {
		t.Fatal("no fleet window advanced multiple members; members serialized")
	}
	received := 0
	for _, m := range ref.Fleet.Members {
		received += m.JobsReceived
	}
	if received != ref.Fleet.SpilloverMoves {
		t.Fatalf("per-member received %d != fleet moves %d", received, ref.Fleet.SpilloverMoves)
	}

	for _, workers := range []int{1, 4} {
		res := runFleet(t, cfg, workers)
		if !reflect.DeepEqual(ref, res) {
			diffResults(t, ref, res)
			t.Fatalf("workers=%d diverged from the no-pool federated run", workers)
		}
	}
}

// diffResults narrows a DeepEqual failure to the first diverging member.
func diffResults(t *testing.T, a, b *Result) {
	t.Helper()
	if !reflect.DeepEqual(a.Fleet, b.Fleet) {
		t.Errorf("fleet stats diverged: %+v vs %+v", a.Fleet, b.Fleet)
	}
	for i := range a.Members {
		if i >= len(b.Members) {
			break
		}
		ar, br := a.Members[i].Result, b.Members[i].Result
		if reflect.DeepEqual(ar, br) {
			continue
		}
		for j := range ar.Jobs {
			if j < len(br.Jobs) && !reflect.DeepEqual(ar.Jobs[j], br.Jobs[j]) {
				t.Errorf("member %s: first diverging job %d:\n%+v\nvs\n%+v",
					a.Members[i].Name, ar.Jobs[j].Spec.ID, ar.Jobs[j], br.Jobs[j])
				break
			}
		}
		t.Errorf("member %s diverged", a.Members[i].Name)
	}
}

// TestSingleMemberMatchesPlainStudy pins the member-view plumbing: with one
// member and all cross-cluster interactions disabled, a federated run must
// be byte-identical to the plain sequential Study — same event order, same
// clock, same SimEnd, every float in every record.
func TestSingleMemberMatchesPlainStudy(t *testing.T) {
	mc := tinyMember(7, []cluster.RackConfig{
		{Servers: 6, SKU: cluster.SKU8GPU},
		{Servers: 4, SKU: cluster.SKU2GPU},
	}, 220)

	st, err := core.NewStudy(mc)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := st.Run()
	if err != nil {
		t.Fatal(err)
	}

	fres := runFleet(t, Config{Members: []Member{{Name: "solo", Config: mc}}}, 0)
	if len(fres.Members) != 1 {
		t.Fatalf("got %d member results", len(fres.Members))
	}
	if !reflect.DeepEqual(plain, fres.Members[0].Result) {
		got := fres.Members[0].Result
		for j := range plain.Jobs {
			if !reflect.DeepEqual(plain.Jobs[j], got.Jobs[j]) {
				t.Fatalf("first diverging job %d:\n%+v\nvs\n%+v",
					plain.Jobs[j].Spec.ID, plain.Jobs[j], got.Jobs[j])
			}
		}
		if plain.SimEnd != got.SimEnd {
			t.Fatalf("SimEnd diverged: %v vs %v", plain.SimEnd, got.SimEnd)
		}
		t.Fatal("single-member federated run diverged from the plain study")
	}
}

// TestSpilloverAccounting checks the donor/receiver bookkeeping end to
// end: offloaded jobs are marked and excluded from completion, injected
// copies carry the Spillover mark and fresh IDs, and the job count
// balances across the fleet.
func TestSpilloverAccounting(t *testing.T) {
	cfg := pressuredFleet()
	res := runFleet(t, cfg, 0)

	offloaded, injected := 0, 0
	for mi, m := range res.Members {
		for i := range m.Result.Jobs {
			j := &m.Result.Jobs[i]
			if j.Offloaded {
				offloaded++
				if j.Completed {
					t.Fatalf("member %s job %d both offloaded and completed", m.Name, j.Spec.ID)
				}
				if len(j.Attempts) != 0 {
					t.Fatalf("offloaded job %d has %d attempts here", j.Spec.ID, len(j.Attempts))
				}
			}
			if j.Spillover {
				injected++
				if j.Spec.ID < 1<<30 {
					t.Fatalf("injected job kept donor ID %d", j.Spec.ID)
				}
				if mi == 0 {
					// The pressured member is the donor in this config; it
					// has no free capacity to absorb anything.
					t.Fatalf("pressured member received spillover job %d", j.Spec.ID)
				}
			}
		}
	}
	if offloaded == 0 {
		t.Fatal("no jobs were offloaded")
	}
	if offloaded != injected {
		t.Fatalf("offloaded %d != injected %d", offloaded, injected)
	}
	if offloaded != res.Fleet.SpilloverMoves {
		t.Fatalf("job marks %d != fleet moves %d", offloaded, res.Fleet.SpilloverMoves)
	}
}

// TestSpilloverNeverTargetsFinishedMembers pins the drained-member trap:
// a member that finishes its own tiny workload early holds the most free
// GPUs in the fleet, but its event lane is stopped — an injected
// submission would pend forever and the job would silently vanish.
// Spillover must route around it, and with members sized to drain within
// the horizon, every logical job must reach a terminal state somewhere.
func TestSpilloverNeverTargetsFinishedMembers(t *testing.T) {
	early := tinyMember(22, []cluster.RackConfig{{Servers: 10, SKU: cluster.SKU8GPU}}, 5)
	early.Workload.Duration = 6 * simulation.Hour
	cfg := Config{
		Members: []Member{
			{Name: "tight", Config: tinyMember(21, []cluster.RackConfig{
				{Servers: 4, SKU: cluster.SKU8GPU},
			}, 200)},
			{Name: "early", Config: early},
			{Name: "roomy", Config: tinyMember(23, []cluster.RackConfig{
				{Servers: 9, SKU: cluster.SKU8GPU},
			}, 120)},
		},
		Spillover: Spillover{
			Enabled:          true,
			MinWait:          10 * simulation.Minute,
			Interval:         10 * simulation.Minute,
			MaxMovesPerCheck: 8,
		},
	}
	res := runFleet(t, cfg, 0)
	if res.Fleet.SpilloverMoves == 0 {
		t.Fatal("no spillover happened; the test exerts no pressure")
	}
	// The lost-job signature: a record submitted after its member's clock
	// stopped — the lane was already dead, so the submission event can
	// never run. (Jobs merely cut by the horizon are normal and keep
	// SubmitAt <= SimEnd.)
	for _, m := range res.Members {
		for i := range m.Result.Jobs {
			j := &m.Result.Jobs[i]
			if j.Offloaded {
				continue
			}
			if j.Spec.SubmitAt > m.Result.SimEnd {
				t.Errorf("member %s: job %d (spillover=%v) submitted at %v after the member's end %v — injected into a dead lane",
					m.Name, j.Spec.ID, j.Spillover, j.Spec.SubmitAt, m.Result.SimEnd)
			}
		}
	}
	// The early member's own run must actually have ended long before the
	// fleet's, or the scenario never created the drained-target temptation.
	earlyRes := res.Members[1].Result
	if earlyRes.SimEnd >= res.Members[0].Result.SimEnd {
		t.Fatalf("early member did not finish early (SimEnd %v)", earlyRes.SimEnd)
	}
}

// TestParseSpecAndPresets covers the spec syntax and preset resolution,
// including duplicate-preset naming and unknown presets.
func TestParseSpecAndPresets(t *testing.T) {
	cfg, err := ParseSpec(42, "philly-small + helios-like+philly-small")
	if err != nil {
		t.Fatal(err)
	}
	names := []string{cfg.Members[0].Name, cfg.Members[1].Name, cfg.Members[2].Name}
	want := []string{"philly-small#1", "helios-like", "philly-small#2"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("member names = %v, want %v", names, want)
	}
	if cfg.Members[0].Config.Seed == cfg.Members[2].Config.Seed {
		t.Fatal("duplicate presets must get distinct derived seeds")
	}
	if !cfg.Spillover.Enabled || !cfg.Rebalance.Enabled {
		t.Fatal("ParseSpec must default interactions on")
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseSpec(1, "philly-small+no-such-preset"); err == nil {
		t.Fatal("unknown preset must error")
	}
	if _, err := ParseSpec(1, " + "); err == nil {
		t.Fatal("empty spec must error")
	}
	for _, p := range Presets() {
		c, err := PresetConfig(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("preset %s: %v", p, err)
		}
	}
}

// TestValidate covers the federation-level validation errors.
func TestValidate(t *testing.T) {
	good := pressuredFleet()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"no members", func(c *Config) { c.Members = nil }},
		{"empty member name", func(c *Config) { c.Members[0].Name = "" }},
		{"duplicate member name", func(c *Config) { c.Members[1].Name = c.Members[0].Name }},
		{"bad member config", func(c *Config) { c.Members[0].Config.TelemetryInterval = 0 }},
		{"bad spillover interval", func(c *Config) { c.Spillover.Interval = 0 }},
		{"bad spillover moves", func(c *Config) { c.Spillover.MaxMovesPerCheck = 0 }},
		{"negative spillover wait", func(c *Config) { c.Spillover.MinWait = -1 }},
		{"bad rebalance interval", func(c *Config) { c.Rebalance.Interval = 0 }},
	}
	for _, tc := range cases {
		cfg := pressuredFleet()
		tc.mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted an invalid config", tc.name)
		}
	}
}
