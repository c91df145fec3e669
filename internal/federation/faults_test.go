package federation

import (
	"math"
	"reflect"
	"testing"

	"philly/internal/cluster"
	"philly/internal/core"
	"philly/internal/faults"
	"philly/internal/simulation"
)

// chaosMember is a tinyMember with the outage engine and the checkpoint
// cost model on: random multi-tier outages plus, optionally, a
// deterministic cluster-wide maintenance window that guarantees a large
// evacuation-triggering outage.
func chaosMember(seed uint64, racks []cluster.RackConfig, jobs int, maintenance []faults.Maintenance) core.Config {
	cfg := tinyMember(seed, racks, jobs)
	cfg.Faults = faults.DefaultConfig()
	cfg.Faults.Enabled = true
	cfg.Faults = cfg.Faults.Scale(6)
	cfg.Faults.Maintenance = maintenance
	cfg.Checkpoint = core.DefaultCheckpointConfig()
	cfg.Checkpoint.Enabled = true
	cfg.Checkpoint.Interval = 15 * simulation.Minute
	return cfg
}

// chaosFleet is pressuredFleet with outages on every member, a whole-
// cluster maintenance window on the first (so it must evacuate), and
// checkpoint migration enabled.
func chaosFleet() Config {
	window := []faults.Maintenance{
		{Rack: -1, Start: 8 * simulation.Hour, Duration: simulation.Hour},
	}
	return Config{
		Members: []Member{
			{Name: "philly-tight", Config: chaosMember(11, []cluster.RackConfig{
				{Servers: 4, SKU: cluster.SKU8GPU},
			}, 260, window)},
			{Name: "philly-roomy", Config: chaosMember(12, []cluster.RackConfig{
				{Servers: 9, SKU: cluster.SKU8GPU},
				{Servers: 6, SKU: cluster.SKU2GPU},
			}, 140, nil)},
			{Name: "helios-ish", Config: chaosMember(13, []cluster.RackConfig{
				{Servers: 8, SKU: cluster.SKU8GPU},
			}, 160, nil)},
		},
		Spillover: Spillover{
			Enabled:          true,
			MinWait:          10 * simulation.Minute,
			Interval:         10 * simulation.Minute,
			MaxMovesPerCheck: 8,
		},
		Rebalance:  Rebalance{Enabled: true, Interval: simulation.Hour},
		Evacuation: DefaultEvacuation(),
	}
}

// TestChaosFleetInvariance is the federated determinism bar for the
// outage engine: a 3-member fleet with correlated outages, checkpointing,
// spillover, rebalancing AND checkpoint-migrating evacuation must produce
// a bit-identical Result across worker counts {1, 4} and the no-pool
// layout. CI runs it under -race in the GOMAXPROCS matrix.
func TestChaosFleetInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("federated chaos matrix is not a -short test")
	}
	cfg := chaosFleet()
	ref := runFleet(t, cfg, 0)

	// The claim is only interesting if the reliability machinery engaged.
	outages, kills := 0, 0
	for _, m := range ref.Members {
		outages += m.Result.Outages.Events
		kills += m.Result.Outages.KilledAttempts
	}
	if outages == 0 || kills < 2 {
		t.Fatalf("fleet saw %d outage(s), %d kill(s); the chaos config lost its pressure", outages, kills)
	}
	if ref.Fleet.EvacuationMoves == 0 {
		t.Fatal("no job was checkpoint-migrated; the maintenance window lost its bite")
	}

	for _, workers := range []int{1, 4} {
		res := runFleet(t, cfg, workers)
		if !reflect.DeepEqual(ref, res) {
			diffResults(t, ref, res)
			t.Fatalf("workers=%d diverged from the no-pool chaos run", workers)
		}
	}
}

// TestSingleMemberFaultsMatchesPlainStudy pins the outage engine against
// the fleet coordinator: a single-member federation (no cross-cluster
// interactions possible) with faults and checkpointing on must be
// byte-identical to the plain sequential Study under the same config —
// outage effects are global events, so the fleet barrier order must
// reproduce the sequential (at, seq) order exactly.
func TestSingleMemberFaultsMatchesPlainStudy(t *testing.T) {
	mc := chaosMember(7, []cluster.RackConfig{
		{Servers: 6, SKU: cluster.SKU8GPU},
		{Servers: 4, SKU: cluster.SKU2GPU},
	}, 220, []faults.Maintenance{
		{Rack: -1, Start: 5 * simulation.Hour, Duration: 30 * simulation.Minute},
	})

	st, err := core.NewStudy(mc)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := st.Run()
	if err != nil {
		t.Fatal(err)
	}
	if plain.Outages.KilledAttempts == 0 {
		t.Fatal("no outage kill; the comparison is vacuous")
	}

	fres := runFleet(t, Config{
		Members:    []Member{{Name: "solo", Config: mc}},
		Evacuation: DefaultEvacuation(), // inert with one member
	}, 0)
	if !reflect.DeepEqual(plain, fres.Members[0].Result) {
		got := fres.Members[0].Result
		for j := range plain.Jobs {
			if !reflect.DeepEqual(plain.Jobs[j], got.Jobs[j]) {
				t.Fatalf("first diverging job %d:\n%+v\nvs\n%+v",
					plain.Jobs[j].Spec.ID, plain.Jobs[j], got.Jobs[j])
			}
		}
		t.Fatal("single-member faulted federated run diverged from the plain study")
	}
}

// TestEvacuationAccounting checks checkpoint migration end to end: the
// outage-struck donor's evacuated shells and the receivers' resumed
// copies balance exactly, both sides keep their GPU-hour shares, and the
// fleet counters agree with the per-job marks.
func TestEvacuationAccounting(t *testing.T) {
	cfg := chaosFleet()
	res := runFleet(t, cfg, 0)
	if res.Fleet.EvacuationMoves == 0 {
		t.Fatal("no evacuation happened")
	}

	evacuated, resumed := 0, 0
	for _, m := range res.Members {
		stats := res.Fleet.Members[memberIndex(t, res, m.Name)]
		mEvac, mRes := 0, 0
		for i := range m.Result.Jobs {
			j := &m.Result.Jobs[i]
			if j.Evacuated {
				mEvac++
				if j.Completed {
					t.Fatalf("member %s job %d both evacuated and completed", m.Name, j.Spec.ID)
				}
				if j.GPUMinutes <= 0 {
					t.Fatalf("evacuated job %d kept no GPU time at the donor", j.Spec.ID)
				}
				// The donor shell's closed attempts account for every
				// minute it ran here, the evacuated episode included.
				attempts := 0.0
				for _, a := range j.Attempts {
					attempts += a.RuntimeMinutes
				}
				if math.Abs(attempts-j.RunMinutes) > 1e-9*j.RunMinutes {
					t.Fatalf("evacuated job %d: attempts sum to %v min, RunMinutes %v",
						j.Spec.ID, attempts, j.RunMinutes)
				}
			}
			if j.Resumed {
				mRes++
				if !j.Spillover {
					t.Fatalf("resumed job %d not marked as spillover at the receiver", j.Spec.ID)
				}
				if j.Spec.ID < 1<<30 {
					t.Fatalf("resumed job kept donor ID %d", j.Spec.ID)
				}
			}
		}
		if mEvac != stats.JobsEvacuated {
			t.Fatalf("member %s: %d evacuated marks != %d fleet stat", m.Name, mEvac, stats.JobsEvacuated)
		}
		if mRes != stats.JobsResumed {
			t.Fatalf("member %s: %d resumed marks != %d fleet stat", m.Name, mRes, stats.JobsResumed)
		}
		evacuated += mEvac
		resumed += mRes
	}
	if evacuated != resumed {
		t.Fatalf("evacuated %d != resumed %d", evacuated, resumed)
	}
	if evacuated != res.Fleet.EvacuationMoves {
		t.Fatalf("job marks %d != fleet moves %d", evacuated, res.Fleet.EvacuationMoves)
	}

	// At least one resumed copy must have made progress at the receiver —
	// the restore penalty is paid and the job keeps running.
	progressed := false
	for _, m := range res.Members {
		for i := range m.Result.Jobs {
			j := &m.Result.Jobs[i]
			if j.Resumed && j.GPUMinutes > 0 {
				progressed = true
			}
		}
	}
	if !progressed {
		t.Fatal("no resumed job accrued GPU time at its receiver")
	}
}

// memberIndex resolves a member name to its index in Fleet.Members.
func memberIndex(t *testing.T, res *Result, name string) int {
	t.Helper()
	for i, m := range res.Fleet.Members {
		if m.Name == name {
			return i
		}
	}
	t.Fatalf("member %q not in fleet stats", name)
	return -1
}

// TestResumedCopiesAreNotOffloaded: an evacuated job's resumed copy waits
// at its receiver with the donor's checkpointed remaining work, so plain
// spillover — which re-plans a job's full clean work — must never move
// it. philly-small+helios-like with every outage domain at 8x frequency
// and 30-minute checkpoints (philly-sim -federation philly-small+helios-like
// -seed 1 -faults all:8 -checkpoint 30) queues resumed copies long enough
// to become spillover candidates.
func TestResumedCopiesAreNotOffloaded(t *testing.T) {
	cfg, err := ParseSpec(1, "philly-small+helios-like")
	if err != nil {
		t.Fatal(err)
	}
	fc, err := faults.ParseSpec("all:8")
	if err != nil {
		t.Fatal(err)
	}
	cc, err := core.ParseCheckpointSpec("30")
	if err != nil {
		t.Fatal(err)
	}
	for i := range cfg.Members {
		cfg.Members[i].Config.Faults = fc.Clone()
		cfg.Members[i].Config.Checkpoint = cc
	}
	res := runFleet(t, cfg, 0)
	if res.Fleet.SpilloverMoves == 0 || res.Fleet.EvacuationMoves == 0 {
		t.Fatalf("fleet made %d spillover and %d evacuation moves; the test needs both",
			res.Fleet.SpilloverMoves, res.Fleet.EvacuationMoves)
	}
	for _, m := range res.Members {
		for i := range m.Result.Jobs {
			if j := &m.Result.Jobs[i]; j.Resumed && j.Offloaded {
				t.Errorf("member %s: resumed copy %d was offloaded as a fresh job", m.Name, j.Spec.ID)
			}
		}
	}
}
