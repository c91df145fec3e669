package core

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"philly/internal/faults"
	"philly/internal/simulation"
)

// faultyConfig is a fast study with the outage engine and the checkpoint
// cost model on: random outages on every domain tier (sped up so an
// 18-hour trace sees several), plus a deterministic cluster-wide
// maintenance window guaranteeing at least one same-instant mass kill.
func faultyConfig(seed uint64) Config {
	cfg := SmallConfig()
	cfg.Seed = seed
	cfg.Workload.TotalJobs = 400
	cfg.Workload.Duration = 18 * simulation.Hour
	cfg.Faults = faults.DefaultConfig()
	cfg.Faults.Enabled = true
	cfg.Faults = cfg.Faults.Scale(8)
	cfg.Faults.Maintenance = []faults.Maintenance{
		// Whole-cluster window mid-trace: every running attempt dies at the
		// same instant, and the repair lands well inside the horizon.
		{Rack: -1, Start: 6 * simulation.Hour, Duration: 20 * simulation.Minute},
		{Rack: 0, Start: 10 * simulation.Hour, Duration: simulation.Hour},
	}
	cfg.Checkpoint = DefaultCheckpointConfig()
	cfg.Checkpoint.Enabled = true
	return cfg
}

// TestOutageInvariance is the tentpole's determinism bar: an outage- and
// checkpoint-enabled study — including a same-instant cluster-wide mass
// kill — must produce a bit-identical StudyResult on the sequential
// engine at workers {1, 2, 4} and with per-VC event sharding at workers
// {1, 4}. Outage effects are global events
// scheduled at Arm in plan order, so every engine must realize the same
// (at, seq) kill/hold/repair order.
func TestOutageInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run invariance matrix is not a -short test")
	}
	for _, seed := range []uint64{3, 17} {
		cfg := faultyConfig(seed)
		seq, seqStudy := runWithPool(t, cfg, 0)

		// The claim is only interesting if the outage machinery engaged.
		if seq.Outages.Events == 0 {
			t.Fatal("no outage fired; the test config lost its fault pressure")
		}
		if seq.Outages.KilledAttempts < 2 {
			t.Fatalf("only %d attempts killed; mass-kill coverage needs at least 2",
				seq.Outages.KilledAttempts)
		}
		if seq.Outages.MaintenanceEvents == 0 {
			t.Fatal("maintenance windows never fired")
		}
		if seq.Outages.LostGPUHours <= 0 || seq.Outages.DownGPUHours <= 0 {
			t.Fatalf("outage accounting empty: %+v", seq.Outages)
		}
		if seq.Outages.CkptOverheadGPUHours <= 0 {
			t.Fatal("checkpoint cost model never charged overhead")
		}
		// Every outage in this config repairs inside the horizon, so all
		// sentinel holds must have been released.
		if seqStudy.heldGPUs != 0 {
			t.Fatalf("%d GPUs still held after the run", seqStudy.heldGPUs)
		}

		for _, workers := range []int{1, 2, 4} {
			res, _ := runWithPool(t, cfg, workers)
			if !reflect.DeepEqual(seq, res) {
				diffStudyResults(t, seq, res)
				t.Fatalf("seed=%d workers=%d diverged from sequential engine", seed, workers)
			}
		}
		for _, workers := range []int{1, 4} {
			res, st := runShardedWithPool(t, cfg, workers)
			if !st.EventSharded() {
				t.Fatal("sharded run did not use per-VC event sharding")
			}
			if !reflect.DeepEqual(seq, res) {
				diffStudyResults(t, seq, res)
				t.Fatalf("seed=%d sharded workers=%d diverged from sequential engine",
					seed, workers)
			}
		}
	}
}

// TestFaultsOffIsByteIdenticalToDefault pins the RNG-stream isolation:
// the faults split is drawn from the master stream whether or not the
// engine is enabled, so an explicitly-disabled faults config must be
// byte-identical to the untouched default — outage support cannot perturb
// a study that does not use it.
func TestFaultsOffIsByteIdenticalToDefault(t *testing.T) {
	base := SmallConfig()
	base.Seed = 9
	base.Workload.TotalJobs = 300
	base.Workload.Duration = simulation.Day

	want, _ := runWithPool(t, base, 0)

	cfg := base
	cfg.Faults = faults.DefaultConfig() // Enabled=false, but fully populated
	cfg.Faults.Maintenance = []faults.Maintenance{{Rack: -1, Start: simulation.Hour, Duration: simulation.Hour}}
	cfg.Checkpoint = DefaultCheckpointConfig() // Enabled=false
	got, _ := runWithPool(t, cfg, 0)
	// The recorded Config legitimately differs (it carries the disabled
	// faults settings); everything the simulation produced must not.
	got.Config = want.Config
	if !reflect.DeepEqual(want, got) {
		diffStudyResults(t, want, got)
		t.Fatal("disabled faults/checkpoint config diverged from the default study")
	}
}

// TestCheckpointReducesLostWork pins the cost model's direction: with the
// same outage schedule, enabling periodic checkpoints must cut lost
// GPU-hours (kills roll back to the last checkpoint instead of the
// episode start) and must charge a positive write/restore overhead.
func TestCheckpointReducesLostWork(t *testing.T) {
	cfg := faultyConfig(5)
	cfg.Checkpoint.Enabled = false
	off, _ := runWithPool(t, cfg, 0)

	cfg.Checkpoint.Enabled = true
	cfg.Checkpoint.Interval = 10 * simulation.Minute
	on, _ := runWithPool(t, cfg, 0)

	if off.Outages.KilledAttempts == 0 || on.Outages.KilledAttempts == 0 {
		t.Fatal("outages killed nothing; the comparison is vacuous")
	}
	if off.Outages.CkptOverheadGPUHours != 0 {
		t.Fatalf("disabled cost model charged %.2f GPU-h overhead", off.Outages.CkptOverheadGPUHours)
	}
	if on.Outages.CkptOverheadGPUHours <= 0 {
		t.Fatal("enabled cost model charged no overhead")
	}
	if on.Outages.LostGPUHours >= off.Outages.LostGPUHours {
		t.Fatalf("checkpointing did not reduce lost work: %.1f GPU-h on vs %.1f off",
			on.Outages.LostGPUHours, off.Outages.LostGPUHours)
	}
}

// TestOutageStatsConsistency cross-checks the study-level outage
// aggregates against the per-job records they summarize.
func TestOutageStatsConsistency(t *testing.T) {
	cfg := faultyConfig(13)
	res, _ := runWithPool(t, cfg, 0)

	kills := 0
	var lostGPUh, ckptGPUh float64
	for i := range res.Jobs {
		j := &res.Jobs[i]
		kills += j.OutageKills
		lostGPUh += j.LostGPUMinutes / 60
		ckptGPUh += j.CkptGPUMinutes / 60
	}
	if kills != res.Outages.KilledAttempts {
		t.Fatalf("per-job kills %d != study KilledAttempts %d", kills, res.Outages.KilledAttempts)
	}
	if math.Abs(lostGPUh-res.Outages.LostGPUHours) > 1e-6 {
		t.Fatalf("per-job lost %.6f GPU-h != study %.6f", lostGPUh, res.Outages.LostGPUHours)
	}
	if math.Abs(ckptGPUh-res.Outages.CkptOverheadGPUHours) > 1e-6 {
		t.Fatalf("per-job ckpt overhead %.6f GPU-h != study %.6f", ckptGPUh, res.Outages.CkptOverheadGPUHours)
	}
	if res.Outages.ETTFHours <= 0 || res.Outages.ETTRHours <= 0 {
		t.Fatalf("ETTF/ETTR not realized: %+v", res.Outages)
	}
	// DownGPUs telemetry: some occupancy sample must have seen held capacity.
	sawDown := false
	for _, s := range res.OccupancySamples {
		if s.DownGPUs > 0 {
			sawDown = true
			if s.DownGPUs > 1 {
				t.Fatalf("DownGPUs fraction %v > 1", s.DownGPUs)
			}
		}
	}
	if !sawDown {
		t.Fatal("no occupancy sample recorded down capacity")
	}
}

// TestParseCheckpointSpec exercises the CLI spec grammar, valid and not.
func TestParseCheckpointSpec(t *testing.T) {
	if cfg, err := ParseCheckpointSpec("off"); err != nil || cfg.Enabled {
		t.Fatalf("off: cfg=%+v err=%v", cfg, err)
	}
	cfg, err := ParseCheckpointSpec("15")
	if err != nil || !cfg.Enabled || cfg.Interval != 15*simulation.Minute {
		t.Fatalf("15: cfg=%+v err=%v", cfg, err)
	}
	if cfg.WriteSeconds != DefaultCheckpointConfig().WriteSeconds {
		t.Fatalf("15: write cost %v did not default", cfg.WriteSeconds)
	}
	cfg, err = ParseCheckpointSpec("30:45:90")
	if err != nil || cfg.Interval != 30*simulation.Minute || cfg.WriteSeconds != 45 || cfg.RestoreSeconds != 90 {
		t.Fatalf("30:45:90: cfg=%+v err=%v", cfg, err)
	}
	for _, bad := range []string{"", "0", "-3", "x", "5:-1", "5:1:-2", "5:1:2:3", "5:y"} {
		if _, err := ParseCheckpointSpec(bad); err == nil {
			t.Fatalf("spec %q: want error", bad)
		} else if !strings.Contains(err.Error(), "checkpoint spec") {
			t.Fatalf("spec %q: undescriptive error %v", bad, err)
		}
	}
}
