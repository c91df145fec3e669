package analysis

import (
	"strings"
	"testing"

	"philly/internal/cluster"
	"philly/internal/core"
	"philly/internal/faults"
	"philly/internal/federation"
	"philly/internal/simulation"
)

// fleetMember is a reduced study configuration for federation members.
func fleetMember(seed uint64, servers, jobs int) core.Config {
	cfg := core.SmallConfig()
	cfg.Seed = seed
	cfg.Workload.TotalJobs = jobs
	cfg.Workload.Duration = 2 * simulation.Day
	cfg.Cluster = cluster.Config{Racks: []cluster.RackConfig{
		{Servers: servers, SKU: cluster.SKU8GPU},
	}}
	return cfg
}

// twoMemberFleet runs a small two-member federation that both spills and
// evacuates: an undersized member with a whole-cluster maintenance window
// and checkpointing on, beside a roomier one.
func twoMemberFleet(t *testing.T) *federation.Result {
	t.Helper()
	tight := fleetMember(3, 4, 260)
	tight.Faults = faults.DefaultConfig()
	tight.Faults.Enabled = true
	tight.Faults.Maintenance = []faults.Maintenance{
		{Rack: -1, Start: 8 * simulation.Hour, Duration: simulation.Hour},
	}
	tight.Checkpoint = core.DefaultCheckpointConfig()
	tight.Checkpoint.Enabled = true
	tight.Checkpoint.Interval = 15 * simulation.Minute
	res, err := federation.Run(federation.Config{
		Members: []federation.Member{
			{Name: "philly-a", Config: tight},
			{Name: "helios-b", Config: fleetMember(4, 8, 120)},
		},
		Spillover: federation.Spillover{
			Enabled:          true,
			MinWait:          10 * simulation.Minute,
			Interval:         10 * simulation.Minute,
			MaxMovesPerCheck: 8,
		},
		Evacuation: federation.DefaultEvacuation(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fleet.SpilloverMoves == 0 || res.Fleet.EvacuationMoves == 0 {
		t.Fatalf("fleet made %d spillover and %d evacuation moves; the test needs both",
			res.Fleet.SpilloverMoves, res.Fleet.EvacuationMoves)
	}
	return res
}

// TestComputeFleet checks the per-member rows and the combined fold over
// a real federation: counts sum, offloaded and evacuated shells are not
// jobs, the traffic columns are federation's per-move counters, and the
// rendered table carries every member.
func TestComputeFleet(t *testing.T) {
	res := twoMemberFleet(t)
	rep := ComputeFleet(res)
	if len(rep.Rows) != 3 {
		t.Fatalf("got %d rows, want 2 members + fleet", len(rep.Rows))
	}
	ra, rb, fleet := rep.Rows[0], rep.Rows[1], rep.Rows[2]
	if ra.Name != "philly-a" || rb.Name != "helios-b" || fleet.Name != "fleet" {
		t.Fatalf("row names = %q, %q, %q", ra.Name, rb.Name, fleet.Name)
	}
	for i, row := range rep.Rows[:2] {
		fs := res.Fleet.Members[i]
		if row.Offloaded != fs.JobsOffloaded || row.Received != fs.JobsReceived ||
			row.Evacuated != fs.JobsEvacuated || row.Resumed != fs.JobsResumed {
			t.Fatalf("%s traffic = %d/%d/%d/%d, federation counted %+v",
				row.Name, row.Offloaded, row.Received, row.Evacuated, row.Resumed, fs)
		}
		shells := 0
		for _, j := range res.Members[i].Result.Jobs {
			if j.Offloaded || j.Evacuated {
				shells++
			}
		}
		if want := len(res.Members[i].Result.Jobs) - shells; row.Jobs != want {
			t.Fatalf("%s jobs = %d, want %d (shells excluded)", row.Name, row.Jobs, want)
		}
	}
	if fleet.Jobs != ra.Jobs+rb.Jobs || fleet.Completed != ra.Completed+rb.Completed {
		t.Fatalf("fleet sums wrong: %+v vs %+v + %+v", fleet, ra, rb)
	}
	if fleet.GPUs != ra.GPUs+rb.GPUs {
		t.Fatalf("fleet GPUs = %d, want %d", fleet.GPUs, ra.GPUs+rb.GPUs)
	}
	if fleet.GPUHours <= 0 || fleet.UtilMean <= 0 {
		t.Fatalf("fleet carries no load: %+v", fleet)
	}
	// Percentiles over the union sit within the member range.
	lo, hi := ra.DelayP95, rb.DelayP95
	if lo > hi {
		lo, hi = hi, lo
	}
	if fleet.DelayP95 < lo-1e-9 || fleet.DelayP95 > hi+1e-9 {
		t.Fatalf("fleet delay p95 %.2f outside member range [%.2f, %.2f]", fleet.DelayP95, lo, hi)
	}

	out := rep.Render()
	for _, want := range []string{"philly-a", "helios-b", "fleet", "delay p95", "failed GPU-h"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered fleet table lacks %q:\n%s", want, out)
		}
	}
}
