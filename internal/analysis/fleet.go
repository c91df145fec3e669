package analysis

// Fleet-level aggregation for federated studies (internal/federation):
// the cross-cluster comparison the Helios and Meta characterizations make
// — do queueing, utilization and failure profiles transfer across members?
// — as one per-member table with a combined fleet row.
//
// The table's metric columns are the study fold (fold.go): each member's
// Tally and CombineFleet over them, the same tallies internal/sweep
// projects onto a federated scenario's member and fleet rows. Its traffic
// columns are federation's own per-move counters.

import (
	"fmt"
	"strings"

	"philly/internal/federation"
)

// FleetRow is one member's (or the combined fleet's) aggregate line: the
// member's fold (the fleet's CombineFleet) plus its spillover and
// evacuation traffic.
type FleetRow struct {
	Name string
	Tally
	// Offloaded and Received count spillover moves out of and into this
	// member.
	Offloaded, Received int
	// Evacuated counts running jobs checkpoint-migrated away from this
	// member after an outage; Resumed counts those restored here.
	Evacuated, Resumed int
}

// FleetReport is the per-member + combined aggregation of a federated
// study.
type FleetReport struct {
	// Rows holds one row per member, in fleet order, then the combined
	// "fleet" row.
	Rows []FleetRow
}

// ComputeFleet aggregates a federated study into one row per member — its
// fold replayed over the retained records, and its traffic as
// res.Fleet.Members counted it, once per move — and the combined "fleet"
// row: CombineFleet over the member tallies, with traffic summed.
func ComputeFleet(res *federation.Result) FleetReport {
	var rep FleetReport
	fleet := FleetRow{Name: "fleet"}
	tallies := make([]Tally, len(res.Members))
	for i, m := range res.Members {
		tallies[i] = Fold(m.Result)
		tr := res.Fleet.Members[i]
		row := FleetRow{
			Name:      m.Name,
			Tally:     tallies[i],
			Offloaded: tr.JobsOffloaded,
			Received:  tr.JobsReceived,
			Evacuated: tr.JobsEvacuated,
			Resumed:   tr.JobsResumed,
		}
		fleet.Offloaded += row.Offloaded
		fleet.Received += row.Received
		fleet.Evacuated += row.Evacuated
		fleet.Resumed += row.Resumed
		rep.Rows = append(rep.Rows, row)
	}
	fleet.Tally = CombineFleet(tallies)
	rep.Rows = append(rep.Rows, fleet)
	return rep
}

// Render prints the fleet comparison table.
func (r FleetReport) Render() string {
	t := &Table{Header: []string{
		"member", "GPUs", "jobs", "completed", "offloaded", "received",
		"evac", "resumed",
		"delay p50", "delay p95", "util %", "GPU-h", "failed GPU-h", "failed att", "unsucc %",
		"lost GPU-h", "ckpt GPU-h", "imbal pp",
	}}
	for _, row := range r.Rows {
		t.Add(row.Name,
			fmt.Sprintf("%d", row.GPUs),
			fmt.Sprintf("%d", row.Jobs),
			fmt.Sprintf("%d", row.Completed),
			fmt.Sprintf("%d", row.Offloaded),
			fmt.Sprintf("%d", row.Received),
			fmt.Sprintf("%d", row.Evacuated),
			fmt.Sprintf("%d", row.Resumed),
			f1(row.DelayP50), f1(row.DelayP95), f1(row.UtilMean),
			f1(row.GPUHours), f1(row.FailedGPUHours),
			fmt.Sprintf("%d", row.FailedAttempts), f1(row.UnsuccessfulPct),
			f1(row.LostGPUHours), f1(row.CkptGPUHours), f1(row.ImbalancePct))
	}
	var b strings.Builder
	b.WriteString("Fleet: per-member and combined queueing / utilization / failure aggregates\n")
	b.WriteString(t.String())
	return b.String()
}
