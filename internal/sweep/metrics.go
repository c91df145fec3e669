package sweep

import (
	"philly/internal/analysis"
	"philly/internal/core"
)

// ReplicaMetrics is the scalar reduction of one study run: the columns of
// its analysis.Tally the sweep table and export carry. The runner keeps
// these instead of whole StudyResults so a wide sweep stays memory-bounded,
// and every field is a pure function of the run — no wall-clock, no worker
// identity — so aggregated output is bit-identical across worker counts.
type ReplicaMetrics struct {
	// Seed is the derived per-run seed (recorded for reproducing one cell).
	Seed uint64
	// Jobs and Completed count the run's jobs (federation shells
	// excluded, see analysis.Tally) and those completed by the horizon.
	Jobs, Completed int
	// JCTp50 and JCTMean summarize completed jobs' completion times
	// (submit to end, minutes).
	JCTp50, JCTMean float64
	// DelayP50 and DelayP95 summarize first-episode queueing delay
	// (minutes), the paper's §3.1 metric.
	DelayP50, DelayP95 float64
	// MeanUtilPct is the cluster-wide mean per-minute GPU utilization.
	MeanUtilPct float64
	// Preemptions sums fair-share and policy preemptions; Migrations
	// counts defragmentation moves.
	Preemptions, Migrations int
	// GPUHours is total GPU time charged; FailedGPUHours the share burnt
	// on failed attempts (the Table 7 waste metric).
	GPUHours, FailedGPUHours float64
	// UnsuccessfulPct is the fraction of completed jobs that exhausted
	// retries, in percent.
	UnsuccessfulPct float64
	// LostGPUHours is GPU time destroyed by infrastructure-outage kills
	// (work since the victims' last checkpoints); CkptOverheadPct is the
	// share of GPU time spent writing/restoring checkpoints, in percent.
	// Both 0 when faults / the checkpoint cost model are off.
	LostGPUHours    float64
	CkptOverheadPct float64
	// ETTFHours / ETTRHours are the realized mean time between outage
	// events and mean outage duration, in hours (0 without outages).
	ETTFHours, ETTRHours float64
	// ImbalancePct is the cross-member utilization spread of a federated
	// run's fleet row (max member mean util minus min, in percentage
	// points); 0 for plain studies and individual member rows.
	ImbalancePct float64
	// PlacementSearches is the scheduler's placement-search count.
	// Exported per replica but not aggregated into table columns; 0 on a
	// fleet row.
	PlacementSearches int
}

// Reduce computes a replica's metrics from its study result: the study
// fold (analysis.Fold, which replays the retained records through the
// streaming reducer the runner registers) projected onto the replica
// columns.
func Reduce(res *core.StudyResult) ReplicaMetrics {
	return replicaMetrics(res.Config.Seed, analysis.Fold(res))
}

// replicaMetrics projects a study or fleet tally onto the replica columns.
func replicaMetrics(seed uint64, t analysis.Tally) ReplicaMetrics {
	return ReplicaMetrics{
		Seed:              seed,
		Jobs:              t.Jobs,
		Completed:         t.Completed,
		JCTp50:            t.JCTp50,
		JCTMean:           t.JCTMean,
		DelayP50:          t.DelayP50,
		DelayP95:          t.DelayP95,
		MeanUtilPct:       t.UtilMean,
		Preemptions:       t.Preemptions,
		Migrations:        t.Migrations,
		GPUHours:          t.GPUHours,
		FailedGPUHours:    t.FailedGPUHours,
		UnsuccessfulPct:   t.UnsuccessfulPct,
		LostGPUHours:      t.LostGPUHours,
		CkptOverheadPct:   t.CkptOverheadPct,
		ETTFHours:         t.ETTFHours,
		ETTRHours:         t.ETTRHours,
		ImbalancePct:      t.ImbalancePct,
		PlacementSearches: t.PlacementSearches,
	}
}

// MetricDef names one scalar column of the comparison table.
type MetricDef struct {
	// Name heads the table column.
	Name string
	// Get extracts the metric from a replica.
	Get func(ReplicaMetrics) float64
}

// Metrics is the default comparison-table column set, in render order.
func Metrics() []MetricDef {
	return []MetricDef{
		{"JCT p50 (min)", func(m ReplicaMetrics) float64 { return m.JCTp50 }},
		{"JCT mean (min)", func(m ReplicaMetrics) float64 { return m.JCTMean }},
		{"delay p50 (min)", func(m ReplicaMetrics) float64 { return m.DelayP50 }},
		{"delay p95 (min)", func(m ReplicaMetrics) float64 { return m.DelayP95 }},
		{"util %", func(m ReplicaMetrics) float64 { return m.MeanUtilPct }},
		{"preempts", func(m ReplicaMetrics) float64 { return float64(m.Preemptions) }},
		{"failed GPU-h", func(m ReplicaMetrics) float64 { return m.FailedGPUHours }},
		{"unsucc %", func(m ReplicaMetrics) float64 { return m.UnsuccessfulPct }},
		{"lost GPU-h", func(m ReplicaMetrics) float64 { return m.LostGPUHours }},
		{"ckpt ovh %", func(m ReplicaMetrics) float64 { return m.CkptOverheadPct }},
		{"ETTF (h)", func(m ReplicaMetrics) float64 { return m.ETTFHours }},
		{"ETTR (h)", func(m ReplicaMetrics) float64 { return m.ETTRHours }},
		{"imbalance pp", func(m ReplicaMetrics) float64 { return m.ImbalancePct }},
	}
}
