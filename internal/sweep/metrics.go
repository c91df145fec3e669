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
// The JSON tags and field order are the export's replica record; floats
// are NFloat so an undefined metric encodes as null.
type ReplicaMetrics struct {
	// Seed is the derived per-run seed (recorded for reproducing one cell).
	Seed uint64 `json:"seed"`
	// Jobs and Completed count the run's jobs (federation shells
	// excluded, see analysis.Tally) and those completed by the horizon.
	Jobs      int `json:"jobs"`
	Completed int `json:"completed"`
	// JCTp50 and JCTMean summarize completed jobs' completion times
	// (submit to end, minutes).
	JCTp50  NFloat `json:"jct_p50_min"`
	JCTMean NFloat `json:"jct_mean_min"`
	// DelayP50 and DelayP95 summarize first-episode queueing delay
	// (minutes), the paper's §3.1 metric.
	DelayP50 NFloat `json:"delay_p50_min"`
	DelayP95 NFloat `json:"delay_p95_min"`
	// MeanUtilPct is the cluster-wide mean per-minute GPU utilization.
	MeanUtilPct NFloat `json:"mean_util_pct"`
	// Preemptions sums fair-share and policy preemptions; Migrations
	// counts defragmentation moves.
	Preemptions int `json:"preemptions"`
	Migrations  int `json:"migrations"`
	// GPUHours is total GPU time charged; FailedGPUHours the share burnt
	// on failed attempts (the Table 7 waste metric).
	GPUHours       NFloat `json:"gpu_hours"`
	FailedGPUHours NFloat `json:"failed_gpu_hours"`
	// UnsuccessfulPct is the fraction of completed jobs that exhausted
	// retries, in percent.
	UnsuccessfulPct NFloat `json:"unsuccessful_pct"`
	// LostGPUHours is GPU time destroyed by infrastructure-outage kills
	// (work since the victims' last checkpoints); CkptOverheadPct is the
	// share of GPU time spent writing/restoring checkpoints, in percent.
	// Both 0 when faults / the checkpoint cost model are off.
	//
	// The five reliability columns are omitted at zero, so older exports,
	// which predate them, decode as zero — the value a faults-off run
	// produces — and the format version stays 1.
	LostGPUHours    NFloat `json:"lost_gpu_hours,omitempty"`
	CkptOverheadPct NFloat `json:"ckpt_overhead_pct,omitempty"`
	// ETTFHours / ETTRHours are the realized mean time between outage
	// events and mean outage duration, in hours (0 without outages).
	ETTFHours NFloat `json:"ettf_hours,omitempty"`
	ETTRHours NFloat `json:"ettr_hours,omitempty"`
	// ImbalancePct is the cross-member utilization spread of a federated
	// run's fleet row (max member mean util minus min, in percentage
	// points); 0 for plain studies and individual member rows.
	ImbalancePct NFloat `json:"imbalance_pct,omitempty"`
	// PlacementSearches is the scheduler's placement-search count.
	// Exported per replica but not aggregated into table columns; 0 on a
	// fleet row. Omitted at zero like the reliability columns. Exports
	// from before the search cache and speculative placement were
	// removed also carry cache_short_circuits, speculative_commits and
	// speculative_conflicts, which decoding ignores.
	PlacementSearches int `json:"placement_searches,omitempty"`
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
		JCTp50:            NFloat(t.JCTp50),
		JCTMean:           NFloat(t.JCTMean),
		DelayP50:          NFloat(t.DelayP50),
		DelayP95:          NFloat(t.DelayP95),
		MeanUtilPct:       NFloat(t.UtilMean),
		Preemptions:       t.Preemptions,
		Migrations:        t.Migrations,
		GPUHours:          NFloat(t.GPUHours),
		FailedGPUHours:    NFloat(t.FailedGPUHours),
		UnsuccessfulPct:   NFloat(t.UnsuccessfulPct),
		LostGPUHours:      NFloat(t.LostGPUHours),
		CkptOverheadPct:   NFloat(t.CkptOverheadPct),
		ETTFHours:         NFloat(t.ETTFHours),
		ETTRHours:         NFloat(t.ETTRHours),
		ImbalancePct:      NFloat(t.ImbalancePct),
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
		{"JCT p50 (min)", func(m ReplicaMetrics) float64 { return float64(m.JCTp50) }},
		{"JCT mean (min)", func(m ReplicaMetrics) float64 { return float64(m.JCTMean) }},
		{"delay p50 (min)", func(m ReplicaMetrics) float64 { return float64(m.DelayP50) }},
		{"delay p95 (min)", func(m ReplicaMetrics) float64 { return float64(m.DelayP95) }},
		{"util %", func(m ReplicaMetrics) float64 { return float64(m.MeanUtilPct) }},
		{"preempts", func(m ReplicaMetrics) float64 { return float64(m.Preemptions) }},
		{"failed GPU-h", func(m ReplicaMetrics) float64 { return float64(m.FailedGPUHours) }},
		{"unsucc %", func(m ReplicaMetrics) float64 { return float64(m.UnsuccessfulPct) }},
		{"lost GPU-h", func(m ReplicaMetrics) float64 { return float64(m.LostGPUHours) }},
		{"ckpt ovh %", func(m ReplicaMetrics) float64 { return float64(m.CkptOverheadPct) }},
		{"ETTF (h)", func(m ReplicaMetrics) float64 { return float64(m.ETTFHours) }},
		{"ETTR (h)", func(m ReplicaMetrics) float64 { return float64(m.ETTRHours) }},
		{"imbalance pp", func(m ReplicaMetrics) float64 { return float64(m.ImbalancePct) }},
	}
}
