package sweep

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"philly/internal/core"
)

// Machine-readable sweep output (philly-sweep -o json). The export carries
// everything a CI diff or a plotting hook needs to reproduce the comparison
// table: the per-replica metrics, the per-metric aggregates keyed by column
// name, and each scenario's fully-applied configuration. Metrics that can be
// undefined (a scenario that completed zero jobs has NaN percentiles) encode
// as JSON null and decode back to NaN, since JSON itself has no NaN.

// ExportFormatVersion identifies the JSON layout; consumers should reject
// versions they do not understand.
const ExportFormatVersion = 1

// Export is the serializable form of a Result.
type Export struct {
	FormatVersion int `json:"format_version"`
	Replicas      int `json:"replicas"`
	// AxisNames was added alongside per-axis table columns; it is optional
	// in the format (older exports decode with no axis names and render
	// with the opaque scenario-name column), so the version stays 1.
	AxisNames []string         `json:"axis_names,omitempty"`
	BaseSeed  uint64           `json:"base_seed"`
	Scenarios []ExportScenario `json:"scenarios"`
}

// ExportScenario is one scenario's results.
type ExportScenario struct {
	Index  int      `json:"index"`
	Name   string   `json:"name"`
	Labels []string `json:"labels,omitempty"`
	// Fleet lists a federated scenario's member presets (added with the
	// fleet.members axis; optional in the format, so the version stays 1).
	Fleet    []string             `json:"fleet,omitempty"`
	Config   core.Config          `json:"config"`
	Replicas []ExportReplica      `json:"replicas"`
	Summary  map[string]ExportAgg `json:"summary"`
}

// NFloat is a float64 whose NaN encodes as JSON null.
type NFloat float64

// MarshalJSON encodes NaN as null.
func (f NFloat) MarshalJSON() ([]byte, error) {
	if math.IsNaN(float64(f)) {
		return []byte("null"), nil
	}
	return json.Marshal(float64(f))
}

// UnmarshalJSON decodes null as NaN.
func (f *NFloat) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		*f = NFloat(math.NaN())
		return nil
	}
	var v float64
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	*f = NFloat(v)
	return nil
}

// ExportReplica mirrors ReplicaMetrics with null-safe floats.
type ExportReplica struct {
	Seed            uint64 `json:"seed"`
	Jobs            int    `json:"jobs"`
	Completed       int    `json:"completed"`
	JCTp50          NFloat `json:"jct_p50_min"`
	JCTMean         NFloat `json:"jct_mean_min"`
	DelayP50        NFloat `json:"delay_p50_min"`
	DelayP95        NFloat `json:"delay_p95_min"`
	MeanUtilPct     NFloat `json:"mean_util_pct"`
	Preemptions     int    `json:"preemptions"`
	Migrations      int    `json:"migrations"`
	GPUHours        NFloat `json:"gpu_hours"`
	FailedGPUHours  NFloat `json:"failed_gpu_hours"`
	UnsuccessfulPct NFloat `json:"unsuccessful_pct"`
	// Reliability columns (PR 7); omitted from older exports, which decode
	// as zero — the same value a faults-off run produces — so the format
	// version stays 1.
	LostGPUHours    NFloat `json:"lost_gpu_hours,omitempty"`
	CkptOverheadPct NFloat `json:"ckpt_overhead_pct,omitempty"`
	ETTFHours       NFloat `json:"ettf_hours,omitempty"`
	ETTRHours       NFloat `json:"ettr_hours,omitempty"`
	ImbalancePct    NFloat `json:"imbalance_pct,omitempty"`
	// Placement-search telemetry (PR 9); same omitempty convention — older
	// exports decode as zero, so the format version stays 1. Exports from
	// before the search cache and speculative placement were removed also
	// carry cache_short_circuits, speculative_commits and
	// speculative_conflicts, which decoding ignores.
	PlacementSearches int `json:"placement_searches,omitempty"`
}

// ExportAgg mirrors Agg with null-safe floats.
type ExportAgg struct {
	N    int    `json:"n"`
	Mean NFloat `json:"mean"`
	P50  NFloat `json:"p50"`
	P95  NFloat `json:"p95"`
	Min  NFloat `json:"min"`
	Max  NFloat `json:"max"`
	CI95 NFloat `json:"ci95"`
}

func toExportReplica(m ReplicaMetrics) ExportReplica {
	return ExportReplica{
		Seed:            m.Seed,
		Jobs:            m.Jobs,
		Completed:       m.Completed,
		JCTp50:          NFloat(m.JCTp50),
		JCTMean:         NFloat(m.JCTMean),
		DelayP50:        NFloat(m.DelayP50),
		DelayP95:        NFloat(m.DelayP95),
		MeanUtilPct:     NFloat(m.MeanUtilPct),
		Preemptions:     m.Preemptions,
		Migrations:      m.Migrations,
		GPUHours:        NFloat(m.GPUHours),
		FailedGPUHours:  NFloat(m.FailedGPUHours),
		UnsuccessfulPct: NFloat(m.UnsuccessfulPct),
		LostGPUHours:    NFloat(m.LostGPUHours),
		CkptOverheadPct: NFloat(m.CkptOverheadPct),
		ETTFHours:       NFloat(m.ETTFHours),
		ETTRHours:       NFloat(m.ETTRHours),
		ImbalancePct:    NFloat(m.ImbalancePct),

		PlacementSearches: m.PlacementSearches,
	}
}

func fromExportReplica(e ExportReplica) ReplicaMetrics {
	return ReplicaMetrics{
		Seed:            e.Seed,
		Jobs:            e.Jobs,
		Completed:       e.Completed,
		JCTp50:          float64(e.JCTp50),
		JCTMean:         float64(e.JCTMean),
		DelayP50:        float64(e.DelayP50),
		DelayP95:        float64(e.DelayP95),
		MeanUtilPct:     float64(e.MeanUtilPct),
		Preemptions:     e.Preemptions,
		Migrations:      e.Migrations,
		GPUHours:        float64(e.GPUHours),
		FailedGPUHours:  float64(e.FailedGPUHours),
		UnsuccessfulPct: float64(e.UnsuccessfulPct),
		LostGPUHours:    float64(e.LostGPUHours),
		CkptOverheadPct: float64(e.CkptOverheadPct),
		ETTFHours:       float64(e.ETTFHours),
		ETTRHours:       float64(e.ETTRHours),
		ImbalancePct:    float64(e.ImbalancePct),

		PlacementSearches: e.PlacementSearches,
	}
}

func toExportAgg(a Agg) ExportAgg {
	return ExportAgg{
		N: a.N, Mean: NFloat(a.Mean), P50: NFloat(a.P50), P95: NFloat(a.P95),
		Min: NFloat(a.Min), Max: NFloat(a.Max), CI95: NFloat(a.CI95),
	}
}

func fromExportAgg(e ExportAgg) Agg {
	return Agg{
		N: e.N, Mean: float64(e.Mean), P50: float64(e.P50), P95: float64(e.P95),
		Min: float64(e.Min), Max: float64(e.Max), CI95: float64(e.CI95),
	}
}

// ToExport converts the result to its serializable form.
func (r *Result) ToExport() Export {
	out := Export{
		FormatVersion: ExportFormatVersion,
		Replicas:      r.Replicas,
		AxisNames:     r.AxisNames,
		BaseSeed:      r.BaseSeed,
	}
	defs := Metrics()
	for i := range r.Scenarios {
		sc := &r.Scenarios[i]
		es := ExportScenario{
			Index:   sc.Scenario.Index,
			Name:    sc.Scenario.Name,
			Labels:  sc.Scenario.Labels,
			Fleet:   sc.Scenario.Fleet,
			Config:  sc.Scenario.Config,
			Summary: make(map[string]ExportAgg, len(defs)),
		}
		for _, m := range sc.Replicas {
			es.Replicas = append(es.Replicas, toExportReplica(m))
		}
		for j, def := range defs {
			if j < len(sc.Summary.Metrics) {
				es.Summary[def.Name] = toExportAgg(sc.Summary.Metrics[j])
			}
		}
		out.Scenarios = append(out.Scenarios, es)
	}
	return out
}

// WriteJSON encodes the result as indented JSON.
func (r *Result) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.ToExport())
}

// DecodeJSON reads an export stream back into a Result. Scenario Apply
// functions are not part of the export, so the decoded result carries the
// scenario configurations and metrics — everything downstream consumers
// (tables, plots, CI diffs) read — but cannot be re-run as a Matrix.
func DecodeJSON(rd io.Reader) (*Result, error) {
	var e Export
	dec := json.NewDecoder(rd)
	if err := dec.Decode(&e); err != nil {
		return nil, fmt.Errorf("sweep: decoding export: %w", err)
	}
	if e.FormatVersion != ExportFormatVersion {
		return nil, fmt.Errorf("sweep: unsupported export format version %d (want %d)", e.FormatVersion, ExportFormatVersion)
	}
	res := &Result{Replicas: e.Replicas, AxisNames: e.AxisNames, BaseSeed: e.BaseSeed}
	defs := Metrics()
	for _, es := range e.Scenarios {
		sc := ScenarioResult{
			Scenario: Scenario{
				Index:  es.Index,
				Name:   es.Name,
				Labels: es.Labels,
				Fleet:  es.Fleet,
				Config: es.Config,
			},
		}
		for _, m := range es.Replicas {
			sc.Replicas = append(sc.Replicas, fromExportReplica(m))
		}
		sc.Summary = Summary{Metrics: make([]Agg, len(defs))}
		for j, def := range defs {
			if a, ok := es.Summary[def.Name]; ok {
				sc.Summary.Metrics[j] = fromExportAgg(a)
			}
		}
		res.Scenarios = append(res.Scenarios, sc)
	}
	return res, nil
}
