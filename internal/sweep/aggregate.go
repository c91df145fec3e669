package sweep

import (
	"fmt"
	"math"
	"strings"

	"philly/internal/analysis"
	"philly/internal/stats"
)

// Agg summarizes one metric across a scenario's replicas. The JSON tags
// and field order are the export's summary record.
type Agg struct {
	// N is the replica count.
	N int `json:"n"`
	// Mean, P50 and P95 summarize the replica values.
	Mean NFloat `json:"mean"`
	P50  NFloat `json:"p50"`
	P95  NFloat `json:"p95"`
	// Min and Max bound the replica values.
	Min NFloat `json:"min"`
	Max NFloat `json:"max"`
	// CI95 is the half-width of the 95% confidence interval of the mean,
	// t(0.975, n-1) · s/√n; 0 for a single replica. The Student-t critical
	// value matters at the harness's typical replica counts: at n=4 it is
	// 3.18, not the asymptotic 1.96.
	CI95 NFloat `json:"ci95"`
}

// tCrit95 holds two-sided 95% Student-t critical values for 1..30 degrees
// of freedom; larger samples fall back to the normal approximation.
var tCrit95 = [...]float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

func tCrit(df int) float64 {
	if df < 1 {
		return 0
	}
	if df <= len(tCrit95) {
		return tCrit95[df-1]
	}
	return 1.96
}

// aggregate folds one metric's replica values.
func aggregate(values []float64) Agg {
	mean := stats.Mean(values)
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range values {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	var ci float64
	if len(values) > 1 {
		var ss float64
		for _, v := range values {
			d := v - mean
			ss += d * d
		}
		sd := math.Sqrt(ss / float64(len(values)-1))
		ci = tCrit(len(values)-1) * sd / math.Sqrt(float64(len(values)))
	}
	return Agg{
		N:    len(values),
		Mean: NFloat(mean),
		P50:  NFloat(stats.Percentile(values, 50)),
		P95:  NFloat(stats.Percentile(values, 95)),
		Min:  NFloat(lo),
		Max:  NFloat(hi),
		CI95: NFloat(ci),
	}
}

// Summary holds one Agg per default metric, keyed by its Metrics() column
// name — the export's summary object. A key the map lacks (an older export
// that predates a column) reads as the zero Agg.
type Summary map[string]Agg

// Summarize folds a scenario's replicas into per-metric aggregates.
func Summarize(replicas []ReplicaMetrics) Summary {
	defs := Metrics()
	s := make(Summary, len(defs))
	values := make([]float64, len(replicas))
	for _, def := range defs {
		for j := range replicas {
			values[j] = def.Get(replicas[j])
		}
		s[def.Name] = aggregate(values)
	}
	return s
}

// fmtAgg renders "mean±ci" when replicated, else just the value.
func fmtAgg(a Agg) string {
	if math.IsNaN(float64(a.Mean)) {
		return "-"
	}
	if a.N > 1 {
		return fmt.Sprintf("%.1f±%.1f", a.Mean, a.CI95)
	}
	return fmt.Sprintf("%.1f", a.Mean)
}

// RenderTable renders the cross-scenario comparison: one column per axis
// (falling back to a single "scenario" column when the matrix has no axes
// or the axis names are unknown), one "mean±95%CI" column per metric, using
// the shared analysis renderer. Structured axis values like
// locality.relax's "4:8" are component-aligned (see AlignLabels) instead of
// rendering as ragged opaque strings.
func (r *Result) RenderTable() string {
	defs := Metrics()
	axes := r.axisColumns()
	var header []string
	if axes == nil {
		header = []string{"scenario"}
	} else {
		header = append(header, r.AxisNames...)
	}
	header = append(header, "replicas")
	for _, d := range defs {
		header = append(header, d.Name)
	}
	t := &analysis.Table{Header: header}
	for i := range r.Scenarios {
		sc := &r.Scenarios[i]
		var row []string
		if axes == nil {
			row = []string{sc.Scenario.Name}
		} else {
			for _, col := range axes {
				row = append(row, col[i])
			}
		}
		row = append(row, fmt.Sprintf("%d", len(sc.Replicas)))
		for _, d := range defs {
			row = append(row, fmtAgg(sc.Summary[d.Name]))
		}
		t.Add(row...)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Sweep: %d scenario(s) × %d replica(s), base seed %d\n",
		len(r.Scenarios), r.Replicas, r.BaseSeed)
	b.WriteString(t.String())
	return b.String()
}

// axisColumns transposes scenario labels into per-axis columns with
// structured values aligned, or nil when the result has no usable axis
// labels (no axes, or scenarios predating label capture).
func (r *Result) axisColumns() [][]string {
	if len(r.AxisNames) == 0 {
		return nil
	}
	cols := make([][]string, len(r.AxisNames))
	for a := range cols {
		col := make([]string, len(r.Scenarios))
		for i := range r.Scenarios {
			labels := r.Scenarios[i].Scenario.Labels
			if a >= len(labels) {
				return nil // ragged labels: fall back to opaque names
			}
			col[i] = labels[a]
		}
		cols[a] = AlignLabels(col)
	}
	return cols
}

// AlignLabels pretty-prints one axis's values for a table column. Values
// with a shared "a:b[:c...]" structure — like locality.relax's
// "rackAfter:anyAfter" thresholds — get each component right-aligned to the
// component's column width ("4:8" and "16:32" render as " 4: 8" and
// "16:32"), so structured labels read as aligned tuples instead of opaque
// strings. Anything without a shared structure is returned unchanged.
func AlignLabels(labels []string) []string {
	if len(labels) == 0 {
		return labels
	}
	parts := strings.Count(labels[0], ":")
	if parts == 0 {
		return labels
	}
	split := make([][]string, len(labels))
	for i, l := range labels {
		if strings.Count(l, ":") != parts {
			return labels
		}
		split[i] = strings.Split(l, ":")
	}
	widths := make([]int, parts+1)
	for _, sp := range split {
		for j, s := range sp {
			if len(s) > widths[j] {
				widths[j] = len(s)
			}
		}
	}
	out := make([]string, len(labels))
	for i, sp := range split {
		var b strings.Builder
		for j, s := range sp {
			if j > 0 {
				b.WriteByte(':')
			}
			fmt.Fprintf(&b, "%*s", widths[j], s)
		}
		out[i] = b.String()
	}
	return out
}
