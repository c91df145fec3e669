package sweep

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Plot-hook output: the machine-readable export (philly-sweep -o json)
// carries everything the comparison table shows, and these writers turn a
// decoded export into the two formats plotting pipelines actually consume —
// a tidy ("long") CSV with one row per scenario × metric, and a
// GitHub-flavored Markdown table mirroring RenderTable. Both emit one
// column per axis, so downstream tools can facet or group by axis without
// re-parsing scenario names.

// WritePlotCSV writes the sweep summary in tidy form: per-axis label
// columns (or a single "scenario" column when the result carries no axis
// names), then the replica count and one row per metric with the full
// aggregate (mean, p50, p95, min, max, ci95). Undefined values (a scenario
// that completed zero jobs has NaN percentiles) render as empty cells.
// Rows appear in scenario order, metrics in Metrics() order — a pure
// function of the Result, so the output is golden-file stable.
func (r *Result) WritePlotCSV(w io.Writer) error {
	defs := Metrics()
	axes, axisNames := r.plotAxes()
	var b strings.Builder
	for _, name := range axisNames {
		b.WriteString(csvField(name))
		b.WriteByte(',')
	}
	b.WriteString("replicas,metric,mean,p50,p95,min,max,ci95\n")
	for i := range r.Scenarios {
		sc := &r.Scenarios[i]
		for _, d := range defs {
			a := sc.Summary[d.Name]
			for _, col := range axes {
				b.WriteString(csvField(col[i]))
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%d,%s,%s,%s,%s,%s,%s,%s\n",
				len(sc.Replicas), csvField(d.Name),
				csvFloat(a.Mean), csvFloat(a.P50), csvFloat(a.P95),
				csvFloat(a.Min), csvFloat(a.Max), csvFloat(a.CI95))
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WritePlotMarkdown renders the cross-scenario comparison as a GitHub-
// flavored Markdown table: one column per axis, one "mean±95%CI" column
// per metric — RenderTable's content in a form READMEs and dashboards
// embed directly.
func (r *Result) WritePlotMarkdown(w io.Writer) error {
	defs := Metrics()
	axes, axisNames := r.plotAxes()
	var b strings.Builder
	fmt.Fprintf(&b, "Sweep: %d scenario(s) × %d replica(s), base seed %d\n\n",
		len(r.Scenarios), r.Replicas, r.BaseSeed)
	b.WriteString("|")
	for _, name := range axisNames {
		b.WriteString(" " + mdField(name) + " |")
	}
	b.WriteString(" replicas |")
	for _, d := range defs {
		b.WriteString(" " + mdField(d.Name) + " |")
	}
	b.WriteString("\n|")
	for i := 0; i < len(axisNames); i++ {
		b.WriteString("---|")
	}
	b.WriteString("---:|")
	for range defs {
		b.WriteString("---:|")
	}
	b.WriteString("\n")
	for i := range r.Scenarios {
		sc := &r.Scenarios[i]
		b.WriteString("|")
		for _, col := range axes {
			b.WriteString(" " + mdField(col[i]) + " |")
		}
		fmt.Fprintf(&b, " %d |", len(sc.Replicas))
		for _, d := range defs {
			b.WriteString(" " + mdField(fmtAgg(sc.Summary[d.Name])) + " |")
		}
		b.WriteString("\n")
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// plotAxes returns per-axis label columns (raw values, no table
// alignment) plus their header names, falling back to one opaque
// "scenario" column when axis labels are unavailable.
func (r *Result) plotAxes() ([][]string, []string) {
	if len(r.AxisNames) > 0 {
		cols := make([][]string, len(r.AxisNames))
		complete := true
		for a := range cols {
			col := make([]string, len(r.Scenarios))
			for i := range r.Scenarios {
				labels := r.Scenarios[i].Scenario.Labels
				if a >= len(labels) {
					complete = false // ragged labels: opaque fallback
					break
				}
				col[i] = labels[a]
			}
			if !complete {
				break
			}
			cols[a] = col
		}
		if complete {
			return cols, r.AxisNames
		}
	}
	col := make([]string, len(r.Scenarios))
	for i := range r.Scenarios {
		col[i] = r.Scenarios[i].Scenario.Name
	}
	return [][]string{col}, []string{"scenario"}
}

// csvFloat renders a float at full precision, NaN as the empty cell.
func csvFloat(v NFloat) string {
	if math.IsNaN(float64(v)) {
		return ""
	}
	return strconv.FormatFloat(float64(v), 'g', -1, 64)
}

// csvField quotes a CSV field when it needs it.
func csvField(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return "\"" + strings.ReplaceAll(s, "\"", "\"\"") + "\""
	}
	return s
}

// mdField escapes the table delimiter inside a Markdown cell.
func mdField(s string) string { return strings.ReplaceAll(s, "|", "\\|") }
