package sweep

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"

	"philly/internal/core"
)

// -update regenerates the golden plot files from the current renderers:
//
//	go test ./internal/sweep -run TestPlotGolden -update
var updateGolden = flag.Bool("update", false, "rewrite golden plot files")

// plotFixture builds a small, fully hand-specified sweep result: two axes
// (policy × failure scale), four scenarios, two replicas each, including a
// scenario with zero completed jobs whose percentile metrics are NaN — the
// case that must survive the JSON round-trip as null and render as empty
// CSV cells.
func plotFixture() *Result {
	mk := func(idx int, labels []string, ms ...ReplicaMetrics) ScenarioResult {
		name := "sched.policy=" + labels[0] + " failure.scale=" + labels[1]
		return ScenarioResult{
			Scenario: Scenario{
				Index:  idx,
				Name:   name,
				Labels: labels,
				Config: core.SmallConfig(),
			},
			Replicas: ms,
			Summary:  Summarize(ms),
		}
	}
	nan := NFloat(math.NaN())
	m := func(seed uint64, jct, delay, util NFloat, completed int) ReplicaMetrics {
		rm := ReplicaMetrics{
			Seed: seed, Jobs: 100, Completed: completed,
			JCTp50: jct, JCTMean: jct * 1.5,
			DelayP50: delay, DelayP95: delay * 4,
			MeanUtilPct: util, Preemptions: 3, Migrations: 1,
			GPUHours: 1234.5, FailedGPUHours: 56.25, UnsuccessfulPct: 12.5,
			LostGPUHours: 7.5, CkptOverheadPct: 1.25,
			ETTFHours: 9.5, ETTRHours: 0.75, ImbalancePct: 0.5,
		}
		if completed == 0 {
			rm.JCTp50, rm.JCTMean = nan, nan
			rm.DelayP50, rm.DelayP95 = nan, nan
			rm.UnsuccessfulPct = 0
			// Reliability columns take the same null path: a hand-tooled
			// export may carry NaN here, and it must survive as null in
			// JSON and an empty CSV cell.
			rm.ETTFHours, rm.ETTRHours = nan, nan
		}
		return rm
	}
	return &Result{
		AxisNames: []string{"sched.policy", "failure.scale"},
		Replicas:  2,
		BaseSeed:  7,
		Scenarios: []ScenarioResult{
			mk(0, []string{"philly", "1"}, m(11, 30, 2, 54.5, 97), m(12, 34, 3, 52.25, 96)),
			mk(1, []string{"philly", "2"}, m(13, 40, 5, 50, 95), m(14, 44, 6, 49.5, 93)),
			mk(2, []string{"fifo", "1"}, m(15, 55, 9, 51, 96), m(16, 61, 11, 50.75, 95)),
			mk(3, []string{"fifo", "2"}, m(17, nan, nan, 48, 0), m(18, nan, nan, 47, 0)),
		},
	}
}

// checkGolden compares got against testdata/name byte for byte, or
// rewrites the file under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%s: %v (run with -update to regenerate)", name, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s diverged from golden file (run with -update if intended)\ngot:\n%s\nwant:\n%s",
			name, got, want)
	}
}

// TestPlotGolden pins the full plot-hook round trip: Result → JSON export
// (philly-sweep -o json) → DecodeJSON (philly-plot's reader) → CSV and
// Markdown renderers, compared byte-for-byte against the golden files. The
// export itself is pinned too (plot.json: nulls, labels, configs,
// reliability columns, placement_searches omitted at 0), and decoding that
// file must re-encode to the same bytes. Any format change must be
// deliberate (-update) and shows up in review.
func TestPlotGolden(t *testing.T) {
	res := plotFixture()

	// Round-trip through the export exactly as the CLI pipeline does.
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "plot.json", buf.Bytes())
	decoded, err := DecodeJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}

	golden, err := os.ReadFile(filepath.Join("testdata", "plot.json"))
	if err != nil {
		t.Fatal(err)
	}
	fromFile, err := DecodeJSON(bytes.NewReader(golden))
	if err != nil {
		t.Fatal(err)
	}
	var reencoded bytes.Buffer
	if err := fromFile.WriteJSON(&reencoded); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reencoded.Bytes(), golden) {
		t.Errorf("decoding plot.json and encoding it again changed its bytes\ngot:\n%s", reencoded.Bytes())
	}

	for _, tc := range []struct {
		golden string
		write  func(*Result, *bytes.Buffer) error
	}{
		{"plot.csv", func(r *Result, b *bytes.Buffer) error { return r.WritePlotCSV(b) }},
		{"plot.md", func(r *Result, b *bytes.Buffer) error { return r.WritePlotMarkdown(b) }},
	} {
		var got bytes.Buffer
		if err := tc.write(decoded, &got); err != nil {
			t.Fatalf("%s: %v", tc.golden, err)
		}
		checkGolden(t, tc.golden, got.Bytes())
	}

	// The renderers must also agree between the original and the decoded
	// result — the export carries everything the plot hook consumes.
	var direct bytes.Buffer
	if err := res.WritePlotCSV(&direct); err != nil {
		t.Fatal(err)
	}
	var roundTripped bytes.Buffer
	if err := decoded.WritePlotCSV(&roundTripped); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(direct.Bytes(), roundTripped.Bytes()) {
		t.Error("CSV from decoded export differs from CSV from the original result")
	}
}

// TestPlotCSVFallsBackToScenarioColumn covers results without axis labels
// (e.g. an axis-less sweep): one opaque scenario column, still valid CSV.
func TestPlotCSVFallsBackToScenarioColumn(t *testing.T) {
	res := plotFixture()
	res.AxisNames = nil
	var buf bytes.Buffer
	if err := res.WritePlotCSV(&buf); err != nil {
		t.Fatal(err)
	}
	first, _, _ := bytes.Cut(buf.Bytes(), []byte("\n"))
	if want := "scenario,replicas,metric,mean,p50,p95,min,max,ci95"; string(first) != want {
		t.Fatalf("header = %q, want %q", first, want)
	}
}
