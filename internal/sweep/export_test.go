package sweep

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"philly/internal/core"
)

// runSmallSweep produces a real Result to round-trip.
func runSmallSweep(t *testing.T) *Result {
	t.Helper()
	base := core.SmallConfig()
	base.Workload.TotalJobs = 150
	base.Workload.Duration /= 8
	ax, err := ParseAxis("sched.policy=philly,fifo")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Matrix{Base: base, Axes: []Axis{ax}}.Run(Options{Replicas: 2, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestExportRoundTrip(t *testing.T) {
	res := runSmallSweep(t)

	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.String()
	got, err := DecodeJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}

	if got.Replicas != res.Replicas || got.BaseSeed != res.BaseSeed {
		t.Fatalf("header mismatch: got %d/%d want %d/%d",
			got.Replicas, got.BaseSeed, res.Replicas, res.BaseSeed)
	}
	if len(got.Scenarios) != len(res.Scenarios) {
		t.Fatalf("scenario count = %d, want %d", len(got.Scenarios), len(res.Scenarios))
	}
	for i := range res.Scenarios {
		want, have := &res.Scenarios[i], &got.Scenarios[i]
		if have.Scenario.Name != want.Scenario.Name || have.Scenario.Index != want.Scenario.Index {
			t.Errorf("scenario %d identity mismatch: %+v vs %+v", i, have.Scenario, want.Scenario)
		}
		if !reflect.DeepEqual(have.Scenario.Labels, want.Scenario.Labels) {
			t.Errorf("scenario %d labels = %v, want %v", i, have.Scenario.Labels, want.Scenario.Labels)
		}
		if !reflect.DeepEqual(have.Scenario.Config, want.Scenario.Config) {
			t.Errorf("scenario %d config did not round-trip", i)
		}
		if !reflect.DeepEqual(have.Replicas, want.Replicas) {
			t.Errorf("scenario %d replica metrics did not round-trip exactly:\n got %+v\nwant %+v",
				i, have.Replicas, want.Replicas)
		}
		if !reflect.DeepEqual(have.Summary, want.Summary) {
			t.Errorf("scenario %d summary did not round-trip exactly", i)
		}
	}

	// The decoded result renders the same comparison table.
	if got.RenderTable() != res.RenderTable() {
		t.Error("decoded result renders a different table")
	}

	// An older export may carry a summary column Metrics() no longer
	// lists. Decoding keeps it in the map; the renderers walk Metrics(),
	// so it changes no table or plot.
	older := strings.Replace(raw, `"summary": {`, `"summary": {"retired column": {"n": 2, "mean": 3},`, 1)
	old, err := DecodeJSON(strings.NewReader(older))
	if err != nil {
		t.Fatal(err)
	}
	if a, ok := old.Scenarios[0].Summary["retired column"]; !ok || a.Mean != 3 {
		t.Errorf("older summary column = %+v, %v; want it kept with mean 3", a, ok)
	}
	var csvOld, csvNew bytes.Buffer
	if err := old.WritePlotCSV(&csvOld); err != nil {
		t.Fatal(err)
	}
	if err := res.WritePlotCSV(&csvNew); err != nil {
		t.Fatal(err)
	}
	if old.RenderTable() != res.RenderTable() || csvOld.String() != csvNew.String() {
		t.Error("an extra summary column in an older export changed the rendered table or CSV")
	}
}

// TestExportNaNEncodesAsNull pins the null convention for undefined metrics.
func TestExportNaNEncodesAsNull(t *testing.T) {
	res := &Result{
		Replicas: 1,
		BaseSeed: 7,
		Scenarios: []ScenarioResult{{
			Scenario: Scenario{Name: "base"},
			Replicas: []ReplicaMetrics{{Seed: 1, JCTp50: NFloat(math.NaN())}},
			Summary:  Summarize([]ReplicaMetrics{{Seed: 1, JCTp50: NFloat(math.NaN())}}),
		}},
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatalf("NaN metrics must encode: %v", err)
	}
	if !strings.Contains(buf.String(), "\"jct_p50_min\": null") {
		t.Error("NaN did not encode as null")
	}
	got, err := DecodeJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(float64(got.Scenarios[0].Replicas[0].JCTp50)) {
		t.Errorf("null did not decode back to NaN: %v", got.Scenarios[0].Replicas[0].JCTp50)
	}
}

func TestDecodeRejectsUnknownVersion(t *testing.T) {
	if _, err := DecodeJSON(strings.NewReader(`{"format_version": 99}`)); err == nil {
		t.Fatal("expected an error for unknown format version")
	}
}

// TestDecodeRejectsTrailingData checks that an export must be the whole
// stream: garbage after it, or a second export, fails the decode, while
// trailing whitespace does not.
func TestDecodeRejectsTrailingData(t *testing.T) {
	var buf bytes.Buffer
	if err := plotFixture().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	export := buf.String()
	if _, err := DecodeJSON(strings.NewReader(export + "\n\t \n")); err != nil {
		t.Fatalf("export with trailing whitespace refused: %v", err)
	}
	for name, in := range map[string]string{
		"garbage":     export + "garbage{\n",
		"two exports": export + export,
	} {
		if _, err := DecodeJSON(strings.NewReader(in)); err == nil {
			t.Errorf("%s: decoded without error", name)
		} else if !strings.Contains(err.Error(), "trailing data") {
			t.Errorf("%s: error %q does not name the trailing data", name, err)
		}
	}
}

// TestExportReliabilityColumnsRoundTrip pins the PR-7 export additions:
// the five reliability metrics round-trip through WriteJSON/DecodeJSON
// exactly, NaN values take the null path, and a faults-off replica (all
// five at their zero values) omits the keys entirely — so older exports,
// which predate the fields, decode to the same bytes a faults-off run
// produces today.
func TestExportReliabilityColumnsRoundTrip(t *testing.T) {
	faulty := ReplicaMetrics{
		Seed: 3, Jobs: 10, Completed: 9,
		LostGPUHours: 123.25, CkptOverheadPct: 2.5,
		ETTFHours: 18.75, ETTRHours: 0.5, ImbalancePct: 1.125,
	}
	undefined := ReplicaMetrics{
		Seed: 4, Jobs: 10, Completed: 0,
		LostGPUHours: 55.5, ETTFHours: NFloat(math.NaN()), ETTRHours: NFloat(math.NaN()),
	}
	clean := ReplicaMetrics{Seed: 5, Jobs: 10, Completed: 10}
	res := &Result{
		Replicas: 3,
		BaseSeed: 11,
		Scenarios: []ScenarioResult{{
			Scenario: Scenario{Name: "base"},
			Replicas: []ReplicaMetrics{faulty, undefined, clean},
			Summary:  Summarize([]ReplicaMetrics{faulty, undefined, clean}),
		}},
	}

	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.String()
	for _, key := range []string{
		"\"lost_gpu_hours\": 123.25", "\"ckpt_overhead_pct\": 2.5",
		"\"ettf_hours\": 18.75", "\"ettr_hours\": 0.5", "\"imbalance_pct\": 1.125",
	} {
		if !strings.Contains(raw, key) {
			t.Errorf("export missing %s", key)
		}
	}
	if !strings.Contains(raw, "\"ettf_hours\": null") {
		t.Error("NaN ETTF did not encode as null")
	}

	got, err := DecodeJSON(strings.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	reps := got.Scenarios[0].Replicas
	if !reflect.DeepEqual(reps[0], faulty) {
		t.Errorf("faulty replica did not round-trip: %+v", reps[0])
	}
	if !math.IsNaN(float64(reps[1].ETTFHours)) || !math.IsNaN(float64(reps[1].ETTRHours)) {
		t.Errorf("null did not decode back to NaN: %+v", reps[1])
	}
	if reps[1].LostGPUHours != 55.5 {
		t.Errorf("lost GPU-hours lost precision: %v", reps[1].LostGPUHours)
	}
	if !reflect.DeepEqual(reps[2], clean) {
		t.Errorf("clean replica did not round-trip: %+v", reps[2])
	}

	// Backward/forward compatibility: the clean replica's export must not
	// mention the reliability keys at all (omitempty), so a pre-PR-7 file
	// decodes identically to a faults-off run.
	cleanOnly := &Result{
		Replicas: 1, BaseSeed: 11,
		Scenarios: []ScenarioResult{{
			Scenario: Scenario{Name: "base"},
			Replicas: []ReplicaMetrics{clean},
			Summary:  Summarize([]ReplicaMetrics{clean}),
		}},
	}
	buf.Reset()
	if err := cleanOnly.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"lost_gpu_hours", "ckpt_overhead_pct", "ettf_hours", "ettr_hours", "imbalance_pct"} {
		if strings.Contains(buf.String(), key) {
			t.Errorf("faults-off export emits %s; omitempty contract broken", key)
		}
	}
}

// TestExportSchedulerCountersRoundTrip pins the PR-9 export addition: the
// placement-search counter round-trips exactly and is omitted when zero,
// so older exports decode unchanged and the format version stays 1. An
// export written while the search cache and speculative placement existed
// also carries cache_short_circuits, speculative_commits and
// speculative_conflicts; it still decodes, with those keys ignored.
func TestExportSchedulerCountersRoundTrip(t *testing.T) {
	busy := ReplicaMetrics{
		Seed: 7, Jobs: 20, Completed: 18,
		PlacementSearches: 1234,
	}
	idle := ReplicaMetrics{Seed: 8, Jobs: 20, Completed: 20}
	res := &Result{
		Replicas: 2,
		BaseSeed: 13,
		Scenarios: []ScenarioResult{{
			Scenario: Scenario{Name: "base"},
			Replicas: []ReplicaMetrics{busy, idle},
			Summary:  Summarize([]ReplicaMetrics{busy, idle}),
		}},
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.String()
	if !strings.Contains(raw, "\"placement_searches\": 1234") {
		t.Error("export missing placement_searches")
	}
	older := strings.Replace(raw, "\"placement_searches\": 1234",
		"\"placement_searches\": 1234,\n\"cache_short_circuits\": 987,\n\"speculative_commits\": 456,\n\"speculative_conflicts\": 3", 1)
	if older == raw {
		t.Fatal("could not build the older export")
	}
	for name, doc := range map[string]string{"export": raw, "older export": older} {
		got, err := DecodeJSON(strings.NewReader(doc))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		reps := got.Scenarios[0].Replicas
		if !reflect.DeepEqual(reps[0], busy) || !reflect.DeepEqual(reps[1], idle) {
			t.Errorf("%s: scheduler counters did not round-trip: %+v %+v", name, reps[0], reps[1])
		}
	}

	zeroOnly := &Result{
		Replicas: 1, BaseSeed: 13,
		Scenarios: []ScenarioResult{{
			Scenario: Scenario{Name: "base"},
			Replicas: []ReplicaMetrics{idle},
			Summary:  Summarize([]ReplicaMetrics{idle}),
		}},
	}
	buf.Reset()
	if err := zeroOnly.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "placement_searches") {
		t.Error("zero-counter export emits placement_searches; omitempty contract broken")
	}
}
