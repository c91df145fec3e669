package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"os"
	"testing"
	"time"

	"philly/internal/core"
	"philly/internal/par"
)

// smallStudy builds a contended small study that finishes in well under a
// second.
func smallStudy(t *testing.T) (*core.Study, int) {
	t.Helper()
	cfg := core.SmallConfig()
	cfg.Workload.TotalJobs = 1200
	st, err := core.NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return st, len(cfg.Workload.VCs)
}

// The tracer observes a study from outside: a traced run must export the
// same bytes as an untraced one, and it must see every event the engine
// executed, each under exactly one of its three kinds.
func TestTracedExportMatchesUntraced(t *testing.T) {
	pool := par.NewPool(2)
	defer pool.Close()
	var buf bytes.Buffer
	var sums [2][sha256.Size]byte
	for i, traced := range []bool{false, true} {
		st, numVCs := smallStudy(t)
		p, err := paperPass(st, numVCs, pool, traced, &buf)
		if err != nil {
			t.Fatal(err)
		}
		sums[i] = p.sum
		if !traced {
			continue
		}
		tr := p.eng.tracer
		seen := tr.globalN + tr.ticks + tr.localN.Load()
		if processed := p.eng.sharded.Processed(); seen != processed {
			t.Errorf("tracer saw %d callbacks (global %d, ticks %d, local %d), engine processed %d",
				seen, tr.globalN, tr.ticks, tr.localN.Load(), processed)
		}
		if tr.globalN == 0 || tr.ticks == 0 || tr.localN.Load() == 0 {
			t.Errorf("tracer missed a callback kind: global %d, ticks %d, local %d", tr.globalN, tr.ticks, tr.localN.Load())
		}
		if tr.runNs <= tr.globalNs+tr.tickNs {
			t.Errorf("run time %d ns does not cover global %d ns plus tick %d ns", tr.runNs, tr.globalNs, tr.tickNs)
		}
	}
	if sums[0] != sums[1] {
		t.Error("traced export differs from the untraced export")
	}
}

// BENCHMARK.json must list exactly the metrics the program prints, with
// the same units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program prints %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), the program prints %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEnd)
	compare("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is unknown to the program", w.Name)
		}
	}
}

// A short serve-mix stage at a low rate: every request succeeds, hot specs
// hit, fresh specs miss, every hit returns the bytes set-up saw, and the
// sampled fresh specs match their out-of-band re-runs.
func TestServeStage(t *testing.T) {
	mx, err := buildMix(7, 40, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	refs := map[string][sha256.Size]byte{}
	o := newOutcome()
	ls, err := setUp(o, mx, 2, refs)
	if err != nil {
		t.Fatal(err)
	}
	var sampled []int
	for i, a := range mx.arrivals {
		if a.fresh {
			sampled = append(sampled, i)
		}
	}
	keep := func(i int) bool { return mx.arrivals[i].fresh }
	st := runStage(ls, mx, 2, keep, true)
	if err := ls.close(); err != nil {
		t.Fatal(err)
	}
	checkStage(o, mx, st, refs)
	if _, err := checkReruns(o, mx, st, sampled); err != nil {
		t.Fatal(err)
	}
	if o.failed != 0 {
		t.Fatalf("%d of %d checks failed", o.failed, o.attempted)
	}
	for i, rec := range st.out {
		if rec.hit == mx.arrivals[i].fresh {
			t.Errorf("request %d: hit %v for a fresh=%v spec", i, rec.hit, mx.arrivals[i].fresh)
		}
	}
	if st.snaps.n == 0 {
		t.Error("the traced stage took no Snapshot samples")
	}
}
