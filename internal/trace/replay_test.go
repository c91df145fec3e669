package trace

import (
	"bytes"
	"os"
	"reflect"
	"strings"
	"testing"

	"philly/internal/cluster"
	"philly/internal/core"
	"philly/internal/federation"
	"philly/internal/simulation"
	"philly/internal/stats"
	"philly/internal/workload"
)

// replayConfig is the generative study configuration the replay tests
// reproduce: small and quick, but with real failure/retry structure.
func replayConfig() core.Config {
	cfg := core.SmallConfig()
	cfg.Workload.TotalJobs = 400
	cfg.Workload.Duration = cfg.Workload.Duration / 4
	cfg.Seed = 21
	return cfg
}

// generateSpecs regenerates the exact planned job stream core.NewStudy
// would build for cfg (same stream derivation).
func generateSpecs(t *testing.T, cfg core.Config) []workload.JobSpec {
	t.Helper()
	g := stats.NewRNG(cfg.Seed).Split("workload")
	gen, err := workload.NewGenerator(cfg.Workload, g)
	if err != nil {
		t.Fatal(err)
	}
	return gen.Generate(g)
}

func replayOptsFor(cfg core.Config) ReplayOptions {
	return ReplayOptions{Seed: cfg.Seed, Failures: cfg.Workload.Failures}
}

// TestSpecsCSVRoundTripExact is the spec schema's contract: write → read
// reproduces every JobSpec bit-exactly, failure plans and training
// structure included.
func TestSpecsCSVRoundTripExact(t *testing.T) {
	cfg := replayConfig()
	specs := generateSpecs(t, cfg)
	var buf bytes.Buffer
	if err := WriteSpecsCSV(&buf, specs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTraceCSV(&buf, replayOptsFor(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, specs) {
		for i := range specs {
			if i < len(got) && !reflect.DeepEqual(got[i], specs[i]) {
				t.Fatalf("first diverging spec %d:\n%+v\nvs\n%+v", specs[i].ID, got[i], specs[i])
			}
		}
		t.Fatalf("round trip lost jobs: %d vs %d", len(got), len(specs))
	}
}

// TestReplayReproducesGeneratorStudy is the tentpole acceptance bar:
// replaying a philly-trace-generated trace (through the CSV round trip)
// produces a study bit-identical to the generator study — every job
// record, every telemetry float, every scheduler counter.
func TestReplayReproducesGeneratorStudy(t *testing.T) {
	cfg := replayConfig()
	st, err := core.NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := st.Run()
	if err != nil {
		t.Fatal(err)
	}

	specs := generateSpecs(t, cfg)
	var buf bytes.Buffer
	if err := WriteSpecsCSV(&buf, specs); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadTraceCSV(&buf, replayOptsFor(cfg))
	if err != nil {
		t.Fatal(err)
	}

	rcfg := replayConfig()
	rcfg.Workload.Replay = loaded
	rst, err := core.NewStudy(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rst.Run()
	if err != nil {
		t.Fatal(err)
	}

	// Config differs by construction (Replay is set); everything the
	// simulation produced must match exactly.
	if !reflect.DeepEqual(want.Jobs, got.Jobs) {
		for i := range want.Jobs {
			if i < len(got.Jobs) && !reflect.DeepEqual(want.Jobs[i], got.Jobs[i]) {
				t.Fatalf("first diverging job %d:\n%+v\nvs\n%+v",
					want.Jobs[i].Spec.ID, want.Jobs[i], got.Jobs[i])
			}
		}
		t.Fatal("job populations differ")
	}
	if !reflect.DeepEqual(want.Telemetry, got.Telemetry) {
		t.Error("telemetry diverged under replay")
	}
	if want.Sched != got.Sched {
		t.Errorf("scheduler stats diverged: %+v vs %+v", want.Sched, got.Sched)
	}
	if want.SimEnd != got.SimEnd {
		t.Errorf("SimEnd diverged: %v vs %v", want.SimEnd, got.SimEnd)
	}
	if !reflect.DeepEqual(want.OccupancySamples, got.OccupancySamples) {
		t.Error("occupancy series diverged under replay")
	}
}

// TestObservedCSVReplayable checks the unified reader's second schema: a
// post-simulation jobs.csv export loads into a spec stream that a study
// accepts.
func TestObservedCSVReplayable(t *testing.T) {
	cfg := replayConfig()
	tr := FromStudy(runStudy(t, cfg))
	var buf bytes.Buffer
	if err := tr.WriteJobsCSV(&buf); err != nil {
		t.Fatal(err)
	}
	specs, err := ReadTraceCSV(&buf, replayOptsFor(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != len(tr.Jobs) {
		t.Fatalf("reconstructed %d specs from %d records", len(specs), len(tr.Jobs))
	}
	rcfg := replayConfig()
	if err := ApplyReplay(&rcfg, specs); err != nil {
		t.Fatal(err)
	}
	if err := rcfg.Workload.Validate(); err != nil {
		t.Fatalf("reconstructed stream fails study validation: %v", err)
	}
	for i := range specs {
		rec, spec := &tr.Jobs[i], &specs[i]
		if spec.ID != rec.JobID || spec.VC != rec.VC || spec.GPUs != rec.GPUs {
			t.Fatalf("spec %d does not match its record: %+v vs %+v", i, spec, rec)
		}
		if spec.Plan.Outcome.String() != rec.Status {
			t.Fatalf("job %d outcome %v, record %s", spec.ID, spec.Plan.Outcome, rec.Status)
		}
		if rec.Status == "Unsuccessful" && len(spec.Plan.FailedAttempts) != rec.Retries+1 {
			t.Fatalf("job %d reconstructed %d failed attempts, want %d",
				spec.ID, len(spec.Plan.FailedAttempts), rec.Retries+1)
		}
	}
}

func runStudy(t *testing.T, cfg core.Config) *core.StudyResult {
	t.Helper()
	st, err := core.NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := st.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestReadTraceCSVRejectsForeignHeaders(t *testing.T) {
	opts := DefaultReplayOptions()
	// Reordered job header: same names, wrong order.
	reordered := append([]string(nil), jobHeader...)
	reordered[0], reordered[1] = reordered[1], reordered[0]
	if _, err := ReadTraceCSV(strings.NewReader(strings.Join(reordered, ",")+"\n"), opts); err == nil {
		t.Error("want error for reordered header")
	}
	if _, err := ReadTraceCSV(strings.NewReader("a,b,c\n1,2,3\n"), opts); err == nil {
		t.Error("want error for unknown header")
	}
	if _, err := ReadTraceCSV(strings.NewReader(""), opts); err == nil {
		t.Error("want error for empty input")
	}
	// Spec header with no rows.
	if _, err := ReadTraceCSV(strings.NewReader(strings.Join(specHeader, ",")+"\n"), opts); err == nil {
		t.Error("want error for a spec csv with no jobs")
	}
	// Malformed spec rows must error, never panic.
	header := strings.Join(specHeader, ",") + "\n"
	bad := []string{
		header + "x,vc1,u,1,0,5,Passed,1,1,1,1,0,0,\n",             // bad id
		header + "1,vc1,u,1,0,5,Sideways,1,1,1,1,0,0,\n",           // bad outcome
		header + "1,vc1,u,1,0,5,Passed,1,1,1,1,0,7,\n",             // bad logs flag
		header + "1,vc1,u,1,0,5,Passed,1,1,1,1,0,0,nope\n",         // bad attempt encoding
		header + "1,vc1,u,1,0,5,Passed,1,1,1,1,0,0,bogus_code@3\n", // unknown reason
		header + "1,vc1,u,1,0,5,Passed,1,1,1,1,0,0\n",              // short row
	}
	for i, in := range bad {
		if _, err := ReadTraceCSV(strings.NewReader(in), opts); err == nil {
			t.Errorf("malformed spec row case %d accepted", i)
		}
	}
}

func TestSpecsFromRecordsSemantics(t *testing.T) {
	opts := DefaultReplayOptions()
	recs := []JobRecord{
		{JobID: 1, VC: "vc1", User: "u1", GPUs: 2, SubmitMin: 0, Status: "Passed", RunMin: 30, Retries: 2, FailureReason: "gpu_oom"},
		{JobID: 2, VC: "vc1", User: "u2", GPUs: 8, SubmitMin: 5, Status: "Killed", RunMin: 90, Retries: 0},
		{JobID: 3, VC: "vc2", User: "u3", GPUs: 1, SubmitMin: 9, Status: "Unsuccessful", RunMin: 40, Retries: 1, FailureReason: "syntax_error"},
	}
	specs, err := SpecsFromRecords(recs, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Passed with 2 retries: two transient failed attempts, each a third of
	// the recorded runtime, carrying the recorded reason.
	if n := len(specs[0].Plan.FailedAttempts); n != 2 {
		t.Fatalf("passed job: %d failed attempts, want 2", n)
	}
	if r := specs[0].Plan.FailedAttempts[0].Reason; r == nil || r.Code != "gpu_oom" {
		t.Fatalf("passed job reason = %v, want cuda_oom", r)
	}
	if rtf := specs[0].Plan.FailedAttempts[0].RTFMinutes; rtf != 10 {
		t.Fatalf("per-attempt RTF = %v, want 10", rtf)
	}
	// Killed: kill fraction set, training plan inflated so the kill point
	// lands at the observed runtime.
	if kf := specs[1].Plan.KillFraction; kf != killedReplayFraction {
		t.Fatalf("killed job KillFraction = %v, want %v", kf, killedReplayFraction)
	}
	planned := specs[1].PlannedRuntimeMinutes() * killedReplayFraction
	if planned < 80 || planned > 100 {
		t.Fatalf("killed job kill point %.1f min, want ~90", planned)
	}
	// Unsuccessful with 1 retry: both attempts failed.
	if n := len(specs[2].Plan.FailedAttempts); n != 2 {
		t.Fatalf("unsuccessful job: %d failed attempts, want 2", n)
	}
	// Determinism: same records + options → identical streams.
	again, err := SpecsFromRecords(recs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(specs, again) {
		t.Fatal("reconstruction is not deterministic")
	}

	// Error cases: duplicate id, bad status, zero GPUs, negative values.
	for i, bad := range [][]JobRecord{
		{{JobID: 1, VC: "v", GPUs: 1, Status: "Passed"}, {JobID: 1, VC: "v", GPUs: 1, Status: "Passed"}},
		{{JobID: 1, VC: "v", GPUs: 1, Status: "Exploded"}},
		{{JobID: 1, VC: "v", GPUs: 0, Status: "Passed"}},
		{{JobID: 1, VC: "v", GPUs: 1, Status: "Passed", SubmitMin: -3}},
		{{JobID: 1, VC: "v", GPUs: 1, Status: "Passed", Retries: -1}},
		{},
	} {
		if _, err := SpecsFromRecords(bad, opts); err == nil {
			t.Errorf("bad record case %d accepted", i)
		}
	}
}

const phillySample = `[
 {"status": "Pass", "vc": "vc-a", "jobid": "application_1", "user": "u1",
  "submitted_time": "2017-10-01 08:00:00",
  "attempts": [{"start_time": "2017-10-01 08:05:00", "end_time": "2017-10-01 09:05:00",
                "detail": [{"ip": "m1", "gpus": ["g0", "g1"]}]}]},
 {"status": "Killed", "vc": "vc-b", "jobid": "application_2", "user": "u2",
  "submitted_time": "2017-10-01 09:30:00",
  "attempts": [{"start_time": "2017-10-01 09:31:00", "end_time": "2017-10-01 11:31:00",
                "detail": [{"ip": "m1", "gpus": ["g0"]}, {"ip": "m2", "gpus": ["g0"]}]}]},
 {"status": "Failed", "vc": "vc-a", "jobid": "application_3", "user": "u1",
  "submitted_time": "2017-10-01 10:00:00",
  "attempts": [{"start_time": "2017-10-01 10:10:00", "end_time": "2017-10-01 10:40:00",
                "detail": [{"ip": "m3", "gpus": ["g0"]}]},
               {"start_time": "2017-10-01 10:45:00", "end_time": "2017-10-01 11:15:00",
                "detail": [{"ip": "m3", "gpus": ["g0"]}]}]},
 {"status": "Running", "vc": "vc-a", "jobid": "application_4", "user": "u1",
  "submitted_time": "2017-10-01 11:00:00", "attempts": []},
 {"status": "Pass", "vc": "vc-a", "jobid": "application_5", "user": "u1",
  "submitted_time": "None", "attempts": []}
]`

func TestReadPhillyJSON(t *testing.T) {
	recs, err := ReadPhillyJSON(strings.NewReader(phillySample))
	if err != nil {
		t.Fatal(err)
	}
	// Jobs 4 (no attempts) and 5 (no submit time) are skipped.
	if len(recs) != 3 {
		t.Fatalf("parsed %d records, want 3", len(recs))
	}
	if recs[0].SubmitMin != 0 {
		t.Errorf("first submission should rebase to 0, got %v", recs[0].SubmitMin)
	}
	if recs[0].Status != "Passed" || recs[1].Status != "Killed" || recs[2].Status != "Unsuccessful" {
		t.Errorf("status mapping wrong: %s/%s/%s", recs[0].Status, recs[1].Status, recs[2].Status)
	}
	if recs[0].GPUs != 2 || recs[1].GPUs != 2 || recs[2].GPUs != 1 {
		t.Errorf("gpu counts wrong: %d/%d/%d", recs[0].GPUs, recs[1].GPUs, recs[2].GPUs)
	}
	if recs[1].SubmitMin != 90 {
		t.Errorf("second job submit = %v min, want 90", recs[1].SubmitMin)
	}
	if recs[2].Retries != 1 || recs[2].RunMin != 60 {
		t.Errorf("failed job retries=%d run=%v, want 1/60", recs[2].Retries, recs[2].RunMin)
	}
	// The parsed records must reconstruct into replayable specs.
	specs, err := SpecsFromRecords(recs, DefaultReplayOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 3 {
		t.Fatalf("reconstructed %d specs", len(specs))
	}

	if _, err := ReadPhillyJSON(strings.NewReader("[]")); err == nil {
		t.Error("want error for empty philly trace")
	}
	if _, err := ReadPhillyJSON(strings.NewReader("{}")); err == nil {
		t.Error("want error for non-array philly trace")
	}
}

func TestTransforms(t *testing.T) {
	cfg := replayConfig()
	specs := generateSpecs(t, cfg)
	before := append([]workload.JobSpec(nil), specs...)

	// Identity returns the input untouched.
	id, err := Transform{}.Apply(specs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(id, specs) {
		t.Fatal("identity transform changed the stream")
	}

	// Rate-scale 2: submissions land at half the original instant;
	// runtimes unchanged.
	fast, err := Transform{RateScale: 2}.Apply(specs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range fast {
		want := simulation.Time(float64(specs[i].SubmitAt)/2 + 0.5)
		if fast[i].SubmitAt != want {
			t.Fatalf("job %d submit %v, want %v", fast[i].ID, fast[i].SubmitAt, want)
		}
		if fast[i].Train != specs[i].Train {
			t.Fatalf("rate-scale touched training plan of job %d", fast[i].ID)
		}
	}

	// Time-compress 2: submissions AND runtimes halve.
	comp, err := Transform{TimeCompress: 2}.Apply(specs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range comp {
		if comp[i].Train.BatchTime != specs[i].Train.BatchTime/2 {
			t.Fatalf("job %d batch time not compressed", comp[i].ID)
		}
		for a := range comp[i].Plan.FailedAttempts {
			if comp[i].Plan.FailedAttempts[a].RTFMinutes != specs[i].Plan.FailedAttempts[a].RTFMinutes/2 {
				t.Fatalf("job %d attempt %d RTF not compressed", comp[i].ID, a)
			}
		}
	}

	// Mix-shift: all sizes drawn from the given support, deterministically.
	mix, err := Transform{MixShift: map[int]float64{2: 0.5, 16: 0.5}, Seed: 3}.Apply(specs)
	if err != nil {
		t.Fatal(err)
	}
	saw := map[int]int{}
	for i := range mix {
		if mix[i].GPUs != 2 && mix[i].GPUs != 16 {
			t.Fatalf("job %d resampled to %d GPUs, outside the mix", mix[i].ID, mix[i].GPUs)
		}
		saw[mix[i].GPUs]++
	}
	if saw[2] == 0 || saw[16] == 0 {
		t.Fatalf("mix-shift degenerate: %v", saw)
	}
	mix2, err := Transform{MixShift: map[int]float64{2: 0.5, 16: 0.5}, Seed: 3}.Apply(specs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mix, mix2) {
		t.Fatal("mix-shift draws are not deterministic")
	}

	// The input stream must never be mutated by any transform.
	if !reflect.DeepEqual(specs, before) {
		t.Fatal("a transform mutated its input")
	}

	// Invalid parameters.
	if _, err := (Transform{RateScale: -1}).Apply(specs); err == nil {
		t.Error("want error for negative rate scale")
	}
	if _, err := (Transform{MixShift: map[int]float64{0: 1}}).Apply(specs); err == nil {
		t.Error("want error for non-positive mix size")
	}
	if _, err := (Transform{MixShift: map[int]float64{2: 0}}).Apply(specs); err == nil {
		t.Error("want error for zero-mass mix")
	}
}

func TestApplyReplay(t *testing.T) {
	cfg := replayConfig()
	specs := generateSpecs(t, cfg)
	// Rename one job's VC to something the config lacks.
	specs = append([]workload.JobSpec(nil), specs...)
	specs[0].VC = "foreign-vc"
	specs[0].GPUs = 16

	if err := ApplyReplay(&cfg, specs); err != nil {
		t.Fatal(err)
	}
	if cfg.Workload.TotalJobs != len(specs) {
		t.Errorf("TotalJobs = %d, want %d", cfg.Workload.TotalJobs, len(specs))
	}
	if cfg.Workload.Duration%simulation.Day != 0 || cfg.Workload.Duration <= 0 {
		t.Errorf("Duration %v is not a whole positive day count", cfg.Workload.Duration)
	}
	var maxSubmit simulation.Time
	for i := range specs {
		if specs[i].SubmitAt > maxSubmit {
			maxSubmit = specs[i].SubmitAt
		}
	}
	if cfg.Workload.Duration <= maxSubmit {
		t.Errorf("Duration %v does not cover last submission %v", cfg.Workload.Duration, maxSubmit)
	}
	found := false
	for _, vc := range cfg.Workload.VCs {
		if vc.Name == "foreign-vc" {
			found = true
			if vc.QuotaGPUs < 16 {
				t.Errorf("appended VC quota %d cannot hold its widest job (16)", vc.QuotaGPUs)
			}
		}
	}
	if !found {
		t.Error("foreign VC was not appended to the configuration")
	}
	if err := cfg.Workload.Validate(); err != nil {
		t.Errorf("ApplyReplay produced an invalid workload: %v", err)
	}
	if err := ApplyReplay(&cfg, nil); err == nil {
		t.Error("want error for empty replay stream")
	}
}

// TestFederatedExportSkipsOffloadedShells is the satellite regression: a
// federated study's per-member exports must contain each logical job at
// most once — the donor's offloaded bookkeeping shell is not a trace
// record; the receiving member's injected copy is.
func TestFederatedExportSkipsOffloadedShells(t *testing.T) {
	fcfg := federation.Config{
		Members: []federation.Member{
			{Name: "tight", Config: tightMember(31, 4, 260)},
			{Name: "roomy", Config: tightMember(32, 14, 120)},
		},
		Spillover: federation.Spillover{
			Enabled:          true,
			MinWait:          10 * simulation.Minute,
			Interval:         10 * simulation.Minute,
			MaxMovesPerCheck: 8,
		},
	}
	st, err := federation.NewStudy(fcfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := st.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Fleet.SpilloverMoves == 0 {
		t.Fatal("no spillover happened; the regression has no teeth")
	}
	for _, m := range res.Members {
		shells := 0
		want := 0
		for i := range m.Result.Jobs {
			j := &m.Result.Jobs[i]
			if j.Offloaded {
				shells++
			}
			if j.Completed && !j.Offloaded {
				want++
			}
		}
		tr := FromStudy(m.Result)
		if len(tr.Jobs) != want {
			t.Fatalf("member %s exported %d jobs, want %d (completed, non-offloaded; %d shells present)",
				m.Name, len(tr.Jobs), want, shells)
		}
		for _, rec := range tr.Jobs {
			for i := range m.Result.Jobs {
				j := &m.Result.Jobs[i]
				if j.Spec.ID == rec.JobID && j.Offloaded {
					t.Fatalf("member %s exported offloaded shell %d", m.Name, rec.JobID)
				}
			}
		}
	}
}

func tightMember(seed uint64, servers8 int, jobs int) core.Config {
	cfg := core.SmallConfig()
	cfg.Seed = seed
	cfg.Cluster = cluster.Config{Racks: []cluster.RackConfig{{Servers: servers8, SKU: cluster.SKU8GPU}}}
	cfg.Workload.TotalJobs = jobs
	cfg.Workload.Duration = 2 * simulation.Day
	return cfg
}

func TestLoadTraceFileDispatch(t *testing.T) {
	cfg := replayConfig()
	specs := generateSpecs(t, cfg)
	opts := replayOptsFor(cfg)
	dir := t.TempDir()

	// Spec CSV.
	csvPath := dir + "/trace.csv"
	writeVia(t, csvPath, func(buf *bytes.Buffer) error { return WriteSpecsCSV(buf, specs) })
	got, err := LoadTraceFile(csvPath, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, specs) {
		t.Error("csv dispatch lost fidelity")
	}

	// Own JSON export.
	tr := FromStudy(runStudy(t, cfg))
	jsonPath := dir + "/trace.json"
	writeVia(t, jsonPath, func(buf *bytes.Buffer) error { return tr.WriteJSON(buf) })
	got, err = LoadTraceFile(jsonPath, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(tr.Jobs) {
		t.Errorf("json dispatch: %d specs from %d records", len(got), len(tr.Jobs))
	}

	// msr-fiddle philly JSON (array form).
	phillyPath := dir + "/philly.json"
	writeVia(t, phillyPath, func(buf *bytes.Buffer) error {
		_, err := buf.WriteString(phillySample)
		return err
	})
	got, err = LoadTraceFile(phillyPath, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Errorf("philly dispatch: %d specs, want 3", len(got))
	}

	if _, err := LoadTraceFile(dir+"/trace.txt", opts); err == nil {
		t.Error("want error for unsupported extension")
	}
	if _, err := LoadTraceFile(dir+"/missing.csv", opts); err == nil {
		t.Error("want error for missing file")
	}
}

func writeVia(t *testing.T, path string, write func(*bytes.Buffer) error) {
	t.Helper()
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}
