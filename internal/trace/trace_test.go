package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"

	"philly/internal/core"
)

var (
	once   sync.Once
	result *core.StudyResult
	resErr error
)

func studyResult(t *testing.T) *core.StudyResult {
	t.Helper()
	once.Do(func() {
		cfg := core.SmallConfig()
		cfg.Workload.TotalJobs = 400
		cfg.Workload.Duration = cfg.Workload.Duration / 4
		st, err := core.NewStudy(cfg)
		if err != nil {
			resErr = err
			return
		}
		result, resErr = st.Run()
	})
	if resErr != nil {
		t.Fatal(resErr)
	}
	return result
}

func TestFromStudy(t *testing.T) {
	res := studyResult(t)
	tr := FromStudy(res)
	if len(tr.Jobs) == 0 {
		t.Fatal("no jobs exported")
	}
	completed := 0
	for i := range res.Jobs {
		if res.Jobs[i].Completed {
			completed++
		}
	}
	if len(tr.Jobs) != completed {
		t.Errorf("exported %d jobs, want %d completed", len(tr.Jobs), completed)
	}
	if len(tr.Attempts) < len(tr.Jobs) {
		t.Errorf("attempts (%d) < jobs (%d)", len(tr.Attempts), len(tr.Jobs))
	}
	// Each table is allocated once, at its final size.
	if cap(tr.Jobs) != len(tr.Jobs) {
		t.Errorf("jobs: cap %d, len %d", cap(tr.Jobs), len(tr.Jobs))
	}
	if cap(tr.Attempts) != len(tr.Attempts) {
		t.Errorf("attempts: cap %d, len %d", cap(tr.Attempts), len(tr.Attempts))
	}
	for _, j := range tr.Jobs {
		if j.Status != "Passed" && j.Status != "Killed" && j.Status != "Unsuccessful" {
			t.Fatalf("job %d bad status %q", j.JobID, j.Status)
		}
		if j.EndMin < j.StartMin || j.StartMin < j.SubmitMin {
			t.Fatalf("job %d time ordering broken", j.JobID)
		}
		if j.Status == "Unsuccessful" && j.FailureReason == "" {
			t.Fatalf("unsuccessful job %d lacks failure reason", j.JobID)
		}
	}
}

func TestJobsCSVRoundTrip(t *testing.T) {
	tr := FromStudy(studyResult(t))
	var buf bytes.Buffer
	if err := tr.WriteJobsCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJobsCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(tr.Jobs) {
		t.Fatalf("read %d jobs, wrote %d", len(got), len(tr.Jobs))
	}
	for i := range got {
		a, b := got[i], tr.Jobs[i]
		if a.JobID != b.JobID || a.VC != b.VC || a.User != b.User || a.GPUs != b.GPUs ||
			a.Status != b.Status || a.Retries != b.Retries || a.DelayCause != b.DelayCause ||
			a.FailureReason != b.FailureReason {
			t.Fatalf("row %d mismatch:\n%+v\n%+v", i, a, b)
		}
		if diff := a.RunMin - b.RunMin; diff > 0.001 || diff < -0.001 {
			t.Fatalf("row %d RunMin %v vs %v", i, a.RunMin, b.RunMin)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	tr := FromStudy(studyResult(t))
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Jobs) != len(tr.Jobs) || len(got.Attempts) != len(tr.Attempts) {
		t.Fatalf("round trip lost records: %d/%d jobs, %d/%d attempts",
			len(got.Jobs), len(tr.Jobs), len(got.Attempts), len(tr.Attempts))
	}
	if got.Jobs[0] != tr.Jobs[0] {
		t.Errorf("first job differs: %+v vs %+v", got.Jobs[0], tr.Jobs[0])
	}
}

// encoderJSON is the oracle for WriteJSON: the whole document through one
// indenting json.Encoder, as WriteJSON wrote it before it streamed.
func encoderJSON(t *testing.T, tr *Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	if err := enc.Encode(tr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

type failingWriter struct{ err error }

func (w failingWriter) Write([]byte) (int, error) { return 0, w.err }

// TestWriteJSONMatchesEncoder: the streamed document is byte-identical to
// the whole-document encoder's on the shapes that differ in JSON — nil
// against empty tables, omitempty reasons, strings the encoder escapes and
// floats at the edges of its two formats — and on a real study's trace.
func TestWriteJSONMatchesEncoder(t *testing.T) {
	job := JobRecord{
		JobID: 7, VC: "vc1", User: "u1", GPUs: 8, SubmitMin: 1.5, StartMin: 2,
		EndMin: 30.25, Status: "Unsuccessful", QueueDelayMin: 0.5, RunMin: 28.25,
		GPUMin: 226, Retries: 2, Servers: 2, MeanUtil: 52.75,
		DelayCause: "fragmentation", FailureReason: "CUDA OOM",
	}
	attempt := AttemptRecord{
		JobID: 7, Attempt: 1, StartMin: 2, EndMin: 10, Servers: 2,
		Colocated: true, CrossRack: true, Failed: true, Reason: "CUDA OOM", RunMinutes: 8,
	}
	noReasonJob, noReasonAttempt := job, attempt
	noReasonJob.FailureReason, noReasonAttempt.Reason = "", ""

	var oddJobs []JobRecord
	for i, s := range []string{
		`quote " and backslash \`, "<script>&amp;</script>", "ctl \x00\x01\x1f\t\n\r\x7f",
		"line\u2028para\u2029sep", "bad utf8 \xff\xfe\xc3", "é 漢字 🙂", "",
	} {
		oddJobs = append(oddJobs, JobRecord{JobID: int64(i), VC: s, User: s, Status: s, DelayCause: s, FailureReason: s})
	}
	var floatJobs []JobRecord
	var floatAttempts []AttemptRecord
	for _, f := range []float64{
		math.Copysign(0, -1), 1e-7, 1e21, 5e-324, math.MaxFloat64,
		-math.MaxFloat64, 1e20, 1e-6, 0.1, 123456.789,
	} {
		floatJobs = append(floatJobs, JobRecord{SubmitMin: f, StartMin: f, EndMin: f,
			QueueDelayMin: f, RunMin: f, GPUMin: f, MeanUtil: f})
		floatAttempts = append(floatAttempts, AttemptRecord{StartMin: f, EndMin: f, RunMinutes: f})
	}

	cases := map[string]*Trace{
		"nil tables":           {},
		"empty tables":         {Jobs: []JobRecord{}, Attempts: []AttemptRecord{}},
		"nil jobs, empty att.": {Attempts: []AttemptRecord{}},
		"empty jobs, nil att.": {Jobs: []JobRecord{}},
		"one of each":          {Jobs: []JobRecord{job}, Attempts: []AttemptRecord{attempt}},
		"reasons unset":        {Jobs: []JobRecord{noReasonJob}, Attempts: []AttemptRecord{noReasonAttempt}},
		"reasons mixed": {Jobs: []JobRecord{job, noReasonJob, job},
			Attempts: []AttemptRecord{noReasonAttempt, attempt}},
		"jobs only":   {Jobs: []JobRecord{job, job}},
		"odd strings": {Jobs: oddJobs},
		"edge floats": {Jobs: floatJobs, Attempts: floatAttempts},
		"small study": FromStudy(studyResult(t)),
	}
	for name, tr := range cases {
		var got bytes.Buffer
		if err := tr.WriteJSON(&got); err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if want := encoderJSON(t, tr); !bytes.Equal(got.Bytes(), want) {
			at := 0
			for at < min(got.Len(), len(want)) && got.Bytes()[at] == want[at] {
				at++
			}
			from := max(at-40, 0)
			t.Errorf("%s: streamed JSON differs from the encoder's at byte %d\n got: %q\nwant: %q",
				name, at, got.Bytes()[from:min(at+40, got.Len())], want[from:min(at+40, len(want))])
		}
	}

	for name, tr := range map[string]*Trace{
		"NaN job":          {Jobs: []JobRecord{job, {MeanUtil: math.NaN()}}},
		"+Inf attempt":     {Jobs: []JobRecord{job}, Attempts: []AttemptRecord{{RunMinutes: math.Inf(1)}}},
		"-Inf job, no att": {Jobs: []JobRecord{{GPUMin: math.Inf(-1)}}},
	} {
		err := tr.WriteJSON(&bytes.Buffer{})
		var unsupported *json.UnsupportedValueError
		if err == nil || !strings.HasPrefix(err.Error(), "trace: encode json:") || !errors.As(err, &unsupported) {
			t.Errorf("%s: err = %v, want a trace: encode json: UnsupportedValueError", name, err)
		}
	}

	full := errors.New("disk full")
	for name, tr := range map[string]*Trace{"nil tables": {}, "small study": cases["small study"]} {
		if err := tr.WriteJSON(failingWriter{full}); !errors.Is(err, full) {
			t.Errorf("%s to a failing writer: err = %v, want %v", name, err, full)
		}
	}
}

// maxWriteRecorder discards what it is given and keeps the largest single
// Write and the total.
type maxWriteRecorder struct{ max, total, writes int }

func (w *maxWriteRecorder) Write(p []byte) (int, error) {
	w.max = max(w.max, len(p))
	w.total += len(p)
	w.writes++
	return len(p), nil
}

// TestWriteJSONStreams: a trace of several megabytes reaches the writer in
// bounded chunks, never as one whole-document write.
func TestWriteJSONStreams(t *testing.T) {
	const n = 12000
	tr := &Trace{Jobs: make([]JobRecord, n), Attempts: make([]AttemptRecord, n)}
	for i := range n {
		tr.Jobs[i] = JobRecord{JobID: int64(i), VC: "vc3", User: "user42", GPUs: 8,
			SubmitMin: float64(i) * 1.37, StartMin: float64(i) * 1.5, EndMin: float64(i) * 2.25,
			Status: "Passed", RunMin: 123.456, GPUMin: 987.654, MeanUtil: 51.5, DelayCause: "fair-share"}
		tr.Attempts[i] = AttemptRecord{JobID: int64(i), Attempt: 1, StartMin: float64(i),
			EndMin: float64(i) + 60, Servers: 1, Colocated: true, RunMinutes: 60}
	}
	var w maxWriteRecorder
	if err := tr.WriteJSON(&w); err != nil {
		t.Fatal(err)
	}
	if w.total < 4<<20 {
		t.Fatalf("wrote %d bytes, want a trace of at least 4 MiB", w.total)
	}
	if w.max > 128<<10 {
		t.Errorf("largest write %d bytes of %d in %d writes, want at most 128 KiB",
			w.max, w.total, w.writes)
	}
}

func TestReadJobsCSVErrors(t *testing.T) {
	if _, err := ReadJobsCSV(strings.NewReader("")); err == nil {
		t.Error("want error for empty input")
	}
	if _, err := ReadJobsCSV(strings.NewReader("a,b,c\n")); err == nil {
		t.Error("want error for wrong header")
	}
	header := strings.Join(jobHeader, ",")
	bad := header + "\nnot-a-number,vc1,u,1,0,0,0,Passed,0,0,0,0,1,0,none,\n"
	if _, err := ReadJobsCSV(strings.NewReader(bad)); err == nil {
		t.Error("want error for bad jobid")
	}
}

func TestReadJSONError(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("{nope")); err == nil {
		t.Error("want error for invalid json")
	}
}
