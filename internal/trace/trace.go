// Package trace exports simulated studies in a Philly-traces-like format —
// the paper's authors released their scheduler trace as per-job records with
// submission, placement and status information (https://github.com/
// msr-fiddle/philly-traces); this package writes and reads the analogous
// records for simulated runs, in CSV and JSON.
package trace

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"philly/internal/core"
)

// JobRecord is one job's trace row. Times are minutes since trace start.
type JobRecord struct {
	JobID     int64   `json:"jobid"`
	VC        string  `json:"vc"`
	User      string  `json:"user"`
	GPUs      int     `json:"num_gpus"`
	SubmitMin float64 `json:"submitted_time"`
	StartMin  float64 `json:"started_time"`
	EndMin    float64 `json:"finished_time"`
	Status    string  `json:"status"`
	// QueueDelayMin is the first-episode queueing delay.
	QueueDelayMin float64 `json:"queue_delay"`
	// RunMin is total time holding GPUs across attempts.
	RunMin float64 `json:"run_time"`
	// GPUMin is RunMin x GPUs (GPU-minutes consumed).
	GPUMin float64 `json:"gpu_time"`
	// Retries is the number of re-executions after failures.
	Retries int `json:"retries"`
	// Servers is the final attempt's server spread.
	Servers int `json:"num_servers"`
	// MeanUtil is mean per-minute GPU utilization.
	MeanUtil float64 `json:"mean_gpu_util"`
	// DelayCause is "none", "fair-share" or "fragmentation".
	DelayCause string `json:"delay_cause"`
	// FailureReason is the log-classified reason of the final failed
	// attempt, if any.
	FailureReason string `json:"failure_reason,omitempty"`
}

// AttemptRecord is one execution attempt.
type AttemptRecord struct {
	JobID      int64   `json:"jobid"`
	Attempt    int     `json:"attempt"`
	StartMin   float64 `json:"start_time"`
	EndMin     float64 `json:"end_time"`
	Servers    int     `json:"num_servers"`
	Colocated  bool    `json:"colocated"`
	CrossRack  bool    `json:"cross_rack"`
	Failed     bool    `json:"failed"`
	Reason     string  `json:"reason,omitempty"`
	RunMinutes float64 `json:"run_minutes"`
}

// Trace is the exported study.
type Trace struct {
	Jobs     []JobRecord     `json:"jobs"`
	Attempts []AttemptRecord `json:"attempts"`
}

// FromStudy converts a study result into trace records. Only completed jobs
// are exported, matching what a real trace collection would contain.
// Offloaded spillover shells are skipped: in a federated study the job also
// appears as a re-ID'd injected copy on the receiving member, and exporting
// both would double-count it (the same shell/copy pair the study fold,
// analysis.StreamReducer, counts once).
//
// A first pass counts the exported jobs and attempts, so each table is
// allocated once at its final size instead of grown by append. A table
// with no records stays nil, which WriteJSON writes as null.
func FromStudy(res *core.StudyResult) *Trace {
	var nJobs, nAttempts int
	for i := range res.Jobs {
		if j := &res.Jobs[i]; exported(j) {
			nJobs++
			nAttempts += len(j.Attempts)
		}
	}
	t := &Trace{}
	if nJobs > 0 {
		t.Jobs = make([]JobRecord, 0, nJobs)
	}
	if nAttempts > 0 {
		t.Attempts = make([]AttemptRecord, 0, nAttempts)
	}
	for i := range res.Jobs {
		j := &res.Jobs[i]
		if !exported(j) {
			continue
		}
		rec := JobRecord{
			JobID:         j.Spec.ID,
			VC:            j.Spec.VC,
			User:          j.Spec.User,
			GPUs:          j.Spec.GPUs,
			SubmitMin:     j.Spec.SubmitAt.Minutes(),
			StartMin:      j.FirstStartAt.Minutes(),
			EndMin:        j.EndAt.Minutes(),
			Status:        j.Outcome.String(),
			QueueDelayMin: j.FirstQueueDelay.Minutes(),
			RunMin:        j.RunMinutes,
			GPUMin:        j.GPUMinutes,
			Retries:       j.Retries,
			Servers:       j.LastServers,
			MeanUtil:      j.MeanUtil,
			DelayCause:    j.DelayCause.String(),
		}
		for _, a := range j.Attempts {
			if a.Failed {
				rec.FailureReason = a.ClassifiedReason
			}
			t.Attempts = append(t.Attempts, AttemptRecord{
				JobID:      j.Spec.ID,
				Attempt:    a.Index,
				StartMin:   a.StartAt.Minutes(),
				EndMin:     a.EndAt.Minutes(),
				Servers:    a.Servers,
				Colocated:  a.Colocated,
				CrossRack:  a.CrossRack,
				Failed:     a.Failed,
				Reason:     a.ClassifiedReason,
				RunMinutes: a.RuntimeMinutes,
			})
		}
		t.Jobs = append(t.Jobs, rec)
	}
	return t
}

// exported reports whether FromStudy writes j's records.
func exported(j *core.JobResult) bool { return j.Completed && !j.Offloaded }

var jobHeader = []string{
	"jobid", "vc", "user", "num_gpus", "submitted_time", "started_time",
	"finished_time", "status", "queue_delay", "run_time", "gpu_time",
	"retries", "num_servers", "mean_gpu_util", "delay_cause", "failure_reason",
}

// WriteJobsCSV writes the job table.
func (t *Trace) WriteJobsCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(jobHeader); err != nil {
		return fmt.Errorf("trace: write header: %w", err)
	}
	for _, j := range t.Jobs {
		rec := []string{
			strconv.FormatInt(j.JobID, 10), j.VC, j.User, strconv.Itoa(j.GPUs),
			fmtF(j.SubmitMin), fmtF(j.StartMin), fmtF(j.EndMin), j.Status,
			fmtF(j.QueueDelayMin), fmtF(j.RunMin), fmtF(j.GPUMin),
			strconv.Itoa(j.Retries), strconv.Itoa(j.Servers), fmtF(j.MeanUtil),
			j.DelayCause, j.FailureReason,
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("trace: write job %d: %w", j.JobID, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

func fmtF(v float64) string { return strconv.FormatFloat(v, 'f', 3, 64) }

// ReadJobsCSV parses a job table written by WriteJobsCSV. The header must
// match jobHeader exactly — same names, same order — so a reordered or
// foreign CSV is rejected up front instead of being silently misparsed.
func ReadJobsCSV(r io.Reader) ([]JobRecord, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1 // row widths checked per row, with row numbers
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("trace: read csv: %w", err)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("trace: empty csv")
	}
	if !headerMatches(rows[0], jobHeader) {
		return nil, fmt.Errorf("trace: header %q does not match the job schema %q",
			strings.Join(rows[0], ","), strings.Join(jobHeader, ","))
	}
	return parseJobRows(rows[1:])
}

// jobCols indexes jobHeader by name once; parseJobRow reads columns by
// name, never by magic position.
var jobCols = func() map[string]int {
	m := make(map[string]int, len(jobHeader))
	for i, name := range jobHeader {
		m[name] = i
	}
	return m
}()

func parseJobRows(rows [][]string) ([]JobRecord, error) {
	var out []JobRecord
	for i, row := range rows {
		rec, err := parseJobRow(row)
		if err != nil {
			return nil, fmt.Errorf("trace: row %d: %w", i+1, err)
		}
		out = append(out, rec)
	}
	return out, nil
}

func parseJobRow(row []string) (JobRecord, error) {
	var rec JobRecord
	if len(row) != len(jobHeader) {
		return rec, fmt.Errorf("have %d columns, want %d", len(row), len(jobHeader))
	}
	col := func(name string) string { return row[jobCols[name]] }
	var err error
	if rec.JobID, err = strconv.ParseInt(col("jobid"), 10, 64); err != nil {
		return rec, fmt.Errorf("jobid: %w", err)
	}
	rec.VC, rec.User = col("vc"), col("user")
	if rec.GPUs, err = strconv.Atoi(col("num_gpus")); err != nil {
		return rec, fmt.Errorf("num_gpus: %w", err)
	}
	floats := []struct {
		name string
		dst  *float64
	}{
		{"submitted_time", &rec.SubmitMin}, {"started_time", &rec.StartMin},
		{"finished_time", &rec.EndMin}, {"queue_delay", &rec.QueueDelayMin},
		{"run_time", &rec.RunMin}, {"gpu_time", &rec.GPUMin},
		{"mean_gpu_util", &rec.MeanUtil},
	}
	for _, f := range floats {
		if *f.dst, err = strconv.ParseFloat(col(f.name), 64); err != nil {
			return rec, fmt.Errorf("%s: %w", f.name, err)
		}
	}
	rec.Status = col("status")
	if rec.Retries, err = strconv.Atoi(col("retries")); err != nil {
		return rec, fmt.Errorf("retries: %w", err)
	}
	if rec.Servers, err = strconv.Atoi(col("num_servers")); err != nil {
		return rec, fmt.Errorf("num_servers: %w", err)
	}
	rec.DelayCause, rec.FailureReason = col("delay_cause"), col("failure_reason")
	return rec, nil
}

// jsonChunk is the size at which WriteJSON hands its buffer to w: the
// largest single write is one chunk plus one record.
const jsonChunk = 64 << 10

// WriteJSON writes the full trace (jobs + attempts) as JSON, byte for byte
// what a json.Encoder with SetIndent("", " ") writes for t: a nil table is
// null, an empty one []. It streams: the outer structure is written here,
// and each record is formatted by json.Marshal and re-indented at depth 2
// (json.Indent with prefix "  ", indent " ", which is exactly what
// indenting the whole document does to a record there) into one reused
// buffer that goes to w in chunks of about jsonChunk. So WriteJSON holds
// one chunk and one record at a time, never the document.
//
// A record json.Marshal refuses (a NaN or infinite float) returns an error
// prefixed "trace: encode json:", and an error from w is returned too; the
// output written before either error is an incomplete document.
func (t *Trace) WriteJSON(w io.Writer) error {
	var buf bytes.Buffer
	buf.WriteString("{\n \"jobs\": ")
	if err := writeTable(w, &buf, t.Jobs); err != nil {
		return err
	}
	buf.WriteString(",\n \"attempts\": ")
	if err := writeTable(w, &buf, t.Attempts); err != nil {
		return err
	}
	buf.WriteString("\n}\n")
	return flushJSON(w, &buf)
}

// writeTable appends one of the trace's arrays to buf as the encoder
// writes it at depth 1 — records on their own lines, two spaces in,
// separated by ",\n" — handing buf to w whenever it reaches jsonChunk.
func writeTable[R JobRecord | AttemptRecord](w io.Writer, buf *bytes.Buffer, recs []R) error {
	if recs == nil {
		buf.WriteString("null")
		return nil
	}
	if len(recs) == 0 {
		buf.WriteString("[]")
		return nil
	}
	buf.WriteString("[\n")
	for i := range recs {
		b, err := json.Marshal(&recs[i])
		if err != nil {
			return fmt.Errorf("trace: encode json: %w", err)
		}
		if i > 0 {
			buf.WriteString(",\n")
		}
		buf.WriteString("  ")
		if err := json.Indent(buf, b, "  ", " "); err != nil {
			return fmt.Errorf("trace: encode json: %w", err)
		}
		if buf.Len() >= jsonChunk {
			if err := flushJSON(w, buf); err != nil {
				return err
			}
		}
	}
	buf.WriteString("\n ]")
	return nil
}

func flushJSON(w io.Writer, buf *bytes.Buffer) error {
	if _, err := w.Write(buf.Bytes()); err != nil {
		return fmt.Errorf("trace: write json: %w", err)
	}
	buf.Reset()
	return nil
}

// ReadJSON parses a trace written by WriteJSON.
func ReadJSON(r io.Reader) (*Trace, error) {
	var t Trace
	if err := json.NewDecoder(r).Decode(&t); err != nil {
		return nil, fmt.Errorf("trace: decode json: %w", err)
	}
	return &t, nil
}
