package serve

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"philly/internal/core"
	"philly/internal/stats"
	"philly/internal/sweep"
	"philly/internal/trace"
	"philly/internal/workload"
)

// writeTinyTrace writes a small valid spec-CSV trace into dir and
// returns its file name.
func writeTinyTrace(t *testing.T, dir, name string) string {
	t.Helper()
	cfg := core.SmallConfig()
	cfg.Workload.TotalJobs = 30
	g := stats.NewRNG(cfg.Seed).Split("workload")
	gen, err := workload.NewGenerator(cfg.Workload, g)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.WriteSpecsCSV(&buf, gen.Generate(g)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, name), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return name
}

// TestSpecJobsCap pins the admission-time size bounds: a spec whose jobs
// bound (replicas × axis values × jobs per study) exceeds MaxSpecJobs, or
// whose studies bound (replicas × axis values × federation members)
// exceeds MaxSpecStudies, is refused at resolution, before its scenarios
// expand or any study generates a job, while realistic sweeps stay under
// both.
func TestSpecJobsCap(t *testing.T) {
	values := func(n int) string {
		v := make([]string, n)
		for i := range v {
			v[i] = fmt.Sprint(i + 1)
		}
		return strings.Join(v, ",")
	}
	over := []struct {
		name string
		spec Spec
	}{
		{"replicas", Spec{Replicas: 1 << 30}},
		{"jobs", Spec{Jobs: 1 << 30}},
		// 40 × 40 × 2 scenarios × 3,300 small-scale jobs = 10.56 M.
		{"axis product", Spec{Axes: []string{
			"failure.scale=" + values(40), "telemetry.cadence=" + values(40), "sched.policy=philly,fifo",
		}}},
		{"jobs axis", Spec{Axes: []string{"jobs=200,1073741824"}}},
		{"cluster.scale axis", Spec{Axes: []string{"cluster.scale=1,1e300"}}},
		{"NaN cluster.scale", Spec{Axes: []string{"cluster.scale=NaN"}}},
		// 88 paper-scale members × 96,260 jobs = 8.47 M, however small the
		// base scale.
		{"fleet.members axis", Spec{Axes: []string{"fleet.members=" + strings.Repeat("philly-full+", 87) + "philly-full"}}},
	}
	for _, tc := range over {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tc.spec.Resolve()
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("over the %d-job limit", MaxSpecJobs)) {
				t.Errorf("Resolve = %v, want the %d-job limit", err, MaxSpecJobs)
			}
		})
	}
	// At one job per study the job bound stays small; the study bound
	// still refuses the expansion.
	overStudies := []struct {
		name string
		spec Spec
	}{
		// 30 × 30 × 30 = 27,000 scenarios.
		{"axis product at jobs 1", Spec{Jobs: 1, Axes: []string{
			"failure.scale=" + values(30), "telemetry.cadence=" + values(30), "sched.backoff-min=" + values(30),
		}}},
		{"replicas at jobs 1", Spec{Jobs: 1, Replicas: 5000}},
	}
	for _, tc := range overStudies {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tc.spec.Resolve()
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("over the %d-study limit", MaxSpecStudies)) {
				t.Errorf("Resolve = %v, want the %d-study limit", err, MaxSpecStudies)
			}
		})
	}
	// A federation member is a study of its own.
	fleet, err := sweep.ParseAxis("fleet.members=philly-small+helios-like,helios-like")
	if err != nil {
		t.Fatal(err)
	}
	if n := studiesBound([]sweep.Axis{fleet}, 2); n != 6 {
		t.Errorf("studiesBound(2 replicas of a 2-member and a 1-member fleet) = %v, want 6", n)
	}
	// A full-scale 5-policy × 4-replica sweep (1.9 M jobs, 20 studies),
	// the README's sweep and a federated policy sweep must pass.
	for _, spec := range []Spec{
		{Scale: "full", Replicas: 4, Axes: []string{"sched.policy=philly,fifo,srtf,tiresias,gandiva"}},
		{Scale: "small", Replicas: 4, Axes: []string{"sched.policy=philly,fifo"}},
		{Replicas: 4, Axes: []string{"sched.policy=philly,fifo", "fleet.members=philly-full+helios-like,philly-small"}},
	} {
		if _, err := spec.Resolve(); err != nil {
			t.Errorf("Resolve(%+v) = %v, want it admitted", spec, err)
		}
	}
}

// TestReplayPathConfinement pins the replay path policy: relative paths
// inside the trace directory resolve (with a content digest), while
// absolute paths, ".." escapes, and oversized files are rejected, and
// every unreadable or irregular path maps to one generic error that
// leaks no existence information.
func TestReplayPathConfinement(t *testing.T) {
	dir := t.TempDir()
	name := writeTinyTrace(t, dir, "ok.csv")

	r, err := Spec{Replay: name}.resolveWithin(dir)
	if err != nil {
		t.Fatalf("valid relative replay rejected: %v", err)
	}
	if want := filepath.Join(dir, name); r.Replay != want || r.ReplayDigest == "" {
		t.Errorf("resolved replay %q digest %q, want path %q and a digest", r.Replay, r.ReplayDigest, want)
	}

	cases := []struct{ name, replay, want string }{
		{"absolute path", filepath.Join(dir, name), "absolute paths are not allowed"},
		{"dotdot escape", "../" + name, "escapes the trace directory"},
		{"sneaky escape", "sub/../../" + name, "escapes the trace directory"},
		{"missing file", "missing.csv", `replay "missing.csv": not a readable trace file`},
		{"directory not file", ".", "not a readable trace file"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Spec{Replay: tc.replay}.resolveWithin(dir)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("resolve replay %q = %v, want error containing %q", tc.replay, err, tc.want)
			}
		})
	}

	// A workload.trace axis would open its value from anywhere on disk —
	// even a valid trace by absolute path — and a parse error would echo
	// the file's first line. It is refused before parsing, pointing to
	// the replay field.
	secret := filepath.Join(t.TempDir(), "secret.csv")
	if err := os.WriteFile(secret, []byte("user,password\nalice,hunter2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{filepath.Join(dir, name), secret} {
		_, err := Spec{Axes: []string{"workload.trace=" + p}}.resolveWithin(dir)
		if err == nil || !strings.Contains(err.Error(), "replay field") {
			t.Errorf("workload.trace axis %q = %v, want a refusal pointing to the replay field", p, err)
		} else if strings.Contains(err.Error(), "password") || strings.Contains(err.Error(), "hunter2") {
			t.Errorf("workload.trace axis error echoes the file's content: %v", err)
		}
	}
	// Federated replay reaches the members through a workload.trace axis
	// that BuildMatrix builds from the confined path; that one stays.
	if _, err := (Spec{Federation: "philly-small+helios-like", Replay: name}).resolveWithin(dir); err != nil {
		t.Errorf("federated replay rejected: %v", err)
	}

	// The size cap runs before the digest pass ever opens the file;
	// maxReplayBytes is a var precisely so this fixture stays tiny.
	defer func(old int64) { maxReplayBytes = old }(maxReplayBytes)
	maxReplayBytes = 16
	_, err = Spec{Replay: name}.resolveWithin(dir)
	if err == nil || !strings.Contains(err.Error(), "over the 16-byte limit") {
		t.Errorf("oversized trace resolved anyway: %v", err)
	}
}
