package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"philly/internal/core"
	"philly/internal/faults"
	"philly/internal/federation"
	"philly/internal/sweep"
	"philly/internal/workload"
)

// newHTTPServer starts a serve.Server behind httptest; a non-nil hold
// keeps the dispatcher parked so submitted jobs stay queued.
func newHTTPServer(t *testing.T, cfg Config, hold <-chan struct{}) (*Server, *httptest.Server) {
	t.Helper()
	s := newServer(cfg, hold)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postSpec(t *testing.T, ts *httptest.Server, tenant string, spec Spec) (*http.Response, submitResponse) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatalf("marshal spec: %v", err)
	}
	return postRaw(t, ts, tenant, body)
}

func postRaw(t *testing.T, ts *httptest.Server, tenant string, body []byte) (*http.Response, submitResponse) {
	t.Helper()
	req, err := http.NewRequest("POST", ts.URL+"/v1/studies", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("build request: %v", err)
	}
	if tenant != "" {
		req.Header.Set(TenantHeader, tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	defer resp.Body.Close()
	var sub submitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil && resp.StatusCode < 400 {
		t.Fatalf("decode submit response: %v", err)
	}
	return resp, sub
}

func getBody(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp, b
}

// TestEndToEnd walks the whole surface: submit, SSE progress to the
// terminal event, result download, cache-hit re-submit with a
// byte-identical result, stats, health.
func TestEndToEnd(t *testing.T) {
	// The dispatcher starts held so the SSE client deterministically
	// attaches while the job is still queued — guaranteeing the stream
	// carries progress events before the terminal one.
	hold := make(chan struct{})
	_, ts := newHTTPServer(t, Config{Budget: 2}, hold)
	spec := tinySpec(9)

	resp, sub := postSpec(t, ts, "alice", spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d, want 202", resp.StatusCode)
	}
	if sub.Tenant != "alice" || sub.EventsURL == "" {
		t.Fatalf("submit response %+v missing tenant/events URL", sub)
	}

	// SSE: read the first event while the job is queued, then release the
	// dispatcher and drain to the terminal event that ends the stream.
	evResp, err := http.Get(ts.URL + sub.EventsURL)
	if err != nil {
		t.Fatalf("events: %v", err)
	}
	if ct := evResp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("events content type %q, want text/event-stream", ct)
	}
	br := bufio.NewReader(evResp.Body)
	var first strings.Builder
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("reading first SSE event: %v", err)
		}
		first.WriteString(line)
		if line == "\n" {
			break
		}
	}
	if !strings.HasPrefix(first.String(), "event: progress\n") {
		t.Fatalf("first SSE event of a queued job:\n%s\nwant a progress event", first.String())
	}
	close(hold)
	rest, err := io.ReadAll(br)
	evResp.Body.Close()
	if err != nil {
		t.Fatalf("draining SSE stream: %v", err)
	}
	events := first.String() + string(rest)
	if !strings.Contains(events, "event: done\n") {
		t.Fatalf("SSE stream ended without a done event:\n%s", events)
	}
	var last JobStatus
	for _, line := range strings.Split(strings.TrimSpace(events), "\n") {
		if data, ok := strings.CutPrefix(line, "data: "); ok {
			if err := json.Unmarshal([]byte(data), &last); err != nil {
				t.Fatalf("bad SSE data line %q: %v", line, err)
			}
		}
	}
	if last.State != StateDone || last.Done != last.Total || last.Total == 0 {
		t.Fatalf("final SSE snapshot %+v, want done with full progress", last)
	}

	resResp, result1 := getBody(t, ts.URL+"/v1/studies/"+sub.ID+"/result")
	if resResp.StatusCode != http.StatusOK {
		t.Fatalf("result: HTTP %d: %s", resResp.StatusCode, result1)
	}
	if _, err := sweep.DecodeJSON(bytes.NewReader(result1)); err != nil {
		t.Fatalf("result is not a sweep export: %v", err)
	}

	// Second submit: cache hit, 200, byte-identical result.
	resp2, sub2 := postSpec(t, ts, "bob", spec)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("cache-hit submit: HTTP %d, want 200", resp2.StatusCode)
	}
	if !sub2.CacheHit || sub2.State != StateDone || sub2.ResultURL == "" {
		t.Fatalf("cache-hit submit response %+v", sub2)
	}
	if _, result2 := getBody(t, ts.URL+sub2.ResultURL); !bytes.Equal(result1, result2) {
		t.Fatalf("cached result is not byte-identical to the original")
	}

	// ndjson flavor of a finished job's stream: one terminal line.
	ndResp, nd := getBody(t, ts.URL+sub2.EventsURL+"?stream=ndjson")
	if ct := ndResp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("ndjson content type %q", ct)
	}
	var ndLast JobStatus
	if err := json.Unmarshal(bytes.TrimSpace(nd), &ndLast); err != nil || ndLast.State != StateDone {
		t.Errorf("ndjson stream for a done job = %q (err %v), want one done snapshot", nd, err)
	}

	statsResp, statsBody := getBody(t, ts.URL+"/v1/stats")
	var snap Stats
	if err := json.Unmarshal(statsBody, &snap); err != nil || statsResp.StatusCode != http.StatusOK {
		t.Fatalf("stats: HTTP %d, %v", statsResp.StatusCode, err)
	}
	if snap.CacheHits != 1 || snap.AcceptedStudies != 2 {
		t.Errorf("stats %+v, want 1 cache hit over 2 accepted studies", snap)
	}

	if hResp, _ := getBody(t, ts.URL+"/v1/healthz"); hResp.StatusCode != http.StatusOK {
		t.Errorf("healthz: HTTP %d", hResp.StatusCode)
	}
}

// TestSubmitErrorParity pins the 400 bodies to the exact fail-fast
// messages the CLI flags print: the service and the CLIs share one set of
// validators, and this table breaks if they drift apart.
func TestSubmitErrorParity(t *testing.T) {
	parserErr := func(err error) string {
		t.Helper()
		if err == nil {
			t.Fatalf("shared parser unexpectedly accepted the probe input")
		}
		return err.Error()
	}
	patternErr := func() string { _, err := workload.PresetPattern("nope"); return parserErr(err) }
	faultsErr := func() string { _, err := faults.CanonicalSpec("bogus"); return parserErr(err) }
	checkpointErr := func() string { _, err := core.CanonicalCheckpointSpec("bogus"); return parserErr(err) }
	federationErr := func() string { _, err := federation.ParseSpec(0, "nope"); return parserErr(err) }
	axisErr := func() string { _, err := sweep.ParseAxis("bogus"); return parserErr(err) }

	cases := []struct {
		name, body, want string
	}{
		{"unknown scale", `{"scale":"galactic"}`, `unknown scale "galactic"`},
		{"negative jobs", `{"jobs":-3}`, "jobs -3: want a positive int"},
		{"unknown pattern", `{"pattern":"nope"}`, patternErr()},
		{"bad faults spec", `{"faults":"bogus"}`, faultsErr()},
		{"bad checkpoint spec", `{"checkpoint":"bogus"}`, checkpointErr()},
		{"bad federation member", `{"federation":"nope"}`, federationErr()},
		{"bad axis", `{"axes":["bogus"]}`, axisErr()},
		{"pattern and replay", `{"pattern":"diurnal","replay":"x.trace"}`,
			"pattern and replay are mutually exclusive (a replayed trace already fixes the arrival timeline)"},
		{"scale under federation", `{"scale":"small","federation":"philly-small+philly-small"}`,
			"scale is incompatible with federation (member presets fix each cluster's scale)"},
	}

	_, ts := newHTTPServer(t, Config{Budget: 1}, nil)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, _ := postRaw(t, ts, "", []byte(tc.body))
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("HTTP %d, want 400", resp.StatusCode)
			}
			// Re-issue to read the error body (postRaw drained it).
			req, _ := http.NewRequest("POST", ts.URL+"/v1/studies", strings.NewReader(tc.body))
			r2, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer r2.Body.Close()
			var e struct {
				Error string `json:"error"`
			}
			if err := json.NewDecoder(r2.Body).Decode(&e); err != nil {
				t.Fatalf("400 body is not the error JSON: %v", err)
			}
			if e.Error != tc.want {
				t.Errorf("error body %q,\nwant the shared parser's %q", e.Error, tc.want)
			}
		})
	}
}

// TestSubmitBodyTooLarge: a Spec body past MaxSpecBytes is refused with
// 413, not decoded.
func TestSubmitBodyTooLarge(t *testing.T) {
	_, ts := newHTTPServer(t, Config{Budget: 1}, nil)
	body := `{"scale":"` + strings.Repeat("a", MaxSpecBytes) + `"}`
	resp, _ := postRaw(t, ts, "", []byte(body))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized spec: HTTP %d, want 413", resp.StatusCode)
	}
}

// TestQueuedLifecycleOverHTTP holds the dispatcher to pin the
// pre-running surface: 409 before done, 429 past the queue depth with a
// Retry-After header, DELETE cancel, terminal SSE for canceled jobs, and
// 404/400 odds and ends.
func TestQueuedLifecycleOverHTTP(t *testing.T) {
	hold := make(chan struct{})
	_, ts := newHTTPServer(t, Config{Budget: 1, QueueDepth: 1}, hold)

	resp, sub := postSpec(t, ts, "solo", tinySpec(11))
	if resp.StatusCode != http.StatusAccepted || sub.State != StateQueued {
		t.Fatalf("submit: HTTP %d state %s, want 202 queued", resp.StatusCode, sub.State)
	}

	if r, body := getBody(t, ts.URL+"/v1/studies/"+sub.ID+"/result"); r.StatusCode != http.StatusConflict {
		t.Errorf("result of a queued study: HTTP %d (%s), want 409", r.StatusCode, body)
	}

	over, _ := postSpec(t, ts, "solo", tinySpec(12))
	if over.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit past queue depth: HTTP %d, want 429", over.StatusCode)
	}
	if ra := over.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Errorf("429 without a useful Retry-After header (got %q)", ra)
	}

	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/studies/"+sub.ID, nil)
	dResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	json.NewDecoder(dResp.Body).Decode(&st)
	dResp.Body.Close()
	if dResp.StatusCode != http.StatusOK || st.State != StateCanceled {
		t.Fatalf("cancel: HTTP %d state %s, want 200 canceled", dResp.StatusCode, st.State)
	}

	if _, events := getBody(t, ts.URL+"/v1/studies/"+sub.ID+"/events"); !strings.Contains(string(events), "event: canceled\n") {
		t.Errorf("SSE for a canceled job = %q, want a canceled event", events)
	}

	if r, _ := getBody(t, ts.URL+"/v1/studies/nope"); r.StatusCode != http.StatusNotFound {
		t.Errorf("unknown study status: HTTP %d, want 404", r.StatusCode)
	}
	if r, _ := getBody(t, ts.URL+"/v1/studies/"+sub.ID+"/events?stream=morse"); r.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown stream mode: HTTP %d, want 400", r.StatusCode)
	}
}

// TestShutdownMidStudyCancelsCleanly closes the server while a study is
// running and an SSE client is attached: the study must end canceled at
// its next scenario boundary, the stream must terminate, submits must
// 503, and — the goleak-style check — every goroutine the server and its
// study spawned must exit.
func TestShutdownMidStudyCancelsCleanly(t *testing.T) {
	before := runtime.NumGoroutine()

	s := New(Config{Budget: 1})
	ts := httptest.NewServer(s.Handler())

	// Replicas stretch the study across many cancel points without making
	// any single unit slow.
	spec := tinySpec(13)
	spec.Replicas = 12
	resp, sub := postSpec(t, ts, "", spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}

	j, ok := s.Job(sub.ID)
	if !ok {
		t.Fatalf("job %s not found", sub.ID)
	}
	deadline := time.Now().Add(30 * time.Second)
	for j.Status().State == StateQueued {
		if time.Now().After(deadline) {
			t.Fatalf("job never started")
		}
		time.Sleep(time.Millisecond)
	}

	// Attach a streaming client mid-run; it must be released by shutdown.
	streamDone := make(chan struct{})
	go func() {
		defer close(streamDone)
		r, err := http.Get(ts.URL + "/v1/studies/" + sub.ID + "/events")
		if err == nil {
			io.Copy(io.Discard, r.Body)
			r.Body.Close()
		}
	}()

	s.Close()
	st := j.Status()
	if !st.State.terminal() {
		t.Errorf("job state %s after Close, want terminal", st.State)
	}
	if st.State == StateFailed {
		t.Errorf("job failed on shutdown: %s", st.Error)
	}
	if _, err := s.Submit("", tinySpec(14)); err != ErrClosed {
		t.Errorf("submit after Close returned %v, want ErrClosed", err)
	}
	select {
	case <-streamDone:
	case <-time.After(10 * time.Second):
		t.Errorf("SSE client still blocked after shutdown")
	}
	ts.Close()

	// Goroutine settle loop: everything above (server goroutines, study
	// pool workers, httptest conns) must unwind.
	var after int
	for end := time.Now().Add(10 * time.Second); time.Now().Before(end); time.Sleep(10 * time.Millisecond) {
		if after = runtime.NumGoroutine(); after <= before {
			break
		}
	}
	if after > before {
		buf := make([]byte, 1<<20)
		t.Errorf("goroutines leaked: %d before, %d after shutdown\n%s",
			before, after, buf[:runtime.Stack(buf, true)])
	}
}

// TestSubmitAfterCloseOverHTTP maps ErrClosed to 503.
func TestSubmitAfterCloseOverHTTP(t *testing.T) {
	s := New(Config{Budget: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	s.Close()
	resp, _ := postSpec(t, ts, "", tinySpec(15))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit after close: HTTP %d, want 503", resp.StatusCode)
	}
}
