package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"philly/internal/simulation"
	"philly/internal/stats"
	"philly/internal/workload"
)

// The self-measuring load harness: an open-loop generator that drives a
// philly-serve instance with arrivals drawn from the same workload.Pattern
// presets the simulator models its tenants with — the service is profiled
// the way the paper profiles its cluster — and reports the measured
// capacity curve (latency percentiles, cache-hit ratio, admission
// rejects) in the `go test -bench` line format, so `bench-compare
// -threshold` gates service-level regressions exactly like engine-level
// ones.

// LoadOptions parameterizes one load stage.
type LoadOptions struct {
	// BaseURL is the server under test, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Client is the HTTP client to use; nil means http.DefaultClient.
	Client *http.Client
	// Tenant is sent as the tenant header ("default" when empty).
	Tenant string
	// Requests is the number of arrivals to generate (at least 1).
	Requests int
	// RPS is the mean offered arrival rate, requests per second (> 0).
	RPS float64
	// Pattern modulates arrivals with a workload pattern preset (one
	// pattern period is mapped onto the stage's expected duration); ""
	// or "stationary" keeps a homogeneous Poisson process.
	Pattern string
	// Specs are the request bodies, cycled per arrival; at least one.
	// Repeats of the same spec are what exercise the result cache.
	Specs []Spec
	// Seed fixes the arrival schedule and spec cycling (default 1). The
	// schedule is deterministic; measured latencies of course are not.
	Seed uint64
	// Timeout bounds one request's submit → result wait (default 120s).
	Timeout time.Duration
}

// LoadRecord is one request's outcome.
type LoadRecord struct {
	// Offset is the scheduled arrival offset from stage start. Durations
	// marshal as integer nanoseconds, hence the _ns tags.
	Offset time.Duration `json:"offset_ns"`
	// Latency is submit → result fetched (completed requests only).
	Latency  time.Duration `json:"latency_ns"`
	Status   int           `json:"status"`
	CacheHit bool          `json:"cache_hit"`
	Rejected bool          `json:"rejected"`
	Err      string        `json:"err,omitempty"`
}

// LoadReport is one stage's aggregate: the saturation-report row.
type LoadReport struct {
	Pattern   string  `json:"pattern"`
	RPS       float64 `json:"rps"`
	Requests  int     `json:"requests"`
	Completed int     `json:"completed"`
	CacheHits int     `json:"cache_hits"`
	Rejected  int     `json:"rejected"`
	Errors    int     `json:"errors"`
	// Latency aggregates over completed requests, in nanoseconds.
	MeanNs float64 `json:"mean_ns"`
	P50Ns  float64 `json:"p50_ns"`
	P95Ns  float64 `json:"p95_ns"`
	P99Ns  float64 `json:"p99_ns"`
	// WallSeconds is first submit → last completion; AchievedRPS is
	// completed requests over that wall.
	WallSeconds float64 `json:"wall_seconds"`
	AchievedRPS float64 `json:"achieved_rps"`
	// CacheHitPct is hits over completed requests, in percent.
	CacheHitPct float64      `json:"cache_hit_pct"`
	Records     []LoadRecord `json:"records,omitempty"`
}

// arrivalSchedule draws the open-loop arrival offsets: a Poisson process
// at RPS thinned by the pattern's rate profile, with one pattern period
// mapped onto the stage's expected duration. Deterministic in Seed.
func arrivalSchedule(opts LoadOptions) ([]time.Duration, error) {
	var pat *workload.Pattern
	if opts.Pattern != "" {
		p, err := workload.PresetPattern(opts.Pattern)
		if err != nil {
			return nil, err
		}
		pat = p
	}
	rng := stats.NewRNG(opts.Seed).Split("serve-load")
	expected := float64(opts.Requests) / opts.RPS // seconds
	maxScale := 1.0
	rateAt := func(tSec float64) float64 { return 1 }
	if pat != nil {
		maxScale = patternMaxRate(pat)
		period := pat.Period
		if period <= 0 {
			period = simulation.Day
		}
		rateAt = func(tSec float64) float64 {
			frac := tSec / expected
			return pat.RateAt(simulation.Time(frac * float64(period)))
		}
	}
	offsets := make([]time.Duration, 0, opts.Requests)
	t := 0.0
	for len(offsets) < opts.Requests {
		t += rng.Exponential(opts.RPS * maxScale)
		if rng.Float64()*maxScale <= rateAt(t) {
			offsets = append(offsets, time.Duration(t*float64(time.Second)))
		}
	}
	return offsets, nil
}

// patternMaxRate bounds RateAt for thinning: the max phase rate, or 1 if
// the phases leave gaps (gaps run at the base rate).
func patternMaxRate(p *workload.Pattern) float64 {
	m := 1.0
	for _, ph := range p.Phases {
		if ph.Rate > m {
			m = ph.Rate
		}
	}
	return m
}

// RunLoad drives one load stage and aggregates the outcome. Open loop:
// every arrival fires at its scheduled offset whether or not earlier
// requests finished — the discipline that reveals saturation instead of
// hiding it behind client back-pressure.
func RunLoad(opts LoadOptions) (*LoadReport, error) {
	if opts.Requests < 1 {
		return nil, fmt.Errorf("serve: load requests must be >= 1")
	}
	if opts.RPS <= 0 {
		return nil, fmt.Errorf("serve: load rps must be > 0")
	}
	if len(opts.Specs) == 0 {
		return nil, fmt.Errorf("serve: load needs at least one spec")
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.Timeout <= 0 {
		opts.Timeout = 120 * time.Second
	}
	client := opts.Client
	if client == nil {
		client = http.DefaultClient
	}
	// Fail fast on malformed specs before any traffic: the generator
	// shares the server's validators.
	bodies := make([][]byte, len(opts.Specs))
	for i, sp := range opts.Specs {
		if _, err := sp.Resolve(); err != nil {
			return nil, fmt.Errorf("serve: load spec %d: %w", i, err)
		}
		b, err := json.Marshal(sp)
		if err != nil {
			return nil, err
		}
		bodies[i] = b
	}
	offsets, err := arrivalSchedule(opts)
	if err != nil {
		return nil, err
	}

	records := make([]LoadRecord, len(offsets))
	start := time.Now()
	var wg sync.WaitGroup
	for i, off := range offsets {
		wg.Add(1)
		go func(i int, off time.Duration) {
			defer wg.Done()
			time.Sleep(off - time.Since(start))
			records[i] = driveOne(client, opts, bodies[i%len(bodies)], off)
		}(i, off)
	}
	wg.Wait()
	wall := time.Since(start)

	rep := &LoadReport{
		Pattern:  opts.Pattern,
		RPS:      opts.RPS,
		Requests: len(records),
		Records:  records,
	}
	if rep.Pattern == "" {
		rep.Pattern = "stationary"
	}
	var lats []float64
	for _, r := range records {
		switch {
		case r.Rejected:
			rep.Rejected++
		case r.Err != "":
			rep.Errors++
		default:
			rep.Completed++
			if r.CacheHit {
				rep.CacheHits++
			}
			lats = append(lats, float64(r.Latency))
		}
	}
	if len(lats) > 0 {
		sort.Float64s(lats)
		sum := 0.0
		for _, l := range lats {
			sum += l
		}
		rep.MeanNs = sum / float64(len(lats))
		rep.P50Ns = percentile(lats, 0.50)
		rep.P95Ns = percentile(lats, 0.95)
		rep.P99Ns = percentile(lats, 0.99)
		rep.CacheHitPct = 100 * float64(rep.CacheHits) / float64(rep.Completed)
	}
	rep.WallSeconds = wall.Seconds()
	if rep.WallSeconds > 0 {
		rep.AchievedRPS = float64(rep.Completed) / rep.WallSeconds
	}
	return rep, nil
}

// driveOne submits one spec and waits for its result via the ndjson
// progress stream, then downloads the result body. Latency covers the
// whole span — what a dashboard or CI client actually waits.
func driveOne(client *http.Client, opts LoadOptions, body []byte, off time.Duration) LoadRecord {
	rec := LoadRecord{Offset: off}
	t0 := time.Now()
	fail := func(err error) LoadRecord {
		rec.Err = err.Error()
		return rec
	}
	req, err := http.NewRequest("POST", opts.BaseURL+"/v1/studies", bytes.NewReader(body))
	if err != nil {
		return fail(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if opts.Tenant != "" {
		req.Header.Set(TenantHeader, opts.Tenant)
	}
	resp, err := client.Do(req)
	if err != nil {
		return fail(err)
	}
	var sub submitResponse
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	rec.Status = resp.StatusCode
	if resp.StatusCode == http.StatusTooManyRequests {
		rec.Rejected = true
		return rec
	}
	if err != nil {
		return fail(err)
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return fail(fmt.Errorf("submit: HTTP %d", resp.StatusCode))
	}
	rec.CacheHit = sub.CacheHit

	if sub.State != StateDone {
		final, err := waitDone(client, opts, sub.ID)
		if err != nil {
			return fail(err)
		}
		if final.State != StateDone {
			return fail(fmt.Errorf("study %s ended %s: %s", sub.ID, final.State, final.Error))
		}
	}
	res, err := client.Get(opts.BaseURL + "/v1/studies/" + sub.ID + "/result")
	if err != nil {
		return fail(err)
	}
	_, err = io.Copy(io.Discard, res.Body)
	res.Body.Close()
	if err != nil {
		return fail(err)
	}
	if res.StatusCode != http.StatusOK {
		return fail(fmt.Errorf("result: HTTP %d", res.StatusCode))
	}
	rec.Latency = time.Since(t0)
	return rec
}

// waitDone follows the chunked-JSON progress stream to the terminal
// snapshot.
func waitDone(client *http.Client, opts LoadOptions, id string) (JobStatus, error) {
	req, err := http.NewRequest("GET", opts.BaseURL+"/v1/studies/"+id+"/events?stream=ndjson", nil)
	if err != nil {
		return JobStatus{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), opts.Timeout)
	defer cancel()
	resp, err := client.Do(req.WithContext(ctx))
	if err != nil {
		return JobStatus{}, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var last JobStatus
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			return JobStatus{}, err
		}
		if last.State.terminal() {
			return last, nil
		}
	}
	if err := sc.Err(); err != nil {
		return JobStatus{}, err
	}
	return last, fmt.Errorf("progress stream for %s ended before a terminal state", id)
}

// percentile reads the q-quantile from sorted values (nearest-rank).
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// BenchLine renders the stage as one `go test -bench` result line:
//
//	BenchmarkServeLoad/pattern=burst/rps=8  12  34567 ns/op  5 cache_hits ...
//
// ns/op is the mean end-to-end latency and the iteration count the
// completed requests, so bench-compare -threshold gates the service's
// latency exactly like an engine benchmark's, and the extra metrics ride
// along as b.ReportMetric-style pairs.
func (r *LoadReport) BenchLine() string {
	g := func(f float64) string {
		if math.IsNaN(f) {
			return "0"
		}
		return strconv.FormatFloat(f, 'f', 0, 64)
	}
	name := fmt.Sprintf("BenchmarkServeLoad/pattern=%s/rps=%s",
		r.Pattern, strconv.FormatFloat(r.RPS, 'g', -1, 64))
	return fmt.Sprintf("%s \t %d \t %s ns/op \t %s p50_ns \t %s p95_ns \t %s p99_ns \t %.1f cache_hit_pct \t %d rejected_reqs \t %d err_reqs \t %.2f achieved_rps",
		name, r.Completed, g(r.MeanNs), g(r.P50Ns), g(r.P95Ns), g(r.P99Ns),
		r.CacheHitPct, r.Rejected, r.Errors, r.AchievedRPS)
}

// WriteBenchJSON wraps bench lines as a `go test -json` output-event
// stream — the exact BENCH_*.json schema the repo's baselines use and
// bench-compare consumes.
func WriteBenchJSON(w io.Writer, lines []string) error {
	enc := json.NewEncoder(w)
	for _, line := range lines {
		ev := struct {
			Action string `json:"Action"`
			Output string `json:"Output"`
		}{Action: "output", Output: line + "\n"}
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return nil
}
