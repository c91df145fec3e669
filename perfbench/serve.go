package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"slices"
	"sync"
	"time"

	"philly/internal/serve"
	"philly/internal/stats"
	"philly/internal/sweep"
)

// The serve-mix traffic. Open loop: arrivals follow a seeded Poisson
// schedule at serveRate whatever the server does, and each request is timed
// from when it was due, so a stall shows in the requests behind it.
const (
	// serveRate is the arrival rate in requests/s. The knee, measured by
	// raising this constant step by step on a 2-core box, is about 350/s; at 250/s (70% of it) hits
	// contend with two concurrent studies for both cores and the median
	// latency swung by half from seed to seed, so the rate is 150/s, where
	// every end-to-end spread stays under 0.1 (see README.md).
	serveRate = 150
	// missShare is the fixed share of arrivals that are fresh specs: seeds
	// never seen before, so they miss the cache, run a study, insert, and
	// evict.
	missShare = 0.10
	// hotSpecs is the size of the hot set every other arrival draws from;
	// it is warmed during set-up, so those requests hit the cache.
	hotSpecs = 8
	// hotJobs, freshJobs and fillJobs size the studies behind hot, fresh
	// and cache-priming specs (small scale).
	hotJobs   = 200
	freshJobs = 100
	fillJobs  = 1
	// cacheCapacity is philly-serve's default result-cache size. Set-up
	// fills the cache to it, so every fresh insert evicts, as in a server
	// that has been up for a while.
	cacheCapacity = 256
	// sloLimit is the latency limit of slo_goodput_rps.
	sloLimit = 250 * time.Millisecond
	// requestTimeout bounds one request, from submit to result in hand.
	requestTimeout = 30 * time.Second
	// snapshotEvery is the traced run's Server.Snapshot sampling period.
	snapshotEvery = 20 * time.Millisecond
	// rerunSamples is how many fresh specs are re-run out of band and
	// compared with what the server returned: a few untraced, more traced.
	rerunSamples, rerunSamplesTraced = 3, 12
	// setupRepeats is how many times a run sets the server up; setup_s is
	// the median.
	setupRepeats = 3
)

// tenants split the arrivals 2:1, as their fair-share weights do.
var tenants = []struct {
	name   string
	weight int
}{{"gold", 2}, {"silver", 1}}

// mixSpec is one study spec a client sends.
type mixSpec struct {
	spec serve.Spec
	body []byte
	hash string // the canonical hash the server must report
}

// arrival is one scheduled request.
type arrival struct {
	due    time.Duration
	tenant string
	spec   *mixSpec
	fresh  bool
}

// mix is a serve-mix run's inputs, all drawn from the seed.
type mix struct {
	hot, fill []*mixSpec
	arrivals  []arrival
}

// specMaker builds specs with distinct canonical hashes.
type specMaker struct {
	seed uint64
	seen map[string]bool
}

func (sm *specMaker) make(label string, id uint64, jobs int) (*mixSpec, error) {
	for ; ; id += 1 << 32 {
		s := serve.Spec{Scale: "small", Jobs: jobs, Seed: stats.DeriveEntitySeed(sm.seed, label, id)}
		r, err := s.Resolve()
		if err != nil {
			return nil, err
		}
		h := serve.CanonicalHash(r)
		if s.Seed == 0 || sm.seen[h] {
			continue
		}
		sm.seen[h] = true
		body, err := json.Marshal(s)
		if err != nil {
			return nil, err
		}
		return &mixSpec{spec: s, body: body, hash: h}, nil
	}
}

// buildMix draws the hot set, the cache-priming specs and the arrival
// schedule, with a fresh spec for every fresh arrival.
func buildMix(seed uint64, rate float64, span time.Duration) (*mix, error) {
	sm := &specMaker{seed: seed, seen: map[string]bool{}}
	mx := &mix{}
	for i := 0; i < hotSpecs; i++ {
		s, err := sm.make("serve-hot", uint64(i), hotJobs)
		if err != nil {
			return nil, err
		}
		mx.hot = append(mx.hot, s)
	}
	for i := 0; i < cacheCapacity-hotSpecs; i++ {
		s, err := sm.make("serve-fill", uint64(i), fillJobs)
		if err != nil {
			return nil, err
		}
		mx.fill = append(mx.fill, s)
	}
	rng := stats.NewRNG(seed).Split("serve-mix")
	totalWeight := 0
	for _, t := range tenants {
		totalWeight += t.weight
	}
	for t := rng.Exponential(rate); t < span.Seconds(); t += rng.Exponential(rate) {
		a := arrival{due: time.Duration(t * float64(time.Second))}
		w := rng.IntN(totalWeight)
		for _, tn := range tenants {
			if w < tn.weight {
				a.tenant = tn.name
				break
			}
			w -= tn.weight
		}
		if rng.Float64() < missShare {
			s, err := sm.make("serve-fresh", uint64(len(mx.arrivals)), freshJobs)
			if err != nil {
				return nil, err
			}
			a.spec, a.fresh = s, true
		} else {
			a.spec = mx.hot[rng.IntN(len(mx.hot))]
		}
		mx.arrivals = append(mx.arrivals, a)
	}
	if len(mx.arrivals) == 0 {
		return nil, errors.New("serve-mix: the schedule has no arrivals")
	}
	return mx, nil
}

// liveServer is an in-process philly-serve on a loopback listener.
type liveServer struct {
	srv    *serve.Server
	hs     *http.Server
	served chan error
	client *http.Client
	base   string
}

// startServer starts a server with philly-serve's defaults, a worker
// budget of workers and the two tenants' weights, and a client whose
// transport holds at most workers connections.
func startServer(workers int) (*liveServer, error) {
	weights := map[string]int{}
	for _, t := range tenants {
		weights[t.name] = t.weight
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ls := &liveServer{
		srv:    serve.New(serve.Config{Budget: workers, Weights: weights}),
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{
			Timeout: requestTimeout,
			Transport: &http.Transport{
				MaxConnsPerHost:     workers,
				MaxIdleConnsPerHost: workers,
			},
		},
	}
	ls.hs = &http.Server{Handler: ls.srv.Handler()}
	go func() { ls.served <- ls.hs.Serve(ln) }()
	return ls, nil
}

// close shuts the HTTP server and the study server down and waits for
// both.
func (ls *liveServer) close() error {
	ls.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := ls.hs.Shutdown(ctx)
	if serr := <-ls.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	ls.srv.Close()
	return err
}

// submit posts a spec for a tenant.
func (ls *liveServer) submit(tenant string, s *mixSpec) (serve.JobStatus, int, error) {
	var st serve.JobStatus
	req, err := http.NewRequest("POST", ls.base+"/v1/studies", bytes.NewReader(s.body))
	if err != nil {
		return st, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(serve.TenantHeader, tenant)
	resp, err := ls.client.Do(req)
	if err != nil {
		return st, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		_, err = io.Copy(io.Discard, resp.Body)
		return st, resp.StatusCode, err
	}
	return st, resp.StatusCode, json.NewDecoder(resp.Body).Decode(&st)
}

// fetch downloads a done study's export.
func (ls *liveServer) fetch(id string) ([]byte, error) {
	resp, err := ls.client.Get(ls.base + "/v1/studies/" + id + "/result")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("result of %s: HTTP %d", id, resp.StatusCode)
	}
	return body, err
}

// await waits until an accepted job finishes done, or until the timeout.
func (ls *liveServer) await(id string) error {
	j, ok := ls.srv.Job(id)
	if !ok {
		return fmt.Errorf("job %s is unknown to the server", id)
	}
	timer := time.NewTimer(requestTimeout)
	defer timer.Stop()
	select {
	case <-j.Finished():
	case <-timer.C:
		return fmt.Errorf("job %s timed out", id)
	}
	if st := j.Status(); st.State != serve.StateDone {
		return fmt.Errorf("job %s ended %s: %s", id, st.State, st.Error)
	}
	return nil
}

// complete submits a spec and returns its export once done: the set-up
// path, one request at a time.
func (ls *liveServer) complete(tenant string, s *mixSpec) ([]byte, error) {
	st, code, err := ls.submit(tenant, s)
	if err != nil {
		return nil, err
	}
	switch code {
	case http.StatusOK:
	case http.StatusAccepted:
		if err := ls.await(st.ID); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("submit: HTTP %d", code)
	}
	return ls.fetch(st.ID)
}

// setUp starts a server, fills its cache to capacity with the priming
// specs, then warms the hot set, so the hot set is the most recently used
// and fresh inserts evict priming entries. It records each export's digest
// in refs by canonical hash.
func setUp(o *outcome, mx *mix, workers int, refs map[string][sha256.Size]byte) (*liveServer, error) {
	ls, err := startServer(workers)
	if err != nil {
		return nil, err
	}
	for i, s := range append(slices.Clone(mx.fill), mx.hot...) {
		body, err := ls.complete(tenants[i%len(tenants)].name, s)
		if err != nil {
			ls.close()
			return nil, fmt.Errorf("serve-mix set-up: %w", err)
		}
		sum := sha256.Sum256(body)
		if ref, seen := refs[s.hash]; seen {
			o.check(ref == sum, "set-up: spec %.12s returned different bytes on a fresh server", s.hash)
		}
		refs[s.hash] = sum
	}
	return ls, nil
}

// served is one request's outcome.
type served struct {
	err error
	hit bool
	// late is how long after its due time a connection worker took it up.
	late time.Duration
	// latency runs from the due time to the result in hand.
	latency time.Duration
	// submit and fetch are the two HTTP round trips; wait is accepted to
	// Job.Finished, for misses.
	submit, fetch, wait time.Duration
	resultBytes         int
	sum                 [sha256.Size]byte
	body                []byte // kept for re-run samples only
}

// call is one request in flight through the connection workers.
type call struct {
	idx                int
	id                 string // set once a miss is accepted
	accepted, finished time.Time
	err                error
}

// stage is one open-loop run of the schedule against a set-up server.
type stage struct {
	out       []served
	wall, cpu float64
	mem       memDelta
	snaps     snapshots
}

// runStage drives the schedule open loop. A dispatcher hands each arrival,
// at its due time, to a fixed set of `workers` connection workers; the
// transport caps connections at the same number. A cache miss releases its
// worker while it waits on the in-process Job.Finished, then queues its
// result fetch behind the arrivals already due.
func runStage(ls *liveServer, mx *mix, workers int, keep func(i int) bool, sample bool) stage {
	st := stage{out: make([]served, len(mx.arrivals))}
	// Every arrival passes through work at most twice: its submit and,
	// after a miss finishes, its fetch.
	work := make(chan *call, 2*len(mx.arrivals))
	var pending, running sync.WaitGroup
	pending.Add(len(mx.arrivals))

	var stopSampling func() snapshots
	if sample {
		stopSampling = sampleSnapshots(ls.srv)
	}
	runtimeMem := memSection()
	cpu0 := cpuTime()
	start := time.Now()

	finish := func(c *call, body []byte) {
		rec := &st.out[c.idx]
		rec.latency = time.Since(start.Add(mx.arrivals[c.idx].due))
		rec.err = c.err
		rec.resultBytes = len(body)
		rec.sum = sha256.Sum256(body)
		if keep(c.idx) {
			rec.body = body
		}
		pending.Done()
	}
	fetch := func(c *call, id string) {
		rec := &st.out[c.idx]
		var body []byte
		if c.err == nil {
			t := time.Now()
			body, c.err = ls.fetch(id)
			rec.fetch = time.Since(t)
		}
		finish(c, body)
	}
	handle := func(c *call) {
		a := mx.arrivals[c.idx]
		rec := &st.out[c.idx]
		if c.id != "" {
			rec.wait = c.finished.Sub(c.accepted)
			fetch(c, c.id)
			return
		}
		t := time.Now()
		rec.late = t.Sub(start.Add(a.due))
		js, code, err := ls.submit(a.tenant, a.spec)
		rec.submit = time.Since(t)
		switch {
		case err != nil:
			c.err = err
		case code == http.StatusOK || code == http.StatusAccepted:
			if js.Hash != a.spec.hash {
				c.err = fmt.Errorf("server hash %s, want %s", js.Hash, a.spec.hash)
				break
			}
			if code == http.StatusOK {
				rec.hit = true
				fetch(c, js.ID)
				return
			}
			c.id, c.accepted = js.ID, time.Now()
			go func() {
				c.err = ls.await(c.id)
				c.finished = time.Now()
				work <- c
			}()
			return
		default:
			c.err = fmt.Errorf("submit: HTTP %d", code)
		}
		finish(c, nil)
	}

	for w := 0; w < workers; w++ {
		running.Add(1)
		go func() {
			defer running.Done()
			for c := range work {
				handle(c)
			}
		}()
	}
	for i := range mx.arrivals {
		time.Sleep(time.Until(start.Add(mx.arrivals[i].due)))
		work <- &call{idx: i}
	}
	pending.Wait()
	st.wall = time.Since(start).Seconds()
	st.cpu = (cpuTime() - cpu0).Seconds()
	st.mem = runtimeMem()
	close(work)
	running.Wait()
	if sample {
		st.snaps = stopSampling()
	}
	return st
}

// snapshots summarizes a stage's Server.Snapshot samples.
type snapshots struct {
	n                     int
	leaseUtil, queueDepth float64 // sums over the samples
	first, last           serve.Stats
}

// sampleSnapshots samples srv.Snapshot until the returned stop function is
// called; stop waits for the sampler to exit.
func sampleSnapshots(srv *serve.Server) func() snapshots {
	var s snapshots
	s.first = srv.Snapshot()
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(snapshotEvery)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			snap := srv.Snapshot()
			s.n++
			s.leaseUtil += ratio(float64(snap.LeasedWorkers), float64(snap.Budget))
			for _, t := range snap.Tenants {
				s.queueDepth += float64(t.Queued)
			}
		}
	}()
	return func() snapshots {
		close(stop)
		<-done
		s.last = srv.Snapshot()
		return s
	}
}

// rerun re-runs a spec out of band the way the server runs it — Resolve,
// BuildMatrix, Run, WriteJSON — and returns the export with the simulate
// and encode times in seconds.
func rerun(s serve.Spec) ([]byte, float64, float64, error) {
	r, err := s.Resolve()
	if err != nil {
		return nil, 0, 0, err
	}
	var res *sweep.Result
	simulate := timed(func() {
		var m sweep.Matrix
		if m, err = r.BuildMatrix(); err == nil {
			res, err = m.Run(sweep.Options{Replicas: r.Replicas, Workers: 1})
		}
	})
	if err != nil {
		return nil, 0, 0, err
	}
	var buf bytes.Buffer
	encode := timed(func() { err = res.WriteJSON(&buf) })
	return buf.Bytes(), simulate, encode, err
}

// runServeMix is the serve-mix workload.
func runServeMix(rc runConfig) (*outcome, error) {
	mx, err := buildMix(rc.seed, serveRate, rc.seconds)
	if err != nil {
		return nil, err
	}
	o := newOutcome()
	// refs holds the digest of the first export seen for each canonical
	// hash; every later response for that hash must match it.
	refs := map[string][sha256.Size]byte{}

	var setups []float64
	var ls *liveServer
	for i := 0; i < setupRepeats; i++ {
		if ls != nil {
			if err := ls.close(); err != nil {
				return nil, err
			}
		}
		setups = append(setups, timed(func() { ls, err = setUp(o, mx, rc.workers, refs) }))
		if err != nil {
			return nil, err
		}
	}
	o.m.set("setup_s", median(setups))
	entries := ls.srv.Snapshot().CacheEntries
	o.check(entries == cacheCapacity, "set-up left %d cache entries, want %d", entries, cacheCapacity)

	samples := rerunSamples
	if rc.traced {
		samples = rerunSamplesTraced
	}
	var sampled []int
	for i, a := range mx.arrivals {
		if a.fresh && len(sampled) < samples {
			sampled = append(sampled, i)
		}
	}
	keep := func(i int) bool { _, ok := slices.BinarySearch(sampled, i); return ok }

	st := runStage(ls, mx, rc.workers, keep, false)
	if err := ls.close(); err != nil {
		return nil, err
	}
	checkStage(o, mx, st, refs)
	rt, err := checkReruns(o, mx, st, sampled)
	if err != nil {
		return nil, err
	}
	recordStage(o.m, mx, st)
	o.m.set("peak_rss_mb", peakRSSMB())
	if !rc.traced {
		return o, nil
	}

	// The traced stage replays the same schedule against a freshly set-up
	// server while sampling its Snapshot.
	if ls, err = setUp(o, mx, rc.workers, refs); err != nil {
		return nil, err
	}
	tst := runStage(ls, mx, rc.workers, keep, true)
	if err := ls.close(); err != nil {
		return nil, err
	}
	checkStage(o, mx, tst, refs)

	m := o.m
	m.set("serve.simulate_ms_p50", median(rt.simulate))
	m.set("serve.encode_ms_p50", median(rt.encode))
	m.set("serve.queue_wait_ms", median(rt.queue))
	sn := tst.snaps
	hits := float64(sn.last.CacheHits - sn.first.CacheHits)
	misses := float64(sn.last.CacheMisses - sn.first.CacheMisses)
	m.set("serve.cache_hit_ratio", ratio(hits, hits+misses))
	m.set("serve.cache_entries", float64(sn.last.CacheEntries))
	m.set("serve.lease_util", ratio(sn.leaseUtil, float64(sn.n)))
	m.set("serve.lease_high_water", float64(sn.last.LeaseHighWater))
	m.set("serve.queue_depth_mean", ratio(sn.queueDepth, float64(sn.n)))
	rejected := 0.0
	for _, t := range sn.last.Tenants {
		rejected += float64(t.Rejected)
	}
	m.set("serve.rejected", rejected)
	m.set("bench.trace_overhead_pct", overheadPct(median(latencies(tst, all)), median(latencies(st, all))))
	return o, nil
}

// checkStage counts every request as one operation and holds its result
// to the reference: all responses for one canonical hash are
// byte-identical. Errors, 429s and timeouts fail the request.
func checkStage(o *outcome, mx *mix, st stage, refs map[string][sha256.Size]byte) {
	for i, rec := range st.out {
		h := mx.arrivals[i].spec.hash
		if rec.err != nil {
			o.check(false, "request %d for %.12s: %v", i, h, rec.err)
			continue
		}
		ref, seen := refs[h]
		if !seen {
			refs[h] = rec.sum
		}
		o.check(!seen || ref == rec.sum, "request %d for %.12s returned bytes that differ from an earlier response", i, h)
	}
}

// rerunTimes are the out-of-band re-runs' times, in milliseconds.
type rerunTimes struct {
	simulate, encode []float64
	// queue is each sampled miss's server-side wait minus its re-run's
	// simulate and encode time: the time it spent queued for a lease.
	queue []float64
}

// checkReruns re-runs each sampled fresh spec out of band and compares the
// export with what the server returned.
func checkReruns(o *outcome, mx *mix, st stage, sampled []int) (rerunTimes, error) {
	var rt rerunTimes
	for _, i := range sampled {
		body, sim, enc, err := rerun(mx.arrivals[i].spec.spec)
		if err != nil {
			return rt, err
		}
		rec := st.out[i]
		sim, enc = 1000*sim, 1000*enc
		rt.simulate = append(rt.simulate, sim)
		rt.encode = append(rt.encode, enc)
		rt.queue = append(rt.queue, float64(rec.wait)/1e6-sim-enc)
		o.check(rec.err == nil && bytes.Equal(body, rec.body),
			"fresh spec %.12s: served export differs from its out-of-band re-run", mx.arrivals[i].spec.hash)
	}
	return rt, nil
}

// Request filters for latencies.
var (
	all  = func(served) bool { return true }
	hit  = func(r served) bool { return r.hit }
	miss = func(r served) bool { return !r.hit }
)

// latencies returns the successful requests' latencies in seconds.
func latencies(st stage, keep func(served) bool) []float64 {
	var out []float64
	for _, r := range st.out {
		if r.err == nil && keep(r) {
			out = append(out, r.latency.Seconds())
		}
	}
	return out
}

// durations returns one duration field of the successful requests, in
// milliseconds.
func durations(st stage, keep func(served) bool, field func(served) time.Duration) []float64 {
	var out []float64
	for _, r := range st.out {
		if r.err == nil && keep(r) {
			out = append(out, float64(field(r))/1e6)
		}
	}
	return out
}

// recordStage sets the end-to-end and serve metrics of an untraced stage.
func recordStage(m metrics, mx *mix, st stage) {
	lat := latencies(st, all)
	m.set("wall_s", st.wall)
	m.set("cpu_s", st.cpu)
	m.set("p50_ms", 1000*percentile(lat, 0.50))
	m.set("p95_ms", 1000*percentile(lat, 0.95))
	m.set("hit_p50_ms", 1000*percentile(latencies(st, hit), 0.50))
	m.set("hit_p99_ms", 1000*percentile(latencies(st, hit), 0.99))
	m.set("miss_p50_ms", 1000*percentile(latencies(st, miss), 0.50))
	m.set("miss_p90_ms", 1000*percentile(latencies(st, miss), 0.90))
	good, bytes := 0, 0
	for _, r := range st.out {
		if r.err == nil {
			bytes += r.resultBytes
			if r.latency <= sloLimit {
				good++
			}
		}
	}
	m.set("slo_goodput_rps", ratio(float64(good), st.wall))
	m.set("load.achieved_rps", ratio(float64(len(lat)), st.wall))
	m.set("load.late_ms_p99", percentile(durations(st, all, func(r served) time.Duration { return r.late }), 0.99))
	m.set("serve.submit_ms_p50", median(durations(st, hit, func(r served) time.Duration { return r.submit })))
	m.set("serve.fetch_ms_p50", median(durations(st, hit, func(r served) time.Duration { return r.fetch })))
	m.set("serve.result_kb", ratio(float64(bytes)/1024, float64(len(lat))))
	waits := durations(st, miss, func(r served) time.Duration { return r.wait })
	m.set("serve.wait_ms_p50", median(waits))
	m.set("serve.wait_ms_p90", percentile(waits, 0.90))
	st.mem.record(m)
	fmt.Fprintf(os.Stdout, "serve-mix: %d requests at %.0f/s over %.1f s (%d hits, %d misses), %.1f%% within %v\n",
		len(mx.arrivals), float64(len(mx.arrivals))/st.wall, st.wall,
		len(latencies(st, hit)), len(latencies(st, miss)), 100*ratio(float64(good), float64(len(mx.arrivals))), sloLimit)
}
