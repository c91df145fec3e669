package serve

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"sync"

	"philly/internal/par"
	"philly/internal/sweep"
)

// Config parameterizes a Server.
type Config struct {
	// Budget is the total worker budget shared by every running study;
	// <= 0 means GOMAXPROCS. The admission ledger guarantees the summed
	// worker leases of in-flight studies never exceed it.
	Budget int
	// QueueDepth bounds each tenant's queued (not yet running) studies;
	// a submit past the bound is rejected with 429 + Retry-After. <= 0
	// means 16.
	QueueDepth int
	// CacheEntries bounds the result cache; 0 means 256, negative
	// disables caching (philly-load's before/after ablation).
	CacheEntries int
	// RetainJobs bounds how many terminal (done/failed/canceled) jobs
	// stay addressable for status and result fetches; past the bound the
	// oldest terminal jobs are dropped and their IDs return 404. Live
	// jobs are never dropped. 0 means 1024; negative retains everything
	// (unbounded — tests and debugging only).
	RetainJobs int
	// TraceDir is the directory replay paths in submitted specs are
	// confined to; "" means the server's working directory. Specs may
	// only name relative paths inside it — see resolveReplay.
	TraceDir string
	// Weights are per-tenant fair-share weights; tenants not listed get
	// DefaultWeight. Larger weight, larger share of the worker budget.
	Weights map[string]int
	// DefaultWeight is the weight of unlisted tenants; <= 0 means 1.
	DefaultWeight int
}

// ErrOverloaded is returned by Submit when the tenant's queue is full;
// the HTTP layer maps it to 429 with the embedded Retry-After hint.
type ErrOverloaded struct {
	Tenant     string
	QueueDepth int
	RetryAfter int // seconds
}

func (e ErrOverloaded) Error() string {
	return fmt.Sprintf("serve: tenant %q queue full (%d queued); retry in %ds",
		e.Tenant, e.QueueDepth, e.RetryAfter)
}

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("serve: server is shut down")

// tenantState is one tenant's queue and accounting, guarded by Server.mu.
type tenantState struct {
	name   string
	weight int
	queue  []*Job
	// runningWorkers is the tenant's currently leased worker count;
	// runningJobs its in-flight study count.
	runningWorkers int
	runningJobs    int
	// granted accumulates worker-grants forever; the dispatcher picks the
	// eligible tenant minimizing granted/weight, which is deterministic
	// weighted round-robin (ties broken by name).
	granted int64
	// counters for /v1/stats
	admitted, rejected, completed int64
}

// Server schedules submitted studies onto one shared worker budget with
// per-tenant weighted fairness, and memoizes completed results.
type Server struct {
	cfg    Config
	ledger *par.Ledger
	cache  *resultCache

	mu       sync.Mutex
	closed   bool
	tenants  map[string]*tenantState
	jobs     map[string]*Job
	nextID   int
	accepted int      // all accepted submits ever (monotone; jobs may age out of the map)
	doneLog  []string // terminal job IDs in retirement order, oldest first
	grantLog []string // job IDs in grant order — the fairness tests' witness

	kick chan struct{}
	quit chan struct{}
	wg   sync.WaitGroup // dispatcher + running study goroutines
}

// New builds and starts a server. Close must be called to stop it.
func New(cfg Config) *Server { return newServer(cfg, nil) }

// newServer optionally holds the dispatcher until the hold channel
// closes: submits queue but nothing starts. The fairness tests use it to
// stage every tenant's queue before the first grant, making the drain
// order a deterministic function of the schedule alone.
func newServer(cfg Config, hold <-chan struct{}) *Server {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 16
	}
	if cfg.DefaultWeight <= 0 {
		cfg.DefaultWeight = 1
	}
	if cfg.RetainJobs == 0 {
		cfg.RetainJobs = 1024
	}
	entries := cfg.CacheEntries
	if entries == 0 {
		entries = 256
	}
	s := &Server{
		cfg:     cfg,
		ledger:  par.NewLedger(cfg.Budget),
		cache:   newResultCache(entries),
		tenants: map[string]*tenantState{},
		jobs:    map[string]*Job{},
		kick:    make(chan struct{}, 1),
		quit:    make(chan struct{}),
	}
	s.wg.Add(1)
	go s.dispatch(hold)
	return s
}

// Budget returns the shared worker budget.
func (s *Server) Budget() int { return s.ledger.Size() }

// Ledger exposes the admission ledger (white-box accounting for tests
// and /v1/stats).
func (s *Server) Ledger() *par.Ledger { return s.ledger }

// tenant returns (creating if needed) the tenant's state; callers hold mu.
func (s *Server) tenantLocked(name string) *tenantState {
	t := s.tenants[name]
	if t == nil {
		w := s.cfg.DefaultWeight
		if cw, ok := s.cfg.Weights[name]; ok && cw > 0 {
			w = cw
		}
		t = &tenantState{name: name, weight: w}
		s.tenants[name] = t
	}
	return t
}

// Submit resolves, admits and enqueues one spec for a tenant. A cache
// hit returns an already-done job without consuming any budget or queue
// slot. An empty tenant name means "default".
func (s *Server) Submit(tenant string, spec Spec) (*Job, error) {
	if tenant == "" {
		tenant = "default"
	}
	r, err := spec.resolveWithin(s.cfg.TraceDir)
	if err != nil {
		return nil, err
	}
	hash := CanonicalHash(r)

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	t := s.tenantLocked(tenant)
	s.nextID++
	id := fmt.Sprintf("j-%d", s.nextID)
	j := newJob(id, tenant, r, hash, spec.Workers)

	if e, ok := s.cache.get(hash); ok {
		t.admitted++
		t.completed++
		s.jobs[id] = j
		s.accepted++
		s.mu.Unlock()
		j.mu.Lock()
		j.cacheHit = true
		j.mu.Unlock()
		j.finish(StateDone, e.result, e.export, "")
		s.retire(j)
		return j, nil
	}

	if len(t.queue) >= s.cfg.QueueDepth {
		t.rejected++
		retry := s.retryAfterLocked(t)
		s.mu.Unlock()
		return nil, ErrOverloaded{Tenant: tenant, QueueDepth: s.cfg.QueueDepth, RetryAfter: retry}
	}
	t.admitted++
	t.queue = append(t.queue, j)
	s.jobs[id] = j
	s.accepted++
	s.mu.Unlock()

	s.kickDispatch()
	return j, nil
}

// retryAfterLocked estimates seconds until the tenant's queue has room: a
// crude queue-length heuristic (one second per queued study, floor 1) —
// a hint for polite clients, not a promise.
func (s *Server) retryAfterLocked(t *tenantState) int {
	n := len(t.queue) + t.runningJobs
	if n < 1 {
		n = 1
	}
	return n
}

// Job looks up a submitted job by ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Cancel aborts a job: queued jobs finish immediately as canceled,
// running jobs stop at the next scenario × replica boundary. Unknown IDs
// report false.
func (s *Server) Cancel(id string) bool {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return false
	}
	// Remove from its tenant's queue if still queued.
	t := s.tenants[j.Tenant]
	if t != nil {
		for i, q := range t.queue {
			if q == j {
				t.queue = append(t.queue[:i], t.queue[i+1:]...)
				break
			}
		}
	}
	s.mu.Unlock()
	j.requestCancel()
	// If the job never started, it reaches the terminal state here;
	// running jobs transition when the sweep observes the cancel (and
	// the run goroutine retires them).
	if j.finishIfUnstarted() {
		s.retire(j)
	}
	return true
}

// retire records a terminal job in the bounded retention log, evicting
// the oldest terminal jobs past Config.RetainJobs. Live (queued or
// running) jobs are never evicted, so a submit's ID stays addressable
// until after its result could have been fetched.
func (s *Server) retire(j *Job) {
	if s.cfg.RetainJobs < 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.retired {
		return
	}
	j.retired = true
	s.doneLog = append(s.doneLog, j.ID)
	for len(s.doneLog) > s.cfg.RetainJobs {
		delete(s.jobs, s.doneLog[0])
		s.doneLog = s.doneLog[1:]
	}
}

// GrantOrder returns the job IDs in the order the dispatcher granted
// them workers — the deterministic-drain witness for the fairness tests.
func (s *Server) GrantOrder() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.grantLog...)
}

// kickDispatch nudges the dispatcher without blocking.
func (s *Server) kickDispatch() {
	select {
	case s.kick <- struct{}{}:
	default:
	}
}

// dispatch is the scheduling loop: on every kick (submit or completion)
// it starts as many queued studies as fairness and the ledger allow.
func (s *Server) dispatch(hold <-chan struct{}) {
	defer s.wg.Done()
	if hold != nil {
		select {
		case <-hold:
		case <-s.quit:
			return
		}
		s.kickDispatch()
	}
	for {
		select {
		case <-s.quit:
			return
		case <-s.kick:
		}
		for s.startNext() {
		}
	}
}

// largestRemainder apportions budget B across weights by the
// largest-remainder method (the paper's VC-quota arithmetic): everyone
// gets floor(B·w/W), the leftover seats go to the largest fractional
// remainders, ties in input order. The input order is sorted tenant
// names, so the apportionment is deterministic.
func largestRemainder(budget int, weights []int) []int {
	total := 0
	for _, w := range weights {
		total += w
	}
	quotas := make([]int, len(weights))
	if total <= 0 || budget <= 0 {
		return quotas
	}
	type rem struct {
		idx  int
		frac float64
	}
	rems := make([]rem, len(weights))
	assigned := 0
	for i, w := range weights {
		exact := float64(budget) * float64(w) / float64(total)
		quotas[i] = int(exact)
		assigned += quotas[i]
		rems[i] = rem{idx: i, frac: exact - float64(quotas[i])}
	}
	sort.SliceStable(rems, func(a, b int) bool { return rems[a].frac > rems[b].frac })
	for i := 0; i < budget-assigned; i++ {
		quotas[rems[i%len(rems)].idx]++
	}
	return quotas
}

// startNext starts at most one queued study and reports whether it did.
// Selection is two deterministic passes over the active tenants (sorted
// by name): first tenants that would stay within their largest-remainder
// quota, then — work-conserving — any tenant whose head fits the free
// budget. Every active tenant's quota has a one-study floor: when the
// budget is smaller than the tenant count, largest-remainder hands some
// tenants a zero quota, and without the floor the zero-quota tenants
// would starve behind any tenant holding a seat. Within a pass the
// tenant minimizing granted/weight wins (ties by name), which is
// weighted round-robin: a flooding tenant cannot starve a light one, and
// an idle tenant's share flows to the busy ones.
func (s *Server) startNext() bool {
	s.mu.Lock()

	active := make([]*tenantState, 0, len(s.tenants))
	for _, t := range s.tenants {
		if len(t.queue) > 0 || t.runningWorkers > 0 {
			active = append(active, t)
		}
	}
	sort.Slice(active, func(a, b int) bool { return active[a].name < active[b].name })
	weights := make([]int, len(active))
	for i, t := range active {
		weights[i] = t.weight
	}
	quotas := largestRemainder(s.ledger.Size(), weights)

	// better reports whether a should be granted before b under weighted
	// round-robin.
	better := func(a, b *tenantState) bool {
		// Compare granted/weight as cross-products to stay in integers.
		av := a.granted * int64(b.weight)
		bv := b.granted * int64(a.weight)
		if av != bv {
			return av < bv
		}
		return a.name < b.name
	}
	pick := func(underQuota bool) (*tenantState, *Job) {
		var bestT *tenantState
		for i, t := range active {
			if len(t.queue) == 0 {
				continue
			}
			head := t.queue[0]
			w := s.jobWorkersLocked(head)
			// The one-study floor: a tenant running nothing may always
			// start one study, whatever its apportioned quota.
			limit := quotas[i]
			if limit < w {
				limit = w
			}
			if underQuota && t.runningWorkers+w > limit {
				continue
			}
			if s.ledger.Leased()+w > s.ledger.Size() {
				continue
			}
			if bestT == nil || better(t, bestT) {
				bestT = t
			}
		}
		if bestT == nil {
			return nil, nil
		}
		return bestT, bestT.queue[0]
	}

	t, j := pick(true)
	if t == nil {
		t, j = pick(false)
	}
	if t == nil {
		s.mu.Unlock()
		return false
	}
	w := s.jobWorkersLocked(j)
	if !s.ledger.TryAcquire(w) {
		// Raced with nothing (mu serializes grants), but keep the ledger
		// as the single source of truth anyway.
		s.mu.Unlock()
		return false
	}
	t.queue = t.queue[1:]
	t.runningWorkers += w
	t.runningJobs++
	t.granted += int64(w)
	s.grantLog = append(s.grantLog, j.ID)
	s.wg.Add(1)
	s.mu.Unlock()

	if !j.setRunning(w) {
		// Canceled (or shut down) between dequeue and start: the job is
		// already terminal, so give the lease back instead of running —
		// setRunning must never resurrect a terminal job, or its
		// finished channel would close twice when the sweep returned.
		s.mu.Lock()
		t.runningWorkers -= w
		t.runningJobs--
		s.mu.Unlock()
		s.ledger.Release(w)
		s.wg.Done()
		s.retire(j)
		return true
	}
	go s.run(j, t, w)
	return true
}

// jobWorkersLocked clamps a job's requested worker lease to [1, budget].
func (s *Server) jobWorkersLocked(j *Job) int {
	w := j.reqWorkers
	if w <= 0 {
		w = 1
	}
	if w > s.ledger.Size() {
		w = s.ledger.Size()
	}
	return w
}

// run executes one admitted study on its leased workers and finishes it.
func (s *Server) run(j *Job, t *tenantState, workers int) {
	defer s.wg.Done()
	res, export, err := runResolved(j.Spec, workers, j.cancel, j.setProgress)

	s.mu.Lock()
	t.runningWorkers -= workers
	t.runningJobs--
	t.completed++
	s.mu.Unlock()
	s.ledger.Release(workers)

	switch {
	case err == nil:
		s.cache.put(&cacheEntry{hash: j.Hash, result: res, export: export})
		j.finish(StateDone, res, export, "")
	case errors.Is(err, sweep.ErrCanceled):
		j.finish(StateCanceled, nil, nil, "canceled")
	default:
		j.finish(StateFailed, nil, nil, err.Error())
	}
	s.retire(j)
	s.kickDispatch()
}

// runResolved builds and runs the matrix for a resolved spec, returning
// the result and its canonical export bytes. It is the one execution
// path shared by the server and the cache-correctness tests' fresh runs.
func runResolved(r Resolved, workers int, cancel <-chan struct{}, progress func(done, total int)) (*sweep.Result, []byte, error) {
	m, err := r.BuildMatrix()
	if err != nil {
		return nil, nil, err
	}
	res, err := m.Run(sweep.Options{
		Replicas: r.Replicas,
		Workers:  workers,
		Cancel:   cancel,
		Progress: progress,
	})
	if err != nil {
		return nil, nil, err
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		return nil, nil, err
	}
	return res, buf.Bytes(), nil
}

// TenantStats is one tenant's accounting snapshot for /v1/stats.
type TenantStats struct {
	Weight         int   `json:"weight"`
	Queued         int   `json:"queued"`
	RunningJobs    int   `json:"running_jobs"`
	RunningWorkers int   `json:"running_workers"`
	Admitted       int64 `json:"admitted"`
	Rejected       int64 `json:"rejected"`
	Completed      int64 `json:"completed"`
}

// Stats is the server-wide accounting snapshot for /v1/stats.
type Stats struct {
	Budget         int                    `json:"budget"`
	LeasedWorkers  int                    `json:"leased_workers"`
	LeaseHighWater int                    `json:"lease_high_water"`
	QueueDepth     int                    `json:"queue_depth"`
	CacheEntries   int                    `json:"cache_entries"`
	CacheHits      uint64                 `json:"cache_hits"`
	CacheMisses    uint64                 `json:"cache_misses"`
	Tenants        map[string]TenantStats `json:"tenants"`
	// JobsByState counts the retained jobs only; terminal jobs past
	// Config.RetainJobs have aged out.
	JobsByState map[JobState]int `json:"jobs_by_state"`
	// AcceptedStudies counts every accepted submit ever (monotone).
	AcceptedStudies int `json:"accepted_studies"`
}

// Snapshot collects current server statistics.
func (s *Server) Snapshot() Stats {
	entries, hits, misses := s.cache.stats()
	st := Stats{
		Budget:         s.ledger.Size(),
		LeasedWorkers:  s.ledger.Leased(),
		LeaseHighWater: s.ledger.HighWater(),
		QueueDepth:     s.cfg.QueueDepth,
		CacheEntries:   entries,
		CacheHits:      hits,
		CacheMisses:    misses,
		Tenants:        map[string]TenantStats{},
		JobsByState:    map[JobState]int{},
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for name, t := range s.tenants {
		st.Tenants[name] = TenantStats{
			Weight:         t.weight,
			Queued:         len(t.queue),
			RunningJobs:    t.runningJobs,
			RunningWorkers: t.runningWorkers,
			Admitted:       t.admitted,
			Rejected:       t.rejected,
			Completed:      t.completed,
		}
	}
	for _, j := range s.jobs {
		st.JobsByState[j.Status().State]++
	}
	st.AcceptedStudies = s.accepted
	return st
}

// Close stops the server: new submits fail with ErrClosed, queued jobs
// finish as canceled, running studies are canceled at their next
// scenario boundary, and Close blocks until every goroutine has exited —
// no leaks, which TestShutdownMidStudyCancelsCleanly pins.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	for _, t := range s.tenants {
		t.queue = nil
	}
	// Cancel every non-terminal job, not just queued-or-running ones:
	// a job the dispatcher popped but has not yet started is in neither
	// set, and missing it would make Close block until that study ran to
	// full completion.
	var open []*Job
	for _, j := range s.jobs {
		if !j.Status().State.terminal() {
			open = append(open, j)
		}
	}
	close(s.quit)
	s.mu.Unlock()

	for _, j := range open {
		j.requestCancel()
		j.finishIfUnstarted()
	}
	s.wg.Wait()
}
