package serve

import "sync"

// JobState is a study's lifecycle state.
type JobState string

const (
	StateQueued   JobState = "queued"
	StateRunning  JobState = "running"
	StateDone     JobState = "done"
	StateFailed   JobState = "failed"
	StateCanceled JobState = "canceled"
)

// terminal reports whether no further transitions can happen.
func (s JobState) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Job is one submitted study. All mutable fields are guarded by mu;
// readers take snapshots via Status. The changed channel is closed and
// replaced on every update, so progress streamers wait without polling.
type Job struct {
	ID     string
	Tenant string
	Hash   string
	Spec   Resolved
	// reqWorkers is the worker lease the spec asked for (immutable;
	// excluded from Resolved and the hash because worker count never
	// affects results). The dispatcher clamps it to [1, budget].
	reqWorkers int

	mu       sync.Mutex
	state    JobState
	cacheHit bool
	workers  int // granted lease; 0 until running (and for cache hits)
	done     int // completed scenario × replica units
	total    int
	export   []byte
	errMsg   string
	changed  chan struct{}
	// cancel aborts the running sweep between units; closed at most once
	// (guarded by canceled).
	cancel   chan struct{}
	canceled bool
	// finished closes exactly once on reaching a terminal state.
	finished chan struct{}
	// retired marks the job as recorded in the server's terminal-job
	// retention log; guarded by Server.mu, not j.mu.
	retired bool
}

func newJob(id, tenant string, r Resolved, hash string, reqWorkers int) *Job {
	return &Job{
		ID:         id,
		Tenant:     tenant,
		Hash:       hash,
		Spec:       r,
		reqWorkers: reqWorkers,
		state:      StateQueued,
		changed:    make(chan struct{}),
		cancel:     make(chan struct{}),
		finished:   make(chan struct{}),
	}
}

// JobStatus is the wire form of a job snapshot.
type JobStatus struct {
	ID       string   `json:"id"`
	Tenant   string   `json:"tenant"`
	Hash     string   `json:"hash"`
	State    JobState `json:"state"`
	CacheHit bool     `json:"cache_hit"`
	Done     int      `json:"done"`
	Total    int      `json:"total"`
	Workers  int      `json:"workers,omitempty"`
	Error    string   `json:"error,omitempty"`
}

// Status snapshots the job for the API.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobStatus{
		ID:       j.ID,
		Tenant:   j.Tenant,
		Hash:     j.Hash,
		State:    j.state,
		CacheHit: j.cacheHit,
		Done:     j.done,
		Total:    j.total,
		Workers:  j.workers,
		Error:    j.errMsg,
	}
}

// Finished returns a channel that closes when the job reaches a terminal
// state.
func (j *Job) Finished() <-chan struct{} { return j.finished }

// Export returns the completed study's export bytes, or nil until the job
// is done.
func (j *Job) Export() []byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.export
}

// CacheHit reports whether the job was answered from the result cache.
func (j *Job) CacheHit() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.cacheHit
}

// notifyLocked wakes every waiter; callers hold mu.
func (j *Job) notifyLocked() {
	close(j.changed)
	j.changed = make(chan struct{})
}

// changeCh returns the current update channel; wait on it after reading a
// snapshot to learn of the next update.
func (j *Job) changeCh() <-chan struct{} {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.changed
}

// setRunning moves a dequeued job to running. It reports false if the
// job already reached a terminal state — a cancel (or shutdown) that
// landed between dequeue and start — in which case the dispatcher must
// release the lease instead of running the study.
func (j *Job) setRunning(workers int) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.terminal() {
		return false
	}
	j.state = StateRunning
	j.workers = workers
	j.notifyLocked()
	return true
}

func (j *Job) setProgress(done, total int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.done, j.total = done, total
	j.notifyLocked()
}

// finish moves the job to a terminal state exactly once; later calls are
// ignored (a cancel racing a natural completion keeps whichever landed
// first).
func (j *Job) finish(state JobState, export []byte, errMsg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.finishLocked(state, export, errMsg)
}

// finishIfUnstarted atomically moves a job that never started to
// canceled and reports whether it did; running or terminal jobs are
// left alone. The check and the transition share one critical section,
// so a concurrent setRunning cannot interleave between them.
func (j *Job) finishIfUnstarted() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.finishLocked(StateCanceled, nil, "canceled before start")
	return true
}

func (j *Job) finishLocked(state JobState, export []byte, errMsg string) {
	if j.state.terminal() {
		return
	}
	j.state = state
	j.export = export
	j.errMsg = errMsg
	if state == StateDone && j.total == 0 {
		// Cache hits never ran; report a complete progress bar anyway.
		j.done, j.total = 1, 1
	}
	j.notifyLocked()
	close(j.finished)
}

// requestCancel closes the sweep's cancel channel (idempotently). The
// state transition happens when the runner observes it, or immediately
// for jobs that never started.
func (j *Job) requestCancel() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.canceled {
		j.canceled = true
		close(j.cancel)
	}
}
