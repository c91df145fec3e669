// Package scheduler implements Philly's cluster scheduler as described in
// §2.3 of the paper, plus the baseline policies of Table 1 behind the same
// interface.
//
// Philly's mechanism, reproduced here:
//
//   - One queue per virtual cluster, managed fair-share: a VC is entitled
//     to its GPU quota, and unused GPUs are lent to queues with additional
//     demand (work-conserving borrowing).
//   - Gang scheduling: a job starts only when all its GPUs can be acquired
//     at once.
//   - Locality-aware placement: the scheduler ranks racks (RDMA domains) by
//     increasing occupancy and packs each job onto the smallest number of
//     servers inside one rack. If the constraint cannot be met, the attempt
//     is retried after a back-off (2 minutes in the paper), and after a
//     fixed number of retries the constraint is progressively relaxed —
//     first to rack-level, then to anywhere — to avoid starvation.
//   - Preemption: when at least 90% of cluster GPUs are in use, jobs from
//     VCs exceeding their quota are preempted (via model checkpoint) to
//     make room for jobs within quota.
//
// The scheduler also attributes every blocked attempt to one of the paper's
// two queueing-delay causes — fair-share (VC out of quota) vs fragmentation
// (quota available but no placement satisfies the constraint) — and tracks
// out-of-order scheduling decisions, both needed for §3.1.
//
// One simplification: the paper's scheduler holds partially acquired GPUs
// for a 2-3 minute timeout before releasing them; here a blocked job holds
// nothing and simply retries after the back-off. The queueing dynamics are
// equivalent at the trace level (both appear as "job waited n back-off
// rounds, then started"), and not holding GPUs strictly understates
// fragmentation, making our fragmentation-delay results conservative.
//
// # Mutation classification for event sharding
//
// Per-VC event sharding (internal/simulation's Fleet, one lane per VC)
// partitions events into VC-local and global. The scheduler's state splits accordingly, and
// every method below falls on one side of the line:
//
//   - VC-local state: one vcState per virtual cluster — its queue, its
//     ordered-queue cache, its running map and used counter. A mutation
//     confined to one vcState could in principle run on that VC's shard.
//   - Global state: the shared physical cluster (placement search,
//     Allocate/Release), the Stats counters, and anything that walks
//     vcList — Pump, fairSharePreempt (which preempts across VCs to serve
//     an entitled one), policyPreempt, Defrag.
//
// In practice every scheduler entry point the study driver calls — Submit,
// Release, Pump, Defrag — either touches the shared cluster directly or
// must be ordered against methods that do (a Submit changes what the next
// Pump starts), so core routes ALL scheduler calls through global events
// at window barriers. What runs on the shards is the work that never
// touches the scheduler: per-job failure-log rendering, classification and
// convergence-curve analysis (see internal/core's prepare/commit split).
package scheduler

import (
	"fmt"
	"sort"

	"philly/internal/cluster"
	"philly/internal/par"
	"philly/internal/simulation"
)

// Policy selects the queue ordering / preemption discipline (Table 1).
type Policy int

const (
	// PolicyPhilly is the paper's scheduler: arrival order within VC
	// queues, locality-based placement, fair-share preemption.
	PolicyPhilly Policy = iota
	// PolicyFIFO is strict arrival order with no out-of-order starts: a
	// blocked head blocks its whole VC queue.
	PolicyFIFO
	// PolicySRTF approximates Optimus: shortest-remaining-time-first
	// ordering with preemption of longer jobs, using remaining-time
	// estimates from the convergence curve.
	PolicySRTF
	// PolicyTiresias approximates Tiresias's discretized 2D-LAS: least
	// attained service (GPU-seconds) first, with preemption.
	PolicyTiresias
	// PolicyGandiva approximates Gandiva: arrival order plus time-slicing
	// — running jobs are suspended after a quantum when jobs are waiting.
	PolicyGandiva
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case PolicyPhilly:
		return "philly"
	case PolicyFIFO:
		return "fifo"
	case PolicySRTF:
		return "srtf"
	case PolicyTiresias:
		return "tiresias"
	case PolicyGandiva:
		return "gandiva"
	default:
		return "unknown"
	}
}

// ParsePolicy maps a policy name, as String renders it, back to the
// policy. It is the one policy table behind philly-repro's -policy flag
// and the sched.policy sweep axis.
func ParsePolicy(name string) (Policy, error) {
	switch name {
	case "philly":
		return PolicyPhilly, nil
	case "fifo":
		return PolicyFIFO, nil
	case "srtf":
		return PolicySRTF, nil
	case "tiresias":
		return PolicyTiresias, nil
	case "gandiva":
		return PolicyGandiva, nil
	}
	return 0, fmt.Errorf("unknown policy %q (want philly, fifo, srtf, tiresias or gandiva)", name)
}

// Config parameterizes the scheduler.
type Config struct {
	// Backoff is the delay before a blocked job retries (paper: 2 min).
	Backoff simulation.Time
	// RelaxToRackAfter is the number of failed attempts before the
	// locality constraint drops from packed to rack-level.
	RelaxToRackAfter int
	// RelaxToAnyAfter is the number of failed attempts before placement is
	// allowed anywhere.
	RelaxToAnyAfter int
	// PreemptionOccupancy is the cluster occupancy at which fair-share
	// preemption activates (paper: 0.90).
	PreemptionOccupancy float64
	// Policy is the scheduling discipline.
	Policy Policy
	// PreemptMinRun protects young jobs from policy preemption (SRTF /
	// Tiresias / Gandiva): a job must have run at least this long in its
	// current episode to be a victim.
	PreemptMinRun simulation.Time
	// GandivaQuantum is the time-slice for PolicyGandiva.
	GandivaQuantum simulation.Time
	// SpeculativeCandidates is the number of queue-head candidates whose
	// placement searches each Pump pass forks onto the shared pool before
	// committing them sequentially in exact queue order (0 disables
	// speculation). Results are bit-identical to the sequential search for
	// any value: a committed speculative result is re-validated against the
	// cluster's free-state epoch and replaced by an inline search on any
	// conflict.
	SpeculativeCandidates int
	// DisableSearchCache turns off the cluster's rack-epoch negative-result
	// search cache (see cluster/epoch.go). Results are identical either
	// way; the switch exists for differential tests and A/B benchmarks.
	DisableSearchCache bool
}

// DefaultConfig returns the paper's operating point.
func DefaultConfig() Config {
	return Config{
		Backoff:             2 * simulation.Minute,
		RelaxToRackAfter:    4,
		RelaxToAnyAfter:     8,
		PreemptionOccupancy: 0.90,
		Policy:              PolicyPhilly,
		PreemptMinRun:       10 * simulation.Minute,
		GandivaQuantum:      30 * simulation.Minute,
		// Deep enough to cover every eligible candidate of a typical Pump
		// pass; harmless (and free) when fewer are eligible.
		SpeculativeCandidates: 8,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Backoff <= 0 {
		return fmt.Errorf("scheduler: Backoff must be positive, got %v", c.Backoff)
	}
	if c.RelaxToRackAfter < 0 || c.RelaxToAnyAfter < c.RelaxToRackAfter {
		return fmt.Errorf("scheduler: relax thresholds must satisfy 0 <= rack (%d) <= any (%d)",
			c.RelaxToRackAfter, c.RelaxToAnyAfter)
	}
	if c.PreemptionOccupancy <= 0 || c.PreemptionOccupancy > 1 {
		return fmt.Errorf("scheduler: PreemptionOccupancy %v out of (0, 1]", c.PreemptionOccupancy)
	}
	if c.Policy == PolicyGandiva && c.GandivaQuantum <= 0 {
		return fmt.Errorf("scheduler: Gandiva policy needs a positive quantum")
	}
	if c.SpeculativeCandidates < 0 {
		return fmt.Errorf("scheduler: SpeculativeCandidates must be >= 0, got %d", c.SpeculativeCandidates)
	}
	return nil
}

// VC is a virtual cluster with a GPU quota.
type VC struct {
	Name  string
	Quota int
}

// State is a job's scheduling state.
type State int

const (
	// StateQueued means waiting for GPUs.
	StateQueued State = iota
	// StateRunning means holding GPUs.
	StateRunning
	// StateFinished means released (may be re-submitted for a retry).
	StateFinished
)

// Job is the scheduler's view of one execution episode stream. The same Job
// is re-submitted for retries so queueing statistics accumulate across
// episodes.
type Job struct {
	// ID is the cluster-wide job ID.
	ID cluster.JobID
	// VCName is the job's virtual cluster.
	VCName string
	// GPUs is the gang width.
	GPUs int
	// SubmitAt is the original submission time (fixed across episodes).
	SubmitAt simulation.Time
	// RemainingSeconds estimates remaining work (SRTF input; core updates
	// it between episodes).
	RemainingSeconds float64

	// State machine.
	State State
	// EnqueuedAt is when the current queueing episode began.
	EnqueuedAt simulation.Time
	// StartedAt is when the current running episode began.
	StartedAt simulation.Time
	// NextAttempt gates placement retries (back-off).
	NextAttempt simulation.Time
	// Attempts counts failed placement attempts in the current episode.
	Attempts int
	// Placement is the current allocation while running.
	Placement cluster.Placement

	// Episodes counts scheduling episodes (1 + retries + preemption
	// resumptions).
	Episodes int
	// FirstStartAt is when the job first began running (or 0).
	FirstStartAt simulation.Time
	// FirstQueueDelay is the queueing delay of the first episode — the
	// paper's Figure 3 metric. Negative means not yet started.
	FirstQueueDelay simulation.Time
	// TotalQueueDelay accumulates queueing delay across episodes.
	TotalQueueDelay simulation.Time
	// FairShareBlocks and FragBlocks count blocked attempts by cause.
	FairShareBlocks, FragBlocks int
	// OutOfOrderStart marks that this job ever started ahead of an
	// earlier-submitted job in its VC.
	OutOfOrderStart bool
	// Overtaken marks that some later-submitted job in the VC started
	// while this one waited.
	Overtaken bool
	// PriorAttainedGPUSeconds is the attained service from earlier
	// episodes (Tiresias input).
	PriorAttainedGPUSeconds float64
	// Preemptions counts times this job was preempted.
	Preemptions int
	// Tag is an opaque caller-owned index the scheduler never reads or
	// writes. internal/core stores the job's arena slot here so scheduler
	// events resolve to driver state without a map lookup.
	Tag int

	// queued marks membership in a VC queue — the O(1) duplicate check
	// Submit relies on. Maintained by enqueue/dequeue, never by State
	// alone (State's zero value is StateQueued, so a fresh job's State
	// cannot distinguish "never submitted" from "queued").
	queued bool
}

// NewJob constructs a queued job. The caller owns the struct.
func NewJob(id cluster.JobID, vc string, gpus int, submit simulation.Time) *Job {
	j := &Job{}
	InitJob(j, id, vc, gpus, submit)
	return j
}

// InitJob initializes a caller-allocated Job in place — the arena path:
// internal/core lays its jobs out in one contiguous slice and initializes
// each slot here instead of allocating per job.
func InitJob(j *Job, id cluster.JobID, vc string, gpus int, submit simulation.Time) {
	*j = Job{
		ID:              id,
		VCName:          vc,
		GPUs:            gpus,
		SubmitAt:        submit,
		FirstQueueDelay: -1,
	}
}

// AttainedGPUSeconds returns total attained service as of now.
func (j *Job) AttainedGPUSeconds(now simulation.Time) float64 {
	a := j.PriorAttainedGPUSeconds
	if j.State == StateRunning {
		a += float64(now-j.StartedAt) * float64(j.GPUs)
	}
	return a
}

// DelayCause is the paper's queueing-delay taxonomy (§3.1.1).
type DelayCause int

const (
	// DelayNone means the job never had a blocked attempt.
	DelayNone DelayCause = iota
	// DelayFairShare means the VC was out of quota.
	DelayFairShare
	// DelayFragmentation means quota was available but no placement
	// satisfied the locality constraint.
	DelayFragmentation
)

// String names the cause.
func (d DelayCause) String() string {
	switch d {
	case DelayNone:
		return "none"
	case DelayFairShare:
		return "fair-share"
	case DelayFragmentation:
		return "fragmentation"
	default:
		return "unknown"
	}
}

// Cause classifies the job's dominant queueing-delay cause.
func (j *Job) Cause() DelayCause {
	if j.FairShareBlocks == 0 && j.FragBlocks == 0 {
		return DelayNone
	}
	if j.FairShareBlocks > j.FragBlocks {
		return DelayFairShare
	}
	return DelayFragmentation
}

// vcState is the per-VC runtime state.
type vcState struct {
	VC
	queue   []*Job
	running map[cluster.JobID]*Job
	used    int
	// queuedGPUs is the GPU total over queue, maintained incrementally so
	// QueuedGPUDemand is O(1) — federation's quota rebalancing reads it per
	// VC at every fleet barrier.
	queuedGPUs int

	// ordered is the policy-ordered snapshot of queue that orderQueue hands
	// out, reused across calls. orderedValid marks it current: scheduling
	// keys are frozen while a Pump runs (queued jobs' remaining work and
	// attained service only change between Pumps), so the snapshot stays
	// valid until queue membership changes or the Pump ends.
	ordered      []*Job
	orderedValid bool
	// sorter is the preallocated sort.Interface adapter for the policies
	// that order by a dynamic key (SRTF, Tiresias).
	sorter queueSorter
}

// invalidateOrder discards the cached queue ordering.
func (vc *vcState) invalidateOrder() { vc.orderedValid = false }

// queueSorter sorts a job slice by the configured policy's key. It lives on
// vcState so sort.Stable receives an already-heap-allocated interface value
// — the former sort.SliceStable closures allocated on every Pump.
type queueSorter struct {
	jobs   []*Job
	now    simulation.Time
	policy Policy
}

func (q *queueSorter) Len() int      { return len(q.jobs) }
func (q *queueSorter) Swap(i, k int) { q.jobs[i], q.jobs[k] = q.jobs[k], q.jobs[i] }
func (q *queueSorter) Less(i, k int) bool {
	a, b := q.jobs[i], q.jobs[k]
	switch q.policy {
	case PolicySRTF:
		if a.RemainingSeconds != b.RemainingSeconds {
			return a.RemainingSeconds < b.RemainingSeconds
		}
	case PolicyTiresias:
		ai, ak := a.AttainedGPUSeconds(q.now), b.AttainedGPUSeconds(q.now)
		if ai != ak {
			return ai < ak
		}
	}
	return a.SubmitAt < b.SubmitAt
}

// Stats are cluster-wide scheduling counters.
type Stats struct {
	// Starts is the number of scheduling decisions (episode starts).
	Starts int
	// OutOfOrderStarts counts starts that jumped ahead of an
	// earlier-submitted queued job in the same VC.
	OutOfOrderStarts int
	// HarmlessOutOfOrder counts out-of-order starts where the overtaken
	// job could not have used the GPUs anyway (paper: 85% of
	// out-of-order occurrences for large jobs).
	HarmlessOutOfOrder int
	// BlockedAttempts counts failed placement attempts.
	BlockedAttempts int
	// FairSharePreemptions counts preemptions triggered by quota
	// enforcement; PolicyPreemptions counts SRTF/Tiresias/Gandiva ones.
	FairSharePreemptions int
	PolicyPreemptions    int
	// Migrations counts defragmentation moves (§5's migration guideline).
	Migrations int
	// PlacementSearches counts cluster placement searches (inline calls
	// plus committed speculative ones — exactly the searches a fully
	// sequential scheduler would have run); CacheShortCircuits is how many
	// of those were answered by the rack-epoch negative-result cache
	// without walking any rack. Both are pure functions of the scheduling
	// sequence, so they are bit-identical across worker counts and engines.
	PlacementSearches  int
	CacheShortCircuits int
	// SpeculativeCommits counts speculative placement searches whose
	// results were used at commit (the free state was untouched since the
	// fork); SpeculativeConflicts counts candidates whose speculative
	// result had to be discarded for an inline re-search because an earlier
	// commit moved the free-state epoch.
	SpeculativeCommits   int
	SpeculativeConflicts int
}

// StartEvent reports a job start from Pump.
type StartEvent struct {
	Job        *Job
	Placement  cluster.Placement
	OutOfOrder bool
	// Harmless is meaningful when OutOfOrder: the overtaken job could not
	// have been placed even with this job's GPUs free.
	Harmless bool
	// Locality is the constraint level the placement satisfied.
	Locality cluster.Locality
	// Seq orders this event against preemptions within the same Pump: a
	// job can start and then be preempted in one scheduling round, and the
	// consumer must replay the two in causal order.
	Seq int
}

// PreemptEvent reports a preemption from Pump.
type PreemptEvent struct {
	Job *Job
	// FairShare distinguishes quota preemption from policy preemption.
	FairShare bool
	// Seq orders this event against starts within the same Pump.
	Seq int
}

// PumpResult is everything that happened during one Pump. The event slices
// are backed by scheduler-owned buffers reused across Pumps: a result is
// valid until the next Pump call, which is the contract the single-threaded
// driver relies on (it fully consumes each result before pumping again).
type PumpResult struct {
	Starts      []StartEvent
	Preemptions []PreemptEvent
	// NextWake is the earliest future time at which a queued job becomes
	// eligible to retry, or 0 when no queued job is waiting on back-off.
	NextWake simulation.Time

	seq int // event sequencer
}

// nextSeq hands out per-Pump event sequence numbers.
func (r *PumpResult) nextSeq() int {
	r.seq++
	return r.seq
}

// Scheduler is the cluster scheduler. Not safe for concurrent use; the
// simulator is single-threaded.
type Scheduler struct {
	cfg     Config
	cluster *cluster.Cluster
	vcs     map[string]*vcState
	vcOrder []string
	// vcList holds the VCs in vcOrder, resolved once: the scheduling loops
	// run on every Pump and previously paid a string-map lookup per VC.
	vcList []*vcState
	stats  Stats

	// candScratch and victimScratch are reused preemption-search buffers;
	// candSorter and idSorter are the preallocated sort adapters over
	// candScratch.
	candScratch   []*Job
	victimScratch []victimRef
	candSorter    candidateSorter
	idSorter      jobIDSorter
	// startsBuf and preemptBuf back PumpResult's event slices across Pumps.
	startsBuf  []StartEvent
	preemptBuf []PreemptEvent

	// pool, when set, runs the speculative candidate searches as fork-join
	// tasks; a nil pool runs them inline with identical results. specs and
	// searchers are reused across Pumps (one private search context per
	// candidate slot), and specEpoch is the cluster free-state epoch the
	// current speculation batch ran against.
	pool      *par.Pool
	specs     []specEntry
	searchers []*cluster.Searcher
	specEpoch uint64
	// specFn is the fork-join body, hoisted so each speculation round does
	// not allocate a fresh closure (pump loops run it thousands of times).
	specFn func(int)
}

// specEntry is one speculatively searched queue candidate.
type specEntry struct {
	job   *Job
	level cluster.Locality
	p     cluster.Placement
	ok    bool
	used  bool
}

// SetPool attaches a fork-join pool for speculative candidate searches.
// Scheduling output is bit-identical with or without a pool — the pool only
// decides where the speculative searches run.
func (s *Scheduler) SetPool(p *par.Pool) { s.pool = p }

// victimRef pairs a preemption victim with its VC.
type victimRef struct {
	vc *vcState
	j  *Job
}

// candidateSorter orders preemption candidates youngest-episode-first
// (StartedAt descending, ties by ID ascending) — the same total order the
// former per-call sort.Slice closure produced.
type candidateSorter struct{ jobs []*Job }

func (c *candidateSorter) Len() int      { return len(c.jobs) }
func (c *candidateSorter) Swap(i, k int) { c.jobs[i], c.jobs[k] = c.jobs[k], c.jobs[i] }
func (c *candidateSorter) Less(i, k int) bool {
	if c.jobs[i].StartedAt != c.jobs[k].StartedAt {
		return c.jobs[i].StartedAt > c.jobs[k].StartedAt
	}
	return c.jobs[i].ID < c.jobs[k].ID
}

// New builds a scheduler over the cluster with the given virtual clusters.
func New(cfg Config, cl *cluster.Cluster, vcs []VC) (*Scheduler, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cl == nil {
		return nil, fmt.Errorf("scheduler: nil cluster")
	}
	if len(vcs) == 0 {
		return nil, fmt.Errorf("scheduler: at least one VC required")
	}
	s := &Scheduler{cfg: cfg, cluster: cl, vcs: map[string]*vcState{}}
	for _, vc := range vcs {
		if vc.Name == "" || vc.Quota <= 0 {
			return nil, fmt.Errorf("scheduler: invalid VC %+v", vc)
		}
		if _, dup := s.vcs[vc.Name]; dup {
			return nil, fmt.Errorf("scheduler: duplicate VC %q", vc.Name)
		}
		s.vcs[vc.Name] = &vcState{VC: vc, running: map[cluster.JobID]*Job{}}
		s.vcOrder = append(s.vcOrder, vc.Name)
	}
	sort.Strings(s.vcOrder)
	for _, name := range s.vcOrder {
		s.vcList = append(s.vcList, s.vcs[name])
	}
	if cfg.DisableSearchCache {
		cl.SetSearchCache(false)
	}
	s.specFn = func(i int) {
		e := &s.specs[i]
		e.p, e.ok = s.searchers[i].FindPlacement(e.job.GPUs, e.level)
	}
	return s, nil
}

// Stats returns a copy of the counters, folding in the cluster's search
// totals (the cluster owns the search/short-circuit counts so that inline
// and committed-speculative searches are tallied at one choke-point).
func (s *Scheduler) Stats() Stats {
	st := s.stats
	st.PlacementSearches, st.CacheShortCircuits = s.cluster.SearchStats()
	return st
}

// NumVCs returns the number of virtual clusters — the natural shard count
// for per-VC event partitioning.
func (s *Scheduler) NumVCs() int { return len(s.vcList) }

// VCIndex returns the dense index of the named VC in the scheduler's
// sorted VC order (the same order every scheduling loop walks), or -1 for
// an unknown name. Core uses it to assign each job's shard-local events to
// its VC's event lane; the mapping depends only on the configured VC names,
// so it is identical across runs, worker counts and engines.
func (s *Scheduler) VCIndex(name string) int {
	for i, vc := range s.vcList {
		if vc.Name == name {
			return i
		}
	}
	return -1
}

// VCUsage returns the GPUs currently used by the VC.
func (s *Scheduler) VCUsage(name string) int {
	if vc := s.vcs[name]; vc != nil {
		return vc.used
	}
	return 0
}

// QueueLen returns the number of queued jobs in the VC.
func (s *Scheduler) QueueLen(name string) int {
	if vc := s.vcs[name]; vc != nil {
		return len(vc.queue)
	}
	return 0
}

// Withdraw removes a queued job from its VC queue without starting it —
// the federation spillover path: the job leaves this cluster's scheduler
// in StateFinished, keeping whatever queueing statistics it accumulated,
// and is re-submitted to another member cluster by the caller. The job
// must currently be queued.
func (s *Scheduler) Withdraw(id cluster.JobID) error {
	for _, vc := range s.vcList {
		for _, q := range vc.queue {
			if q.ID != id {
				continue
			}
			return s.WithdrawJob(q)
		}
	}
	return fmt.Errorf("scheduler: job %d is not queued; cannot withdraw", id)
}

// WithdrawJob is Withdraw for callers that already hold the *Job — it skips
// the all-queues scan (the driver keeps job handles in its arena).
func (s *Scheduler) WithdrawJob(j *Job) error {
	if j == nil || !j.queued || j.State != StateQueued {
		id := cluster.JobID(-1)
		if j != nil {
			id = j.ID
		}
		return fmt.Errorf("scheduler: job %d is not queued; cannot withdraw", id)
	}
	s.dequeue(s.vcs[j.VCName], j.ID)
	j.State = StateFinished
	return nil
}

// VCNames returns the VC names in the scheduler's sorted walk order.
func (s *Scheduler) VCNames() []string {
	return append([]string(nil), s.vcOrder...)
}

// VCQuota returns the VC's current GPU quota (0 for unknown names).
func (s *Scheduler) VCQuota(name string) int {
	if vc := s.vcs[name]; vc != nil {
		return vc.Quota
	}
	return 0
}

// SetQuota updates a VC's GPU quota in place. Quotas are pure policy —
// fair-share attribution and preemption thresholds — so changing one
// mid-run never invalidates allocations; it only steers future decisions.
// The federation's fleet-wide rebalancing ticks call this at window
// barriers.
func (s *Scheduler) SetQuota(name string, quota int) error {
	vc := s.vcs[name]
	if vc == nil {
		return fmt.Errorf("scheduler: unknown VC %q", name)
	}
	if quota <= 0 {
		return fmt.Errorf("scheduler: VC %q quota must be positive, got %d", name, quota)
	}
	vc.Quota = quota
	return nil
}

// QueuedGPUDemand returns the total GPUs requested by the VC's queued jobs.
// O(1): the per-VC counter is maintained by enqueue/dequeue.
func (s *Scheduler) QueuedGPUDemand(name string) int {
	if vc := s.vcs[name]; vc != nil {
		return vc.queuedGPUs
	}
	return 0
}

// Submit enqueues a job (first episode or retry). The job must not be
// queued or running.
func (s *Scheduler) Submit(j *Job, now simulation.Time) error {
	vc := s.vcs[j.VCName]
	if vc == nil {
		return fmt.Errorf("scheduler: job %d references unknown VC %q", j.ID, j.VCName)
	}
	if j.GPUs <= 0 {
		return fmt.Errorf("scheduler: job %d requests %d GPUs", j.ID, j.GPUs)
	}
	if j.GPUs > s.cluster.TotalGPUs() {
		return fmt.Errorf("scheduler: job %d requests %d GPUs but the cluster has %d",
			j.ID, j.GPUs, s.cluster.TotalGPUs())
	}
	if j.State == StateRunning {
		return fmt.Errorf("scheduler: job %d is running; cannot submit", j.ID)
	}
	if j.queued {
		return fmt.Errorf("scheduler: job %d already queued", j.ID)
	}
	j.State = StateQueued
	j.EnqueuedAt = now
	j.NextAttempt = now
	j.Attempts = 0
	j.Episodes++
	s.enqueue(vc, j)
	return nil
}

// enqueue appends the job to the VC queue, maintaining the queue counters.
func (s *Scheduler) enqueue(vc *vcState, j *Job) {
	j.queued = true
	vc.queue = append(vc.queue, j)
	vc.queuedGPUs += j.GPUs
	vc.invalidateOrder()
}

// Release frees a running job's GPUs (episode finished).
func (s *Scheduler) Release(id cluster.JobID, now simulation.Time) error {
	for _, vc := range s.vcList {
		if j, ok := vc.running[id]; ok {
			return s.release(vc, j, now)
		}
	}
	return fmt.Errorf("scheduler: job %d is not running", id)
}

// ReleaseJob is Release for callers that already hold the *Job — it skips
// the per-VC running-map scans on the episode-finish hot path.
func (s *Scheduler) ReleaseJob(j *Job, now simulation.Time) error {
	if j == nil || j.State != StateRunning {
		id := cluster.JobID(-1)
		if j != nil {
			id = j.ID
		}
		return fmt.Errorf("scheduler: job %d is not running", id)
	}
	return s.release(s.vcs[j.VCName], j, now)
}

func (s *Scheduler) release(vc *vcState, j *Job, now simulation.Time) error {
	if err := s.cluster.Release(j.ID); err != nil {
		return err
	}
	j.PriorAttainedGPUSeconds += float64(now-j.StartedAt) * float64(j.GPUs)
	j.State = StateFinished
	j.Placement = cluster.Placement{}
	vc.used -= j.GPUs
	delete(vc.running, j.ID)
	return nil
}

// localityFor returns the constraint level for the job's attempt count,
// clamped to what the topology can ever satisfy: a gang wider than the
// largest rack can never meet a single-RDMA-domain constraint, so making it
// wait through relaxation rounds would be pure starvation.
func (s *Scheduler) localityFor(j *Job) cluster.Locality {
	if j.GPUs > s.cluster.MaxRackGPUs() {
		return cluster.LocalityRelaxed
	}
	switch {
	case j.Attempts < s.cfg.RelaxToRackAfter:
		return cluster.LocalityPacked
	case j.Attempts < s.cfg.RelaxToAnyAfter:
		return cluster.LocalityRack
	default:
		return cluster.LocalityRelaxed
	}
}

// orderQueue returns the VC's queue in the policy's scheduling order. The
// returned slice is a cached snapshot owned by the VC: it is rebuilt only
// when queue membership changed since the last call (or a new Pump began),
// not on every scheduling pass. Queued jobs' ordering keys cannot change
// while a Pump runs — remaining work and attained service are updated by
// the driver between Pumps, and a queued job accrues no service — so a
// membership-stable snapshot is identical to a fresh re-sort. Stable sort
// on an identical comparator yields a unique order, so the cached snapshot
// is bit-for-bit what the former per-call sort.SliceStable produced.
func (s *Scheduler) orderQueue(vc *vcState, now simulation.Time) []*Job {
	if vc.orderedValid {
		return vc.ordered
	}
	vc.ordered = append(vc.ordered[:0], vc.queue...)
	switch s.cfg.Policy {
	case PolicySRTF, PolicyTiresias:
		vc.sorter = queueSorter{jobs: vc.ordered, now: now, policy: s.cfg.Policy}
		sort.Stable(&vc.sorter)
	default:
		// Arrival order (queue is already FIFO).
	}
	vc.orderedValid = true
	return vc.ordered
}

// Pump runs scheduling to a fixpoint at the current time. Core calls it on
// job arrival, job completion, and at NextWake times.
func (s *Scheduler) Pump(now simulation.Time) PumpResult {
	// Queued jobs' ordering keys may have been updated by the driver since
	// the previous Pump (e.g. remaining-work estimates after a preemption),
	// so cached queue orderings are stale at entry.
	for _, vc := range s.vcList {
		vc.invalidateOrder()
	}
	res := PumpResult{Starts: s.startsBuf[:0], Preemptions: s.preemptBuf[:0]}
	for {
		s.speculate(now)
		started := s.pumpOnce(now, &res)
		if !started {
			break
		}
	}
	// Drop any unconsumed speculative entries: job pointers must not
	// outlive the Pump (the driver recycles job state between Pumps).
	s.specs = s.specs[:0]
	if s.cfg.Policy != PolicyFIFO && s.cfg.Policy != PolicyPhilly {
		s.policyPreempt(now, &res)
	}
	if s.cluster.Occupancy() >= s.cfg.PreemptionOccupancy {
		s.fairSharePreempt(now, &res)
	}
	// Compute the next wake-up among blocked queued jobs.
	for _, vc := range s.vcList {
		for _, j := range vc.queue {
			if j.NextAttempt > now && (res.NextWake == 0 || j.NextAttempt < res.NextWake) {
				res.NextWake = j.NextAttempt
			}
		}
	}
	// Keep any growth of the event buffers for the next Pump.
	s.startsBuf = res.Starts[:0]
	s.preemptBuf = res.Preemptions[:0]
	return res
}

// pumpOnce makes one pass over all queues; returns whether any job started.
func (s *Scheduler) pumpOnce(now simulation.Time, res *PumpResult) bool {
	any := false
	for _, vc := range s.vcList {
		for _, j := range s.orderQueue(vc, now) {
			if j.State != StateQueued || j.NextAttempt > now {
				if s.cfg.Policy == PolicyFIFO {
					break // a blocked head blocks the whole queue
				}
				continue
			}
			if s.tryStart(vc, j, now, res) {
				any = true
			} else if s.cfg.Policy == PolicyFIFO {
				break
			}
		}
	}
	return any
}

// speculate forks placement searches for the first SpeculativeCandidates
// eligible queued jobs — collected in the exact order pumpOnce will visit
// them — against the current (quiescent) free state. pumpOnce's commits
// then consume the results sequentially via placeFor, so the schedule is
// bit-identical to running every search inline: the first commit always
// sees an unchanged epoch, and any later candidate whose epoch moved falls
// back to an inline search. Candidates the negative-result cache already
// proves infeasible are skipped here — their inline search short-circuits
// in O(1) anyway, so forking them would only burn pool slots (and in the
// blocked-queue steady state this leaves nothing to fork at all).
func (s *Scheduler) speculate(now simulation.Time) {
	s.specs = s.specs[:0]
	k := s.cfg.SpeculativeCandidates
	if k <= 0 {
		return
	}
collect:
	for _, vc := range s.vcList {
		for _, j := range s.orderQueue(vc, now) {
			if j.State != StateQueued || j.NextAttempt > now {
				if s.cfg.Policy == PolicyFIFO {
					continue collect // a blocked head blocks the whole queue
				}
				continue
			}
			level := s.localityFor(j)
			if s.cluster.KnownInfeasible(j.GPUs, level) {
				if s.cfg.Policy == PolicyFIFO {
					continue collect // its inline retry will break the queue
				}
				continue
			}
			s.specs = append(s.specs, specEntry{job: j, level: level})
			if len(s.specs) >= k {
				break collect
			}
		}
	}
	if len(s.specs) == 0 {
		return
	}
	for len(s.searchers) < len(s.specs) {
		s.searchers = append(s.searchers, s.cluster.NewSearcher())
	}
	s.specEpoch = s.cluster.Epoch()
	// The forked searches are read-only over quiescent free state; each
	// task touches only its own entry and its own Searcher scratch.
	s.pool.ForkJoin(len(s.specs), s.specFn)
}

// placeFor resolves one candidate's placement: a speculative result when
// one exists for this job at this level and the free state is untouched
// since the fork, an inline search otherwise. Exactly one search is tallied
// either way — the counters, like the placements, match a fully sequential
// scheduler's bit for bit.
func (s *Scheduler) placeFor(j *Job, level cluster.Locality) (cluster.Placement, bool) {
	for i := range s.specs {
		e := &s.specs[i]
		if e.used || e.job != j {
			continue
		}
		if e.level != level {
			// A preemption path re-tries the job at a relaxed level; the
			// speculative answer is for a different search. Leave the entry
			// for the regular pass.
			break
		}
		e.used = true
		if s.cluster.Epoch() == s.specEpoch {
			s.cluster.CommitSpeculative(j.GPUs, level, e.ok)
			s.stats.SpeculativeCommits++
			return e.p, e.ok
		}
		s.stats.SpeculativeConflicts++
		break
	}
	return s.cluster.FindPlacement(j.GPUs, level)
}

// tryStart attempts to place and start one job.
func (s *Scheduler) tryStart(vc *vcState, j *Job, now simulation.Time, res *PumpResult) bool {
	level := s.localityFor(j)
	p, ok := s.placeFor(j, level)
	if !ok {
		// Blocked: attribute the delay cause (§3.1.1). Fair-share delay
		// "happens when the virtual cluster uses up its assigned quota";
		// a job arriving while its VC is within quota but unplaceable is
		// fragmentation delay.
		if vc.used >= vc.Quota {
			j.FairShareBlocks++
		} else {
			j.FragBlocks++
		}
		j.Attempts++
		j.NextAttempt = now + s.cfg.Backoff
		s.stats.BlockedAttempts++
		return false
	}

	// Out-of-order bookkeeping: does this start overtake an
	// earlier-submitted job still queued in the same VC?
	ooo := false
	harmless := false
	for _, other := range vc.queue {
		if other.ID == j.ID || other.SubmitAt >= j.SubmitAt {
			continue
		}
		ooo = true
		other.Overtaken = true
		if !harmless {
			// Could the overtaken job have used these GPUs? Test before we
			// take them: if it cannot be placed now at its own level, the
			// idle GPUs are used "without prolonging the waiting job".
			if _, can := s.cluster.FindPlacement(other.GPUs, s.localityFor(other)); !can {
				harmless = true
			}
		}
	}

	if err := s.cluster.Allocate(j.ID, p); err != nil {
		// FindPlacement over live state makes this unreachable; surfacing
		// it as a panic would hide scheduler bugs less than limping on.
		panic(fmt.Sprintf("scheduler: allocation failed after successful search: %v", err))
	}
	s.dequeue(vc, j.ID)
	j.State = StateRunning
	j.StartedAt = now
	j.Placement = p
	delay := now - j.EnqueuedAt
	j.TotalQueueDelay += delay
	if j.FirstStartAt == 0 && j.FirstQueueDelay < 0 {
		j.FirstStartAt = now
		j.FirstQueueDelay = delay
	}
	j.OutOfOrderStart = j.OutOfOrderStart || ooo
	vc.running[j.ID] = j
	vc.used += j.GPUs

	s.stats.Starts++
	if ooo {
		s.stats.OutOfOrderStarts++
		if harmless {
			s.stats.HarmlessOutOfOrder++
		}
	}
	res.Starts = append(res.Starts, StartEvent{
		Job: j, Placement: p, OutOfOrder: ooo, Harmless: harmless, Locality: level,
		Seq: res.nextSeq(),
	})
	return true
}

func (s *Scheduler) dequeue(vc *vcState, id cluster.JobID) {
	for i, q := range vc.queue {
		if q.ID == id {
			vc.queue = append(vc.queue[:i], vc.queue[i+1:]...)
			vc.queuedGPUs -= q.GPUs
			q.queued = false
			vc.invalidateOrder()
			return
		}
	}
}

// preempt releases a victim and requeues it with back-off.
func (s *Scheduler) preempt(vc *vcState, victim *Job, now simulation.Time, fairShare bool, res *PumpResult) {
	if err := s.release(vc, victim, now); err != nil {
		panic(fmt.Sprintf("scheduler: preempting running job failed: %v", err))
	}
	victim.Preemptions++
	victim.State = StateQueued
	victim.EnqueuedAt = now
	victim.NextAttempt = now + s.cfg.Backoff
	victim.Attempts = 0
	victim.Episodes++
	s.enqueue(vc, victim)
	if fairShare {
		s.stats.FairSharePreemptions++
	} else {
		s.stats.PolicyPreemptions++
	}
	res.Preemptions = append(res.Preemptions, PreemptEvent{
		Job: victim, FairShare: fairShare, Seq: res.nextSeq(),
	})
}

// fairSharePreempt implements quota enforcement: when the cluster is nearly
// full, entitled jobs (within quota) reclaim GPUs from VCs running over
// quota.
func (s *Scheduler) fairSharePreempt(now simulation.Time, res *PumpResult) {
	for _, vc := range s.vcList {
		// Find the first entitled queued job that is actually waiting.
		var entitled *Job
		for _, j := range s.orderQueue(vc, now) {
			if j.State == StateQueued && vc.used+j.GPUs <= vc.Quota {
				entitled = j
				break
			}
		}
		if entitled == nil {
			continue
		}
		// Gather victims from over-quota VCs, youngest episodes first
		// (least progress lost to the checkpoint restore).
		victims := s.victimScratch[:0]
		freed := s.cluster.FreeGPUs()
		for _, ovc := range s.vcList {
			if ovc.used <= ovc.Quota {
				continue
			}
			candidates := s.candScratch[:0]
			for _, r := range ovc.running {
				candidates = append(candidates, r)
			}
			s.candScratch = candidates
			s.candSorter.jobs = candidates
			sort.Sort(&s.candSorter)
			overBy := ovc.used - ovc.Quota
			for _, c := range candidates {
				if freed >= entitled.GPUs || overBy <= 0 {
					break
				}
				victims = append(victims, victimRef{ovc, c})
				freed += c.GPUs
				overBy -= c.GPUs
			}
			if freed >= entitled.GPUs {
				break
			}
		}
		s.victimScratch = victims[:0]
		if freed < entitled.GPUs || len(victims) == 0 {
			continue
		}
		for _, v := range victims {
			s.preempt(v.vc, v.j, now, true, res)
		}
		// Start the entitled job on the reclaimed GPUs (relaxed placement:
		// reclaimed capacity is fragmented by construction).
		entitled.Attempts = s.cfg.RelaxToAnyAfter
		s.tryStart(vc, entitled, now, res)
	}
}

// policyPreempt implements the preemptive disciplines of the baseline
// policies (SRTF / Tiresias / Gandiva).
func (s *Scheduler) policyPreempt(now simulation.Time, res *PumpResult) {
	for _, vc := range s.vcList {
		for _, waiting := range s.orderQueue(vc, now) {
			// Preemptive disciplines act regardless of the waiting job's
			// placement back-off: rotation/priority decisions are about the
			// running set, not about retrying a failed placement.
			if waiting.State != StateQueued {
				continue
			}
			victim := s.pickVictim(vc, waiting, now)
			if victim == nil {
				continue
			}
			s.preempt(vc, victim, now, false, res)
			// Give the waiting job an immediate relaxed shot at the GPUs.
			waiting.Attempts = s.cfg.RelaxToAnyAfter
			s.tryStart(vc, waiting, now, res)
		}
	}
}

// pickVictim selects a running job in the VC to preempt in favor of
// waiting, per the policy's discipline. Returns nil when no preemption is
// warranted.
func (s *Scheduler) pickVictim(vc *vcState, waiting *Job, now simulation.Time) *Job {
	candidates := s.candScratch[:0]
	for _, r := range vc.running {
		if now-r.StartedAt < s.cfg.PreemptMinRun {
			continue
		}
		if r.GPUs < waiting.GPUs {
			continue // preempting smaller jobs cannot free enough capacity
		}
		candidates = append(candidates, r)
	}
	s.candScratch = candidates
	if len(candidates) == 0 {
		return nil
	}
	s.idSorter.jobs = candidates
	sort.Sort(&s.idSorter)
	switch s.cfg.Policy {
	case PolicySRTF:
		// Preempt the job with the most remaining work, if the waiting job
		// has strictly less.
		var worst *Job
		for _, c := range candidates {
			if worst == nil || c.RemainingSeconds > worst.RemainingSeconds {
				worst = c
			}
		}
		if worst != nil && waiting.RemainingSeconds < worst.RemainingSeconds {
			return worst
		}
	case PolicyTiresias:
		// Preempt the job with the most attained service, if the waiting
		// job has strictly less (LAS).
		var worst *Job
		for _, c := range candidates {
			if worst == nil || c.AttainedGPUSeconds(now) > worst.AttainedGPUSeconds(now) {
				worst = c
			}
		}
		if worst != nil && waiting.AttainedGPUSeconds(now) < worst.AttainedGPUSeconds(now) {
			return worst
		}
	case PolicyGandiva:
		// Time-slice: rotate out the job that has held GPUs the longest
		// past its quantum.
		var worst *Job
		for _, c := range candidates {
			if now-c.StartedAt < s.cfg.GandivaQuantum {
				continue
			}
			if worst == nil || c.StartedAt < worst.StartedAt {
				worst = c
			}
		}
		return worst
	}
	return nil
}

// jobIDSorter orders jobs by ascending ID. IDs are unique, so the result
// is the same total order any sort produces.
type jobIDSorter struct{ jobs []*Job }

func (s *jobIDSorter) Len() int           { return len(s.jobs) }
func (s *jobIDSorter) Swap(i, k int)      { s.jobs[i], s.jobs[k] = s.jobs[k], s.jobs[i] }
func (s *jobIDSorter) Less(i, k int) bool { return s.jobs[i].ID < s.jobs[k].ID }

// RunningJobs returns all running jobs, ordered by ID (deterministic).
func (s *Scheduler) RunningJobs() []*Job {
	var out []*Job
	for _, vc := range s.vcList {
		for _, j := range vc.running {
			out = append(out, j)
		}
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

// EachQueued calls fn for every queued job, in VC walk order then FIFO
// queue order — deterministic and allocation-free, for callers (the
// federation spillover scan) that impose their own total order anyway.
func (s *Scheduler) EachQueued(fn func(*Job)) {
	for _, vc := range s.vcList {
		for _, j := range vc.queue {
			fn(j)
		}
	}
}

// QueuedJobs returns all queued jobs, ordered by ID.
func (s *Scheduler) QueuedJobs() []*Job {
	var out []*Job
	for _, vc := range s.vcList {
		out = append(out, vc.queue...)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}
