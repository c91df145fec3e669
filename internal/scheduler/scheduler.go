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
//     ordered-queue cache, its running set (one slice kept in runningOrder)
//     and used counter. A mutation confined to one vcState could in
//     principle run on that VC's shard.
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
// touches the scheduler: a failing attempt's log rendering and
// classification (see internal/core's classifyAttempt; the commit at the
// episode's end makes every decision).
package scheduler

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"philly/internal/cluster"
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
	queue []*Job
	// running is the VC's running set in runningOrder — oldest episode
	// first, so the tail is the youngest — and used is its GPU total. Both
	// change only through addRunning and removeRunning. Every reader takes
	// its order from this slice or from an explicit comparison with an ID
	// tie-break, so no reader copies or re-sorts it.
	running []*Job
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

// runningOrder is the running set's one total order: StartedAt ascending,
// ties by ID descending, so the youngest episode — lowest ID among equals —
// is last. Fair-share preemption takes its victims from the tail.
func runningOrder(a, b *Job) int {
	if c := cmp.Compare(a.StartedAt, b.StartedAt); c != 0 {
		return c
	}
	return cmp.Compare(b.ID, a.ID)
}

// addRunning inserts a started job at its runningOrder position. Starts
// happen at the current time, which never goes backwards, so the insert
// lands in the tail's same-instant group.
func (vc *vcState) addRunning(j *Job) {
	i, _ := slices.BinarySearchFunc(vc.running, j, runningOrder)
	vc.running = slices.Insert(vc.running, i, j)
	vc.used += j.GPUs
}

// removeRunning deletes a job from the running set. A job the search
// cannot find means the order was broken, which must not pass silently.
func (vc *vcState) removeRunning(j *Job) {
	i, ok := slices.BinarySearchFunc(vc.running, j, runningOrder)
	if !ok || vc.running[i] != j {
		panic(fmt.Sprintf("scheduler: job %d missing from VC %q's running set", j.ID, vc.Name))
	}
	vc.running = slices.Delete(vc.running, i, i+1)
	vc.used -= j.GPUs
}

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
	// PlacementSearches counts cluster placement searches. Every search
	// runs inline where its result is used, so it is a pure function of
	// the scheduling sequence, bit-identical across worker counts and
	// engines.
	PlacementSearches int
	// CacheShortCircuits, SpeculativeCommits and SpeculativeConflicts are
	// always 0: they counted the placement search's negative-result cache
	// and speculative placement, both removed. They remain only because
	// the benchmark module reads them; its next revision deletes them
	// together with its scheduler.cache_* and scheduler.spec_* metrics.
	CacheShortCircuits   int
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
	// vcList holds the VCs sorted by name — the one VC walk order every
	// scheduling loop, VCIndex and VCNames use.
	vcList []*vcState
	stats  Stats

	// victimScratch is the reused fair-share victim buffer: victims are
	// gathered across VCs before any is preempted.
	victimScratch []victimRef
	// startsBuf and preemptBuf back PumpResult's event slices across Pumps.
	startsBuf  []StartEvent
	preemptBuf []PreemptEvent
}

// victimRef pairs a preemption victim with its VC.
type victimRef struct {
	vc *vcState
	j  *Job
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
		st := &vcState{VC: vc}
		s.vcs[vc.Name] = st
		s.vcList = append(s.vcList, st)
	}
	slices.SortFunc(s.vcList, func(a, b *vcState) int { return strings.Compare(a.Name, b.Name) })
	return s, nil
}

// Stats returns a copy of the counters, with the placement-search total
// read from the cluster.
func (s *Scheduler) Stats() Stats {
	st := s.stats
	st.PlacementSearches = s.cluster.SearchStats()
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
func (s *Scheduler) Withdraw(j *Job) error {
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
	names := make([]string, len(s.vcList))
	for i, vc := range s.vcList {
		names[i] = vc.Name
	}
	return names
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
func (s *Scheduler) Release(j *Job, now simulation.Time) error {
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
	vc.removeRunning(j)
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
	for s.pumpOnce(now, &res) {
	}
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

// tryStart attempts to place and start one job.
func (s *Scheduler) tryStart(vc *vcState, j *Job, now simulation.Time, res *PumpResult) bool {
	level := s.localityFor(j)
	p, ok := s.cluster.FindPlacement(j.GPUs, level)
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
	// StartedAt first: it is the running set's sort key.
	j.StartedAt = now
	j.Placement = p
	delay := now - j.EnqueuedAt
	j.TotalQueueDelay += delay
	if j.FirstStartAt == 0 && j.FirstQueueDelay < 0 {
		j.FirstStartAt = now
		j.FirstQueueDelay = delay
	}
	j.OutOfOrderStart = j.OutOfOrderStart || ooo
	vc.addRunning(j)

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
	victim.State = StateQueued
	victim.EnqueuedAt = now
	victim.NextAttempt = now + s.cfg.Backoff
	victim.Attempts = 0
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
		// (least progress lost to the checkpoint restore): each running
		// set's tail, walked backwards.
		victims := s.victimScratch[:0]
		freed := s.cluster.FreeGPUs()
		for _, ovc := range s.vcList {
			if ovc.used <= ovc.Quota {
				continue
			}
			overBy := ovc.used - ovc.Quota
			for i := len(ovc.running) - 1; i >= 0 && freed < entitled.GPUs && overBy > 0; i-- {
				c := ovc.running[i]
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
// warranted. One pass over the running set keeps the eligible job with the
// largest key, ties to the lowest ID: the most remaining work (SRTF), the
// most attained service (Tiresias), or the earliest start among jobs past
// the quantum (Gandiva's longest holder).
func (s *Scheduler) pickVictim(vc *vcState, waiting *Job, now simulation.Time) *Job {
	var worst *Job
	var worstKey float64
	for _, r := range vc.running {
		if now-r.StartedAt < s.cfg.PreemptMinRun {
			continue
		}
		if r.GPUs < waiting.GPUs {
			continue // preempting smaller jobs cannot free enough capacity
		}
		var key float64
		switch s.cfg.Policy {
		case PolicySRTF:
			key = r.RemainingSeconds
		case PolicyTiresias:
			key = r.AttainedGPUSeconds(now)
		case PolicyGandiva:
			if now-r.StartedAt < s.cfg.GandivaQuantum {
				continue
			}
			key = -float64(r.StartedAt)
		default:
			return nil
		}
		if worst == nil || key > worstKey || (key == worstKey && r.ID < worst.ID) {
			worst, worstKey = r, key
		}
	}
	if worst == nil {
		return nil
	}
	switch s.cfg.Policy {
	case PolicySRTF:
		// Preempt only if the waiting job has strictly less remaining work.
		if waiting.RemainingSeconds < worstKey {
			return worst
		}
	case PolicyTiresias:
		// Preempt only if the waiting job has strictly less attained
		// service (LAS).
		if waiting.AttainedGPUSeconds(now) < worstKey {
			return worst
		}
	case PolicyGandiva:
		// Time-slice: rotate out the job that has held GPUs the longest.
		return worst
	}
	return nil
}

// RunningJobs returns all running jobs in VC walk order, each VC's in
// running order (oldest episode first).
func (s *Scheduler) RunningJobs() []*Job {
	var out []*Job
	for _, vc := range s.vcList {
		out = append(out, vc.running...)
	}
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
