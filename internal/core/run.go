package core

import (
	"fmt"

	"philly/internal/cluster"
	"philly/internal/failures"
	"philly/internal/faults"
	"philly/internal/joblog"
	"philly/internal/par"
	"philly/internal/perfmodel"
	"philly/internal/scheduler"
	"philly/internal/simulation"
	"philly/internal/stats"
	"philly/internal/telemetry"
	"philly/internal/training"
	"philly/internal/workload"
)

// AttemptResult records one execution attempt of a job.
type AttemptResult struct {
	// Index is the 0-based attempt number.
	Index int
	// StartAt and EndAt bound the attempt's running episode(s).
	StartAt, EndAt simulation.Time
	// QueueDelay is the queueing delay preceding this attempt.
	QueueDelay simulation.Time
	// Servers is the placement spread at start; Colocated and CrossRack
	// describe the placement at start.
	Servers   int
	Colocated bool
	CrossRack bool
	// Locality is the constraint level the placement satisfied.
	Locality cluster.Locality
	// Failed marks attempts ending in a failure.
	Failed bool
	// PlannedReason is the failure model's ground-truth reason code ("" for
	// clean attempts).
	PlannedReason string
	// ClassifiedReason is what the log classifier attributed ("" for clean
	// attempts), parsed from the synthetic stderr log.
	ClassifiedReason string
	// RuntimeMinutes is the attempt's total running time (across
	// preemption-split episodes). For failed attempts this is the realized
	// runtime-to-failure.
	RuntimeMinutes float64
}

// ConvergenceResult summarizes a job's loss curve (Figure 8 inputs).
type ConvergenceResult struct {
	// EpochsRun is the number of epochs the job executed.
	EpochsRun int
	// FractionForLowest is BestEpoch / EpochsRun.
	FractionForLowest float64
	// FractionWithinTenth is EpochWithin(0.1%) / EpochsRun.
	FractionWithinTenth float64
}

// JobResult is the per-job study output.
type JobResult struct {
	// Spec echoes the generated job.
	Spec workload.JobSpec
	// Completed reports whether the job reached a final status before the
	// simulation horizon; incomplete jobs are excluded from analysis.
	Completed bool
	// Outcome is the final status.
	Outcome failures.Outcome
	// FirstStartAt / EndAt bound the job's life; FirstQueueDelay is the
	// paper's queueing-delay metric (first scheduling episode).
	FirstStartAt, EndAt simulation.Time
	FirstQueueDelay     simulation.Time
	// TotalQueueDelay accumulates across retries and preemptions.
	TotalQueueDelay simulation.Time
	// RunMinutes is total time spent holding GPUs; GPUMinutes multiplies
	// by the gang width.
	RunMinutes, GPUMinutes float64
	// Retries counts re-executions after failures.
	Retries int
	// Preemptions counts scheduler preemptions.
	Preemptions int
	// MaxServers is the widest spread across attempts; LastServers the
	// final attempt's spread.
	MaxServers, LastServers int
	// EverColocated reports whether any attempt shared servers at start.
	EverColocated bool
	// DelayCause classifies the dominant queueing-delay cause.
	DelayCause scheduler.DelayCause
	// FairShareBlocks / FragBlocks count blocked attempts by cause.
	FairShareBlocks, FragBlocks int
	// OutOfOrderStart / Overtaken reproduce §3.1.1's ordering stats.
	OutOfOrderStart, Overtaken bool
	// MeanUtil is the job's mean per-minute GPU utilization.
	MeanUtil float64
	// Offloaded marks a job withdrawn from this cluster's queue by a
	// federation spillover decision (see internal/federation): it never ran
	// here and is excluded from this cluster's analysis like an incomplete
	// job; the receiving member's copy carries the outcome.
	Offloaded bool
	// Spillover marks a job injected into this cluster by federation
	// spillover — it originated on another member cluster.
	Spillover bool
	// OutageKills counts attempts killed by infrastructure outages
	// (internal/faults), as opposed to the job's own planned failures.
	OutageKills int
	// LostGPUMinutes is GPU time destroyed by outage kills: the wall time
	// since the last periodic checkpoint (the whole episode when the
	// checkpoint cost model is off), times the gang width.
	LostGPUMinutes float64
	// CkptGPUMinutes is GPU time spent on checkpoint economics: periodic
	// checkpoint writes plus post-outage restores.
	CkptGPUMinutes float64
	// Evacuated marks a job checkpoint-migrated OUT of this cluster by a
	// federation evacuation: the GPU time it burned here stays charged
	// here, but the job itself — like an Offloaded one — completes on the
	// receiving member, whose copy carries the outcome.
	Evacuated bool
	// Resumed marks a Spillover copy that was injected with checkpointed
	// progress (the receiving side of an evacuation).
	Resumed bool
	// Attempts lists per-attempt records.
	Attempts []AttemptResult
	// Convergence is non-nil for jobs whose logs include loss curves.
	Convergence *ConvergenceResult
}

// StudyResult is everything a study produces.
type StudyResult struct {
	// Config echoes the run configuration.
	Config Config
	// Jobs holds one entry per generated job, in ID order.
	Jobs []JobResult
	// Telemetry is the aggregated per-minute hardware telemetry.
	Telemetry *telemetry.Recorder
	// Sched echoes the scheduler's counters.
	Sched scheduler.Stats
	// TotalGPUs is the cluster capacity.
	TotalGPUs int
	// SimEnd is the simulated time at which the run stopped.
	SimEnd simulation.Time
	// OccupancySamples pairs cluster occupancy with the fraction of
	// completely empty servers, sampled each telemetry tick (fragmentation
	// evidence, §3.1.1).
	OccupancySamples []OccupancySample
	// Outages summarizes the correlated-outage engine's activity (zero
	// value when faults are disabled).
	Outages OutageStats
}

// OccupancySample is one cluster-state observation.
type OccupancySample struct {
	At           simulation.Time
	Occupancy    float64
	EmptyServers float64
	// DownGPUs is the fraction of cluster capacity held down by outages at
	// this tick (0 when faults are disabled).
	DownGPUs float64
}

// jobState is the study's runtime bookkeeping for one job. Each per-job
// quantity has one home: run and GPU time live in res (charged by
// chargeEpisode), the ideal-placement work remaining for the final (clean)
// attempt lives in sched.RemainingSeconds (the scheduler's SRTF key, set
// at Arm or inject and cut by retainPreempted and salvageToCheckpoint),
// and the utilization samples live in usage.
type jobState struct {
	spec  *workload.JobSpec
	sched *scheduler.Job
	res   *JobResult

	// attemptIdx indexes the current attempt (0-based).
	attemptIdx int
	// baseUtil is the per-job utilization level for the current episode.
	baseUtil float64
	// slowdown is the current episode's placement slowdown.
	slowdown float64
	// episodeStart marks the current running episode.
	episodeStart simulation.Time
	// attemptRunSec accumulates running seconds within the current attempt
	// (across preemption splits).
	attemptRunSec float64
	// attemptOpen marks that the current attempt already has a result
	// record (a resumption after preemption must not open a new one).
	attemptOpen bool
	// idx is the job's index in StudyResult.Jobs.
	idx int
	// meta is the telemetry grouping key for the current episode.
	meta telemetry.JobMeta
	// usage accumulates the job's per-minute utilization samples: the
	// telemetry tick folds into it, and finalize reads its mean.
	usage telemetry.JobUsage
	// stream is the job's pre-split utilization stream — splitmix64-derived
	// from (studySeed, jobID), seeded in place on first start (streamInit).
	// Both the per-episode base draw and the per-minute samples come from
	// it, so the job's utilization trajectory depends only on its own
	// stream and episode history, never on which worker samples it or
	// which other jobs run.
	stream     stats.RNG
	streamInit bool
	// logStream is the job's private failure-log stream (rendering and
	// classification draws), derived from (studySeed, "job-logs", jobID)
	// and seeded lazily on first use. Per-job keying is what makes log
	// classification a shard-local computation: the draws depend only on
	// this job's failure history, never on which other jobs failed first.
	logStream stats.RNG
	logInit   bool
	// pendingRestoreSec is wall time the next episode must spend restoring
	// from a checkpoint before making progress (set by an outage kill or a
	// federation evacuation, consumed by onStart).
	pendingRestoreSec float64
	// runIdx is the job's slot in the study's running list, -1 when absent.
	runIdx int
	// finishSeq guards stale finish events after a preemption.
	finishSeq int
	running   bool

	// shard is the event lane of the job's VC: the job's one shard-local
	// event, classifyAttempt, runs there.
	shard simulation.ShardID
	// stagedClassified is what classifyAttempt attributed the failing
	// attempt stagedAttempt to, for commitFinish to publish. A failing
	// attempt's log is rendered and classified once: a preemption splits
	// the attempt into more episodes but does not change its outcome, so a
	// resume finds stagedAttempt == attemptIdx and classifies nothing.
	stagedClassified string
	stagedAttempt    int
}

// plannedAttempts returns the total attempts the job will make.
func (js *jobState) plannedAttempts() int { return js.spec.Plan.TotalAttempts() }

// currentFailure returns the failure plan for the current attempt, or nil
// if the attempt runs clean.
func (js *jobState) currentFailure() *failures.AttemptPlan {
	if js.attemptIdx < len(js.spec.Plan.FailedAttempts) {
		return &js.spec.Plan.FailedAttempts[js.attemptIdx]
	}
	return nil
}

// Study is a configured, runnable reproduction.
type Study struct {
	cfg Config

	// engine is the event executor: the sequential simulation.Engine by
	// default, or a simulation.Fleet with one lane per VC after
	// ShardEvents. Results are bit-identical either way (see
	// PERFORMANCE.md).
	engine  simulation.Executor
	sharded *simulation.Fleet // non-nil iff engine is sharded
	cluster *cluster.Cluster
	sched   *scheduler.Scheduler
	util    *perfmodel.Model
	host    *perfmodel.HostModel
	rec     *telemetry.Recorder
	gen     *workload.Generator
	clf     *joblog.Classifier

	// shardCtxs holds one render context per event shard (one per VC). A
	// job's classifyAttempt always runs on its VC's shard, so a context is
	// never used by two shards at once, and finalize's convergence analysis
	// borrows the job's context at a barrier, when no shard runs; the
	// sequential engine uses the same contexts (one event at a time), which
	// keeps the two engines trivially identical on this state.
	shardCtxs []shardCtx

	// hostStreams holds one pre-split stream per server (index = server
	// ID), splitmix64-derived from (studySeed, serverID): server i's host
	// samples depend only on its own stream and the tick count, never on
	// the other servers' draws.
	hostStreams []stats.RNG

	// pool is the shared fork-join worker pool for ShardEvents' Fleet
	// windows (nil = run everything inline). Parallelism never changes
	// results: Fleet windows merge in (at, seq) order.
	pool *par.Pool

	// detReason marks failure-reason codes that reproduce deterministically
	// (AdaptiveRetry consults it with the *classified* reason, as a real
	// deployment would).
	detReason map[string]bool

	// horizon is the armed run bound (set by Arm).
	horizon simulation.Time
	// armed guards against a second Arm double-scheduling arrivals.
	armed bool

	// jobStates and schedJobs are the flattened per-job state arenas: one
	// contiguous allocation each for every generated job (slot = job index),
	// laid out at Arm. Injected (federation-spillover) jobs arrive at run
	// time and stay individually allocated. The arenas cut per-job
	// allocations and GC pointer-chasing at million-job trace scale;
	// scheduler events resolve back to arena slots through Job.Tag.
	jobStates []jobState
	schedJobs []scheduler.Job
	// states indexes EVERY job (arena slots and injected) by cluster job
	// ID, for the cold ID-keyed paths: outage kills, federation offload/
	// evacuation. Hot paths use stateOf, which avoids the map.
	states map[cluster.JobID]*jobState
	// attemptFree recycles released attempt slices between jobs when a job
	// observer is streaming results out (see StreamJobs); without an
	// observer records are retained and nothing is recycled.
	attemptFree [][]AttemptResult
	// extra holds results of jobs injected after construction (federation
	// spillover). They live behind pointers so jobState.res stays valid as
	// more arrive; Collect appends them after the generated jobs.
	extra []*JobResult
	// injectSeq numbers injected jobs; their IDs start at injectIDBase.
	injectSeq int64
	// running is the insertion-ordered running set for telemetry. Removal
	// tombstones the slot (nil) and compaction preserves order, so the
	// telemetry walk draws per-job RNG samples in exactly the order the
	// remove-by-scan implementation produced, while removal itself is O(1)
	// via jobState.runIdx.
	running     []*jobState
	runningLive int
	results     []JobResult
	occ         []OccupancySample

	// jobObserver, when set, streams each job's completed result out of the
	// study (see StreamJobs).
	jobObserver func(i int, r *JobResult)

	// outages is the pre-drawn outage plan (nil when faults are disabled).
	// The whole plan is scheduled as global events at Arm, so outage
	// effects are barrier-only on every engine — that is what keeps
	// outage-enabled studies on the bit-identical invariance contract.
	outages []faults.Outage
	// downCount[serverID] counts overlapping outages currently holding the
	// server; heldGPUs is the total capacity held by outage sentinels.
	downCount []int
	heldGPUs  int
	// outStats accumulates outage/checkpoint telemetry; outageDownSec sums
	// each event's horizon-clamped duration (the ETTR numerator).
	outStats      OutageStats
	outageDownSec float64

	pending   int // jobs not yet finalized
	wakeAt    simulation.Time
	wakeArmed bool
}

// shardCtx is the scratch state of a job's log work — classifyAttempt on
// the job's shard, convergence analysis at a barrier: the failure/training-
// log render buffer and the loss-parse buffer. Everything in it is pure
// scratch — the bytes and floats produced depend only on the inputs and
// the per-job streams, never on which shard (or engine) ran the
// computation, so per-shard contexts cannot perturb results.
type shardCtx struct {
	logGen      *joblog.Generator
	lossScratch []float64
}

// NumJobs returns the number of generated jobs in the study.
func (s *Study) NumJobs() int { return len(s.results) }

// StreamJobs registers fn to be called once per job, at the moment the job
// reaches its terminal state, with the job's index in StudyResult.Jobs and
// its fully populated result. After fn returns, the record's variable-size
// parts (per-attempt list, convergence curve summary) are released so a
// paper-scale run's peak memory tracks the running set, not the whole
// workload — the scalar fields remain in StudyResult.Jobs. Jobs that never
// complete before the horizon are not streamed and keep full records.
//
// Must be called before Run; fn runs on the simulation goroutine.
func (s *Study) StreamJobs(fn func(i int, r *JobResult)) { s.jobObserver = fn }

// NewStudy builds a study from the configuration.
func NewStudy(cfg Config) (*Study, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	master := stats.NewRNG(cfg.Seed)
	wlRNG := master.Split("workload")
	// The faults stream is split unconditionally, AFTER the workload split:
	// the workload stream's content is already fixed, and master is never
	// drawn again, so faults-off results are bit-identical to builds that
	// predate the outage engine.
	ftRNG := master.Split("faults")

	gen, err := workload.NewGenerator(cfg.Workload, wlRNG)
	if err != nil {
		return nil, err
	}
	cl, err := cluster.New(cfg.Cluster)
	if err != nil {
		return nil, err
	}
	var vcs []scheduler.VC
	for _, vc := range cfg.Workload.VCs {
		vcs = append(vcs, scheduler.VC{Name: vc.Name, Quota: vc.QuotaGPUs})
	}
	sched, err := scheduler.New(cfg.Scheduler, cl, vcs)
	if err != nil {
		return nil, err
	}
	util, err := perfmodel.NewModel(cfg.Util)
	if err != nil {
		return nil, err
	}
	s := &Study{
		cfg:       cfg,
		engine:    simulation.NewEngine(),
		cluster:   cl,
		sched:     sched,
		util:      util,
		host:      perfmodel.NewHostModel(cfg.Host),
		rec:       telemetry.NewRecorder(),
		gen:       gen,
		clf:       joblog.NewClassifier(),
		states:    map[cluster.JobID]*jobState{},
		detReason: map[string]bool{},
	}
	s.shardCtxs = make([]shardCtx, sched.NumVCs())
	for i := range s.shardCtxs {
		s.shardCtxs[i].logGen = joblog.NewGenerator()
	}
	// Pre-split one host-telemetry stream per server. Utilization streams
	// are per-job and derived lazily on first start (see onStart); both use
	// the same stateless (seed, label, id) derivation, so no stream's
	// content depends on any other stream's draw count.
	s.hostStreams = make([]stats.RNG, cl.NumServers())
	for i := range s.hostStreams {
		s.hostStreams[i].Init(stats.DeriveEntitySeed(cfg.Seed, "host", uint64(i)))
	}
	for code, r := range failures.ByCode() {
		s.detReason[code] = r.Deterministic
	}
	specs := gen.Generate(wlRNG)
	s.results = make([]JobResult, len(specs))
	for i := range specs {
		// A replayed trace may ask for more GPUs than this cluster has; the
		// scheduler would refuse the job mid-run, so refuse the study here.
		if err := s.checkWidth(&specs[i]); err != nil {
			return nil, err
		}
		s.results[i].Spec = specs[i]
	}
	if cfg.Faults.Enabled {
		topo := faults.Topology{RackServers: make([]int, len(cfg.Cluster.Racks))}
		for i, rc := range cfg.Cluster.Racks {
			topo.RackServers[i] = rc.Servers
		}
		s.outages = faults.Plan(cfg.Faults, topo, s.Horizon(), ftRNG)
		s.downCount = make([]int, cl.NumServers())
	}
	return s, nil
}

// ShardEvents switches the study onto per-VC event sharding: a
// simulation.Fleet with one lane per virtual cluster, every event
// scheduled from global context. Results are bit-identical with it on or
// off — sharding, like SetPool, changes wall-clock only. Must be called
// before Run.
//
// The Fleet advances lanes in bounded virtual-time windows: shard-local
// events (a failing attempt's log rendering and classification) run
// concurrently across VCs inside a window, while every event that touches
// shared state — scheduler pumps, placement, telemetry ticks, job state
// transitions, convergence analysis — executes alone at window barriers
// in the sequential engine's exact (at, seq) order. See
// internal/simulation's package documentation for the determinism
// contract.
func (s *Study) ShardEvents() {
	s.sharded = simulation.NewFleet(s.sched.NumVCs())
	s.engine = s.sharded
}

// WindowStats returns the sharded executor's deterministic window statistics
// (zero value when the study runs on the sequential engine). Tests use it
// to assert that multiple shards actually advanced within single windows.
func (s *Study) WindowStats() simulation.WindowStats {
	if s.sharded == nil {
		return simulation.WindowStats{}
	}
	return s.sharded.Stats()
}

// SetPool attaches a shared fork-join worker pool for intra-study
// parallelism: under ShardEvents the event windows fan out across it; on
// the sequential engine nothing does, and the pool goes unused. Must be
// called before Run. The pool changes wall-clock only — StudyResult is
// bit-identical for any pool size, including none (see PERFORMANCE.md for
// the determinism argument).
//
// The pool may be shared with other studies and with internal/sweep's
// across-study workers: shards are handed only to workers that are idle at
// that instant, so a fully busy pool degrades gracefully to inline
// execution with zero oversubscription.
func (s *Study) SetPool(p *par.Pool) { s.pool = p }

// Run executes the study to completion and returns the result.
func (s *Study) Run() (*StudyResult, error) {
	horizon := s.Arm()
	s.engine.Run(horizon)
	return s.Collect()
}

// Horizon returns the simulated-time bound the study runs to.
func (s *Study) Horizon() simulation.Time {
	return simulation.Time(float64(s.cfg.Workload.Duration) * s.cfg.HorizonFactor)
}

// SetExecutor replaces the study's event engine — the hook internal/
// federation uses to run a study as one member of a fleet, on a
// simulation.Member view. Must be called before Arm/Run; it supersedes a
// prior ShardEvents call (the member's lane is one sequential timeline,
// like the sequential Engine, so results are bit-identical either way).
func (s *Study) SetExecutor(ex simulation.Executor) {
	s.engine = ex
	s.sharded = nil
}

// PendingJobs returns how many jobs have not yet reached a terminal state
// (federation tickers use it to decide whether to keep firing).
func (s *Study) PendingJobs() int { return s.pending }

// Arm schedules the study's initial events — job arrivals, the telemetry
// ticker, defragmentation sweeps — onto the engine and returns the run
// horizon, without running anything. Run is Arm + engine.Run + Collect;
// internal/federation arms each member study on its fleet lane and lets
// the coordinator drive all lanes inside one virtual timeline.
func (s *Study) Arm() simulation.Time {
	if s.armed {
		// A second Arm would schedule every arrival twice; the first
		// duplicate Submit then fails on an already-queued (or by then
		// running) job with a message that looks like a scheduler bug.
		// Fail at the actual mistake instead.
		panic("core: Study.Arm called twice (Run arms the study itself)")
	}
	s.armed = true
	horizon := s.Horizon()
	s.horizon = horizon

	if s.sharded != nil {
		// Window fork-joins draw on the same budget as every other
		// parallel layer; a nil pool runs windows inline.
		s.sharded.SetPool(s.pool)
	}

	// Lay the per-job state out in the arenas (one allocation each, slot =
	// job index) and wire scheduler jobs back to their slots via Tag. A
	// job's local events run on its VC's event lane (the VC index), which
	// depends only on the configured VC names, so it is identical across
	// runs and engines.
	s.jobStates = make([]jobState, len(s.results))
	s.schedJobs = make([]scheduler.Job, len(s.results))
	for i := range s.results {
		res := &s.results[i]
		spec := &res.Spec
		sj := &s.schedJobs[i]
		scheduler.InitJob(sj, cluster.JobID(spec.ID), spec.VC, spec.GPUs, spec.SubmitAt)
		sj.Tag = i
		js := &s.jobStates[i]
		*js = jobState{
			spec:          spec,
			res:           res,
			idx:           i,
			runIdx:        -1,
			stagedAttempt: -1,
			shard:         simulation.ShardID(s.sched.VCIndex(spec.VC)),
			sched:         sj,
		}
		sj.RemainingSeconds = s.cleanWorkSeconds(spec)
		s.states[sj.ID] = js
		s.pending++
	}

	// Arrivals. Consecutive same-instant submissions share ONE global event
	// that submits and pumps each job in original order — on the sharded
	// engine an arrival storm then costs a single window barrier instead of
	// one per job. This is bit-identical to per-job events: same-instant
	// arrival events carried contiguous (at, seq) keys below every event a
	// pump can schedule, so the fused loop replays exactly the order the
	// sequential engine executed.
	for i := 0; i < len(s.results); {
		j := i + 1
		at := s.results[i].Spec.SubmitAt
		for j < len(s.results) && s.results[j].Spec.SubmitAt == at {
			j++
		}
		lo, hi := i, j
		s.engine.At(at, func() {
			now := s.engine.Now()
			for k := lo; k < hi; k++ {
				js := &s.jobStates[k]
				if err := s.sched.Submit(js.sched, now); err != nil {
					panic(fmt.Sprintf("core: submit job %d: %v", js.spec.ID, err))
				}
				s.pump()
			}
		})
		i = j
	}

	// Telemetry ticker. Preallocate the occupancy series for the expected
	// tick count so per-tick appends never regrow it.
	s.occ = make([]OccupancySample, 0, int(horizon/s.cfg.TelemetryInterval)+2)
	s.engine.Ticker(0, s.cfg.TelemetryInterval, func(now simulation.Time) bool {
		s.sampleTelemetry(now)
		return now < horizon && s.pending > 0
	})

	// Outage begin/repair events. Scheduled here, in global context and in
	// plan order, so the sharded engine assigns them exactly the (at, seq)
	// keys the sequential engine would; every outage effect (kills, holds,
	// repairs) then executes alone at window barriers.
	for i := range s.outages {
		o := s.outages[i]
		s.engine.At(o.At, func() { s.beginOutage(o) })
		end := o.At + o.Duration
		if end < horizon {
			s.engine.At(end, func() { s.endOutage(o) })
		}
	}

	// Defragmentation sweeps (§5 migration guideline), when enabled.
	if s.cfg.Defrag.Enabled {
		d := s.cfg.Defrag
		s.engine.Ticker(d.Interval, d.Interval, func(now simulation.Time) bool {
			moved := s.sched.Defrag(now, d.MaxWidth, d.MaxMovesPerSweep)
			for _, ev := range moved {
				s.onMigrate(ev, now)
			}
			if len(moved) > 0 {
				// Consolidated servers may unblock waiting gangs.
				s.pump()
			}
			return now < horizon && s.pending > 0
		})
	}

	return horizon
}

// Collect finalizes an armed-and-run study into its result.
func (s *Study) Collect() (*StudyResult, error) {
	if s.engine.Processed() >= s.cfg.MaxEvents {
		return nil, fmt.Errorf("core: event budget %d exhausted", s.cfg.MaxEvents)
	}
	jobs := s.results
	if len(s.extra) > 0 {
		// Injected spillover jobs follow the generated trace, in injection
		// order (which is deterministic: injections happen only at fleet
		// barriers).
		jobs = make([]JobResult, 0, len(s.results)+len(s.extra))
		jobs = append(jobs, s.results...)
		for _, r := range s.extra {
			jobs = append(jobs, *r)
		}
	}
	out := s.outStats
	if out.Events > 0 {
		out.ETTFHours = s.engine.Now().Hours() / float64(out.Events)
		out.ETTRHours = s.outageDownSec / 3600 / float64(out.Events)
	}
	return &StudyResult{
		Config:           s.cfg,
		Jobs:             jobs,
		Telemetry:        s.rec,
		Sched:            s.sched.Stats(),
		TotalGPUs:        s.cluster.TotalGPUs(),
		SimEnd:           s.engine.Now(),
		OccupancySamples: s.occ,
		Outages:          out,
	}, nil
}

// checkWidth refuses a job whose gang cannot fit this cluster at all.
func (s *Study) checkWidth(spec *workload.JobSpec) error {
	if spec.GPUs <= 0 || spec.GPUs > s.cluster.TotalGPUs() {
		return fmt.Errorf("core: job %d requests %d GPUs but the cluster has %d",
			spec.ID, spec.GPUs, s.cluster.TotalGPUs())
	}
	return nil
}

// cleanWorkSeconds is the ideal-placement duration of the job's clean run:
// full training for passed jobs, the kill fraction for killed jobs, zero
// for unsuccessful jobs (they only ever run failing attempts).
func (s *Study) cleanWorkSeconds(spec *workload.JobSpec) float64 {
	switch spec.Plan.Outcome {
	case failures.Passed:
		return spec.Train.IdealRuntimeSeconds()
	case failures.Killed:
		return spec.Train.IdealRuntimeSeconds() * spec.Plan.KillFraction
	default:
		return 0
	}
}

// pump advances the scheduler and processes its decisions in the order the
// scheduler made them (a job can start and be preempted within one Pump).
func (s *Study) pump() {
	now := s.engine.Now()
	res := s.sched.Pump(now)
	si, pi := 0, 0
	for si < len(res.Starts) || pi < len(res.Preemptions) {
		switch {
		case pi >= len(res.Preemptions):
			s.onStart(res.Starts[si], now)
			si++
		case si >= len(res.Starts):
			s.onPreempt(res.Preemptions[pi], now)
			pi++
		case res.Starts[si].Seq < res.Preemptions[pi].Seq:
			s.onStart(res.Starts[si], now)
			si++
		default:
			s.onPreempt(res.Preemptions[pi], now)
			pi++
		}
	}
	if res.NextWake > now {
		// Coalesce wake-ups: keep the earliest armed timer.
		if !s.wakeArmed || res.NextWake < s.wakeAt {
			s.wakeArmed = true
			s.wakeAt = res.NextWake
			at := res.NextWake
			s.engine.At(at, func() {
				if s.wakeArmed && s.wakeAt == at {
					s.wakeArmed = false
				}
				s.pump()
			})
		}
	}
}

// stateOf resolves a scheduler job back to its jobState. Arena jobs carry
// their slot index in Tag, validated by pointer identity so a stale or
// zero Tag (injected spillover jobs) can never alias another slot; those
// fall back to the ID map, which indexes every job.
func (s *Study) stateOf(j *scheduler.Job) *jobState {
	if t := j.Tag; t >= 0 && t < len(s.jobStates) && s.jobStates[t].sched == j {
		return &s.jobStates[t]
	}
	return s.states[j.ID]
}

// onStart begins a running episode for a job.
func (s *Study) onStart(ev scheduler.StartEvent, now simulation.Time) {
	js := s.stateOf(ev.Job)
	if js == nil {
		panic(fmt.Sprintf("core: start event for unknown job %d", ev.Job.ID))
	}
	shape := s.placeEpisode(js, ev.Placement, now)
	js.running = true
	if js.runIdx < 0 {
		js.runIdx = len(s.running)
		s.running = append(s.running, js)
		s.runningLive++
	}

	// New attempt (vs resumption after preemption)?
	if !js.attemptOpen {
		js.attemptOpen = true
		if js.res.Attempts == nil {
			if n := len(s.attemptFree); n > 0 {
				// Reuse a slice recycled by finalize (streaming runs only);
				// contents were zero-length-truncated there.
				js.res.Attempts = s.attemptFree[n-1]
				s.attemptFree = s.attemptFree[:n-1]
			} else {
				// The failure plan fixes the attempt count up front; size the
				// record once instead of regrowing per retry.
				js.res.Attempts = make([]AttemptResult, 0, js.plannedAttempts())
			}
		}
		js.res.Attempts = append(js.res.Attempts, AttemptResult{
			Index:      js.attemptIdx,
			StartAt:    now,
			QueueDelay: now - js.sched.EnqueuedAt,
			Servers:    shape.Servers,
			Colocated:  shape.Colocated,
			CrossRack:  shape.CrossRack,
			Locality:   ev.Locality,
		})
	}

	episodeSec := js.episodeSeconds()
	if js.pendingRestoreSec > 0 {
		// Restoring from the last checkpoint (after an outage kill or a
		// cross-member evacuation) stretches the episode; the cost is
		// attributed to checkpoint overhead up front.
		episodeSec += js.pendingRestoreSec
		s.accountCkptOverhead(js, js.pendingRestoreSec)
		js.pendingRestoreSec = 0
	}
	s.scheduleFinish(js, episodeSec, now)
}

// placeEpisode begins an episode on placement p at now and derives its
// placement-dependent parameters: the telemetry grouping key, the
// placement slowdown (with the checkpoint-write stretch) and the
// base-utilization draw from the job's private stream, seeded here on
// first start. onStart and onMigrate share it; a migrated job keeps its
// running-list slot, so the telemetry tick draws in the same order.
func (s *Study) placeEpisode(js *jobState, p cluster.Placement, now simulation.Time) perfmodel.JobShape {
	shape := perfmodel.JobShape{
		GPUs:      js.spec.GPUs,
		Servers:   p.NumServers(),
		Colocated: s.cluster.SharesServers(js.sched.ID),
		CrossRack: p.CrossRack(s.cluster),
	}
	js.meta = telemetry.JobMeta{
		GPUs:      js.spec.GPUs,
		Outcome:   js.spec.Plan.Outcome,
		Servers:   shape.Servers,
		Colocated: shape.Colocated,
	}
	if !js.streamInit {
		// Derivation is stateless in (seed, jobID), so stream content is
		// independent of start order.
		js.streamInit = true
		js.stream.Init(stats.DeriveEntitySeed(s.cfg.Seed, "job-util", uint64(js.spec.ID)))
	}
	js.slowdown = s.util.Slowdown(shape) * s.ckptFactor(js)
	js.baseUtil = s.util.JobBaseUtil(shape, js.spec.Plan.Outcome, &js.stream)
	js.episodeStart = now
	return shape
}

// episodeSeconds is the wall time an episode starting now runs to its end
// at the current slowdown: a failing attempt runs out its runtime-to-failure
// (the clock counts the attempt's cumulative runtime, so preemption splits
// do not reset it), a clean one its remaining work.
func (js *jobState) episodeSeconds() float64 {
	if fa := js.currentFailure(); fa != nil {
		return fa.RTFMinutes*60 - js.attemptRunSec
	}
	return js.sched.RemainingSeconds * js.slowdown
}

// ckptFactor is the wall-time stretch periodic checkpoint writes impose on
// a clean episode: every Interval of wall time pays WriteSeconds. Folding
// it into the episode slowdown keeps every downstream computation —
// episode length, preemption retention, outage-kill salvage — consistent
// without special cases. Failing attempts run at factor 1: their duration
// is fixed by the failure plan's runtime-to-failure clock.
func (s *Study) ckptFactor(js *jobState) float64 {
	ck := s.cfg.Checkpoint
	if !ck.Enabled || js.spec.Train.CheckpointEveryEpochs == 0 || js.currentFailure() != nil {
		return 1
	}
	return 1 + ck.WriteSeconds/float64(ck.Interval)
}

// accountCkptOverhead charges wall seconds of checkpoint write/restore
// activity to the job and the study totals.
func (s *Study) accountCkptOverhead(js *jobState, wallSec float64) {
	ovh := wallSec / 60 * float64(js.spec.GPUs)
	js.res.CkptGPUMinutes += ovh
	s.outStats.CkptOverheadGPUHours += ovh / 60
}

// scheduleFinish arms the episode's end: a global commitFinish at the
// episode's end, at least one second away, preceded on a failing attempt
// by a shard-local classifyAttempt at the CURRENT time. Both are scheduled
// here, in global context, so the sharded engine assigns them exactly the
// (at, seq) keys the sequential engine would.
//
// The classification runs at episode start rather than episode end
// because it is already determined here: the failure plan fixes whether
// and why this attempt fails, and the log draws come from the job's
// private stream. This is the conservative lookahead that lets per-VC
// lanes run it concurrently — every classification scheduled by one
// scheduling round (across all VCs) lands in the same virtual-time window.
// A preemption or migration before the commit bumps finishSeq, which
// invalidates both events; an invalidated classification draws nothing.
func (s *Study) scheduleFinish(js *jobState, episodeSec float64, now simulation.Time) {
	if episodeSec < 1 {
		episodeSec = 1
	}
	js.finishSeq++
	seq := js.finishSeq
	at := now + simulation.Time(episodeSec+0.5)
	if js.currentFailure() != nil {
		s.engine.AtShard(js.shard, now, func() { s.classifyAttempt(js, seq) })
	}
	s.engine.At(at, func() { s.commitFinish(js, seq) })
}

// chargeEpisode ends the running episode's accounting at now and returns
// its elapsed wall seconds: the time joins the attempt clock and the job's
// RunMinutes and GPUMinutes, and its checkpoint-write share is charged as
// overhead. Every way an episode ends — finish, preemption, migration,
// outage kill, evacuation — charges through here.
func (s *Study) chargeEpisode(js *jobState, now simulation.Time) float64 {
	elapsed := float64(now - js.episodeStart)
	js.attemptRunSec += elapsed
	js.res.RunMinutes += elapsed / 60
	js.res.GPUMinutes += elapsed / 60 * float64(js.spec.GPUs)
	if f := s.ckptFactor(js); f > 1 {
		s.accountCkptOverhead(js, elapsed*(1-1/f))
	}
	return elapsed
}

// retainPreempted keeps the checkpointed share of a clean episode's
// progress when a preemption or migration cuts it short: the
// CheckpointRetention share of the elapsed wall time, at the episode's
// slowdown, for jobs that checkpoint at all. The rest is re-run; the
// attempt clock already counts it, so its GPU time stays charged. A
// failing attempt keeps only its runtime-to-failure clock.
func (s *Study) retainPreempted(js *jobState, elapsed float64) {
	if js.currentFailure() != nil {
		return
	}
	retention := 0.0
	if js.spec.Train.CheckpointEveryEpochs > 0 {
		retention = s.cfg.CheckpointRetention
	}
	js.sched.RemainingSeconds = max(js.sched.RemainingSeconds-elapsed/js.slowdown*retention, 0)
}

// onPreempt suspends a running episode; the scheduler has already requeued
// the job.
func (s *Study) onPreempt(ev scheduler.PreemptEvent, now simulation.Time) {
	js := s.stateOf(ev.Job)
	if js == nil || !js.running {
		return
	}
	js.res.Preemptions++
	s.retainPreempted(js, s.chargeEpisode(js, now))
	s.removeRunning(js)
}

// onMigrate re-places a running job after a defragmentation move. The old
// episode ends like a preemption — charged, with the checkpointed share of
// its progress kept — and a new one begins on the new servers with the
// checkpoint-restore pause added to its wall time. The job stays on the
// running list.
func (s *Study) onMigrate(ev scheduler.MigrationEvent, now simulation.Time) {
	js := s.stateOf(ev.Job)
	if js == nil || !js.running {
		return
	}
	s.retainPreempted(js, s.chargeEpisode(js, now))
	s.placeEpisode(js, ev.Job.Placement, now)
	s.scheduleFinish(js, js.episodeSeconds()+s.cfg.Defrag.PauseSeconds, now)
}

// removeRunning stops the job's running episode: it clears running,
// invalidates the scheduled finish pair, and drops the job from the
// running set in O(1) by tombstoning its slot; the slice is compacted
// (order-preserving) once mostly dead.
func (s *Study) removeRunning(js *jobState) {
	js.running = false
	js.finishSeq++
	if js.runIdx < 0 {
		return
	}
	s.running[js.runIdx] = nil
	js.runIdx = -1
	s.runningLive--
	if len(s.running) > 64 && s.runningLive*2 < len(s.running) {
		live := s.running[:0]
		for _, r := range s.running {
			if r != nil {
				r.runIdx = len(live)
				live = append(live, r)
			}
		}
		// Clear the tail so dropped jobs are not retained.
		for i := len(live); i < len(s.running); i++ {
			s.running[i] = nil
		}
		s.running = live
	}
}

// classifyAttempt is the shard-local step of a failing attempt: it renders
// the attempt's stderr log and classifies it, once per attempt, staging the
// reason for commitFinish to publish. It runs on the job's VC shard at
// episode start, concurrently with other VCs' classifications inside the
// same virtual-time window.
//
// Everything read here is settled when it runs: the failure plan and spec
// are immutable, and the log stream and staging fields are written only
// by this job's own classifications, which execute in (at, seq) order on
// one shard lane. Both engines run the same schedule, so both classify at
// the same positions and draw the same log bytes.
func (s *Study) classifyAttempt(js *jobState, seq int) {
	if js.finishSeq != seq || !js.running || js.stagedAttempt == js.attemptIdx {
		// Superseded within the very scheduling round that armed it (a job
		// can start and be preempted in one Pump), or a resume of an
		// attempt already classified: draw nothing.
		return
	}
	sc := &s.shardCtxs[js.shard]
	js.stagedClassified = s.classify(sc, js, js.currentFailure().Reason.Code)
	js.stagedAttempt = js.attemptIdx
}

// commitFinish is the global end of an episode, executed at the window
// barrier at the episode's end time: account the episode, close the
// attempt record, release the gang, then decide. A clean attempt
// finalizes. A failing one publishes its staged classification and is
// retried through the queue (Figure 1's retry loop) until its retries run
// out, or, under AdaptiveRetry, until its classification says the failure
// will reproduce. Then the scheduler is pumped. Guarded by the same
// (finishSeq, running) pair as classifyAttempt, so both are valid or stale
// together.
func (s *Study) commitFinish(js *jobState, seq int) {
	if js.finishSeq != seq || !js.running {
		return // a preemption or migration superseded this finish
	}
	fa := js.currentFailure()
	if fa != nil && js.stagedAttempt != js.attemptIdx {
		panic(fmt.Sprintf("core: commit for job %d ran before its failing attempt was classified (engine ordering bug)", js.sched.ID))
	}
	now := s.engine.Now()
	s.chargeEpisode(js, now)
	s.removeRunning(js)
	if err := s.sched.Release(js.sched, now); err != nil {
		panic(fmt.Sprintf("core: release job %d: %v", js.sched.ID, err))
	}

	att := &js.res.Attempts[len(js.res.Attempts)-1]
	att.EndAt = now
	att.RuntimeMinutes = js.attemptRunSec / 60

	if fa != nil {
		att.Failed = true
		att.PlannedReason = fa.Reason.Code
		att.ClassifiedReason = js.stagedClassified
		js.attemptIdx++
		js.attemptRunSec = 0
		js.attemptOpen = false
	}
	switch {
	case fa != nil && s.cfg.AdaptiveRetry && s.isDeterministicReason(att.ClassifiedReason):
		// §5: the classifier says this failure will reproduce — stop
		// retrying instead of burning two more gangs' worth of GPUs.
		s.finalize(js, now)
	case fa != nil && js.attemptIdx < js.plannedAttempts():
		if err := s.sched.Submit(js.sched, now); err != nil {
			panic(fmt.Sprintf("core: resubmit job %d: %v", js.sched.ID, err))
		}
	default:
		// Clean completion (passed or killed), or out of retries.
		s.finalize(js, now)
	}
	s.pump()
}

// logRNG returns the job's private failure/training-log stream, seeding it
// on first use. The derivation is stateless in (studySeed, jobID) and this
// is the single site that performs it, so every consumer — failure
// classification, training-log rendering — continues one coherent stream
// no matter which touches it first.
func (s *Study) logRNG(js *jobState) *stats.RNG {
	if !js.logInit {
		js.logInit = true
		js.logStream.Init(stats.DeriveEntitySeed(s.cfg.Seed, "job-logs", uint64(js.spec.ID)))
	}
	return &js.logStream
}

// isDeterministicReason reports whether a classified failure code belongs
// to a deterministic class (unknown codes, including no_signature, are
// treated as possibly transient and stay retryable).
func (s *Study) isDeterministicReason(code string) bool { return s.detReason[code] }

// classify routes failure attribution through the log pipeline. The log is
// rendered into the shard context's reuse buffer from the job's private
// log stream and classified in place — the same text-mediated path, with
// no per-failure string materialization and no cross-job stream coupling:
// the draws depend only on (studySeed, jobID) and this job's failure
// history, which is what lets classification run as a shard-local event.
func (s *Study) classify(sc *shardCtx, js *jobState, reasonCode string) string {
	log := sc.logGen.FailureLogBytes(reasonCode, js.spec.GPUs, s.logRNG(js))
	return s.clf.ClassifyBytes(log)
}

// finalize records the job's terminal state.
func (s *Study) finalize(js *jobState, now simulation.Time) {
	res := js.res
	res.Completed = true
	res.Outcome = js.spec.Plan.Outcome
	res.EndAt = now
	res.FirstStartAt = js.sched.FirstStartAt
	res.FirstQueueDelay = js.sched.FirstQueueDelay
	res.TotalQueueDelay = js.sched.TotalQueueDelay
	// Retries are counted from what actually ran (AdaptiveRetry can cut a
	// job short of its planned attempts).
	res.Retries = len(res.Attempts) - 1
	res.DelayCause = js.sched.Cause()
	res.FairShareBlocks = js.sched.FairShareBlocks
	res.FragBlocks = js.sched.FragBlocks
	res.OutOfOrderStart = js.sched.OutOfOrderStart
	res.Overtaken = js.sched.Overtaken
	for _, a := range res.Attempts {
		if a.Servers > res.MaxServers {
			res.MaxServers = a.Servers
		}
		res.LastServers = a.Servers
		if a.Colocated {
			res.EverColocated = true
		}
	}
	res.MeanUtil = js.usage.MeanUtil()
	if js.spec.LogsConvergence && res.Outcome != failures.Unsuccessful {
		res.Convergence = s.convergence(js)
	}
	if s.jobObserver != nil {
		s.jobObserver(js.idx, res)
		// The observer has consumed the full record (StreamJobs observers
		// must not retain the Attempts slice past the call); recycle the
		// backing array for a later job's first attempt and release the
		// variable-size parts so completed jobs stop holding memory.
		if cap(res.Attempts) > 0 {
			s.attemptFree = append(s.attemptFree, res.Attempts[:0])
		}
		res.Attempts = nil
		res.Convergence = nil
	}
	s.pending--
	if s.pending == 0 {
		s.engine.Stop()
	}
}

// convergence realizes the job's loss curve, renders it through the
// training-log generator, parses it back, and summarizes — the same
// text-mediated path the paper's pipeline uses for its ~2.5k jobs. The
// curve is a pure function of (studySeed, jobID), and the log draws
// continue the job's private log stream after its last classification. It
// runs at a barrier, so it borrows the job's shard context.
func (s *Study) convergence(js *jobState) *ConvergenceResult {
	epochs := js.spec.Train.Epochs
	if js.spec.Plan.Outcome == failures.Killed {
		epochs = int(float64(epochs)*js.spec.Plan.KillFraction + 0.5)
		if epochs < 1 {
			epochs = 1
		}
	}
	var curveRNG stats.RNG
	curveRNG.Init(stats.DeriveEntitySeed(s.cfg.Seed, "job-curve", uint64(js.spec.ID)))
	curve, err := training.SampleCurve(epochs, &curveRNG)
	if err != nil {
		panic(fmt.Sprintf("core: convergence curve: %v", err))
	}
	// A job can reach convergence analysis without ever failing; its log
	// stream is then first drawn here.
	sc := &s.shardCtxs[js.shard]
	log := sc.logGen.TrainingLogBytes(curve.Losses, js.spec.GPUs, s.logRNG(js))
	losses := joblog.ParseLossCurveBytes(log, sc.lossScratch[:0])
	sc.lossScratch = losses
	parsed := training.Curve{Losses: losses}
	return &ConvergenceResult{
		EpochsRun:           parsed.Epochs(),
		FractionForLowest:   parsed.FractionForLowest(),
		FractionWithinTenth: parsed.FractionWithin(0.001),
	}
}

// sampleTelemetry records one per-minute observation of the whole cluster:
// running jobs in running-list order, then servers in ID order, on the
// event goroutine. Each sampled value is a pure function of the entity's
// own pre-split stream and episode history; the order of the two loops is
// the recorder's fold order, which fixes the float sums behind the
// histogram means (PERFORMANCE.md § PR 20).
func (s *Study) sampleTelemetry(now simulation.Time) {
	for _, js := range s.running {
		if js != nil && js.running {
			s.rec.RecordJobMinuteInto(&js.usage, js.meta, s.util.MinuteUtil(js.baseUtil, &js.stream))
		}
	}
	used, caps := s.cluster.UsedBySrv(), s.cluster.CapBySrv()
	for i := range used {
		cpu, mem := s.host.Sample(int(used[i]), int(caps[i]), &s.hostStreams[i])
		s.rec.RecordHostMinute(cpu, mem)
	}

	s.occ = append(s.occ, OccupancySample{
		At:           now,
		Occupancy:    s.cluster.Occupancy(),
		EmptyServers: float64(s.cluster.EmptyServers()) / float64(s.cluster.NumServers()),
		DownGPUs:     float64(s.heldGPUs) / float64(s.cluster.TotalGPUs()),
	})
}
