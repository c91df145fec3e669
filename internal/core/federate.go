package core

// This file is the federation support surface: the member-side hooks
// internal/federation drives at fleet window barriers. Everything here
// executes in global (barrier) context — never from the member's own event
// callbacks — and mutates only this study's state, so the fleet's
// determinism argument (members share nothing between barriers) is
// preserved by construction.

import (
	"fmt"
	"sort"

	"philly/internal/cluster"
	"philly/internal/scheduler"
	"philly/internal/simulation"
	"philly/internal/stats"
	"philly/internal/workload"
)

// injectIDBase is where injected (spillover) job IDs start. Generated jobs
// are dense from 1, so the spaces cannot collide and every derived RNG
// stream — keyed (seed, label, jobID) — stays unique.
const injectIDBase int64 = 1 << 30

// OffloadCandidate describes one queued job eligible for spillover: it has
// never started an attempt here, so moving it is equivalent to having
// routed it to the other cluster at admission.
type OffloadCandidate struct {
	// ID is the job's ID in this study.
	ID cluster.JobID
	// GPUs is the gang width (the receiving member must fit it).
	GPUs int
	// Waited is the job's current queueing delay.
	Waited simulation.Time
}

// OffloadCandidates lists jobs queued and never started whose queueing
// delay is at least minWait, longest-waiting first (ties by ID), capped at
// max. A resumed copy (see InjectResumed) is never a candidate, even
// before its first start here: it carries the donor's checkpointed
// remaining work, which Inject's fresh plan would drop, so it stays
// evacuation's business. Deterministic: it reads only scheduler and study
// state settled at the current barrier.
func (s *Study) OffloadCandidates(now, minWait simulation.Time, max int) []OffloadCandidate {
	var out []OffloadCandidate
	// EachQueued's walk order is irrelevant: the sort below imposes a
	// total order, so the cheap no-alloc iteration is safe.
	s.sched.EachQueued(func(j *scheduler.Job) {
		if j.State != scheduler.StateQueued {
			return
		}
		js := s.states[j.ID]
		if js == nil || js.running || js.attemptOpen || js.res.Attempts != nil ||
			js.res.Offloaded || js.res.Resumed || js.res.Completed || js.attemptIdx != 0 {
			return
		}
		waited := now - j.EnqueuedAt
		if waited < minWait {
			return
		}
		out = append(out, OffloadCandidate{ID: j.ID, GPUs: j.GPUs, Waited: waited})
	})
	sort.SliceStable(out, func(a, b int) bool {
		if out[a].Waited != out[b].Waited {
			return out[a].Waited > out[b].Waited
		}
		return out[a].ID < out[b].ID
	})
	if max > 0 && len(out) > max {
		out = out[:max]
	}
	return out
}

// Offload withdraws a queued, never-started job from this study: it leaves
// the scheduler queue, its result is marked Offloaded (excluded from this
// cluster's analysis like an incomplete job), and its spec is returned for
// re-injection into another member. The job's telemetry and log streams
// were never drawn, so the withdrawal perturbs no other stream. A resumed
// copy is refused, as in OffloadCandidates.
func (s *Study) Offload(id cluster.JobID, now simulation.Time) (workload.JobSpec, error) {
	js := s.states[id]
	if js == nil {
		return workload.JobSpec{}, fmt.Errorf("core: offload of unknown job %d", id)
	}
	if js.running || js.attemptOpen || js.res.Attempts != nil || js.res.Offloaded || js.res.Completed {
		return workload.JobSpec{}, fmt.Errorf("core: job %d is not a never-started queued job; cannot offload", id)
	}
	if js.res.Resumed {
		return workload.JobSpec{}, fmt.Errorf("core: job %d is a resumed copy; cannot offload it as a fresh job", id)
	}
	if err := s.sched.Withdraw(js.sched); err != nil {
		return workload.JobSpec{}, fmt.Errorf("core: offload job %d: %w", id, err)
	}
	js.res.Offloaded = true
	// The job will never finalize here. The telemetry ticker and pump wake
	// events notice the drained pending count on their own, exactly like a
	// normal drain — no cross-context Stop is needed.
	s.pending--
	return *js.spec, nil
}

// Inject adds a spillover job from another member to this study. The spec
// keeps its training plan and failure plan (the work is the work), but is
// re-identified into this study's injected-ID space, re-timed to submit
// now, and must already carry a VC that exists here (see SpilloverVC). The
// actual submission runs as a member-lane event at the current time, so
// the scheduler observes it with the member clock at the barrier instant —
// injections at one barrier are processed in injection order.
//
// Must be called after Arm, from global (barrier) context.
func (s *Study) Inject(spec workload.JobSpec, now simulation.Time) (cluster.JobID, error) {
	return s.inject(spec, now, nil)
}

// InjectResumed is Inject for a checkpoint-migrated job (see Evacuate): the
// injected copy resumes from the donor's checkpoint — remainingSec of ideal
// work instead of a fresh plan — and pays penaltySec of wall time (restore
// plus data gravity) before its first episode makes progress. The copy is
// marked Spillover and Resumed.
//
// Must be called after Arm, from global (barrier) context.
func (s *Study) InjectResumed(spec workload.JobSpec, remainingSec, penaltySec float64, now simulation.Time) (cluster.JobID, error) {
	if remainingSec <= 0 {
		return 0, fmt.Errorf("core: inject resumed job with %v remaining seconds", remainingSec)
	}
	if penaltySec < 0 {
		return 0, fmt.Errorf("core: inject resumed job with negative penalty %v", penaltySec)
	}
	return s.inject(spec, now, func(js *jobState) {
		js.sched.RemainingSeconds = remainingSec
		js.pendingRestoreSec = penaltySec
		js.res.Resumed = true
	})
}

// inject is the shared body of Inject and InjectResumed; setup, when
// non-nil, adjusts the fresh jobState before it is registered.
func (s *Study) inject(spec workload.JobSpec, now simulation.Time, setup func(*jobState)) (cluster.JobID, error) {
	if s.horizon == 0 {
		return 0, fmt.Errorf("core: inject before Arm")
	}
	if now > s.horizon {
		// The submission event would sit past this study's run bound and
		// never execute — the job would be silently lost.
		return 0, fmt.Errorf("core: inject at %v past the study horizon %v", now, s.horizon)
	}
	vc := s.sched.VCIndex(spec.VC)
	if vc < 0 {
		return 0, fmt.Errorf("core: inject into unknown VC %q", spec.VC)
	}
	if err := s.checkWidth(&spec); err != nil {
		return 0, err
	}
	s.injectSeq++
	id := cluster.JobID(injectIDBase + s.injectSeq)
	spec.ID = int64(id)
	spec.SubmitAt = now
	res := &JobResult{Spec: spec, Spillover: true}
	s.extra = append(s.extra, res)
	js := &jobState{
		spec:          &res.Spec,
		res:           res,
		idx:           len(s.results) + len(s.extra) - 1,
		runIdx:        -1,
		stagedAttempt: -1,
		shard:         simulation.ShardID(vc),
		sched:         scheduler.NewJob(id, spec.VC, spec.GPUs, now),
	}
	js.sched.RemainingSeconds = s.cleanWorkSeconds(&res.Spec)
	if setup != nil {
		setup(js)
	}
	s.states[id] = js
	s.pending++
	s.engine.At(now, func() {
		if err := s.sched.Submit(js.sched, s.engine.Now()); err != nil {
			panic(fmt.Sprintf("core: submit injected job %d: %v", js.spec.ID, err))
		}
		s.pump()
	})
	return id, nil
}

// CheckpointRestoreSeconds exposes this member's restore cost (0 when the
// cost model is off) for federation's evacuation pricing.
func (s *Study) CheckpointRestoreSeconds() float64 {
	if !s.cfg.Checkpoint.Enabled {
		return 0
	}
	return s.cfg.Checkpoint.RestoreSeconds
}

// EvacuationCandidate describes one restorable job a checkpoint migration
// could move to another member.
type EvacuationCandidate struct {
	// ID is the job's ID in this study.
	ID cluster.JobID
	// GPUs is the gang width (the receiving member must fit it).
	GPUs int
	// RemainingSeconds is the checkpointed attempt's remaining ideal work.
	RemainingSeconds float64
}

// EvacuationCandidates lists jobs restorable from a checkpoint: under an
// enabled checkpoint policy, on their final (clean) attempt with work
// remaining, having started at least once here — running now, or queued
// with prior progress (for example outage-killed and waiting for capacity
// that no longer exists). Widest gang first (ties by ID), capped at max:
// evacuating the widest jobs frees the donor's scarce surviving capacity
// fastest. Deterministic: the sort imposes a total order over barrier-
// settled state.
func (s *Study) EvacuationCandidates(max int) []EvacuationCandidate {
	if !s.cfg.Checkpoint.Enabled {
		return nil
	}
	var out []EvacuationCandidate
	for id, js := range s.states {
		if js.res.Offloaded || js.res.Evacuated || js.res.Completed {
			continue
		}
		if !js.attemptOpen && js.res.Attempts == nil {
			continue // never started: plain spillover's business
		}
		if js.currentFailure() != nil {
			continue // mid-failure-plan: no clean checkpoint to restore
		}
		if js.spec.Train.CheckpointEveryEpochs == 0 || js.sched.RemainingSeconds <= 0 {
			continue
		}
		out = append(out, EvacuationCandidate{ID: id, GPUs: js.spec.GPUs, RemainingSeconds: js.sched.RemainingSeconds})
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].GPUs != out[b].GPUs {
			return out[a].GPUs > out[b].GPUs
		}
		return out[a].ID < out[b].ID
	})
	if max > 0 && len(out) > max {
		out = out[:max]
	}
	return out
}

// Evacuate checkpoint-migrates a restorable job out of this study. A
// running attempt is cut at its last periodic checkpoint through the
// outage kill's salvageToCheckpoint (the un-checkpointed tail counts as
// lost GPU time here); a queued one is simply withdrawn. The result shell
// stays, marked Evacuated — every GPU-hour the job burned here remains
// charged here — and the open attempt record is closed. The returned spec
// has its consumed failure plan stripped (the current attempt is clean by
// construction), ready for InjectResumed on the receiving member together
// with the returned remaining ideal work.
//
// Must be called from global (barrier) context.
func (s *Study) Evacuate(id cluster.JobID, now simulation.Time) (workload.JobSpec, float64, error) {
	js := s.states[id]
	if js == nil {
		return workload.JobSpec{}, 0, fmt.Errorf("core: evacuate unknown job %d", id)
	}
	if js.res.Offloaded || js.res.Evacuated || js.res.Completed ||
		js.currentFailure() != nil || js.sched.RemainingSeconds <= 0 ||
		(!js.attemptOpen && js.res.Attempts == nil) {
		return workload.JobSpec{}, 0, fmt.Errorf("core: job %d is not evacuation-restorable", id)
	}
	if js.running {
		s.salvageToCheckpoint(js, s.chargeEpisode(js, now))
		s.removeRunning(js)
		if err := s.sched.Release(js.sched, now); err != nil {
			panic(fmt.Sprintf("core: evacuate release job %d: %v", id, err))
		}
		// The freed gang may unblock queued jobs; pump from an event at the
		// current time like an injection, so the wake happens in member
		// context.
		s.engine.At(now, func() { s.pump() })
	} else {
		if err := s.sched.Withdraw(js.sched); err != nil {
			return workload.JobSpec{}, 0, fmt.Errorf("core: evacuate job %d: %w", id, err)
		}
	}
	// Close the open attempt record: the rest of the attempt runs remotely.
	if js.attemptOpen && len(js.res.Attempts) > 0 {
		att := &js.res.Attempts[len(js.res.Attempts)-1]
		if att.EndAt == 0 {
			att.EndAt = now
			att.RuntimeMinutes = js.attemptRunSec / 60
		}
	}
	js.res.Evacuated = true
	s.pending--
	spec := *js.spec
	// The current attempt is clean, so every planned failing attempt has
	// already been consumed here; the receiving member must not replay them.
	spec.Plan.FailedAttempts = nil
	remaining := js.sched.RemainingSeconds
	if remaining < 1 {
		remaining = 1
	}
	return spec, remaining, nil
}

// SpilloverVC picks the virtual cluster an injected job should land in:
// the VC with the most free quota (quota minus current usage), ties broken
// by the scheduler's VC walk order. Deterministic at a barrier.
func (s *Study) SpilloverVC() string {
	best, bestRoom := "", 0
	for i, name := range s.sched.VCNames() {
		room := s.sched.VCQuota(name) - s.sched.VCUsage(name)
		if i == 0 || room > bestRoom {
			best, bestRoom = name, room
		}
	}
	return best
}

// FreeGPUs returns the cluster's currently unallocated GPU count.
func (s *Study) FreeGPUs() int { return s.cluster.FreeGPUs() }

// TotalGPUs returns the cluster's GPU capacity.
func (s *Study) TotalGPUs() int { return s.cluster.TotalGPUs() }

// RebalanceVCQuotas redistributes this cluster's total VC quota pool
// proportionally to instantaneous demand (GPUs in use plus GPUs requested
// by queued jobs, per VC), with a floor of one GPU per VC and the pool
// total held constant via largest-remainder rounding (ties by VC order).
// It returns how many VC quotas changed. The federation's fleet-wide
// rebalancing tick calls it for every member at one window barrier, so the
// whole fleet re-shares at one consistent instant.
func (s *Study) RebalanceVCQuotas() int {
	names := s.sched.VCNames()
	pool, total := 0, 0
	demands := make([]int, len(names))
	for i, n := range names {
		pool += s.sched.VCQuota(n)
		d := s.sched.VCUsage(n) + s.sched.QueuedGPUDemand(n)
		demands[i] = d
		total += d
	}
	if total == 0 || pool < len(names) {
		return 0
	}
	// Everyone keeps a floor of 1; the rest of the pool follows demand.
	shares := stats.LargestRemainder(pool-len(names), demands)
	changed := 0
	for i, n := range names {
		q := 1 + shares[i]
		if q == s.sched.VCQuota(n) {
			continue
		}
		if err := s.sched.SetQuota(n, q); err != nil {
			panic(fmt.Sprintf("core: rebalance quota for %s: %v", n, err))
		}
		changed++
	}
	return changed
}
