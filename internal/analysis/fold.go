package analysis

// The study fold: the one rule that turns job records into the scalar
// study metrics — the sweep's replica rows and the fleet table are both
// projections of a Tally. Under federation a job can leave two records:
//
//   - an offloaded spillover shell never counts: the receiving member's
//     injected copy is the job's one record;
//   - an evacuated donor shell counts for the GPU time it burned here, but
//     not as a job: the job completes (and is counted) at the member its
//     resumed copy runs on.
//
// So a fleet-wide sum of member tallies counts each logical job once and
// each GPU-hour where it was burned.

import (
	"philly/internal/core"
	"philly/internal/failures"
	"philly/internal/stats"
)

// Tally is the fold of one study — a plain study or one federation
// member — or, from CombineFleet, of a whole federation.
type Tally struct {
	// GPUs is cluster capacity.
	GPUs int
	// Jobs counts the study's jobs, shells excluded; Completed those that
	// completed before the horizon; Unsuccessful the completed ones that
	// exhausted their retries.
	Jobs, Completed, Unsuccessful int
	// JCTp50 and JCTMean summarize completed jobs' completion times
	// (submit to end, minutes).
	JCTp50, JCTMean float64
	// DelayP50 and DelayP95 summarize completed jobs' first-episode
	// queueing delay (minutes), the paper's §3.1 metric.
	DelayP50, DelayP95 float64
	// UtilMean is the mean per-minute GPU utilization (%) over UtilSamples
	// samples; the fleet combine weights member means by their counts.
	UtilMean    float64
	UtilSamples uint64
	// GPUHours is total GPU time charged; FailedGPUHours the share burnt on
	// FailedAttempts failed attempts (the Table 7 waste metric).
	GPUHours, FailedGPUHours float64
	FailedAttempts           int
	// UnsuccessfulPct is Unsuccessful as a percentage of Completed.
	UnsuccessfulPct float64
	// LostGPUHours is GPU time destroyed by outage kills (work since the
	// victims' last checkpoints); CkptGPUHours the time spent writing and
	// restoring checkpoints, CkptOverheadPct its percentage of GPUHours.
	// All 0 when faults / the checkpoint cost model are off.
	LostGPUHours, CkptGPUHours, CkptOverheadPct float64
	// ETTFHours / ETTRHours are the realized mean time between outage
	// events and mean outage duration over OutageEvents events (hours).
	OutageEvents         int
	ETTFHours, ETTRHours float64
	// Preemptions sums fair-share and policy preemptions; Migrations
	// counts defragmentation moves.
	Preemptions, Migrations int
	// PlacementSearches is one study's scheduler placement-search count.
	// An engine counter, not a workload metric: a fleet tally leaves it 0.
	PlacementSearches int
	// ImbalancePct is the cross-member utilization spread (max member mean
	// util minus min, percentage points); set by CombineFleet only.
	ImbalancePct float64

	// jct and delay hold the completed jobs' completion times and
	// first-episode delays in job order (member order, then job order, for
	// a fleet), so a fleet takes percentiles and the mean over the union
	// rather than averaging member summaries.
	jct, delay []float64
}

// jobAccum is the per-job scalar extraction StreamReducer keeps in place of
// the full JobResult. It is a few dozen bytes regardless of how many
// attempts or log-derived records the job accumulated.
type jobAccum struct {
	seen      bool
	completed bool
	unsucc    bool
	// offloaded marks a spillover shell, evacuated an evacuation donor
	// shell (see the file comment for how each counts).
	offloaded bool
	evacuated bool
	gpuMin    float64
	lostGPUh  float64
	ckptGPUh  float64
	jctMin    float64
	delayMin  float64
	// failedGPUh lists the per-failed-attempt GPU-hour costs in attempt
	// order. They are folded into the sum in exactly that order at Finish,
	// so the result is bit-identical to summing while scanning the full
	// attempt records.
	failedGPUh []float64
}

// StreamReducer folds a study incrementally: register ObserveJob with
// core.Study.StreamJobs (or federation.Study.StreamMemberJobs) and each
// completed job's record is reduced to scalars the moment it finishes,
// letting the study release the full per-job records in flight. Finish
// picks up jobs that never completed (their records are still intact in
// the StudyResult) and yields the Tally Fold computes over a fully
// retained result, bit for bit.
type StreamReducer struct {
	jobs []jobAccum
}

// NewStreamReducer sizes a reducer for a study of n jobs.
func NewStreamReducer(n int) *StreamReducer {
	return &StreamReducer{jobs: make([]jobAccum, n)}
}

// ObserveJob folds one job's result; i is the job's index in
// StudyResult.Jobs. Safe to call from core's StreamJobs observer.
func (r *StreamReducer) ObserveJob(i int, j *core.JobResult) {
	for i >= len(r.jobs) {
		// Federation spillover can inject jobs beyond the generated count;
		// grow rather than index out of range.
		r.jobs = append(r.jobs, jobAccum{})
	}
	a := &r.jobs[i]
	a.seen = true
	if j.Offloaded {
		a.offloaded = true
		return
	}
	a.evacuated = j.Evacuated
	a.completed = j.Completed
	a.gpuMin = j.GPUMinutes
	a.lostGPUh = j.LostGPUMinutes / 60
	a.ckptGPUh = j.CkptGPUMinutes / 60
	for _, att := range j.Attempts {
		if att.Failed {
			a.failedGPUh = append(a.failedGPUh, att.RuntimeMinutes*float64(j.Spec.GPUs)/60)
		}
	}
	if j.Completed {
		a.jctMin = (j.EndAt - j.Spec.SubmitAt).Minutes()
		a.delayMin = j.FirstQueueDelay.Minutes()
		a.unsucc = j.Outcome == failures.Unsuccessful
	}
}

// Finish folds the per-job accumulators, in job order, plus the
// study-level aggregates into the study's Tally. Jobs never observed —
// those that did not complete before the horizon — are extracted from
// res.Jobs, where their records are still whole.
func (r *StreamReducer) Finish(res *core.StudyResult) Tally {
	t := Tally{GPUs: res.TotalGPUs}
	// res.Jobs can outgrow the reducer's initial sizing (federation
	// spillover injects jobs beyond the generated count), so walk the
	// result, not the accumulator — ObserveJob grows it on demand.
	for i := range res.Jobs {
		if i >= len(r.jobs) || !r.jobs[i].seen {
			r.ObserveJob(i, &res.Jobs[i])
		}
		a := &r.jobs[i]
		if a.offloaded {
			continue
		}
		t.GPUHours += a.gpuMin / 60
		t.LostGPUHours += a.lostGPUh
		t.CkptGPUHours += a.ckptGPUh
		t.FailedAttempts += len(a.failedGPUh)
		for _, f := range a.failedGPUh {
			t.FailedGPUHours += f
		}
		if a.evacuated {
			continue
		}
		t.Jobs++
		if !a.completed {
			continue
		}
		t.Completed++
		t.jct = append(t.jct, a.jctMin)
		t.delay = append(t.delay, a.delayMin)
		if a.unsucc {
			t.Unsuccessful++
		}
	}
	util := res.Telemetry.All()
	t.UtilMean, t.UtilSamples = util.Mean(), util.Count()
	t.OutageEvents = res.Outages.Events
	t.ETTFHours, t.ETTRHours = res.Outages.ETTFHours, res.Outages.ETTRHours
	t.Preemptions = res.Sched.FairSharePreemptions + res.Sched.PolicyPreemptions
	t.Migrations = res.Sched.Migrations
	t.PlacementSearches = res.Sched.PlacementSearches
	t.summarize()
	return t
}

// Fold is the batch form of StreamReducer: it replays a fully retained
// result through the reducer in job order.
func Fold(res *core.StudyResult) Tally {
	r := NewStreamReducer(len(res.Jobs))
	for i := range res.Jobs {
		r.ObserveJob(i, &res.Jobs[i])
	}
	return r.Finish(res)
}

// CombineFleet folds federation members' tallies, in fleet order, into
// the fleet-wide tally. Sums add member totals in member order, so each
// fleet sum is the exact float sum of its member rows; JCT and delay
// summaries range over the union of the members' completed jobs;
// utilization is the sample-count-weighted mean of the members' means;
// and ETTF/ETTR re-fold the member means over the union of outage events,
// recovering each member's observed hours as mean×events.
func CombineFleet(members []Tally) Tally {
	var f Tally
	var utilSum, ettfSum, ettrSum, utilMin, utilMax float64
	utilMembers := 0
	for i := range members {
		m := &members[i]
		f.GPUs += m.GPUs
		f.Jobs += m.Jobs
		f.Completed += m.Completed
		f.Unsuccessful += m.Unsuccessful
		f.GPUHours += m.GPUHours
		f.FailedGPUHours += m.FailedGPUHours
		f.FailedAttempts += m.FailedAttempts
		f.LostGPUHours += m.LostGPUHours
		f.CkptGPUHours += m.CkptGPUHours
		f.Preemptions += m.Preemptions
		f.Migrations += m.Migrations
		f.jct = append(f.jct, m.jct...)
		f.delay = append(f.delay, m.delay...)
		if m.UtilSamples > 0 {
			utilSum += m.UtilMean * float64(m.UtilSamples)
			f.UtilSamples += m.UtilSamples
			if utilMembers == 0 || m.UtilMean < utilMin {
				utilMin = m.UtilMean
			}
			if utilMembers == 0 || m.UtilMean > utilMax {
				utilMax = m.UtilMean
			}
			utilMembers++
		}
		if m.OutageEvents > 0 {
			f.OutageEvents += m.OutageEvents
			ettfSum += m.ETTFHours * float64(m.OutageEvents)
			ettrSum += m.ETTRHours * float64(m.OutageEvents)
		}
	}
	f.summarize()
	if f.UtilSamples > 0 {
		f.UtilMean = utilSum / float64(f.UtilSamples)
	}
	if f.OutageEvents > 0 {
		f.ETTFHours = ettfSum / float64(f.OutageEvents)
		f.ETTRHours = ettrSum / float64(f.OutageEvents)
	}
	if utilMembers > 1 {
		f.ImbalancePct = utilMax - utilMin
	}
	return f
}

// summarize derives the percentile, mean and ratio columns from the
// tally's samples and sums.
func (t *Tally) summarize() {
	t.JCTp50 = stats.Percentile(t.jct, 50)
	t.JCTMean = stats.Mean(t.jct)
	t.DelayP50 = stats.Percentile(t.delay, 50)
	t.DelayP95 = stats.Percentile(t.delay, 95)
	if t.Completed > 0 {
		t.UnsuccessfulPct = 100 * float64(t.Unsuccessful) / float64(t.Completed)
	}
	if t.GPUHours > 0 {
		t.CkptOverheadPct = 100 * t.CkptGPUHours / t.GPUHours
	}
}
