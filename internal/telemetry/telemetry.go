// Package telemetry reproduces the Ganglia leg of the paper's measurement
// pipeline (§2.4): per-minute hardware counters from every server — GPU
// utilization, host CPU and memory — joined against the scheduler's GPU
// allocation state so that samples attribute to jobs.
//
// At paper scale the raw stream is hundreds of millions of samples, so the
// recorder aggregates on the fly into the exact groupings the analysis
// needs: per-minute GPU-utilization histograms keyed by job size × final
// status (Figure 5, Table 3), by server spread for 16-GPU jobs (Table 5),
// by dedicated-server classes (Figure 6), and host CPU/memory histograms
// (Figure 7). Per-job means are kept for trace export.
//
// # Sharded fold
//
// The recorder keeps NumFoldShards complete histogram sets alongside the
// final ("global") one. The telemetry walk in internal/core assigns every
// draw chunk to the fixed shard (chunk index mod NumFoldShards) and folds
// the chunk's samples straight into that shard's set, chunks in ascending
// order on the event-loop goroutine. Seal merges the shards into the
// global set in fixed shard order (0..NumFoldShards-1) at study end.
// Because the mapping and the merge order are fixed, results are
// bit-identical across pool sizes and engines. The fold order is part of
// the output contract (PERFORMANCE.md): integer bucket counts are
// order-invariant, but the float sums backing histogram means depend on
// it, so changing the mapping or the merge order shifts every mean.
package telemetry

import (
	"sort"

	"philly/internal/cluster"
	"philly/internal/failures"
	"philly/internal/stats"
)

// SizeClass buckets GPU counts the way Figure 5 and Table 3 do: exact
// representative sizes 1, 4, 8, 16, with everything else tracked but
// reported only in the "All" aggregate.
type SizeClass int

const (
	// Size1GPU .. Size16GPU are the representative sizes.
	Size1GPU SizeClass = iota
	Size4GPU
	Size8GPU
	Size16GPU
	// SizeOther covers the remaining sizes (2, 24, 32, ...).
	SizeOther
	// NumSizeClasses is the class count.
	NumSizeClasses
)

// NumFoldShards is the number of histogram fold shards the recorder keeps.
// It is a fixed constant — never derived from worker count or pool size —
// because the chunk→shard assignment must be identical for every execution
// configuration for results to stay bit-identical.
const NumFoldShards = 8

// ClassFor maps a GPU count to its representative class.
func ClassFor(gpus int) SizeClass {
	switch gpus {
	case 1:
		return Size1GPU
	case 4:
		return Size4GPU
	case 8:
		return Size8GPU
	case 16:
		return Size16GPU
	default:
		return SizeOther
	}
}

// String names the class as the paper prints it.
func (s SizeClass) String() string {
	switch s {
	case Size1GPU:
		return "1 GPU"
	case Size4GPU:
		return "4 GPU"
	case Size8GPU:
		return "8 GPU"
	case Size16GPU:
		return "16 GPU"
	case SizeOther:
		return "other"
	default:
		return "?"
	}
}

// JobMeta is what the recorder needs to know about a job to aggregate its
// samples. Outcome is known to the simulator up front; a production
// pipeline would join it post hoc, with identical results.
type JobMeta struct {
	ID        cluster.JobID
	GPUs      int
	Outcome   failures.Outcome
	Servers   int
	Colocated bool
}

// JobUsage accumulates one job's utilization samples.
type JobUsage struct {
	SumUtil float64
	Minutes int
}

// MeanUtil returns the job's mean per-minute utilization, or 0 with no
// samples.
func (u JobUsage) MeanUtil() float64 {
	if u.Minutes == 0 {
		return 0
	}
	return u.SumUtil / float64(u.Minutes)
}

const histBuckets = 100

func newPctHist() *stats.Histogram { return stats.NewHistogram(0, 100, histBuckets) }

// histSet is one complete set of the analysis histograms. The recorder owns
// NumFoldShards of them plus the global set the accessors read; every
// histogram shares the [0, 100] percent shape, so one bucket computation
// fans out across a set.
type histSet struct {
	bySizeStatus [NumSizeClasses][3]*stats.Histogram
	all          *stats.Histogram
	allByStatus  [3]*stats.Histogram

	// spread16 histograms per server count for 16-GPU jobs (Table 5).
	spread16 map[int]*stats.Histogram
	// dedicated8 is 8-GPU jobs on one dedicated server; dedicated16 is
	// 16-GPU jobs on two dedicated servers (Figure 6).
	dedicated8, dedicated16 *stats.Histogram

	hostCPU, hostMem *stats.Histogram
}

func newHistSet() *histSet {
	h := &histSet{
		all:         newPctHist(),
		spread16:    map[int]*stats.Histogram{},
		dedicated8:  newPctHist(),
		dedicated16: newPctHist(),
		hostCPU:     newPctHist(),
		hostMem:     newPctHist(),
	}
	for s := SizeClass(0); s < NumSizeClasses; s++ {
		for o := 0; o < 3; o++ {
			h.bySizeStatus[s][o] = newPctHist()
		}
	}
	for o := 0; o < 3; o++ {
		h.allByStatus[o] = newPctHist()
	}
	return h
}

// recordJobMinute records one per-minute GPU-utilization sample into this
// set, updating the job's accumulator. The bucket index is computed once
// and fanned out — one division per sample instead of one per histogram.
func (h *histSet) recordJobMinute(u *JobUsage, meta JobMeta, util float64) {
	class := ClassFor(meta.GPUs)
	o := int(meta.Outcome)
	idx, under, over := h.all.BucketFor(util)
	h.bySizeStatus[class][o].AddAt(util, idx, under, over)
	h.allByStatus[o].AddAt(util, idx, under, over)
	h.all.AddAt(util, idx, under, over)

	if meta.GPUs == 16 {
		sp, ok := h.spread16[meta.Servers]
		if !ok {
			sp = newPctHist()
			h.spread16[meta.Servers] = sp
		}
		sp.AddAt(util, idx, under, over)
		if meta.Servers == 2 && !meta.Colocated {
			h.dedicated16.AddAt(util, idx, under, over)
		}
	}
	if meta.GPUs == 8 && meta.Servers == 1 && !meta.Colocated {
		h.dedicated8.AddAt(util, idx, under, over)
	}

	u.SumUtil += util
	u.Minutes++
}

// recordHostMinute records one per-minute host sample into this set.
func (h *histSet) recordHostMinute(cpuUtil, memUtil float64) {
	h.hostCPU.Add(cpuUtil)
	h.hostMem.Add(memUtil)
}

// mergeFrom folds another set into this one. Every histogram pair shares
// the percent shape, so Merge cannot fail on live recorders.
func (h *histSet) mergeFrom(o *histSet) {
	must := func(err error) {
		if err != nil {
			panic("telemetry: fold-shard merge shape mismatch: " + err.Error())
		}
	}
	for s := SizeClass(0); s < NumSizeClasses; s++ {
		for st := 0; st < 3; st++ {
			must(h.bySizeStatus[s][st].Merge(o.bySizeStatus[s][st]))
		}
	}
	for st := 0; st < 3; st++ {
		must(h.allByStatus[st].Merge(o.allByStatus[st]))
	}
	must(h.all.Merge(o.all))
	for servers, sp := range o.spread16 {
		dst, ok := h.spread16[servers]
		if !ok {
			dst = newPctHist()
			h.spread16[servers] = dst
		}
		must(dst.Merge(sp))
	}
	must(h.dedicated8.Merge(o.dedicated8))
	must(h.dedicated16.Merge(o.dedicated16))
	must(h.hostCPU.Merge(o.hostCPU))
	must(h.hostMem.Merge(o.hostMem))
}

// Recorder aggregates telemetry. Not safe for concurrent use:
// internal/core records from the event-loop goroutine only.
type Recorder struct {
	global *histSet
	// shards are the fold-shard sets, merged into global by Seal (nil
	// afterwards, so sealed recorders compare by their merged state alone).
	shards []*histSet

	// dense backs the per-job accumulators for ID-dense workloads (IDs
	// 1..n, see Reserve): slot i serves job ID i+1. The backing array is
	// allocated once and never regrown, so *JobUsage handles stay valid.
	dense     []JobUsage
	denseUsed []bool
	denseHits int
	// perJob covers jobs outside the dense range (federation-injected IDs,
	// replayed traces with arbitrary IDs).
	perJob map[cluster.JobID]*JobUsage
}

// NewRecorder builds an empty recorder.
func NewRecorder() *Recorder {
	r := &Recorder{
		global: newHistSet(),
		shards: make([]*histSet, NumFoldShards),
		perJob: map[cluster.JobID]*JobUsage{},
	}
	for i := range r.shards {
		r.shards[i] = newHistSet()
	}
	return r
}

// Reserve pre-sizes the per-job accumulator table for job IDs 1..n. Only
// valid for workloads whose generated IDs are exactly that dense range (the
// caller must verify); other IDs keep working through the fallback map.
// Must be called before any sample is recorded.
func (r *Recorder) Reserve(n int) {
	r.dense = make([]JobUsage, n)
	r.denseUsed = make([]bool, n)
}

// FoldShard is a handle on one fold shard's histogram set. Handles to
// different shards may record concurrently; a single shard's handle must
// only be used by one goroutine at a time.
type FoldShard struct{ set *histSet }

// FoldShard returns the handle for fold shard g in [0, NumFoldShards).
// Only valid before Seal.
func (r *Recorder) FoldShard(g int) FoldShard { return FoldShard{r.shards[g]} }

// RecordJobMinuteInto records one job sample into the shard.
func (f FoldShard) RecordJobMinuteInto(u *JobUsage, meta JobMeta, util float64) {
	f.set.recordJobMinute(u, meta, util)
}

// RecordHostMinute records one host sample into the shard.
func (f FoldShard) RecordHostMinute(cpuUtil, memUtil float64) {
	f.set.recordHostMinute(cpuUtil, memUtil)
}

// Seal merges the fold shards into the final histogram set, in fixed shard
// order, and releases them. Accessors reflect shard-recorded samples only
// after Seal; recording through FoldShard handles afterwards is invalid.
// Idempotent.
func (r *Recorder) Seal() {
	if r.shards == nil {
		return
	}
	for _, sh := range r.shards {
		r.global.mergeFrom(sh)
	}
	r.shards = nil
}

// Sealed reports whether Seal has run.
func (r *Recorder) Sealed() bool { return r.shards == nil }

// RecordJobMinute records one per-minute GPU-utilization sample (percent,
// averaged over the job's GPUs) for a running job, directly into the final
// set — the single-writer path for callers outside the sharded walk.
func (r *Recorder) RecordJobMinute(meta JobMeta, util float64) {
	r.global.recordJobMinute(r.EnsureJob(meta.ID), meta, util)
}

// EnsureJob returns the job's usage accumulator, creating it on first use.
// Callers on the per-tick hot path hold the returned handle, skipping the
// lookup every sample would otherwise pay.
func (r *Recorder) EnsureJob(id cluster.JobID) *JobUsage {
	if i := int64(id); i >= 1 && i <= int64(len(r.dense)) {
		if !r.denseUsed[i-1] {
			r.denseUsed[i-1] = true
			r.denseHits++
		}
		return &r.dense[i-1]
	}
	u := r.perJob[id]
	if u == nil {
		u = &JobUsage{}
		r.perJob[id] = u
	}
	return u
}

// RecordJobMinuteInto is RecordJobMinute with the per-job accumulator
// supplied by the caller (see EnsureJob).
func (r *Recorder) RecordJobMinuteInto(u *JobUsage, meta JobMeta, util float64) {
	r.global.recordJobMinute(u, meta, util)
}

// RecordHostMinute records one per-minute host sample for a server into the
// final set.
func (r *Recorder) RecordHostMinute(cpuUtil, memUtil float64) {
	r.global.recordHostMinute(cpuUtil, memUtil)
}

// SizeStatus returns the utilization histogram for a size class × outcome.
func (r *Recorder) SizeStatus(class SizeClass, o failures.Outcome) *stats.Histogram {
	return r.global.bySizeStatus[class][int(o)]
}

// AllByStatus returns the all-sizes histogram for an outcome.
func (r *Recorder) AllByStatus(o failures.Outcome) *stats.Histogram {
	return r.global.allByStatus[int(o)]
}

// All returns the histogram over every job sample.
func (r *Recorder) All() *stats.Histogram { return r.global.all }

// Spread16 returns the Table 5 histogram for 16-GPU jobs over the given
// server count (nil if never observed).
func (r *Recorder) Spread16(servers int) *stats.Histogram { return r.global.spread16[servers] }

// Spread16Servers lists observed spreads ascending.
func (r *Recorder) Spread16Servers() []int {
	var out []int
	for s := range r.global.spread16 {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}

// Dedicated8 returns the Figure 6 histogram for dedicated 8-GPU jobs.
func (r *Recorder) Dedicated8() *stats.Histogram { return r.global.dedicated8 }

// Dedicated16 returns the Figure 6 histogram for dedicated 16-GPU jobs.
func (r *Recorder) Dedicated16() *stats.Histogram { return r.global.dedicated16 }

// HostCPU returns the Figure 7 CPU histogram.
func (r *Recorder) HostCPU() *stats.Histogram { return r.global.hostCPU }

// HostMem returns the Figure 7 memory histogram.
func (r *Recorder) HostMem() *stats.Histogram { return r.global.hostMem }

// JobUsageOf returns accumulated usage for a job (zero value if none).
func (r *Recorder) JobUsageOf(id cluster.JobID) JobUsage {
	if i := int64(id); i >= 1 && i <= int64(len(r.dense)) {
		return r.dense[i-1]
	}
	if u := r.perJob[id]; u != nil {
		return *u
	}
	return JobUsage{}
}

// NumJobsSampled returns how many distinct jobs produced samples.
func (r *Recorder) NumJobsSampled() int { return r.denseHits + len(r.perJob) }
