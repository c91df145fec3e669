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
// (Figure 7). Per-job means for trace export live with the job: the caller
// owns each job's JobUsage and passes it to RecordJobMinuteInto.
//
// # Fold order
//
// The recorder keeps one set of histograms. Every sample folds into it in
// the order the caller records it: the telemetry tick in internal/core
// records running jobs in running-list order, then servers in ID order, on
// the event-loop goroutine. Integer bucket counts do not depend on that
// order, but the float sums behind the histogram means do, so the fold
// order is part of the output contract (PERFORMANCE.md § PR 20).
package telemetry

import (
	"sort"

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

// Recorder aggregates telemetry into one set of histograms (see Fold
// order). Every histogram shares the [0, 100] percent shape, so one bucket
// computation fans out across the set. Not safe for concurrent use:
// internal/core records from the event-loop goroutine only.
type Recorder struct {
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

// NewRecorder builds an empty recorder.
func NewRecorder() *Recorder {
	r := &Recorder{
		all:         newPctHist(),
		spread16:    map[int]*stats.Histogram{},
		dedicated8:  newPctHist(),
		dedicated16: newPctHist(),
		hostCPU:     newPctHist(),
		hostMem:     newPctHist(),
	}
	for s := SizeClass(0); s < NumSizeClasses; s++ {
		for o := 0; o < 3; o++ {
			r.bySizeStatus[s][o] = newPctHist()
		}
	}
	for o := 0; o < 3; o++ {
		r.allByStatus[o] = newPctHist()
	}
	return r
}

// RecordJobMinuteInto records one per-minute GPU-utilization sample
// (percent, averaged over the job's GPUs) for a running job, updating the
// job's accumulator u. The bucket index is computed once and fanned out —
// one division per sample instead of one per histogram.
func (r *Recorder) RecordJobMinuteInto(u *JobUsage, meta JobMeta, util float64) {
	class := ClassFor(meta.GPUs)
	o := int(meta.Outcome)
	idx, under, over := r.all.BucketFor(util)
	r.bySizeStatus[class][o].AddAt(util, idx, under, over)
	r.allByStatus[o].AddAt(util, idx, under, over)
	r.all.AddAt(util, idx, under, over)

	if meta.GPUs == 16 {
		sp, ok := r.spread16[meta.Servers]
		if !ok {
			sp = newPctHist()
			r.spread16[meta.Servers] = sp
		}
		sp.AddAt(util, idx, under, over)
		if meta.Servers == 2 && !meta.Colocated {
			r.dedicated16.AddAt(util, idx, under, over)
		}
	}
	if meta.GPUs == 8 && meta.Servers == 1 && !meta.Colocated {
		r.dedicated8.AddAt(util, idx, under, over)
	}

	u.SumUtil += util
	u.Minutes++
}

// RecordHostMinute records one per-minute host sample for a server.
func (r *Recorder) RecordHostMinute(cpuUtil, memUtil float64) {
	r.hostCPU.Add(cpuUtil)
	r.hostMem.Add(memUtil)
}

// SizeStatus returns the utilization histogram for a size class × outcome.
func (r *Recorder) SizeStatus(class SizeClass, o failures.Outcome) *stats.Histogram {
	return r.bySizeStatus[class][int(o)]
}

// AllByStatus returns the all-sizes histogram for an outcome.
func (r *Recorder) AllByStatus(o failures.Outcome) *stats.Histogram {
	return r.allByStatus[int(o)]
}

// All returns the histogram over every job sample.
func (r *Recorder) All() *stats.Histogram { return r.all }

// Spread16 returns the Table 5 histogram for 16-GPU jobs over the given
// server count (nil if never observed).
func (r *Recorder) Spread16(servers int) *stats.Histogram { return r.spread16[servers] }

// Spread16Servers lists observed spreads ascending.
func (r *Recorder) Spread16Servers() []int {
	var out []int
	for s := range r.spread16 {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}

// Dedicated8 returns the Figure 6 histogram for dedicated 8-GPU jobs.
func (r *Recorder) Dedicated8() *stats.Histogram { return r.dedicated8 }

// Dedicated16 returns the Figure 6 histogram for dedicated 16-GPU jobs.
func (r *Recorder) Dedicated16() *stats.Histogram { return r.dedicated16 }

// HostCPU returns the Figure 7 CPU histogram.
func (r *Recorder) HostCPU() *stats.Histogram { return r.hostCPU }

// HostMem returns the Figure 7 memory histogram.
func (r *Recorder) HostMem() *stats.Histogram { return r.hostMem }
