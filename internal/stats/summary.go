package stats

import (
	"fmt"
	"math"
	"sort"
)

// Percentile returns the p-th percentile (p in [0, 100]) of values using
// linear interpolation between closest ranks. It returns NaN for an empty
// input. The input slice is not modified.
func Percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	return percentileSorted(sorted, p)
}

func percentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Mean returns the arithmetic mean, or NaN for empty input.
func Mean(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// Sum returns the sum of values.
func Sum(values []float64) float64 {
	sum := 0.0
	for _, v := range values {
		sum += v
	}
	return sum
}

// CDF is an empirical cumulative distribution over a sample. It is immutable
// once built.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF from samples (copied; the input is not
// retained or modified).
func NewCDF(samples []float64) *CDF {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// Len returns the number of samples.
func (c *CDF) Len() int { return len(c.sorted) }

// At returns P(X <= x) in [0, 1]. For an empty CDF it returns 0.
func (c *CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	// Number of samples <= x.
	n := sort.SearchFloat64s(c.sorted, math.Nextafter(x, math.MaxFloat64))
	return float64(n) / float64(len(c.sorted))
}

// Percentile returns the p-th percentile (p in [0, 100]).
func (c *CDF) Percentile(p float64) float64 { return percentileSorted(c.sorted, p) }

// Median returns the 50th percentile.
func (c *CDF) Median() float64 { return c.Percentile(50) }

// Mean returns the sample mean.
func (c *CDF) Mean() float64 { return Mean(c.sorted) }

// Min returns the smallest sample, or NaN if empty.
func (c *CDF) Min() float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	return c.sorted[0]
}

// Max returns the largest sample, or NaN if empty.
func (c *CDF) Max() float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	return c.sorted[len(c.sorted)-1]
}

// Point is an (x, y) pair on a curve.
type Point struct {
	X, Y float64
}

// Histogram accumulates values into fixed-width buckets over [lo, hi]. It is
// the memory-bounded representation used for per-minute utilization samples,
// of which a paper-scale run produces hundreds of millions.
type Histogram struct {
	lo, hi  float64
	width   float64 // hi - lo, cached for the Add hot path
	nf      float64 // float64(len(counts)), cached for the Add hot path
	counts  []uint64
	total   uint64
	sum     float64
	underlo uint64
	overhi  uint64
}

// NewHistogram builds a histogram with n buckets over [lo, hi]. It panics if
// n <= 0 or hi <= lo, which indicate programmer error.
func NewHistogram(lo, hi float64, n int) *Histogram {
	if n <= 0 || hi <= lo {
		panic(fmt.Sprintf("stats: invalid histogram [%v, %v] with %d buckets", lo, hi, n))
	}
	return &Histogram{lo: lo, hi: hi, width: hi - lo, nf: float64(n), counts: make([]uint64, n)}
}

// Add records a sample. Samples outside [lo, hi] are clamped into the edge
// buckets but tracked so callers can detect miscalibration.
//
// Bucket selection computes (v-lo)/(hi-lo)*n with the exact operation order
// the original math.Floor implementation used (the divisor and bucket count
// are cached, not algebraically rearranged), so every in-range sample lands
// in the same bucket bit-for-bit; int truncation equals Floor for the
// non-negative quotients that reach it. One deliberate divergence: a sample
// so large its quotient overflows int64 used to wrap negative and land in
// the low edge bucket — it now clamps into the top edge bucket (overhi),
// per this method's documented contract.
// Add open-codes BucketFor+AddAt: composing the two inlinable halves makes
// Add itself too large to inline into its callers, and Add is the hottest
// call in whole-study profiles. TestHistogramBucketForMatchesAdd pins the
// two paths to identical behavior.
//
// Range checks run on the float quotient, so the int conversion only ever
// sees values in [0, nf) — a quotient beyond int64 range (huge sample, +Inf)
// clamps into the top bucket instead of overflowing the conversion.
func (h *Histogram) Add(v float64) {
	h.total++
	h.sum += v
	q := (v - h.lo) / h.width * h.nf
	if q >= h.nf { // above range (including +Inf and conversion-overflow)
		if v > h.hi {
			h.overhi++
		}
		h.counts[len(h.counts)-1]++
		return
	}
	if !(q >= 0) { // below range, or NaN
		h.underlo++
		h.counts[0]++
		return
	}
	h.counts[int(q)]++
}

// BucketFor computes the bucket index (and the out-of-range flags) that Add
// uses for v, exposed so callers recording one sample into several
// same-shaped histograms can pay for the bucket division once and fan out
// with AddAt.
func (h *Histogram) BucketFor(v float64) (idx int, underlo, overhi bool) {
	q := (v - h.lo) / h.width * h.nf
	if q >= h.nf { // above range (including +Inf and conversion-overflow)
		return len(h.counts) - 1, false, v > h.hi
	}
	if !(q >= 0) { // below range, or NaN
		return 0, true, false
	}
	return int(q), false, false
}

// AddAt records a sample whose bucket was precomputed with BucketFor on a
// histogram of identical shape. Equivalent to Add(v), minus the division.
func (h *Histogram) AddAt(v float64, idx int, underlo, overhi bool) {
	h.total++
	h.sum += v
	if underlo {
		h.underlo++
	}
	if overhi {
		h.overhi++
	}
	h.counts[idx]++
}

// Merge adds all of other's counts into h. The histograms must have the same
// shape.
func (h *Histogram) Merge(other *Histogram) error {
	if other == nil {
		return nil
	}
	if h.lo != other.lo || h.hi != other.hi || len(h.counts) != len(other.counts) {
		return fmt.Errorf("stats: merging histograms with different shapes")
	}
	for i, c := range other.counts {
		h.counts[i] += c
	}
	h.total += other.total
	h.sum += other.sum
	h.underlo += other.underlo
	h.overhi += other.overhi
	return nil
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() uint64 { return h.total }

// Mean returns the exact mean of recorded samples (tracked outside the
// buckets, so it has no quantization error), or NaN if empty.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return math.NaN()
	}
	return h.sum / float64(h.total)
}

// Percentile estimates the p-th percentile (p in [0, 100]) from bucket
// midpoints, or NaN if empty.
func (h *Histogram) Percentile(p float64) float64 {
	if h.total == 0 {
		return math.NaN()
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	target := p / 100 * float64(h.total)
	cum := uint64(0)
	width := (h.hi - h.lo) / float64(len(h.counts))
	for i, c := range h.counts {
		cum += c
		if float64(cum) >= target {
			return h.lo + (float64(i)+0.5)*width
		}
	}
	return h.hi
}

// At returns P(X <= x) estimated from the buckets.
func (h *Histogram) At(x float64) float64 {
	if h.total == 0 {
		return 0
	}
	if x < h.lo {
		return 0
	}
	if x >= h.hi {
		return 1
	}
	width := (h.hi - h.lo) / float64(len(h.counts))
	idx := int((x - h.lo) / width)
	cum := uint64(0)
	for i := 0; i < idx && i < len(h.counts); i++ {
		cum += h.counts[i]
	}
	// Interpolate within the bucket.
	if idx < len(h.counts) {
		frac := (x - (h.lo + float64(idx)*width)) / width
		cum += uint64(frac * float64(h.counts[idx]))
	}
	return float64(cum) / float64(h.total)
}

// Clamped reports how many samples fell outside [lo, hi].
func (h *Histogram) Clamped() (below, above uint64) { return h.underlo, h.overhi }
