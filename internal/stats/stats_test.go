package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewRNGDeterministic(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestNewRNGDifferentSeeds(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d/100 identical draws", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	// Drawing extra values from one child stream must not change another
	// child derived earlier.
	a1 := NewRNG(7).Split("arrivals")
	base := make([]uint64, 10)
	for i := range base {
		base[i] = a1.Uint64()
	}

	g := NewRNG(7)
	a2 := g.Split("arrivals")
	_ = g.Split("failures") // extra derivation after the fact
	for i := range base {
		if got := a2.Uint64(); got != base[i] {
			t.Fatalf("split stream changed by sibling derivation at %d", i)
		}
	}
}

func TestSplitLabelsDiffer(t *testing.T) {
	g := NewRNG(7)
	a := g.Split("a")
	g2 := NewRNG(7)
	b := g2.Split("b")
	same := 0
	for i := 0; i < 50; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("labels a and b gave %d/50 identical draws", same)
	}
}

func TestExponentialMean(t *testing.T) {
	g := NewRNG(3)
	const rate = 0.5
	n := 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += g.Exponential(rate)
	}
	mean := sum / float64(n)
	if math.Abs(mean-1/rate) > 0.05 {
		t.Fatalf("Exponential(%v) mean = %v, want ~%v", rate, mean, 1/rate)
	}
}

func TestExponentialPanicsOnBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for rate <= 0")
		}
	}()
	NewRNG(1).Exponential(0)
}

func TestLogNormalMedian(t *testing.T) {
	g := NewRNG(9)
	mu, sigma := math.Log(10), 1.5
	var vals []float64
	for i := 0; i < 100000; i++ {
		vals = append(vals, g.LogNormal(mu, sigma))
	}
	med := Percentile(vals, 50)
	if math.Abs(med-10) > 0.5 {
		t.Fatalf("LogNormal median = %v, want ~10", med)
	}
}

func TestCategoricalFrequencies(t *testing.T) {
	c := MustCategorical([]float64{1, 2, 7})
	g := NewRNG(5)
	counts := make([]int, 3)
	n := 100000
	for i := 0; i < n; i++ {
		counts[c.Sample(g)]++
	}
	want := []float64{0.1, 0.2, 0.7}
	for i, w := range want {
		got := float64(counts[i]) / float64(n)
		if math.Abs(got-w) > 0.01 {
			t.Fatalf("category %d frequency %v, want ~%v", i, got, w)
		}
	}
}

func TestCategoricalZeroWeightNeverSampled(t *testing.T) {
	c := MustCategorical([]float64{0, 1, 0})
	g := NewRNG(6)
	for i := 0; i < 1000; i++ {
		if got := c.Sample(g); got != 1 {
			t.Fatalf("sampled zero-weight category %d", got)
		}
	}
}

func TestCategoricalErrors(t *testing.T) {
	if _, err := NewCategorical(nil); err == nil {
		t.Error("want error for empty weights")
	}
	if _, err := NewCategorical([]float64{0, 0}); err == nil {
		t.Error("want error for all-zero weights")
	}
	if _, err := NewCategorical([]float64{1, -1}); err == nil {
		t.Error("want error for negative weight")
	}
	if _, err := NewCategorical([]float64{math.NaN()}); err == nil {
		t.Error("want error for NaN weight")
	}
}

func TestZipfSkew(t *testing.T) {
	z, err := NewZipf(100, 1.1)
	if err != nil {
		t.Fatal(err)
	}
	g := NewRNG(8)
	counts := make([]int, 100)
	for i := 0; i < 50000; i++ {
		counts[z.Sample(g)]++
	}
	if counts[0] <= counts[50] {
		t.Fatalf("zipf rank 0 (%d) not more frequent than rank 50 (%d)", counts[0], counts[50])
	}
	if counts[0] < 5*counts[99] {
		t.Fatalf("zipf insufficiently skewed: rank0=%d rank99=%d", counts[0], counts[99])
	}
}

func TestZipfErrors(t *testing.T) {
	if _, err := NewZipf(0, 1); err == nil {
		t.Error("want error for n=0")
	}
	if _, err := NewZipf(10, 0); err == nil {
		t.Error("want error for s=0")
	}
}

func TestNormalQuantile(t *testing.T) {
	cases := []struct{ p, want float64 }{
		{0.5, 0},
		{0.9, 1.2815515655},
		{0.95, 1.6448536270},
		{0.975, 1.9599639845},
		{0.05, -1.6448536270},
	}
	for _, c := range cases {
		got := NormalQuantile(c.p)
		if math.Abs(got-c.want) > 1e-6 {
			t.Errorf("NormalQuantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestLogNormalFromQuantiles(t *testing.T) {
	spec, err := LogNormalFromQuantiles(10, 0.9, 100)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(spec.Quantile(0.5)-10) > 1e-9 {
		t.Errorf("median = %v, want 10", spec.Quantile(0.5))
	}
	if math.Abs(spec.Quantile(0.9)-100) > 1e-6 {
		t.Errorf("p90 = %v, want 100", spec.Quantile(0.9))
	}
	// Sampling should roughly recover the quantiles.
	g := NewRNG(10)
	var vals []float64
	for i := 0; i < 100000; i++ {
		vals = append(vals, spec.Sample(g))
	}
	if med := Percentile(vals, 50); math.Abs(med-10) > 1 {
		t.Errorf("sampled median %v, want ~10", med)
	}
}

func TestLogNormalFromQuantilesErrors(t *testing.T) {
	if _, err := LogNormalFromQuantiles(0, 0.9, 10); err == nil {
		t.Error("want error for non-positive median")
	}
	if _, err := LogNormalFromQuantiles(10, 0.9, 5); err == nil {
		t.Error("want error for pq < p50")
	}
	if _, err := LogNormalFromQuantiles(10, 0.4, 20); err == nil {
		t.Error("want error for q <= 0.5")
	}
}

func TestLogNormalFromQuantilesDegenerate(t *testing.T) {
	// pq == p50 should give sigma 0 (a point mass).
	spec, err := LogNormalFromQuantiles(10, 0.9, 10)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Sigma != 0 {
		t.Fatalf("sigma = %v, want 0", spec.Sigma)
	}
	g := NewRNG(2)
	if v := spec.Sample(g); math.Abs(v-10) > 1e-9 {
		t.Fatalf("degenerate sample = %v, want 10", v)
	}
}

func TestPercentile(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {50, 3}, {100, 5}, {25, 2}, {75, 4},
	}
	for _, c := range cases {
		if got := Percentile(vals, c.p); got != c.want {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Error("Percentile of empty slice should be NaN")
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	vals := []float64{3, 1, 2}
	Percentile(vals, 50)
	if vals[0] != 3 || vals[1] != 1 || vals[2] != 2 {
		t.Fatalf("Percentile mutated input: %v", vals)
	}
}

func TestCDFBasics(t *testing.T) {
	c := NewCDF([]float64{1, 2, 2, 3})
	if got := c.At(0); got != 0 {
		t.Errorf("At(0) = %v, want 0", got)
	}
	if got := c.At(2); got != 0.75 {
		t.Errorf("At(2) = %v, want 0.75", got)
	}
	if got := c.At(3); got != 1 {
		t.Errorf("At(3) = %v, want 1", got)
	}
	if got := c.Median(); got != 2 {
		t.Errorf("Median = %v, want 2", got)
	}
	if got := c.Min(); got != 1 {
		t.Errorf("Min = %v, want 1", got)
	}
	if got := c.Max(); got != 3 {
		t.Errorf("Max = %v, want 3", got)
	}
}

func TestCDFEmptyIsSafe(t *testing.T) {
	c := NewCDF(nil)
	if c.At(1) != 0 {
		t.Error("empty CDF At should be 0")
	}
	if !math.IsNaN(c.Median()) {
		t.Error("empty CDF Median should be NaN")
	}
}

func TestCDFMonotoneProperty(t *testing.T) {
	f := func(raw []float64, a, b float64) bool {
		vals := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			return true
		}
		c := NewCDF(vals)
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		lo, hi := a, b
		if lo > hi {
			lo, hi = hi, lo
		}
		return c.At(lo) <= c.At(hi)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestHistogramMeanExact(t *testing.T) {
	h := NewHistogram(0, 100, 100)
	vals := []float64{10, 20, 30, 40}
	for _, v := range vals {
		h.Add(v)
	}
	if got := h.Mean(); got != 25 {
		t.Errorf("Mean = %v, want 25", got)
	}
	if h.Count() != 4 {
		t.Errorf("Count = %d, want 4", h.Count())
	}
}

func TestHistogramClamping(t *testing.T) {
	h := NewHistogram(0, 100, 10)
	h.Add(-5)
	h.Add(150)
	below, above := h.Clamped()
	if below != 1 || above != 1 {
		t.Errorf("Clamped = (%d, %d), want (1, 1)", below, above)
	}
	if h.Count() != 2 {
		t.Errorf("Count = %d, want 2", h.Count())
	}
}

func TestHistogramPercentile(t *testing.T) {
	h := NewHistogram(0, 100, 100)
	for i := 1; i <= 100; i++ {
		h.Add(float64(i) - 0.5) // one sample per bucket
	}
	if got := h.Percentile(50); math.Abs(got-49.5) > 1 {
		t.Errorf("Percentile(50) = %v, want ~49.5", got)
	}
	if got := h.Percentile(95); math.Abs(got-94.5) > 1.5 {
		t.Errorf("Percentile(95) = %v, want ~94.5", got)
	}
}

func TestHistogramMerge(t *testing.T) {
	a := NewHistogram(0, 10, 10)
	b := NewHistogram(0, 10, 10)
	a.Add(1)
	b.Add(9)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Count() != 2 {
		t.Errorf("merged count = %d, want 2", a.Count())
	}
	if got := a.Mean(); got != 5 {
		t.Errorf("merged mean = %v, want 5", got)
	}
}

func TestHistogramMergeShapeMismatch(t *testing.T) {
	a := NewHistogram(0, 10, 10)
	b := NewHistogram(0, 20, 10)
	if err := a.Merge(b); err == nil {
		t.Error("want error for shape mismatch")
	}
	if err := a.Merge(nil); err != nil {
		t.Errorf("merging nil should be a no-op, got %v", err)
	}
}

func TestHistogramAtProperty(t *testing.T) {
	f := func(seed uint64) bool {
		h := NewHistogram(0, 100, 50)
		g := NewRNG(seed)
		for i := 0; i < 200; i++ {
			h.Add(g.Uniform(0, 100))
		}
		// At must be monotone and bounded.
		prev := 0.0
		for x := -10.0; x <= 110; x += 5 {
			v := h.At(x)
			if v < 0 || v > 1 || v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMeanSum(t *testing.T) {
	if got := Mean([]float64{2, 4}); got != 3 {
		t.Errorf("Mean = %v, want 3", got)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Error("Mean(nil) should be NaN")
	}
	if got := Sum([]float64{1, 2, 3}); got != 6 {
		t.Errorf("Sum = %v, want 6", got)
	}
}

// TestHistogramExtremeValues pins the clamping behavior for samples whose
// bucket quotient would overflow the float-to-int conversion: the range
// checks run on the float quotient, so huge positive samples (and +Inf)
// clamp into the top edge bucket with overhi tracked, and negative/NaN
// samples clamp into the bottom edge bucket with underlo tracked — no
// index-out-of-range panic in either direction.
func TestHistogramExtremeValues(t *testing.T) {
	h := NewHistogram(0, 1, 10)
	above := []float64{1e19, 1e300, math.Inf(1)}
	below := []float64{-1e300, math.Inf(-1), math.NaN()}
	for _, v := range append(append([]float64(nil), above...), below...) {
		h.Add(v) // must not panic
	}
	if h.Count() != 6 {
		t.Errorf("count = %d, want 6", h.Count())
	}
	if h.counts[len(h.counts)-1] != uint64(len(above)) || h.overhi != uint64(len(above)) {
		t.Errorf("top bucket = %d (overhi %d), want %d huge samples clamped high",
			h.counts[len(h.counts)-1], h.overhi, len(above))
	}
	if h.counts[0] != uint64(len(below)) || h.underlo != uint64(len(below)) {
		t.Errorf("bottom bucket = %d (underlo %d), want %d low/NaN samples clamped low",
			h.counts[0], h.underlo, len(below))
	}
}

// TestHistogramBucketForMatchesAdd pins Add's open-coded bucket selection to
// BucketFor+AddAt: the telemetry fan-out relies on the two paths choosing
// identical buckets for every input, including the clamped and degenerate
// edges.
func TestHistogramBucketForMatchesAdd(t *testing.T) {
	values := []float64{
		-1e300, -5, -0.0001, 0, 0.0001, 0.5, 1, 49.999999, 50, 99.999999,
		100, 100.0001, 1e19, 1e300, math.Inf(-1), math.Inf(1), math.NaN(),
	}
	direct := NewHistogram(0, 100, 100)
	viaAt := NewHistogram(0, 100, 100)
	for _, v := range values {
		direct.Add(v)
		idx, under, over := viaAt.BucketFor(v)
		viaAt.AddAt(v, idx, under, over)
	}
	for i := 0; i < 100; i++ {
		if direct.counts[i] != viaAt.counts[i] {
			t.Fatalf("bucket %d: Add path %d, BucketFor+AddAt path %d", i, direct.counts[i], viaAt.counts[i])
		}
	}
	if direct.underlo != viaAt.underlo || direct.overhi != viaAt.overhi || direct.total != viaAt.total {
		t.Fatalf("edge trackers diverged: Add {u:%d o:%d n:%d} vs AddAt {u:%d o:%d n:%d}",
			direct.underlo, direct.overhi, direct.total, viaAt.underlo, viaAt.overhi, viaAt.total)
	}
}
