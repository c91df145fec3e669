package training

import (
	"math"
	"testing"
	"testing/quick"

	"philly/internal/stats"
)

func TestCurveDecreasesOverall(t *testing.T) {
	g := stats.NewRNG(2)
	for i := 0; i < 200; i++ {
		c, err := SampleCurve(50, g)
		if err != nil {
			t.Fatal(err)
		}
		if c.Epochs() != 50 {
			t.Fatalf("Epochs = %d, want 50", c.Epochs())
		}
		if c.Losses[49] >= c.Losses[0] {
			t.Fatalf("curve %d: loss did not decrease: first=%v last=%v", i, c.Losses[0], c.Losses[49])
		}
	}
}

func TestBestEpoch(t *testing.T) {
	c := Curve{Losses: []float64{3, 2, 1.5, 1.6, 1.55}}
	e, l := c.BestEpoch()
	if e != 3 || l != 1.5 {
		t.Errorf("BestEpoch = (%d, %v), want (3, 1.5)", e, l)
	}
	empty := Curve{}
	e, l = empty.BestEpoch()
	if e != 0 || !math.IsNaN(l) {
		t.Errorf("empty BestEpoch = (%d, %v)", e, l)
	}
}

func TestEpochWithin(t *testing.T) {
	c := Curve{Losses: []float64{3, 1.0005, 1.2, 1.0}}
	// Best is 1.0 at epoch 4; epoch 2's 1.0005 is within 0.1%.
	if got := c.EpochWithin(0.001); got != 2 {
		t.Errorf("EpochWithin(0.001) = %d, want 2", got)
	}
	// Zero tolerance finds the exact minimum.
	if got := c.EpochWithin(0); got != 4 {
		t.Errorf("EpochWithin(0) = %d, want 4", got)
	}
	if got := (Curve{}).EpochWithin(0.001); got != 0 {
		t.Errorf("empty EpochWithin = %d, want 0", got)
	}
}

func TestFractions(t *testing.T) {
	c := Curve{Losses: []float64{3, 2, 1, 1.1}}
	if got := c.FractionForLowest(); got != 0.75 {
		t.Errorf("FractionForLowest = %v, want 0.75", got)
	}
	if got := c.FractionWithin(0.2); got != 0.75 {
		t.Errorf("FractionWithin(0.2) = %v, want 0.75", got)
	}
	if got := (Curve{}).FractionForLowest(); got != 0 {
		t.Errorf("empty FractionForLowest = %v", got)
	}
}

// Figure 8 shape: most jobs need nearly all epochs for the strict minimum
// but reach within 0.1% of it much earlier.
func TestFigure8ShapeEmerges(t *testing.T) {
	g := stats.NewRNG(7)
	n := 2000
	lateMin := 0
	earlyWithin := 0
	for i := 0; i < n; i++ {
		epochs := 20 + g.IntN(80)
		c, err := SampleCurve(epochs, g)
		if err != nil {
			t.Fatal(err)
		}
		if c.FractionForLowest() > 0.9 {
			lateMin++
		}
		if c.FractionWithin(0.001) <= 0.6 {
			earlyWithin++
		}
	}
	lateFrac := float64(lateMin) / float64(n)
	earlyFrac := float64(earlyWithin) / float64(n)
	// Paper: ~80% of jobs need all epochs for the lowest loss; ~75% reach
	// within 0.1% using only ~40% of epochs. Accept generous bands.
	if lateFrac < 0.7 {
		t.Errorf("only %.2f of curves have late minimum; paper reports ~0.8", lateFrac)
	}
	if earlyFrac < 0.6 {
		t.Errorf("only %.2f of curves reach within 0.1%% early; paper reports ~0.75", earlyFrac)
	}
}

func TestSampleCurveValidation(t *testing.T) {
	if _, err := SampleCurve(0, stats.NewRNG(1)); err == nil {
		t.Error("want error for zero epochs")
	}
	c, err := SampleCurve(1, stats.NewRNG(1))
	if err != nil || c.Epochs() != 1 {
		t.Errorf("single-epoch curve: %v, %v", c, err)
	}
}

func TestJobValidate(t *testing.T) {
	good := Job{Epochs: 10, MinibatchesPerEpoch: 100, BatchTime: 0.2}
	if err := good.Validate(); err != nil {
		t.Errorf("valid job rejected: %v", err)
	}
	bad := []Job{
		{Epochs: 0, MinibatchesPerEpoch: 100, BatchTime: 0.2},
		{Epochs: 10, MinibatchesPerEpoch: 0, BatchTime: 0.2},
		{Epochs: 10, MinibatchesPerEpoch: 100, BatchTime: 0},
		{Epochs: 10, MinibatchesPerEpoch: 100, BatchTime: 0.2, CheckpointEveryEpochs: -1},
	}
	for i, j := range bad {
		if err := j.Validate(); err == nil {
			t.Errorf("bad job %d accepted", i)
		}
	}
}

func TestRuntimeModel(t *testing.T) {
	j := Job{Epochs: 10, MinibatchesPerEpoch: 100, BatchTime: 0.5}
	if got := j.IdealRuntimeSeconds(); got != 500 {
		t.Errorf("IdealRuntimeSeconds = %v, want 500", got)
	}
}

// Property: EpochWithin never exceeds BestEpoch and both are within range.
func TestEpochOrderingProperty(t *testing.T) {
	f := func(seed uint64) bool {
		g := stats.NewRNG(seed)
		n := 1 + g.IntN(120)
		c, err := SampleCurve(n, g)
		if err != nil {
			return false
		}
		best, _ := c.BestEpoch()
		within := c.EpochWithin(0.001)
		if best < 1 || best > n || within < 1 || within > n {
			return false
		}
		return within <= best
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: all generated losses are positive and finite.
func TestLossesFiniteProperty(t *testing.T) {
	f := func(seed uint64) bool {
		g := stats.NewRNG(seed)
		c, err := SampleCurve(60, g)
		if err != nil {
			return false
		}
		for _, l := range c.Losses {
			if l <= 0 || math.IsNaN(l) || math.IsInf(l, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
