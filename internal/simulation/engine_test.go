package simulation

import (
	"testing"
	"testing/quick"
)

func TestTimeConversions(t *testing.T) {
	if got := (90 * Second).Minutes(); got != 1.5 {
		t.Errorf("Minutes = %v, want 1.5", got)
	}
	if got := (2 * Hour).Hours(); got != 2 {
		t.Errorf("Hours = %v, want 2", got)
	}
	if got := FromMinutes(1.5); got != 90 {
		t.Errorf("FromMinutes(1.5) = %v, want 90", got)
	}
	if got := (Day + Hour + Minute + Second).String(); got != "1.01:01:01" {
		t.Errorf("String = %q", got)
	}
	if got := Time(-61).String(); got != "-0.00:01:01" {
		t.Errorf("negative String = %q", got)
	}
}

func TestEventsRunInTimeOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(30, func() { order = append(order, 3) })
	e.At(10, func() { order = append(order, 1) })
	e.At(20, func() { order = append(order, 2) })
	e.Run(100)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if e.Now() != 100 {
		t.Errorf("Now = %v, want 100 (advanced to horizon)", e.Now())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { order = append(order, i) })
	}
	e.Run(10)
	for i, v := range order {
		if v != i {
			t.Fatalf("simultaneous events not FIFO: %v", order)
		}
	}
}

func TestHorizonStopsExecution(t *testing.T) {
	e := NewEngine()
	ran := false
	e.At(50, func() { ran = true })
	e.At(150, func() { t.Error("event beyond horizon ran") })
	n := e.Run(100)
	if !ran {
		t.Error("event before horizon did not run")
	}
	if n != 1 {
		t.Errorf("Run returned %d, want 1", n)
	}
	if e.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", e.Pending())
	}
	// Events at exactly the horizon run.
	e2 := NewEngine()
	atHorizon := false
	e2.At(100, func() { atHorizon = true })
	e2.Run(100)
	if !atHorizon {
		t.Error("event at exact horizon did not run")
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("want panic when scheduling in the past")
			}
		}()
		e.At(50, func() {})
	})
	e.Run(200)
}

func TestNilEventPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for nil event")
		}
	}()
	NewEngine().At(10, nil)
}

func TestAfterClampsNegative(t *testing.T) {
	e := NewEngine()
	ran := false
	e.At(10, func() {
		e.After(-5, func() { ran = true })
	})
	e.Run(20)
	if !ran {
		t.Error("After with negative delay did not run at now")
	}
}

func TestStop(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := Time(1); i <= 10; i++ {
		e.At(i, func() {
			count++
			if count == 3 {
				e.Stop()
			}
		})
	}
	e.Run(100)
	if count != 3 {
		t.Errorf("count = %d, want 3 after Stop", count)
	}
	// Run can resume after a stop.
	e.Run(100)
	if count != 10 {
		t.Errorf("count = %d, want 10 after resume", count)
	}
}

func TestSelfScheduling(t *testing.T) {
	e := NewEngine()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 5 {
			e.After(10, tick)
		}
	}
	e.At(0, tick)
	e.Run(1000)
	if count != 5 {
		t.Errorf("count = %d, want 5", count)
	}
	if e.Processed() != 5 {
		t.Errorf("Processed = %d, want 5", e.Processed())
	}
}

func TestTicker(t *testing.T) {
	e := NewEngine()
	var at []Time
	e.Ticker(0, 60, func(now Time) bool {
		at = append(at, now)
		return len(at) < 4
	})
	e.Run(10000)
	want := []Time{0, 60, 120, 180}
	if len(at) != len(want) {
		t.Fatalf("ticks = %v, want %v", at, want)
	}
	for i := range want {
		if at[i] != want[i] {
			t.Fatalf("tick %d at %v, want %v", i, at[i], want[i])
		}
	}
}

func TestTickerBadIntervalPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for non-positive interval")
		}
	}()
	NewEngine().Ticker(0, 0, func(Time) bool { return false })
}

func TestEngineDeterminismProperty(t *testing.T) {
	// Two engines fed the same schedule execute identically.
	f := func(delays []uint8) bool {
		run := func() []Time {
			e := NewEngine()
			var log []Time
			for _, d := range delays {
				at := Time(d)
				e.At(at, func() { log = append(log, e.Now()) })
			}
			e.Run(Time(300))
			return log
		}
		a, b := run(), run()
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
