package telemetry

import (
	"testing"

	"philly/internal/failures"
)

func TestClassFor(t *testing.T) {
	cases := map[int]SizeClass{
		1: Size1GPU, 4: Size4GPU, 8: Size8GPU, 16: Size16GPU,
		2: SizeOther, 3: SizeOther, 24: SizeOther, 32: SizeOther,
	}
	for gpus, want := range cases {
		if got := ClassFor(gpus); got != want {
			t.Errorf("ClassFor(%d) = %v, want %v", gpus, got, want)
		}
	}
	if Size1GPU.String() != "1 GPU" || Size16GPU.String() != "16 GPU" || SizeOther.String() != "other" {
		t.Error("SizeClass names wrong")
	}
}

// record folds one sample of a job whose accumulator the test does not
// inspect.
func record(r *Recorder, meta JobMeta, util float64) {
	var u JobUsage
	r.RecordJobMinuteInto(&u, meta, util)
}

func TestRecordJobMinuteGrouping(t *testing.T) {
	r := NewRecorder()
	meta := JobMeta{GPUs: 8, Outcome: failures.Passed, Servers: 1, Colocated: false}
	var u JobUsage
	r.RecordJobMinuteInto(&u, meta, 70)
	r.RecordJobMinuteInto(&u, meta, 80)

	if got := r.SizeStatus(Size8GPU, failures.Passed).Count(); got != 2 {
		t.Errorf("size-status count = %d, want 2", got)
	}
	if got := r.SizeStatus(Size8GPU, failures.Killed).Count(); got != 0 {
		t.Errorf("wrong outcome bucket has %d samples", got)
	}
	if got := r.All().Mean(); got != 75 {
		t.Errorf("all mean = %v, want 75", got)
	}
	if got := r.AllByStatus(failures.Passed).Count(); got != 2 {
		t.Errorf("status margin count = %d", got)
	}
	// Dedicated 8-GPU single-server job feeds Figure 6.
	if got := r.Dedicated8().Count(); got != 2 {
		t.Errorf("dedicated8 count = %d, want 2", got)
	}
	if got := r.Dedicated16().Count(); got != 0 {
		t.Errorf("dedicated16 count = %d, want 0", got)
	}
	if u.Minutes != 2 || u.MeanUtil() != 75 {
		t.Errorf("job usage = %+v", u)
	}
}

func TestColocated8GPUNotDedicated(t *testing.T) {
	r := NewRecorder()
	record(r, JobMeta{GPUs: 8, Outcome: failures.Passed, Servers: 1, Colocated: true}, 50)
	if got := r.Dedicated8().Count(); got != 0 {
		t.Errorf("colocated job leaked into dedicated8: %d", got)
	}
	record(r, JobMeta{GPUs: 8, Outcome: failures.Passed, Servers: 2, Colocated: false}, 50)
	if got := r.Dedicated8().Count(); got != 0 {
		t.Errorf("2-server 8-GPU job leaked into dedicated8: %d", got)
	}
}

func TestSpread16Grouping(t *testing.T) {
	r := NewRecorder()
	for _, servers := range []int{2, 2, 4, 8} {
		record(r, JobMeta{
			GPUs: 16, Outcome: failures.Passed, Servers: servers, Colocated: servers > 2,
		}, 40)
	}
	if got := r.Spread16(2).Count(); got != 2 {
		t.Errorf("spread 2 count = %d, want 2", got)
	}
	if got := r.Spread16(4).Count(); got != 1 {
		t.Errorf("spread 4 count = %d, want 1", got)
	}
	if r.Spread16(3) != nil {
		t.Error("unobserved spread should be nil")
	}
	want := []int{2, 4, 8}
	got := r.Spread16Servers()
	if len(got) != len(want) {
		t.Fatalf("spreads = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("spreads = %v, want %v", got, want)
		}
	}
	// Dedicated 16 = 2 servers, not colocated.
	if got := r.Dedicated16().Count(); got != 2 {
		t.Errorf("dedicated16 count = %d, want 2", got)
	}
}

func TestHostRecording(t *testing.T) {
	r := NewRecorder()
	r.RecordHostMinute(20, 80)
	r.RecordHostMinute(30, 90)
	if got := r.HostCPU().Mean(); got != 25 {
		t.Errorf("host cpu mean = %v, want 25", got)
	}
	if got := r.HostMem().Mean(); got != 85 {
		t.Errorf("host mem mean = %v, want 85", got)
	}
}

func TestJobUsageZeroValue(t *testing.T) {
	var u JobUsage
	if u.Minutes != 0 || u.MeanUtil() != 0 {
		t.Errorf("zero usage = %+v, mean %v", u, u.MeanUtil())
	}
}
