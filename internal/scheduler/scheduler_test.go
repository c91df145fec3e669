package scheduler

import (
	"testing"

	"philly/internal/cluster"
	"philly/internal/simulation"
)

// testCluster: 2 racks x 2 servers x 8 GPUs = 32 GPUs.
func testCluster() *cluster.Cluster {
	return cluster.MustNew(cluster.Config{Racks: []cluster.RackConfig{
		{Servers: 2, SKU: cluster.SKU8GPU},
		{Servers: 2, SKU: cluster.SKU8GPU},
	}})
}

func newSched(t *testing.T, cfg Config, cl *cluster.Cluster, vcs []VC) *Scheduler {
	t.Helper()
	s, err := New(cfg, cl, vcs)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func defaultVCs() []VC {
	return []VC{{Name: "vca", Quota: 16}, {Name: "vcb", Quota: 16}}
}

func TestNewValidation(t *testing.T) {
	cl := testCluster()
	if _, err := New(DefaultConfig(), nil, defaultVCs()); err == nil {
		t.Error("want error for nil cluster")
	}
	if _, err := New(DefaultConfig(), cl, nil); err == nil {
		t.Error("want error for no VCs")
	}
	if _, err := New(DefaultConfig(), cl, []VC{{Name: "", Quota: 8}}); err == nil {
		t.Error("want error for empty VC name")
	}
	if _, err := New(DefaultConfig(), cl, []VC{{Name: "a", Quota: 8}, {Name: "a", Quota: 8}}); err == nil {
		t.Error("want error for duplicate VC")
	}
	bad := DefaultConfig()
	bad.Backoff = 0
	if _, err := New(bad, cl, defaultVCs()); err == nil {
		t.Error("want error for zero backoff")
	}
	bad2 := DefaultConfig()
	bad2.RelaxToAnyAfter = 1
	bad2.RelaxToRackAfter = 5
	if _, err := New(bad2, cl, defaultVCs()); err == nil {
		t.Error("want error for inverted relax thresholds")
	}
}

func TestSubmitValidation(t *testing.T) {
	s := newSched(t, DefaultConfig(), testCluster(), defaultVCs())
	if err := s.Submit(NewJob(1, "nope", 1, 0), 0); err == nil {
		t.Error("want error for unknown VC")
	}
	if err := s.Submit(NewJob(1, "vca", 0, 0), 0); err == nil {
		t.Error("want error for zero GPUs")
	}
	if err := s.Submit(NewJob(1, "vca", 33, 0), 0); err == nil {
		t.Error("want error for impossible gang width")
	}
	j := NewJob(1, "vca", 1, 0)
	if err := s.Submit(j, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(j, 0); err == nil {
		t.Error("want error for double submit")
	}
}

func TestImmediateStartOnEmptyCluster(t *testing.T) {
	s := newSched(t, DefaultConfig(), testCluster(), defaultVCs())
	j := NewJob(1, "vca", 8, 0)
	if err := s.Submit(j, 0); err != nil {
		t.Fatal(err)
	}
	res := s.Pump(0)
	if len(res.Starts) != 1 {
		t.Fatalf("starts = %d, want 1", len(res.Starts))
	}
	ev := res.Starts[0]
	if ev.Job.ID != 1 || ev.Placement.NumGPUs() != 8 {
		t.Fatalf("bad start event %+v", ev)
	}
	if ev.Placement.NumServers() != 1 {
		t.Errorf("8-GPU job on %d servers, want packed on 1", ev.Placement.NumServers())
	}
	if j.State != StateRunning || j.FirstQueueDelay != 0 {
		t.Errorf("job state %v delay %v", j.State, j.FirstQueueDelay)
	}
	if s.VCUsage("vca") != 8 {
		t.Errorf("VC usage = %d, want 8", s.VCUsage("vca"))
	}
	if ev.OutOfOrder {
		t.Error("lone job cannot be out of order")
	}
}

func TestGangSchedulingAllOrNothing(t *testing.T) {
	cl := testCluster()
	s := newSched(t, DefaultConfig(), cl, defaultVCs())
	// Fill 28 of 32 GPUs.
	filler := NewJob(1, "vca", 16, 0)
	filler2 := NewJob(2, "vcb", 12, 0)
	if err := s.Submit(filler, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(filler2, 0); err != nil {
		t.Fatal(err)
	}
	s.Pump(0)
	if cl.FreeGPUs() != 4 {
		t.Fatalf("free = %d, want 4", cl.FreeGPUs())
	}
	// An 8-GPU job must not start on 4 free GPUs.
	big := NewJob(3, "vcb", 8, 10)
	if err := s.Submit(big, 10); err != nil {
		t.Fatal(err)
	}
	res := s.Pump(10)
	if len(res.Starts) != 0 {
		t.Fatal("gang violated: partial capacity start")
	}
	if big.State != StateQueued {
		t.Fatal("job should remain queued")
	}
	if cl.FreeGPUs() != 4 {
		t.Error("blocked job must hold nothing")
	}
	if res.NextWake != 10+DefaultConfig().Backoff {
		t.Errorf("NextWake = %v, want %v", res.NextWake, 10+DefaultConfig().Backoff)
	}
}

func TestDelayCauseAttribution(t *testing.T) {
	cl := testCluster()
	s := newSched(t, DefaultConfig(), cl, []VC{{Name: "vca", Quota: 8}, {Name: "vcb", Quota: 32}})
	// vca uses its full quota.
	a1 := NewJob(1, "vca", 8, 0)
	if err := s.Submit(a1, 0); err != nil {
		t.Fatal(err)
	}
	// vcb fills the rest of the cluster (borrowing beyond... no, 24 within quota).
	b1 := NewJob(2, "vcb", 24, 0)
	if err := s.Submit(b1, 0); err != nil {
		t.Fatal(err)
	}
	s.Pump(0)
	if cl.FreeGPUs() != 0 {
		t.Fatalf("free = %d, want 0", cl.FreeGPUs())
	}
	// vca submits another job: it is over quota -> fair-share delay.
	a2 := NewJob(3, "vca", 8, 5)
	if err := s.Submit(a2, 5); err != nil {
		t.Fatal(err)
	}
	s.Pump(5)
	if a2.FairShareBlocks != 1 || a2.FragBlocks != 0 {
		t.Errorf("fair-share blocks = %d, frag = %d; want 1, 0", a2.FairShareBlocks, a2.FragBlocks)
	}
	if a2.Cause() != DelayFairShare {
		t.Errorf("cause = %v, want fair-share", a2.Cause())
	}
	// vcb submits a job within quota but the cluster is full -> fragmentation.
	b2 := NewJob(4, "vcb", 8, 6)
	if err := s.Submit(b2, 6); err != nil {
		t.Fatal(err)
	}
	s.Pump(6)
	if b2.FragBlocks != 1 || b2.FairShareBlocks != 0 {
		t.Errorf("frag blocks = %d, fair-share = %d; want 1, 0", b2.FragBlocks, b2.FairShareBlocks)
	}
	if b2.Cause() != DelayFragmentation {
		t.Errorf("cause = %v, want fragmentation", b2.Cause())
	}
}

func TestFragmentationThenLocalityRelaxation(t *testing.T) {
	cl := testCluster()
	cfg := DefaultConfig()
	cfg.RelaxToRackAfter = 2
	cfg.RelaxToAnyAfter = 4
	s := newSched(t, cfg, cl, []VC{{Name: "vca", Quota: 32}})
	// Fragment the cluster: occupy 2 GPUs on every server so no server has
	// 8 free and no rack has 16 free... each server has 6 free, each rack
	// 12 free; cluster has 24 free.
	for i, srv := range cl.Servers() {
		if err := cl.Allocate(cluster.JobID(100+i), cluster.Placement{
			Slots: []cluster.Slot{{Server: srv.ID, GPU: 0}, {Server: srv.ID, GPU: 1}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	// A 16-GPU job cannot be packed (needs 2 full servers in one rack) nor
	// placed rack-local (12 free per rack); relaxed works (24 free).
	j := NewJob(1, "vca", 16, 0)
	if err := s.Submit(j, 0); err != nil {
		t.Fatal(err)
	}
	now := simulation.Time(0)
	for attempt := 0; attempt < 4; attempt++ {
		res := s.Pump(now)
		if len(res.Starts) != 0 {
			t.Fatalf("started at attempt %d (level should still be constrained)", attempt)
		}
		now = res.NextWake
	}
	res := s.Pump(now)
	if len(res.Starts) != 1 {
		t.Fatalf("relaxed placement did not start the job (attempts=%d)", j.Attempts)
	}
	if res.Starts[0].Locality != cluster.LocalityRelaxed {
		t.Errorf("locality = %v, want relaxed", res.Starts[0].Locality)
	}
	if got := res.Starts[0].Placement.NumServers(); got < 3 {
		t.Errorf("relaxed 16-GPU placement on %d servers; expect spread >= 3", got)
	}
	if j.Cause() != DelayFragmentation {
		t.Errorf("cause = %v, want fragmentation", j.Cause())
	}
}

func TestQuotaBorrowingWorkConserving(t *testing.T) {
	cl := testCluster()
	s := newSched(t, DefaultConfig(), cl, []VC{{Name: "vca", Quota: 8}, {Name: "vcb", Quota: 24}})
	// vca wants 24 GPUs: 16 over quota, but vcb is idle -> borrow.
	j := NewJob(1, "vca", 24, 0)
	if err := s.Submit(j, 0); err != nil {
		t.Fatal(err)
	}
	res := s.Pump(0)
	if len(res.Starts) != 1 {
		t.Fatal("work-conserving borrow failed")
	}
	if s.VCUsage("vca") != 24 {
		t.Errorf("usage = %d", s.VCUsage("vca"))
	}
}

func TestOutOfOrderTracking(t *testing.T) {
	cl := testCluster()
	s := newSched(t, DefaultConfig(), cl, []VC{{Name: "vca", Quota: 32}})
	// Large job that cannot fit (cluster fragmented), then a small job that
	// can: small one starts out of order.
	for i, srv := range cl.Servers() {
		if err := cl.Allocate(cluster.JobID(100+i), cluster.Placement{
			Slots: []cluster.Slot{{Server: srv.ID, GPU: 0}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	big := NewJob(1, "vca", 32, 0) // impossible now (28 free)
	small := NewJob(2, "vca", 1, 5)
	if err := s.Submit(big, 0); err != nil {
		t.Fatal(err)
	}
	s.Pump(0)
	if err := s.Submit(small, 5); err != nil {
		t.Fatal(err)
	}
	res := s.Pump(5)
	if len(res.Starts) != 1 || res.Starts[0].Job.ID != 2 {
		t.Fatalf("small job should start, got %+v", res.Starts)
	}
	if !res.Starts[0].OutOfOrder {
		t.Error("start should be out of order")
	}
	if !res.Starts[0].Harmless {
		t.Error("overtake is harmless: the big job cannot place regardless")
	}
	if !big.Overtaken {
		t.Error("big job should be marked overtaken")
	}
	st := s.Stats()
	if st.OutOfOrderStarts != 1 || st.HarmlessOutOfOrder != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestFIFOHeadOfLineBlocks(t *testing.T) {
	cl := testCluster()
	cfg := DefaultConfig()
	cfg.Policy = PolicyFIFO
	s := newSched(t, cfg, cl, []VC{{Name: "vca", Quota: 32}})
	// Make a 32-GPU head impossible, then a small job behind it.
	if err := cl.Allocate(999, cluster.Placement{Slots: []cluster.Slot{{Server: 0, GPU: 0}}}); err != nil {
		t.Fatal(err)
	}
	big := NewJob(1, "vca", 32, 0)
	small := NewJob(2, "vca", 1, 1)
	if err := s.Submit(big, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(small, 1); err != nil {
		t.Fatal(err)
	}
	res := s.Pump(1)
	if len(res.Starts) != 0 {
		t.Fatal("FIFO must not start the small job past a blocked head")
	}
}

func TestReleaseAndRetrySubmit(t *testing.T) {
	cl := testCluster()
	s := newSched(t, DefaultConfig(), cl, defaultVCs())
	j := NewJob(1, "vca", 4, 0)
	if err := s.Submit(j, 0); err != nil {
		t.Fatal(err)
	}
	s.Pump(0)
	if err := s.Release(j, 100); err != nil {
		t.Fatal(err)
	}
	if cl.FreeGPUs() != 32 {
		t.Errorf("free = %d after release", cl.FreeGPUs())
	}
	if j.State != StateFinished {
		t.Errorf("state = %v", j.State)
	}
	if j.PriorAttainedGPUSeconds != 400 {
		t.Errorf("attained = %v, want 400", j.PriorAttainedGPUSeconds)
	}
	if err := s.Release(j, 100); err == nil {
		t.Error("want error for double release")
	}
	// Retry: resubmit same job.
	if err := s.Submit(j, 200); err != nil {
		t.Fatal(err)
	}
	res := s.Pump(200)
	if len(res.Starts) != 1 {
		t.Fatal("retry did not start")
	}
	// FirstQueueDelay must reflect only the first episode.
	if j.FirstQueueDelay != 0 {
		t.Errorf("FirstQueueDelay = %v", j.FirstQueueDelay)
	}
}

func TestFairSharePreemption(t *testing.T) {
	cl := testCluster()
	cfg := DefaultConfig()
	s := newSched(t, cfg, cl, []VC{{Name: "vca", Quota: 16}, {Name: "vcb", Quota: 16}})
	// vcb borrows the whole cluster.
	b1 := NewJob(1, "vcb", 16, 0)
	b2 := NewJob(2, "vcb", 16, 1)
	if err := s.Submit(b1, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(b2, 1); err != nil {
		t.Fatal(err)
	}
	s.Pump(0)
	s.Pump(1)
	if cl.FreeGPUs() != 0 {
		t.Fatalf("free = %d, want 0", cl.FreeGPUs())
	}
	// vca (fully under quota) submits: occupancy is 100% >= 90%, so the
	// scheduler must preempt vcb's over-quota job.
	a := NewJob(3, "vca", 16, 10)
	if err := s.Submit(a, 10); err != nil {
		t.Fatal(err)
	}
	res := s.Pump(10)
	if len(res.Preemptions) == 0 {
		t.Fatal("no preemption for entitled job")
	}
	if !res.Preemptions[0].FairShare {
		t.Error("preemption should be fair-share")
	}
	// The youngest over-quota job (b2) is the victim.
	if res.Preemptions[0].Job.ID != 2 {
		t.Errorf("victim = %d, want 2 (youngest)", res.Preemptions[0].Job.ID)
	}
	started := false
	for _, ev := range res.Starts {
		if ev.Job.ID == 3 {
			started = true
		}
	}
	if !started {
		t.Error("entitled job did not start after preemption")
	}
	if b2.State != StateQueued {
		t.Errorf("victim state = %v, want requeued", b2.State)
	}
	if s.Stats().FairSharePreemptions == 0 {
		t.Error("stats missed fair-share preemption")
	}
}

func TestNoPreemptionBelowOccupancyThreshold(t *testing.T) {
	cl := testCluster()
	s := newSched(t, DefaultConfig(), cl, []VC{{Name: "vca", Quota: 4}, {Name: "vcb", Quota: 28}})
	// vca runs over quota but cluster is half empty.
	a := NewJob(1, "vca", 16, 0)
	if err := s.Submit(a, 0); err != nil {
		t.Fatal(err)
	}
	s.Pump(0)
	b := NewJob(2, "vcb", 8, 1)
	if err := s.Submit(b, 1); err != nil {
		t.Fatal(err)
	}
	res := s.Pump(1)
	if len(res.Preemptions) != 0 {
		t.Error("preempted below the 90% occupancy threshold")
	}
	if len(res.Starts) != 1 {
		t.Error("b should start on free GPUs")
	}
}

func TestSRTFOrdersByRemaining(t *testing.T) {
	cl := testCluster()
	cfg := DefaultConfig()
	cfg.Policy = PolicySRTF
	s := newSched(t, cfg, cl, []VC{{Name: "vca", Quota: 32}})
	// Fill the cluster, then queue two jobs; on release the shorter one
	// must start first despite arriving later.
	filler := NewJob(1, "vca", 32, 0)
	if err := s.Submit(filler, 0); err != nil {
		t.Fatal(err)
	}
	s.Pump(0)
	long := NewJob(2, "vca", 8, 1)
	long.RemainingSeconds = 10000
	short := NewJob(3, "vca", 8, 2)
	short.RemainingSeconds = 100
	if err := s.Submit(long, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(short, 2); err != nil {
		t.Fatal(err)
	}
	if err := s.Release(filler, 1000); err != nil {
		t.Fatal(err)
	}
	res := s.Pump(1000)
	if len(res.Starts) < 2 {
		t.Fatalf("starts = %d", len(res.Starts))
	}
	if res.Starts[0].Job.ID != 3 {
		t.Errorf("SRTF started job %d first, want 3 (shortest)", res.Starts[0].Job.ID)
	}
}

func TestSRTFPreemptsLongerJob(t *testing.T) {
	cl := testCluster()
	cfg := DefaultConfig()
	cfg.Policy = PolicySRTF
	cfg.PreemptMinRun = 0
	s := newSched(t, cfg, cl, []VC{{Name: "vca", Quota: 32}})
	long := NewJob(1, "vca", 32, 0)
	long.RemainingSeconds = 100000
	if err := s.Submit(long, 0); err != nil {
		t.Fatal(err)
	}
	s.Pump(0)
	short := NewJob(2, "vca", 8, 100)
	short.RemainingSeconds = 60
	if err := s.Submit(short, 100); err != nil {
		t.Fatal(err)
	}
	res := s.Pump(100)
	if len(res.Preemptions) != 1 || res.Preemptions[0].Job.ID != 1 {
		t.Fatalf("SRTF should preempt the long job: %+v", res.Preemptions)
	}
	if res.Preemptions[0].FairShare {
		t.Error("policy preemption mislabeled fair-share")
	}
	started := false
	for _, ev := range res.Starts {
		if ev.Job.ID == 2 {
			started = true
		}
	}
	if !started {
		t.Error("short job did not start after preemption")
	}
}

func TestTiresiasPrefersLeastAttained(t *testing.T) {
	cl := testCluster()
	cfg := DefaultConfig()
	cfg.Policy = PolicyTiresias
	cfg.PreemptMinRun = 0
	s := newSched(t, cfg, cl, []VC{{Name: "vca", Quota: 32}})
	old := NewJob(1, "vca", 32, 0)
	if err := s.Submit(old, 0); err != nil {
		t.Fatal(err)
	}
	s.Pump(0)
	// After a long run, a fresh job (zero attained service) preempts it.
	fresh := NewJob(2, "vca", 8, 50000)
	if err := s.Submit(fresh, 50000); err != nil {
		t.Fatal(err)
	}
	res := s.Pump(50000)
	if len(res.Preemptions) != 1 || res.Preemptions[0].Job.ID != 1 {
		t.Fatalf("Tiresias should preempt the high-attained job: %+v", res.Preemptions)
	}
}

func TestGandivaTimeSlicing(t *testing.T) {
	cl := testCluster()
	cfg := DefaultConfig()
	cfg.Policy = PolicyGandiva
	cfg.GandivaQuantum = 10 * simulation.Minute
	cfg.PreemptMinRun = 0
	s := newSched(t, cfg, cl, []VC{{Name: "vca", Quota: 32}})
	a := NewJob(1, "vca", 32, 0)
	if err := s.Submit(a, 0); err != nil {
		t.Fatal(err)
	}
	s.Pump(0)
	b := NewJob(2, "vca", 32, 60)
	if err := s.Submit(b, 60); err != nil {
		t.Fatal(err)
	}
	// Before the quantum elapses, no rotation.
	res := s.Pump(60)
	if len(res.Preemptions) != 0 {
		t.Fatal("rotated before quantum")
	}
	// After the quantum, the running job rotates out.
	res = s.Pump(15 * simulation.Minute)
	if len(res.Preemptions) != 1 || res.Preemptions[0].Job.ID != 1 {
		t.Fatalf("expected rotation of job 1: %+v", res.Preemptions)
	}
	started := false
	for _, ev := range res.Starts {
		if ev.Job.ID == 2 {
			started = true
		}
	}
	if !started {
		t.Error("waiting job did not start after rotation")
	}
}

func TestPumpDeterminism(t *testing.T) {
	run := func() []cluster.JobID {
		cl := testCluster()
		s, err := New(DefaultConfig(), cl, defaultVCs())
		if err != nil {
			t.Fatal(err)
		}
		var order []cluster.JobID
		now := simulation.Time(0)
		for i := 0; i < 20; i++ {
			vc := "vca"
			if i%2 == 1 {
				vc = "vcb"
			}
			j := NewJob(cluster.JobID(i+1), vc, 1+(i%8), now)
			if err := s.Submit(j, now); err != nil {
				t.Fatal(err)
			}
			res := s.Pump(now)
			for _, ev := range res.Starts {
				order = append(order, ev.Job.ID)
			}
			if i%3 == 2 && len(s.RunningJobs()) > 0 {
				victim := s.RunningJobs()[0]
				if err := s.Release(victim, now); err != nil {
					t.Fatal(err)
				}
				res = s.Pump(now)
				for _, ev := range res.Starts {
					order = append(order, ev.Job.ID)
				}
			}
			now += 30
		}
		return order
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestQueueAccessors(t *testing.T) {
	s := newSched(t, DefaultConfig(), testCluster(), defaultVCs())
	j := NewJob(1, "vca", 40, 0)
	if err := s.Submit(j, 0); err == nil {
		t.Fatal("over-capacity job accepted")
	}
	j = NewJob(1, "vca", 8, 0)
	if err := s.Submit(j, 0); err != nil {
		t.Fatal(err)
	}
	if s.QueueLen("vca") != 1 || s.QueueLen("vcb") != 0 || s.QueueLen("nope") != 0 {
		t.Error("QueueLen wrong")
	}
	if len(s.QueuedJobs()) != 1 {
		t.Error("QueuedJobs wrong")
	}
	s.Pump(0)
	if len(s.RunningJobs()) != 1 || s.RunningJobs()[0].ID != 1 {
		t.Error("RunningJobs wrong")
	}
}

func TestPolicyNames(t *testing.T) {
	names := map[Policy]string{
		PolicyPhilly: "philly", PolicyFIFO: "fifo", PolicySRTF: "srtf",
		PolicyTiresias: "tiresias", PolicyGandiva: "gandiva", Policy(99): "unknown",
	}
	for p, want := range names {
		if got := p.String(); got != want {
			t.Errorf("Policy(%d).String() = %q, want %q", p, got, want)
		}
	}
	if DelayFairShare.String() != "fair-share" || DelayFragmentation.String() != "fragmentation" ||
		DelayNone.String() != "none" || DelayCause(9).String() != "unknown" {
		t.Error("DelayCause names wrong")
	}
}

// TestParsePolicyRoundTrip pins the policy table the CLIs and the
// sched.policy sweep axis share: every policy's name parses back to it,
// and an unknown name lists the valid ones.
func TestParsePolicyRoundTrip(t *testing.T) {
	for p := PolicyPhilly; p <= PolicyGandiva; p++ {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v", p.String(), got, err, p)
		}
	}
	want := `unknown policy "slurm" (want philly, fifo, srtf, tiresias or gandiva)`
	if _, err := ParsePolicy("slurm"); err == nil || err.Error() != want {
		t.Errorf("ParsePolicy(slurm) error %v, want %q", err, want)
	}
}
