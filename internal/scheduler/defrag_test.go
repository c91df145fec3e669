package scheduler

import (
	"testing"

	"philly/internal/cluster"
)

// defragCluster: 1 rack x 4 servers x 8 GPUs.
func defragCluster() *cluster.Cluster {
	return cluster.MustNew(cluster.Config{Racks: []cluster.RackConfig{
		{Servers: 4, SKU: cluster.SKU8GPU},
	}})
}

func TestDefragConsolidatesLoneSmallJobs(t *testing.T) {
	cl := defragCluster()
	s := newSched(t, DefaultConfig(), cl, []VC{{Name: "vca", Quota: 32}})
	// One 1-GPU job alone on server 0, another alone on server 1 — two
	// fragmented servers. Plus a partially used server 2 to receive them.
	a := NewJob(1, "vca", 1, 0)
	b := NewJob(2, "vca", 1, 0)
	carrier := NewJob(3, "vca", 4, 0)
	if err := cl.Allocate(1, cluster.Placement{Slots: []cluster.Slot{{Server: 0, GPU: 0}}}); err != nil {
		t.Fatal(err)
	}
	if err := cl.Allocate(2, cluster.Placement{Slots: []cluster.Slot{{Server: 1, GPU: 0}}}); err != nil {
		t.Fatal(err)
	}
	if err := cl.Allocate(3, cluster.Placement{Slots: []cluster.Slot{{Server: 2, GPU: 0}, {Server: 2, GPU: 1}, {Server: 2, GPU: 2}, {Server: 2, GPU: 3}}}); err != nil {
		t.Fatal(err)
	}
	// Register them as running by hand, inserted in runningOrder.
	for _, j := range []*Job{a, b, carrier} {
		j.State = StateRunning
		p, _ := cl.PlacementOf(j.ID)
		j.Placement = p
		s.vcs["vca"].addRunning(j)
	}

	before := cl.EmptyServers()
	events := s.Defrag(100, 2, 10)
	if len(events) != 2 {
		t.Fatalf("migrations = %d, want 2", len(events))
	}
	after := cl.EmptyServers()
	if after <= before {
		t.Errorf("defrag did not free servers: %d -> %d empty", before, after)
	}
	// Both small jobs should now share server 2 with the carrier.
	for _, id := range []cluster.JobID{1, 2} {
		p, ok := cl.PlacementOf(id)
		if !ok {
			t.Fatalf("job %d lost its allocation", id)
		}
		if got := p.ServerIDs(); len(got) != 1 || got[0] != 2 {
			t.Errorf("job %d on servers %v, want [2]", id, got)
		}
	}
	if s.Stats().Migrations != 2 {
		t.Errorf("stats.Migrations = %d", s.Stats().Migrations)
	}
	// Accounting is intact.
	if cl.FreeGPUs() != 32-6 {
		t.Errorf("free = %d, want 26", cl.FreeGPUs())
	}
}

func TestDefragLeavesWideAndPackedJobsAlone(t *testing.T) {
	cl := defragCluster()
	s := newSched(t, DefaultConfig(), cl, []VC{{Name: "vca", Quota: 32}})
	// A full-server job (not migratable: width > maxWidth) and a 1-GPU job
	// on an otherwise busy server (no consolidation benefit).
	big := NewJob(1, "vca", 8, 0)
	if err := cl.Allocate(1, cluster.Placement{Slots: []cluster.Slot{
		{Server: 0, GPU: 0}, {Server: 0, GPU: 1}, {Server: 0, GPU: 2}, {Server: 0, GPU: 3},
		{Server: 0, GPU: 4}, {Server: 0, GPU: 5}, {Server: 0, GPU: 6}, {Server: 0, GPU: 7},
	}}); err != nil {
		t.Fatal(err)
	}
	small := NewJob(2, "vca", 1, 0)
	other := NewJob(3, "vca", 3, 0)
	if err := cl.Allocate(2, cluster.Placement{Slots: []cluster.Slot{{Server: 1, GPU: 0}}}); err != nil {
		t.Fatal(err)
	}
	if err := cl.Allocate(3, cluster.Placement{Slots: []cluster.Slot{{Server: 1, GPU: 1}, {Server: 1, GPU: 2}, {Server: 1, GPU: 3}}}); err != nil {
		t.Fatal(err)
	}
	for _, j := range []*Job{big, small, other} {
		j.State = StateRunning
		p, _ := cl.PlacementOf(j.ID)
		j.Placement = p
		s.vcs["vca"].addRunning(j)
	}
	events := s.Defrag(100, 2, 10)
	if len(events) != 0 {
		t.Fatalf("unexpected migrations: %+v", events)
	}
}

func TestDefragRespectsMoveBudget(t *testing.T) {
	cl := defragCluster()
	s := newSched(t, DefaultConfig(), cl, []VC{{Name: "vca", Quota: 32}})
	// Three lone 1-GPU jobs, one receiving server.
	for i := 0; i < 3; i++ {
		id := cluster.JobID(i + 1)
		if err := cl.Allocate(id, cluster.Placement{Slots: []cluster.Slot{{Server: i, GPU: 0}}}); err != nil {
			t.Fatal(err)
		}
		j := NewJob(id, "vca", 1, 0)
		j.State = StateRunning
		p, _ := cl.PlacementOf(id)
		j.Placement = p
		s.vcs["vca"].addRunning(j)
	}
	if err := cl.Allocate(9, cluster.Placement{Slots: []cluster.Slot{{Server: 3, GPU: 0}, {Server: 3, GPU: 1}}}); err != nil {
		t.Fatal(err)
	}
	carrier := NewJob(9, "vca", 2, 0)
	carrier.State = StateRunning
	p, _ := cl.PlacementOf(9)
	carrier.Placement = p
	s.vcs["vca"].addRunning(carrier)

	if got := len(s.Defrag(100, 2, 1)); got != 1 {
		t.Fatalf("migrations = %d, want budget-capped 1", got)
	}
	if got := len(s.Defrag(100, 2, 0)); got != 0 {
		t.Fatalf("zero budget migrated %d", got)
	}
}
