package cluster

import (
	"testing"
	"testing/quick"

	"philly/internal/stats"
)

func small() *Cluster {
	// 2 racks of 2x8-GPU servers + 1 rack of 2x2-GPU servers = 36 GPUs.
	return MustNew(Config{Racks: []RackConfig{
		{Servers: 2, SKU: SKU8GPU},
		{Servers: 2, SKU: SKU8GPU},
		{Servers: 2, SKU: SKU2GPU},
	}})
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("want error for empty config")
	}
	if _, err := New(Config{Racks: []RackConfig{{Servers: 0, SKU: SKU8GPU}}}); err == nil {
		t.Error("want error for zero servers")
	}
	if _, err := New(Config{Racks: []RackConfig{{Servers: 1, SKU: SKU{Name: "bad"}}}}); err == nil {
		t.Error("want error for zero GPUs per server")
	}
}

func TestTopologyCounts(t *testing.T) {
	c := small()
	if got := c.TotalGPUs(); got != 36 {
		t.Errorf("TotalGPUs = %d, want 36", got)
	}
	if got := c.NumServers(); got != 6 {
		t.Errorf("NumServers = %d, want 6", got)
	}
	if got := c.FreeGPUs(); got != 36 {
		t.Errorf("FreeGPUs = %d, want 36", got)
	}
	if got := c.EmptyServers(); got != 6 {
		t.Errorf("EmptyServers = %d, want 6", got)
	}
	if got := c.Occupancy(); got != 0 {
		t.Errorf("Occupancy = %v, want 0", got)
	}
}

func TestDefaultConfigScale(t *testing.T) {
	c := MustNew(DefaultConfig())
	if c.TotalGPUs() < 1000 {
		t.Errorf("default cluster has %d GPUs, want thousands", c.TotalGPUs())
	}
	if c.NumServers() < 100 {
		t.Errorf("default cluster has %d servers, want hundreds", c.NumServers())
	}
}

func TestAllocateRelease(t *testing.T) {
	c := small()
	p, ok := c.FindPlacement(4, LocalityPacked)
	if !ok {
		t.Fatal("no placement found")
	}
	if err := c.Allocate(1, p); err != nil {
		t.Fatal(err)
	}
	if got := c.FreeGPUs(); got != 32 {
		t.Errorf("FreeGPUs = %d, want 32", got)
	}
	got, ok := c.PlacementOf(1)
	if !ok || got.NumGPUs() != 4 {
		t.Fatalf("PlacementOf = %+v, %v", got, ok)
	}
	if jobs := c.RunningJobs(); len(jobs) != 1 || jobs[0] != 1 {
		t.Errorf("RunningJobs = %v", jobs)
	}
	if err := c.Release(1); err != nil {
		t.Fatal(err)
	}
	if got := c.FreeGPUs(); got != 36 {
		t.Errorf("FreeGPUs after release = %d, want 36", got)
	}
	if err := c.Release(1); err == nil {
		t.Error("want error for double release")
	}
}

func TestAllocateErrors(t *testing.T) {
	c := small()
	if err := c.Allocate(0, Placement{Slots: []Slot{{0, 0}}}); err == nil {
		t.Error("want error for job ID 0")
	}
	if err := c.Allocate(1, Placement{}); err == nil {
		t.Error("want error for empty placement")
	}
	if err := c.Allocate(1, Placement{Slots: []Slot{{99, 0}}}); err == nil {
		t.Error("want error for unknown server")
	}
	if err := c.Allocate(1, Placement{Slots: []Slot{{0, 99}}}); err == nil {
		t.Error("want error for unknown GPU")
	}
	if err := c.Allocate(1, Placement{Slots: []Slot{{0, 0}, {0, 0}}}); err == nil {
		t.Error("want error for duplicate slot")
	}
	if err := c.Allocate(1, Placement{Slots: []Slot{{0, 0}}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Allocate(2, Placement{Slots: []Slot{{0, 0}}}); err == nil {
		t.Error("want error for already-owned GPU")
	}
	if err := c.Allocate(1, Placement{Slots: []Slot{{0, 1}}}); err == nil {
		t.Error("want error for second allocation of same job")
	}
}

func TestAllocateFailureLeavesNoPartialState(t *testing.T) {
	c := small()
	if err := c.Allocate(1, Placement{Slots: []Slot{{0, 0}}}); err != nil {
		t.Fatal(err)
	}
	before := c.FreeGPUs()
	// Second slot conflicts; first is free — allocation must not happen at all.
	err := c.Allocate(2, Placement{Slots: []Slot{{0, 1}, {0, 0}}})
	if err == nil {
		t.Fatal("want conflict error")
	}
	if c.FreeGPUs() != before {
		t.Errorf("FreeGPUs changed on failed allocate: %d -> %d", before, c.FreeGPUs())
	}
	if c.Server(0).GPUs[1].Owner != 0 {
		t.Error("failed allocation left slot owned")
	}
}

func TestPackedPlacementSingleServer(t *testing.T) {
	c := small()
	p, ok := c.FindPlacement(8, LocalityPacked)
	if !ok {
		t.Fatal("no placement for 8 GPUs")
	}
	if p.NumServers() != 1 {
		t.Errorf("8-GPU packed placement uses %d servers, want 1", p.NumServers())
	}
}

func TestPackedPlacementBestFit(t *testing.T) {
	c := small()
	// Occupy 6 GPUs on server 0, leaving 2 free there.
	if err := c.Allocate(1, Placement{Slots: []Slot{{0, 0}, {0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}}}); err != nil {
		t.Fatal(err)
	}
	// A 2-GPU job should best-fit onto server 0 (2 free) or the 2-GPU SKU
	// servers (2 free) rather than fragmenting an empty 8-GPU server.
	p, ok := c.FindPlacement(2, LocalityPacked)
	if !ok {
		t.Fatal("no placement")
	}
	srv := p.ServerIDs()[0]
	free := c.Server(srv).FreeGPUs()
	if free != 2 {
		t.Errorf("best-fit chose server %d with %d free, want a 2-free server", srv, free)
	}
}

func TestPackedPlacementMultiServerSameRack(t *testing.T) {
	c := small()
	p, ok := c.FindPlacement(16, LocalityPacked)
	if !ok {
		t.Fatal("no placement for 16 GPUs")
	}
	if p.NumServers() != 2 {
		t.Errorf("16-GPU packed uses %d servers, want 2", p.NumServers())
	}
	if got := len(p.RackIDs(c)); got != 1 {
		t.Errorf("16-GPU packed spans %d racks, want 1", got)
	}
	if p.CrossRack(c) {
		t.Error("packed placement should not cross racks")
	}
}

func TestPackedRefusesFragmented(t *testing.T) {
	c := small()
	// Occupy 1 GPU on every 8-GPU server: no server has 8 free, and no rack
	// can satisfy 16 on 2 servers.
	id := JobID(1)
	for _, sid := range []int{0, 1, 2, 3} {
		if err := c.Allocate(id, Placement{Slots: []Slot{{sid, 0}}}); err != nil {
			t.Fatal(err)
		}
		id++
	}
	if _, ok := c.FindPlacement(16, LocalityPacked); ok {
		t.Error("packed placement should fail under fragmentation")
	}
	// Rack-level locality also fails (each rack has only 14 free).
	if _, ok := c.FindPlacement(16, LocalityRack); ok {
		t.Error("rack placement should fail: max 14 free per rack")
	}
	// Relaxed succeeds across racks.
	p, ok := c.FindPlacement(16, LocalityRelaxed)
	if !ok {
		t.Fatal("relaxed placement should succeed")
	}
	if !p.CrossRack(c) {
		t.Error("relaxed 16-GPU placement should span racks here")
	}
}

func TestFindPlacementBounds(t *testing.T) {
	c := small()
	if _, ok := c.FindPlacement(0, LocalityPacked); ok {
		t.Error("n=0 should fail")
	}
	if _, ok := c.FindPlacement(37, LocalityRelaxed); ok {
		t.Error("n > capacity should fail")
	}
	if _, ok := c.FindPlacement(36, LocalityRelaxed); !ok {
		t.Error("n == capacity should succeed on empty cluster")
	}
}

func TestColocationTracking(t *testing.T) {
	c := small()
	if err := c.Allocate(1, Placement{Slots: []Slot{{0, 0}, {0, 1}}}); err != nil {
		t.Fatal(err)
	}
	if c.SharesServers(1) {
		t.Error("single job should not be colocated")
	}
	if err := c.Allocate(2, Placement{Slots: []Slot{{0, 2}}}); err != nil {
		t.Fatal(err)
	}
	if !c.SharesServers(1) || !c.SharesServers(2) {
		t.Error("jobs on same server should report colocation")
	}
	if !c.Server(0).Colocated() {
		t.Error("server 0 should be colocated")
	}
	if got := c.Server(0).Jobs(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("server jobs = %v", got)
	}
	if got := c.Server(0).JobGPUs(1); got != 2 {
		t.Errorf("JobGPUs(1) = %d, want 2", got)
	}
}

func TestPlacementMetrics(t *testing.T) {
	c := small()
	p := Placement{Slots: []Slot{{0, 0}, {1, 0}, {2, 0}}}
	if got := p.NumServers(); got != 3 {
		t.Errorf("NumServers = %d, want 3", got)
	}
	racks := p.RackIDs(c)
	if len(racks) != 2 {
		t.Errorf("RackIDs = %v, want 2 racks", racks)
	}
	if !p.CrossRack(c) {
		t.Error("placement should be cross-rack")
	}
}

// Property: any sequence of random allocate/release operations preserves the
// GPU accounting invariants.
func TestAllocationInvariantsProperty(t *testing.T) {
	f := func(seed uint64) bool {
		g := stats.NewRNG(seed)
		c := small()
		live := map[JobID]int{} // job -> gpus
		next := JobID(1)
		for op := 0; op < 200; op++ {
			if g.Bool(0.6) {
				n := 1 + g.IntN(16)
				level := Locality(g.IntN(3))
				if p, ok := c.FindPlacement(n, level); ok {
					if len(p.Slots) != n {
						return false
					}
					if err := c.Allocate(next, p); err != nil {
						return false
					}
					live[next] = n
					next++
				}
			} else if len(live) > 0 {
				// Release an arbitrary live job (deterministic pick).
				var pick JobID
				for id := range live {
					if pick == 0 || id < pick {
						pick = id
					}
				}
				if err := c.Release(pick); err != nil {
					return false
				}
				delete(live, pick)
			}
			// Invariant: free + sum(live) == total.
			sum := 0
			for _, n := range live {
				sum += n
			}
			if c.FreeGPUs()+sum != c.TotalGPUs() {
				return false
			}
			// Invariant: per-server free counts match GPU owner states.
			for _, s := range c.Servers() {
				free := 0
				for _, gpu := range s.GPUs {
					if gpu.Owner == 0 {
						free++
					}
				}
				if free != s.FreeGPUs() {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
