package cluster

import (
	"reflect"
	"sort"
	"testing"

	"philly/internal/stats"
)

// referenceFindPlacement is a naive sort-and-scan oracle for the placement
// search: it re-sorts the full inventory on every call and follows the
// paper's search order literally — best-fit single server first, then racks
// by free GPUs descending (ties by ID) with servers inside each rack in the
// same order. It shares no code with the bucket-walk implementation.
func referenceFindPlacement(c *Cluster, n int, level Locality) (Placement, bool) {
	if n <= 0 || n > c.FreeGPUs() {
		return Placement{}, false
	}
	// Best fit: the server with the fewest free GPUs still >= n.
	var best *Server
	for _, srv := range c.Servers() {
		if srv.FreeGPUs() < n {
			continue
		}
		if best == nil || srv.FreeGPUs() < best.FreeGPUs() ||
			(srv.FreeGPUs() == best.FreeGPUs() && srv.ID < best.ID) {
			best = srv
		}
	}
	if best != nil {
		return refMaterialize([]refPick{{best, n}}), true
	}
	racks := append([]*Rack(nil), c.Racks...)
	sort.SliceStable(racks, func(i, k int) bool {
		if racks[i].FreeGPUs() != racks[k].FreeGPUs() {
			return racks[i].FreeGPUs() > racks[k].FreeGPUs()
		}
		return racks[i].ID < racks[k].ID
	})
	gather := func(r *Rack, need int, picks []refPick) (int, int, []refPick) {
		servers := append([]*Server(nil), r.Servers...)
		sort.SliceStable(servers, func(i, k int) bool {
			if servers[i].FreeGPUs() != servers[k].FreeGPUs() {
				return servers[i].FreeGPUs() > servers[k].FreeGPUs()
			}
			return servers[i].ID < servers[k].ID
		})
		used := 0
		for _, srv := range servers {
			if need == 0 {
				break
			}
			take := srv.FreeGPUs()
			if take == 0 {
				continue
			}
			if take > need {
				take = need
			}
			picks = append(picks, refPick{srv, take})
			used++
			need -= take
		}
		return need, used, picks
	}
	switch level {
	case LocalityPacked:
		for _, r := range racks {
			if r.FreeGPUs() < n {
				continue
			}
			per := r.SKU.GPUsPerServer
			rem, used, picks := gather(r, n, nil)
			if rem == 0 && used <= (n+per-1)/per {
				return refMaterialize(picks), true
			}
		}
	case LocalityRack:
		for _, r := range racks {
			if r.FreeGPUs() < n {
				continue
			}
			if rem, _, picks := gather(r, n, nil); rem == 0 {
				return refMaterialize(picks), true
			}
		}
	case LocalityRelaxed:
		var picks []refPick
		need := n
		for _, r := range racks {
			need, _, picks = gather(r, need, picks)
			if need == 0 {
				return refMaterialize(picks), true
			}
		}
	}
	return Placement{}, false
}

type refPick struct {
	srv  *Server
	take int
}

func refMaterialize(picks []refPick) Placement {
	var p Placement
	for _, pk := range picks {
		taken := 0
		for g := range pk.srv.GPUs {
			if taken == pk.take {
				break
			}
			if pk.srv.GPUs[g].Owner == 0 {
				p.Slots = append(p.Slots, Slot{Server: pk.srv.ID, GPU: g})
				taken++
			}
		}
	}
	return p
}

// TestPlacementOracleChurn property-tests the bucket-walk search against
// the naive oracle under 1k steps of randomized allocate/release churn,
// across all three locality levels.
func TestPlacementOracleChurn(t *testing.T) {
	c := MustNew(Config{Racks: []RackConfig{
		{Servers: 6, SKU: SKU8GPU},
		{Servers: 4, SKU: SKU8GPU},
		{Servers: 8, SKU: SKU2GPU},
		{Servers: 3, SKU: SKU8GPU},
		{Servers: 5, SKU: SKU2GPU},
	}})

	rng := stats.NewRNG(99)
	var live []JobID
	nextID := JobID(1)
	sizes := []int{1, 2, 3, 4, 6, 8, 12, 16, 24, 40, 64}
	searches, failures := 0, 0
	for step := 0; step < 1000; step++ {
		if len(live) > 0 && rng.Bool(0.35) {
			i := rng.IntN(len(live))
			id := live[i]
			live = append(live[:i], live[i+1:]...)
			if err := c.Release(id); err != nil {
				t.Fatal(err)
			}
			continue
		}
		n := sizes[rng.IntN(len(sizes))]
		level := Locality(rng.IntN(3))
		want, wantOK := referenceFindPlacement(c, n, level)
		p, ok := c.FindPlacement(n, level)
		searches++
		if ok != wantOK || !reflect.DeepEqual(p, want) {
			t.Fatalf("step %d: n=%d level=%v: diverged from oracle:\nwant ok=%v %+v\ngot  ok=%v %+v",
				step, n, level, wantOK, want, ok, p)
		}
		if !wantOK {
			failures++
			continue
		}
		if err := c.Allocate(nextID, want); err != nil {
			t.Fatal(err)
		}
		live = append(live, nextID)
		nextID++
	}
	if got := c.SearchStats(); got != searches {
		t.Fatalf("SearchStats = %d, want %d", got, searches)
	}
	if failures == 0 {
		t.Fatal("churn never made a search fail")
	}
}
