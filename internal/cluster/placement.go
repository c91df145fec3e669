package cluster

import "math/bits"

// Locality is the constraint level a placement search must satisfy. The
// Philly scheduler starts at the strictest level and relaxes after repeated
// scheduling failures (paper §2.3: "to avoid starvation, the locality
// constraints are relaxed after a scheduling request has been retried a
// fixed number of times").
type Locality int

const (
	// LocalityPacked requires the minimum possible number of servers, all
	// within a single RDMA domain: one server when the job fits, otherwise
	// ceil(n / GPUsPerServer) whole servers in one rack.
	LocalityPacked Locality = iota
	// LocalityRack requires all GPUs within a single RDMA domain but allows
	// any number of servers.
	LocalityRack
	// LocalityRelaxed allows any free GPUs anywhere in the cluster.
	LocalityRelaxed
)

// String names the constraint level.
func (l Locality) String() string {
	switch l {
	case LocalityPacked:
		return "packed"
	case LocalityRack:
		return "rack"
	case LocalityRelaxed:
		return "relaxed"
	default:
		return "unknown"
	}
}

// The placement search used to re-sort every rack's server list (and the
// rack list itself) on each attempt, allocating the sorted copies each time.
// At one search per blocked-job retry that was the scheduler's hottest
// allocation site. The cluster now maintains free-count buckets — one bitmap
// of servers per free-GPU count, per rack and cluster-wide (see cluster.go)
// — so "servers by free GPUs descending, ties by ID" is a bucket walk and
// "best fit" is a first-set-bit query. The visit order is identical to what
// the sorts produced, so placements are bit-for-bit the same; the search
// itself no longer allocates (candidate picks and the rack order go to the
// cluster's reused picks and rackScratch slices, and slots materialize only
// for the returned placement).

// FindPlacement searches for n free GPUs satisfying the locality level.
// It returns the placement and true on success, or a zero placement and
// false when the constraint cannot be met with current free resources.
//
// Search order follows the paper: racks are ranked by increasing occupancy
// (most free GPUs first) and servers within a rack the same way, so the
// scheduler "first considers racks and then servers within those racks that
// have most GPUs available". Small jobs that fit on a single server use
// best-fit instead (fewest leftover free GPUs) so that they pack into
// partially used machines and do not fragment empty servers — the paper's
// anti-fragmentation packing for small jobs.
func (c *Cluster) FindPlacement(n int, level Locality) (Placement, bool) {
	c.searches++
	if n <= 0 || n > c.freeGPUs {
		return Placement{}, false
	}
	switch level {
	case LocalityPacked:
		return c.findPacked(n)
	case LocalityRack:
		return c.findWithinRack(n)
	case LocalityRelaxed:
		return c.findAnywhere(n)
	default:
		return Placement{}, false
	}
}

// SearchStats returns the FindPlacement call count, a deterministic
// function of the allocate/release/search sequence.
func (c *Cluster) SearchStats() int { return c.searches }

// findPacked places on the minimum number of servers within one rack.
func (c *Cluster) findPacked(n int) (Placement, bool) {
	// Single-server case: best fit across all servers that can hold n.
	if p, ok := c.bestFitSingleServer(n); ok {
		return p, true
	}
	// Multi-server case: the job must span servers. Require the minimal
	// server count for the rack's SKU and a single rack.
	for _, rack := range c.racksByFreeDesc() {
		if rack.free < n {
			continue
		}
		per := rack.SKU.GPUsPerServer
		minServers := (n + per - 1) / per
		c.picks = c.picks[:0]
		if rem, used := c.gatherFromRack(rack, n); rem == 0 && used <= minServers {
			return c.materializePicks(n), true
		}
	}
	return Placement{}, false
}

// findWithinRack places anywhere within a single rack.
func (c *Cluster) findWithinRack(n int) (Placement, bool) {
	if p, ok := c.bestFitSingleServer(n); ok {
		return p, true
	}
	for _, rack := range c.racksByFreeDesc() {
		if rack.free < n {
			continue
		}
		c.picks = c.picks[:0]
		if rem, _ := c.gatherFromRack(rack, n); rem == 0 {
			return c.materializePicks(n), true
		}
	}
	return Placement{}, false
}

// findAnywhere places on any free GPUs, preferring emptier racks first to
// keep the job as compact as the free space allows, then spilling across
// racks. With n <= freeGPUs it cannot fail: the gather visits every free
// GPU in the cluster.
func (c *Cluster) findAnywhere(n int) (Placement, bool) {
	if p, ok := c.bestFitSingleServer(n); ok {
		return p, true
	}
	c.picks = c.picks[:0]
	need := n
	for _, rack := range c.racksByFreeDesc() {
		need, _ = c.gatherFromRack(rack, need)
		if need == 0 {
			return c.materializePicks(n), true
		}
	}
	return Placement{}, false
}

type pick struct {
	srv  *Server
	take int
}

// gatherFromRack appends (server, take) picks for up to need GPUs from the
// rack, visiting servers by free GPUs descending with ties by server ID —
// exactly the order the former per-attempt sort produced. It returns the
// remaining need and the number of servers picked from this rack.
func (c *Cluster) gatherFromRack(rack *Rack, need int) (int, int) {
	used := 0
	for f := rack.SKU.GPUsPerServer; f >= 1 && need > 0; f-- {
		for w, word := range rack.buckets[f] {
			for word != 0 {
				local := w*64 + bits.TrailingZeros64(word)
				word &= word - 1
				srv := rack.Servers[local]
				take := srv.free
				if take > need {
					take = need
				}
				c.picks = append(c.picks, pick{srv: srv, take: take})
				used++
				need -= take
				if need == 0 {
					return 0, used
				}
			}
		}
	}
	return need, used
}

// materializePicks builds the placement for the current pick scratch,
// taking each picked server's free GPUs in ascending device order.
func (c *Cluster) materializePicks(n int) Placement {
	slots := make([]Slot, 0, n)
	for _, pk := range c.picks {
		taken := 0
		for g := range pk.srv.GPUs {
			if taken == pk.take {
				break
			}
			if pk.srv.GPUs[g].Owner == 0 {
				slots = append(slots, Slot{Server: pk.srv.ID, GPU: g})
				taken++
			}
		}
	}
	return Placement{Slots: slots}
}

// bestFitSingleServer finds the server whose free-GPU count is the smallest
// value >= n (ties broken by lowest server ID for determinism).
func (c *Cluster) bestFitSingleServer(n int) (Placement, bool) {
	for f := n; f <= c.maxPerServer; f++ {
		if id := firstBit(c.freeBuckets[f]); id >= 0 {
			srv := c.servers[id]
			c.picks = append(c.picks[:0], pick{srv: srv, take: n})
			return c.materializePicks(n), true
		}
	}
	return Placement{}, false
}

// racksByFreeDesc returns racks sorted by free GPUs descending (i.e.
// increasing occupancy), ties by rack ID. The result is a reused scratch
// ordered by insertion sort — rack counts are small and the (free desc, ID)
// key is a total order, so the output matches the former stable sort.
func (c *Cluster) racksByFreeDesc() []*Rack {
	racks := c.rackScratch[:0]
	for _, r := range c.Racks {
		i := len(racks)
		racks = append(racks, r)
		for i > 0 {
			p := racks[i-1]
			if p.free > r.free || (p.free == r.free && p.ID < r.ID) {
				break
			}
			racks[i] = p
			i--
		}
		racks[i] = r
	}
	c.rackScratch = racks
	return racks
}

// FindMigrationTarget looks for a single-server best-fit for a gpus-wide
// job that avoids the excluded servers and lands on a server that is
// already partly used (moving onto an empty server would just shift the
// fragmentation). The bucket walk — ascending free count from gpus, first
// set bit — visits exactly the "smallest free >= gpus, ties by lowest ID"
// order the defragmenter's former full-inventory scan selected, skipping
// fully free servers by comparing the bucket index against the server's
// capacity.
func (c *Cluster) FindMigrationTarget(gpus int, exclude map[int]bool) (Placement, bool) {
	if gpus <= 0 {
		return Placement{}, false
	}
	for f := gpus; f <= c.maxPerServer; f++ {
		for w, word := range c.freeBuckets[f] {
			for word != 0 {
				id := w*64 + bits.TrailingZeros64(word)
				word &= word - 1
				if int(c.srvCap[id]) == f || exclude[id] {
					continue // fully free, or one of the job's own servers
				}
				srv := c.servers[id]
				c.picks = append(c.picks[:0], pick{srv: srv, take: gpus})
				return c.materializePicks(gpus), true
			}
		}
	}
	return Placement{}, false
}

// firstBit returns the index of the lowest set bit, or -1 when none is set.
func firstBit(words []uint64) int {
	for w, word := range words {
		if word != 0 {
			return w*64 + bits.TrailingZeros64(word)
		}
	}
	return -1
}

// MaxRackGPUs returns the largest rack capacity — the widest gang that can
// ever satisfy a single-RDMA-domain locality constraint.
func (c *Cluster) MaxRackGPUs() int {
	max := 0
	for _, r := range c.Racks {
		if t := r.TotalGPUs(); t > max {
			max = t
		}
	}
	return max
}
