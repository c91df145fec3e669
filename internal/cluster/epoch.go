package cluster

// Rack-epoch negative-result caching for the placement search.
//
// FindPlacement is a pure function of the cluster's free state: the bucket
// walks read only per-server free counts (and GPU ownership for the exact
// device indexes, which changes in lockstep with the counts). Every free-
// state mutation funnels through syncServerIndexes, which bumps a per-rack
// and a cluster-wide monotonic epoch — so equal epochs imply byte-identical
// free state, and a search that failed at some epoch vector must fail again
// whenever those epochs are unchanged. That makes memoizing failures exact
// by construction, not approximate.
//
// Only packed- and rack-level failures are memoized: a relaxed search with
// n <= freeGPUs gathers across every rack and cannot fail, so its only
// failure mode (n > freeGPUs) is already an O(1) early-out.
//
// A memoized failure is revalidated cheaply on retry:
//   - global epoch unchanged -> still infeasible, O(1);
//   - otherwise, only racks whose epoch moved since the memo are re-checked
//     with an exact per-rack feasibility test (O(racks-dirty)); if none
//     became feasible the memo is refreshed to the current epochs and the
//     search short-circuits without walking any rack.
// The per-rack test is exact because a packed/rack search succeeds iff some
// single rack is feasible on its own, and rack feasibility depends only on
// that rack's free state (see rackFeasible).

// failKey identifies one memoizable search.
type failKey struct {
	n     int
	level Locality
}

// failMemo records the epoch vector a (n, level) search last failed
// against; racks is indexed by rack ID.
type failMemo struct {
	global uint64
	racks  []uint64
}

// SetSearchCache enables or disables the negative-result cache (enabled by
// default). Results are bit-identical either way; disabling exists for the
// differential oracle tests and A/B benchmarks.
func (c *Cluster) SetSearchCache(on bool) {
	c.cacheOn = on
	if !on {
		c.failCache = nil
	}
}

// SearchStats returns the FindPlacement call count and how many of those
// calls were answered by the negative-result cache. Both are deterministic
// functions of the allocate/release/search sequence.
func (c *Cluster) SearchStats() (searches, shortCircuits int) {
	return c.searches, c.shortCircuits
}

// knownInfeasible is the memo lookup + revalidation. Caller guarantees
// 0 < n <= freeGPUs, cacheOn, and a memoizable level.
func (c *Cluster) knownInfeasible(n int, level Locality) bool {
	m := c.failCache[failKey{n, level}]
	if m == nil {
		return false
	}
	if m.global == c.epoch {
		return true
	}
	// Re-check only racks whose free state moved since the memo. A rack
	// that was infeasible at its recorded epoch and has not changed since
	// is still infeasible; a dirty rack gets the exact feasibility test.
	for i, r := range c.Racks {
		if m.racks[i] == r.epoch {
			continue
		}
		if rackFeasible(r, n, level) {
			return false
		}
		m.racks[i] = r.epoch
	}
	m.global = c.epoch
	return true
}

// memoizeFailure records that (n, level) failed against the current epoch
// vector. Relaxed-level failures are n > freeGPUs early-outs and are not
// memoized.
func (c *Cluster) memoizeFailure(n int, level Locality) {
	if !c.cacheOn || level == LocalityRelaxed {
		return
	}
	k := failKey{n, level}
	m := c.failCache[k]
	if m == nil {
		m = &failMemo{racks: make([]uint64, len(c.Racks))}
		if c.failCache == nil {
			c.failCache = make(map[failKey]*failMemo)
		}
		c.failCache[k] = m
	}
	m.global = c.epoch
	for i, r := range c.Racks {
		m.racks[i] = r.epoch
	}
}

// rackFeasible decides, from this rack's free state alone, whether a
// packed- or rack-level search could succeed using only this rack. This is
// exact, not conservative:
//   - rack level succeeds iff some rack holds n free GPUs in total (the
//     gather walk collects every free GPU in the rack), and any server with
//     n free implies its rack has n free, so the single-server best-fit
//     adds no extra feasible case;
//   - packed level succeeds iff some server fits the gang whole, or some
//     rack can supply n GPUs from at most ceil(n/GPUsPerServer) servers —
//     the countGather walk reproduces the search's own server order.
func rackFeasible(r *Rack, n int, level Locality) bool {
	if r.free < n {
		return false
	}
	if level == LocalityRack {
		return true
	}
	per := r.SKU.GPUsPerServer
	if n <= per {
		for f := n; f <= per; f++ {
			if anyBit(r.buckets[f]) {
				return true // single-server fit
			}
		}
	}
	rem, used := r.countGather(n)
	return rem == 0 && used <= (n+per-1)/per
}

// anyBit reports whether any bit is set.
func anyBit(words []uint64) bool {
	for _, w := range words {
		if w != 0 {
			return true
		}
	}
	return false
}
