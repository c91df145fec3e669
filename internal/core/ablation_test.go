package core

import (
	"reflect"
	"testing"
)

// normalizeSearchCounters zeroes the Stats field that is, by construction,
// different between cache-on and cache-off runs: the short-circuit count
// is zero with the cache off. Everything else — including
// PlacementSearches, which counts a short-circuited search like a walked
// one — must match bit for bit. The config echo is aligned for the same
// reason: it records the ablation switch itself.
func normalizeSearchCounters(res *StudyResult) {
	res.Config.Scheduler.DisableSearchCache = false
	res.Sched.CacheShortCircuits = 0
}

// TestSearchCacheAblation is the cache's exactness bar: switching the
// rack-epoch negative-result cache off must not move a single bit of the
// StudyResult (outside the counter that reports the cache itself), on the
// sequential engine and under per-VC event sharding at workers {1, 4}.
// The federation (Fleet) leg lives in internal/federation's
// TestFleetSearchCacheAblation.
func TestSearchCacheAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("the ablation matrix is not a -short test")
	}
	on := parallelConfig()
	// Compress the arrival window so the cluster actually congests: blocked
	// retries, cache short-circuits and fair-share preemptions all need
	// queue pressure to occur at all (at parallelConfig's default load
	// nothing ever blocks).
	on.Workload.Duration = SmallConfig().Workload.Duration / 32
	off := on
	off.Scheduler.DisableSearchCache = true

	base, _ := runWithPool(t, on, 0)
	if base.Sched.CacheShortCircuits == 0 {
		t.Fatalf("default config did not exercise the search cache: %+v", base.Sched)
	}
	normalizeSearchCounters(base)

	check := func(res *StudyResult, leg string) {
		t.Helper()
		if res.Sched.CacheShortCircuits != 0 {
			t.Fatalf("%s: disabled run still reported cache activity: %+v", leg, res.Sched)
		}
		normalizeSearchCounters(res)
		if !reflect.DeepEqual(base, res) {
			diffStudyResults(t, base, res)
			t.Fatalf("%s diverged from the cached baseline", leg)
		}
	}

	res, _ := runWithPool(t, off, 0)
	check(res, "engine off-leg")
	for _, workers := range []int{1, 4} {
		res, _ := runShardedWithPool(t, off, workers)
		check(res, "sharded off-leg")
	}
}
