package core

import (
	"reflect"
	"testing"
)

// normalizeSearchCounters zeroes the Stats fields that are, by
// construction, different between cache/speculation-on and -off runs: the
// short-circuit count is zero with the cache off, and the commit/conflict
// counts are zero with speculation off. Everything else — including
// PlacementSearches, which tallies committed speculative searches exactly
// like inline ones — must match bit for bit. The config echo is aligned
// for the same reason: it records the ablation switch itself.
func normalizeSearchCounters(res *StudyResult) {
	res.Config.Scheduler.DisableSearchCache = false
	res.Config.Scheduler.SpeculativeCandidates = 0
	res.Sched.CacheShortCircuits = 0
	res.Sched.SpeculativeCommits = 0
	res.Sched.SpeculativeConflicts = 0
}

// TestCacheSpeculationAblation is the tentpole's exactness bar: switching
// the rack-epoch negative-result cache and the speculative candidate
// searches off must not move a single bit of the StudyResult (outside the
// counters that report the mechanisms themselves), across the sequential
// engine at workers {0, 1, 2, 4} and per-VC event sharding at workers
// {1, 4}. The federation (Fleet) leg lives
// in internal/federation's TestFleetCacheSpeculationAblation.
func TestCacheSpeculationAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("the ablation matrix is not a -short test")
	}
	lowerTickGate(t)
	on := parallelConfig()
	// Compress the arrival window so the cluster actually congests: blocked
	// retries, cache short-circuits, speculative conflicts and fair-share
	// preemptions all need queue pressure to occur at all (at
	// parallelConfig's default load nothing ever blocks).
	on.Workload.Duration = SmallConfig().Workload.Duration / 32
	off := on
	off.Scheduler.DisableSearchCache = true
	off.Scheduler.SpeculativeCandidates = 0

	base, _ := runWithPool(t, on, 0)
	if base.Sched.BlockedAttempts == 0 || base.Sched.CacheShortCircuits == 0 ||
		base.Sched.SpeculativeCommits == 0 || base.Sched.SpeculativeConflicts == 0 {
		t.Fatalf("default config did not exercise the cached/speculative paths: %+v", base.Sched)
	}
	normalizeSearchCounters(base)

	check := func(res *StudyResult, leg string) {
		t.Helper()
		if res.Sched.CacheShortCircuits != 0 || res.Sched.SpeculativeCommits != 0 ||
			res.Sched.SpeculativeConflicts != 0 {
			t.Fatalf("%s: disabled run still reported cache/speculation activity: %+v",
				leg, res.Sched)
		}
		normalizeSearchCounters(res)
		if !reflect.DeepEqual(base, res) {
			diffStudyResults(t, base, res)
			t.Fatalf("%s diverged from the cached+speculative baseline", leg)
		}
	}

	for _, workers := range []int{0, 1, 2, 4} {
		res, _ := runWithPool(t, off, workers)
		check(res, "engine off-leg")
	}
	for _, workers := range []int{1, 4} {
		res, _ := runShardedWithPool(t, off, workers)
		check(res, "sharded off-leg")
	}
}
