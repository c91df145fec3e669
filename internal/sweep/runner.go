package sweep

import (
	"errors"
	"fmt"
	"sync"

	"philly/internal/analysis"
	"philly/internal/core"
	"philly/internal/par"
	"philly/internal/stats"
)

// ErrCanceled is returned by Run when Options.Cancel closed before the
// sweep completed. Use errors.Is to distinguish a cancellation from a
// real run failure.
var ErrCanceled = errors.New("sweep: canceled")

// Options parameterizes a sweep run.
type Options struct {
	// Replicas is the number of seed replicas per scenario (default 1).
	Replicas int
	// Workers is the sweep's total parallelism budget: Run builds one
	// internal/par pool of this size for the across-study units and the
	// fleet windows of federated cells; a plain study forks nothing. The
	// budget is never exceeded: a shard goes only to a helper that is idle
	// at that instant. In practice the units do not spread: ForkJoin
	// offers work to helpers once, on entry, and that offer misses on the
	// pool built a moment earlier, so the caller runs every unit itself,
	// one at a time, and the helpers pick up only federated cells' window
	// shards (ROADMAP item 1). 0 means GOMAXPROCS. Worker count never
	// affects results, only wall-clock.
	Workers int
	// BaseSeed roots per-run seed derivation; 0 means Matrix.Base.Seed.
	BaseSeed uint64
	// Progress, when non-nil, is called after each completed run with
	// (done, total). Calls come from worker goroutines, possibly
	// concurrently; it must be safe for that.
	Progress func(done, total int)
	// Cancel, when non-nil, aborts the sweep as soon as the channel is
	// closed: no further scenario × replica unit starts, and Run returns
	// ErrCanceled. Units already executing run to completion first —
	// cancellation latency is bounded by one cell, which keeps the engine
	// free of mid-study interrupt plumbing while letting a long sweep be
	// abandoned promptly (the serve admission layer relies on this for
	// clean shutdown).
	Cancel <-chan struct{}
}

// Result is a completed sweep.
type Result struct {
	// Scenarios holds one entry per matrix cell, in expansion order.
	Scenarios []ScenarioResult
	// AxisNames holds the matrix's axis names in axis order; comparison
	// tables use them as per-axis column headers.
	AxisNames []string
	// Replicas echoes Options.Replicas; BaseSeed the effective base seed.
	Replicas int
	BaseSeed uint64
}

// ScenarioResult pairs a scenario with its replica metrics and summary.
type ScenarioResult struct {
	// Scenario echoes the matrix cell.
	Scenario Scenario
	// Replicas holds per-replica metrics indexed by replica number — the
	// order is derivation order, never completion order.
	Replicas []ReplicaMetrics
	// Summary folds the replicas (see Summarize).
	Summary Summary
}

// DeriveSeed maps (baseSeed, scenarioIdx, replicaIdx) to a run seed with
// splitmix64 steps, so each cell of the sweep gets an unrelated stream and
// the mapping is stable across harness versions, worker counts, and
// completion order. TestDeriveSeedStability pins golden values.
func DeriveSeed(baseSeed uint64, scenarioIdx, replicaIdx int) uint64 {
	h := stats.SplitMix64(baseSeed ^ 0x517cc1b727220a95)
	h = stats.SplitMix64(h ^ (uint64(scenarioIdx)+1)*0x9e3779b97f4a7c15)
	h = stats.SplitMix64(h ^ (uint64(replicaIdx)+1)*0xbf58476d1ce4e5b9)
	return h
}

// Run expands the matrix and executes every scenario × replica on one
// worker pool of Options.Workers. Any run error (including a scenario whose
// configuration fails validation) stops the remaining queue and is
// returned.
func (m Matrix) Run(opts Options) (*Result, error) {
	scenarios, err := m.Scenarios()
	if err != nil {
		return nil, err
	}
	replicas := opts.Replicas
	if replicas <= 0 {
		replicas = 1
	}
	baseSeed := opts.BaseSeed
	if baseSeed == 0 {
		baseSeed = m.Base.Seed
	}

	// Validate every scenario before spending any simulation time: a typo'd
	// axis value should fail the sweep instantly, not after N-1 cells ran.
	// Federated scenarios validate every member's preset-plus-applies
	// configuration the same way.
	for i := range scenarios {
		if scenarios[i].Fleet != nil {
			fcfg, err := federatedConfig(&scenarios[i], 0)
			if err != nil {
				return nil, fmt.Errorf("sweep: scenario %q: %w", scenarios[i].Name, err)
			}
			if err := fcfg.Validate(); err != nil {
				return nil, fmt.Errorf("sweep: scenario %q: %w", scenarios[i].Name, err)
			}
			continue
		}
		if err := scenarios[i].Config.Validate(); err != nil {
			return nil, fmt.Errorf("sweep: scenario %q: %w", scenarios[i].Name, err)
		}
	}

	pool := par.NewPool(opts.Workers)
	defer pool.Close()

	total := len(scenarios) * replicas
	// One cell per scenario × replica. A plain scenario's cell is a single
	// ReplicaMetrics; a federated one's holds one per member plus the
	// fleet-wide fold (see expandFederated).
	metrics := make([][][]ReplicaMetrics, len(scenarios))
	for i := range metrics {
		metrics[i] = make([][]ReplicaMetrics, replicas)
	}

	var (
		mu       sync.Mutex
		firstErr error
		done     int
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	failed := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return firstErr != nil
	}
	pool.ForkJoin(total, func(unit int) {
		if failed() {
			return
		}
		if opts.Cancel != nil {
			select {
			case <-opts.Cancel:
				fail(ErrCanceled)
				return
			default:
			}
		}
		s, r := unit/replicas, unit%replicas
		runSeed := DeriveSeed(baseSeed, s, r)
		if scenarios[s].Fleet != nil {
			cell, err := runFederatedCell(&scenarios[s], runSeed, pool)
			if err != nil {
				fail(fmt.Errorf("sweep: scenario %q replica %d: %w",
					scenarios[s].Name, r, err))
				return
			}
			metrics[s][r] = cell
		} else {
			cfg := cloneConfig(scenarios[s].Config)
			cfg.Seed = runSeed
			st, err := core.NewStudy(cfg)
			if err != nil {
				fail(fmt.Errorf("sweep: scenario %q replica %d: %w",
					scenarios[s].Name, r, err))
				return
			}
			// A sweep never shards a study's event loop, so a plain
			// study runs inline on its unit's worker and takes no pool;
			// the budget is meant for the units (see Options.Workers).
			//
			// Stream per-job results into the reduction as they finish,
			// so the study releases full job records in flight and the
			// sweep's peak memory tracks the running set, not the whole
			// workload (ROADMAP: memory-bound full-scale sweeps).
			red := analysis.NewStreamReducer(st.NumJobs())
			st.StreamJobs(red.ObserveJob)
			res, err := st.Run()
			if err != nil {
				fail(fmt.Errorf("sweep: scenario %q replica %d: %w",
					scenarios[s].Name, r, err))
				return
			}
			metrics[s][r] = []ReplicaMetrics{replicaMetrics(res.Config.Seed, red.Finish(res))}
		}
		if opts.Progress != nil {
			mu.Lock()
			done++
			d := done
			mu.Unlock()
			opts.Progress(d, total)
		}
	})
	if firstErr != nil {
		return nil, firstErr
	}

	out := &Result{Replicas: replicas, BaseSeed: baseSeed}
	for _, ax := range m.Axes {
		out.AxisNames = append(out.AxisNames, ax.Name)
	}
	if hasFleetScenario(scenarios) {
		return expandFederated(out, scenarios, metrics)
	}
	for i := range scenarios {
		rows := make([]ReplicaMetrics, replicas)
		for r := range metrics[i] {
			rows[r] = metrics[i][r][0]
		}
		sc := scenarios[i]
		// The apply closures are run-time plumbing, not result data; they
		// would also break DeepEqual-based invariance comparisons (func
		// values never compare equal).
		sc.applies = nil
		out.Scenarios = append(out.Scenarios, ScenarioResult{
			Scenario: sc,
			Replicas: rows,
			Summary:  Summarize(rows),
		})
	}
	return out, nil
}
