package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"runtime"
	"sync"
	"time"

	"philly/internal/core"
	"philly/internal/federation"
	"philly/internal/par"
	"philly/internal/scheduler"
	"philly/internal/sweep"
	"philly/internal/trace"
)

// fleetAxes is the fleet-sweep matrix: two policies × one two-member
// federation × outages off and on, as philly-sweep -axis flags.
var fleetAxes = []string{
	"sched.policy=philly,fifo",
	"fleet.members=philly-small+helios-like",
	"failure.domains=none,all",
}

// fleetReplicas sizes the sweep: 4 scenarios × 6 replicas is 24 federated
// cells, about 7 s at workers = 2 on a 2-core box. A small study's cost
// varies with its seed; summing over 24 cells keeps a sweep's cost steady
// from one --seed to the next.
const fleetReplicas = 6

// fleetSetups is how many times a fleet-sweep run sets its sweep up;
// setup_s is the median.
const fleetSetups = 5

// expandRepeats is how many times the traced run expands the matrix alone;
// expansion takes well under a millisecond, so sweep.expand_s is the median
// of many.
const expandRepeats = 25

// overheadPairs is how many untraced and traced runs of each re-run member
// the traced run makes; bench.trace_overhead_pct compares their medians.
const overheadPairs = 3

// fleetMatrix parses the axes and expands the scenarios.
func fleetMatrix(seed uint64) (sweep.Matrix, []sweep.Scenario, error) {
	base := core.SmallConfig()
	base.Seed = seed
	m := sweep.Matrix{Base: base}
	for _, spec := range fleetAxes {
		ax, err := sweep.ParseAxis(spec)
		if err != nil {
			return sweep.Matrix{}, nil, err
		}
		m.Axes = append(m.Axes, ax)
	}
	scenarios, err := m.Scenarios()
	return m, scenarios, err
}

// cellConfig resolves one cell of the sweep into the federation sweep.Run
// builds for it: the scenario's member presets, seeded from the cell's run
// seed, with every other axis value applied to every member.
func cellConfig(m sweep.Matrix, sc sweep.Scenario, replica int) (federation.Config, error) {
	fcfg, err := federation.NewConfig(sweep.DeriveSeed(m.Base.Seed, sc.Index, replica), sc.Fleet...)
	if err != nil {
		return federation.Config{}, err
	}
	for a, ax := range m.Axes {
		if ax.Name == sweep.FleetAxisName {
			continue
		}
		for _, v := range ax.Values {
			if v.Label != sc.Labels[a] {
				continue
			}
			for i := range fcfg.Members {
				v.Apply(&fcfg.Members[i].Config)
			}
		}
	}
	return fcfg, nil
}

// fleetSetup is fleet-sweep's set-up: what sweep.Run does before it
// simulates. It parses the axes, expands the scenarios, and builds every
// cell's federated study (member configurations, validation, workload
// generation). The built studies are dropped; sweep.Run builds its own.
func fleetSetup(seed uint64) (sweep.Matrix, []sweep.Scenario, error) {
	m, scenarios, err := fleetMatrix(seed)
	if err != nil {
		return m, nil, err
	}
	for _, sc := range scenarios {
		for r := 0; r < fleetReplicas; r++ {
			fcfg, err := cellConfig(m, sc, r)
			if err != nil {
				return m, nil, err
			}
			if _, err := federation.NewStudy(fcfg); err != nil {
				return m, nil, err
			}
		}
	}
	return m, scenarios, nil
}

// sweepPass is one timed fleet-sweep operation: the sweep and its JSON
// export.
type sweepPass struct {
	wall, cpu, exportS float64
	exportBytes        int
	sum                [sha256.Size]byte
	res                *sweep.Result
	mem                memDelta
	// done holds each unit's completion time since the start, in
	// completion order (recorded only when asked for).
	done []float64
}

// runSweepPass runs the sweep at the given worker budget, as philly-sweep
// does, and exports it into buf.
func runSweepPass(m sweep.Matrix, workers int, recordUnits bool, buf *bytes.Buffer) (sweepPass, error) {
	var p sweepPass
	opts := sweep.Options{Replicas: fleetReplicas, Workers: workers}
	var mu sync.Mutex
	runtime.GC()
	mem := memSection()
	cpu0 := cpuTime()
	start := time.Now()
	if recordUnits {
		opts.Progress = func(done, total int) {
			mu.Lock()
			p.done = append(p.done, time.Since(start).Seconds())
			mu.Unlock()
		}
	}
	res, err := m.Run(opts)
	if err != nil {
		return p, err
	}
	swept := time.Now()
	buf.Reset()
	if err := res.WriteJSON(buf); err != nil {
		return p, fmt.Errorf("export sweep JSON: %w", err)
	}
	end := time.Now()
	p.wall = end.Sub(start).Seconds()
	p.cpu = (cpuTime() - cpu0).Seconds()
	p.mem = mem()
	p.exportS = end.Sub(swept).Seconds()
	p.exportBytes = buf.Len()
	p.sum = sha256.Sum256(buf.Bytes())
	p.res = res
	return p, nil
}

// checkFleet holds every row of a fleet sweep to what its scenario implies:
// every member completes jobs, outages happen exactly when failure domains
// are on, and outage losses are zero when they are off.
func checkFleet(o *outcome, res *sweep.Result) {
	domainsAxis := -1
	for i, name := range res.AxisNames {
		if name == "failure.domains" {
			domainsAxis = i
		}
	}
	o.check(domainsAxis >= 0 && len(res.Scenarios) > 0, "sweep result has no failure.domains axis or no rows")
	if domainsAxis < 0 {
		return
	}
	for _, sc := range res.Scenarios {
		faults := sc.Scenario.Labels[domainsAxis] != "none"
		for r, rm := range sc.Replicas {
			ok := rm.Jobs > 0 && rm.Completed > 0
			if faults {
				ok = ok && rm.ETTFHours > 0
			} else {
				ok = ok && rm.ETTFHours == 0 && rm.LostGPUHours == 0
			}
			o.check(ok, "row %q replica %d: jobs %d completed %d ETTF %.2fh lost %.2f GPU-h",
				sc.Scenario.Name, r, rm.Jobs, rm.Completed, rm.ETTFHours, rm.LostGPUHours)
		}
	}
}

// runFleetSweep is the fleet-sweep workload: a federated sweep at workers
// = nproc followed by its JSON export.
func runFleetSweep(rc runConfig) (*outcome, error) {
	o := newOutcome()
	var m sweep.Matrix
	var scenarios []sweep.Scenario
	var setups []float64
	for i := 0; i < fleetSetups; i++ {
		var err error
		runtime.GC()
		setups = append(setups, timed(func() { m, scenarios, err = fleetSetup(rc.seed) }))
		if err != nil {
			return nil, err
		}
	}
	o.m.set("setup_s", median(setups))

	var buf bytes.Buffer
	pass := func(workers int, recordUnits bool) (sweepPass, error) {
		p, err := runSweepPass(m, workers, recordUnits, &buf)
		if err == nil {
			checkFleet(o, p.res)
		}
		return p, err
	}
	if rc.traced {
		return o, fleetLayers(o, rc, m, scenarios, pass)
	}

	var walls, cpus []float64
	var sums [][sha256.Size]byte
	start := time.Now()
	for len(walls) == 0 || time.Since(start) < rc.seconds {
		p, err := pass(rc.workers, false)
		if err != nil {
			return nil, err
		}
		walls = append(walls, p.wall)
		cpus = append(cpus, p.cpu)
		sums = append(sums, p.sum)
	}
	ref, err := pass(1, false)
	if err != nil {
		return nil, err
	}
	for i, s := range sums {
		o.check(s == ref.sum, "export of sweep %d at workers=%d differs from the workers=1 reference", i, rc.workers)
	}
	o.m.set("wall_s", median(walls))
	o.m.set("cpu_s", median(cpus))
	o.m.set("p50_ms", 1000*median(walls))
	o.m.set("p95_ms", 1000*percentile(walls, 0.95))
	o.m.set("peak_rss_mb", peakRSSMB())
	return o, nil
}

// fleetLayers is fleet-sweep's traced run: the sweep untraced, then with
// unit completions recorded, then at workers = 1; then one federated cell
// re-run through the public API, and that cell's members run standalone,
// untraced and under the tracer, for the study-level layers.
func fleetLayers(o *outcome, rc runConfig, m sweep.Matrix, scenarios []sweep.Scenario, pass func(int, bool) (sweepPass, error)) error {
	var expands []float64
	for i := 0; i < expandRepeats; i++ {
		var err error
		expands = append(expands, timed(func() { _, _, err = fleetMatrix(rc.seed) }))
		if err != nil {
			return err
		}
	}
	o.m.set("sweep.expand_s", median(expands))

	u, err := pass(rc.workers, false)
	if err != nil {
		return err
	}
	t, err := pass(rc.workers, true)
	if err != nil {
		return err
	}
	seq, err := pass(1, false)
	if err != nil {
		return err
	}
	o.check(t.sum == u.sum, "sweep export with unit recording differs from the plain one")
	o.check(seq.sum == u.sum, "workers=1 sweep export differs from the workers=nproc one")

	mt := o.m
	mt.set("sweep.units", float64(len(t.done)))
	if n := len(t.done); n > 0 {
		first := max(0, n-rc.workers)
		mt.set("sweep.tail_s", t.done[n-1]-t.done[first])
	}
	mt.set("sweep.export_s", u.exportS)
	mt.set("sweep.export_kb", float64(u.exportBytes)/1024)
	mt.set("par.seq_wall_s", seq.wall)
	mt.set("par.speedup", ratio(seq.wall, u.wall))
	mt.set("par.cpu_per_wall", ratio(u.cpu, u.wall))
	u.mem.record(mt)

	pool := par.NewPool(rc.workers)
	defer pool.Close()
	return rerunCell(o, m, scenarios, u.res, pool)
}

// rerunCell re-runs one federated cell of the sweep — policy philly with
// every failure domain on, replica 0 — through federation's public API and
// checks that it reproduces the sweep's member rows. Then it runs each
// member standalone, alternately untraced and under the tracer: the traced
// runs give the study-level layers, every run must export the same bytes,
// and the gap between the two kinds is the tracing overhead.
func rerunCell(o *outcome, m sweep.Matrix, scenarios []sweep.Scenario, swept *sweep.Result, pool *par.Pool) error {
	const policy, domains = "philly", "all"
	idx := -1
	for i, sc := range scenarios {
		if sc.Labels[0] == policy && sc.Labels[2] == domains {
			idx = i
		}
	}
	if idx < 0 {
		return fmt.Errorf("fleet-sweep: no scenario with policy %s and failure domains %s", policy, domains)
	}
	fcfg, err := cellConfig(m, scenarios[idx], 0)
	if err != nil {
		return err
	}
	fs, err := federation.NewStudy(fcfg)
	if err != nil {
		return err
	}
	fs.SetPool(pool)
	var res *federation.Result
	mt := o.m
	mt.set("federation.cell_s", timed(func() { res, err = fs.Run() }))
	if err != nil {
		return err
	}
	mt.set("federation.windows", float64(res.Fleet.Windows.Windows))
	// The fleet coordinator synchronizes once per global event: every
	// window ends at one.
	mt.set("federation.barriers", float64(res.Fleet.Windows.GlobalEvents))
	mt.set("federation.spillover_moves", float64(res.Fleet.SpilloverMoves))
	mt.set("federation.evacuation_moves", float64(res.Fleet.EvacuationMoves))

	// The sweep lists each scenario's members, then its fleet row.
	rows := swept.Scenarios[idx*(len(fcfg.Members)+1):]
	for i, mem := range res.Members {
		got := fmt.Sprint(sweep.Reduce(mem.Result))
		o.check(got == fmt.Sprint(rows[i].Replicas[0]), "re-run cell member %s differs from the sweep's row", mem.Name)
	}

	var engines []engineRun
	var scheds []scheduler.Stats
	var untracedS, tracedS float64
	for _, mem := range fcfg.Members {
		var walls [2][]float64 // untraced, traced
		var first [sha256.Size]byte
		var last engineRun
		var sched scheduler.Stats
		for k := 0; k < 2*overheadPairs; k++ {
			traced := k%2 == 1
			st, err := core.NewStudy(mem.Config)
			if err != nil {
				return err
			}
			runtime.GC()
			var res *core.StudyResult
			var eng engineRun
			wall := timed(func() { res, eng, err = runStudy(st, len(mem.Config.Workload.VCs), pool, traced) })
			if err != nil {
				return err
			}
			sum, err := studyExportSum(res)
			if err != nil {
				return err
			}
			if k == 0 {
				first = sum
			}
			o.check(sum == first, "member %s: export of run %d (traced %v) differs from the first untraced run", mem.Name, k, traced)
			if traced {
				walls[1] = append(walls[1], wall)
				last, sched = eng, res.Sched
			} else {
				walls[0] = append(walls[0], wall)
			}
		}
		untracedS += median(walls[0])
		tracedS += median(walls[1])
		last.tracer.addLayers(mt)
		engines = append(engines, last)
		scheds = append(scheds, sched)
	}
	recordEngine(mt, engines...)
	recordSched(mt, scheds...)
	mt.set("bench.trace_overhead_pct", overheadPct(tracedS, untracedS))
	return nil
}

// studyExportSum returns the digest of a study's jobs CSV and trace JSON,
// as philly-sim writes them.
func studyExportSum(res *core.StudyResult) ([sha256.Size]byte, error) {
	var buf bytes.Buffer
	tr := trace.FromStudy(res)
	if err := tr.WriteJobsCSV(&buf); err != nil {
		return [sha256.Size]byte{}, err
	}
	if err := tr.WriteJSON(&buf); err != nil {
		return [sha256.Size]byte{}, err
	}
	return sha256.Sum256(buf.Bytes()), nil
}
