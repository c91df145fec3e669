// Command perfbench is the repository's benchmark. It runs one workload in
// one process, checks that the outputs are correct, and prints every metric
// by name with its unit. The last line of standard output is one JSON
// object:
//
//	{"correct": true, "attempted": 3, "failed": 0, "metrics": {"wall_s": {"value": 16.2, "unit": "s"}, ...}}
//
// Usage (normally through run.sh, which builds this program first):
//
//	perfbench --workload paper-full|fleet-sweep|serve-mix --seed N --seconds S --trace 0|1
//
// With --trace 0 the end-to-end metrics are measured with no tracing. With
// --trace 1 the workload's work runs both untraced and traced, and the
// per-layer metrics are printed instead; the gap between the two is
// bench.trace_overhead_pct. Every per-layer metric is printed on every
// workload; a layer the workload does not exercise reads 0.
//
// The inputs are a pure function of --seed, and every seed must pass every
// correctness check, so a claim can be re-checked on a seed not used while
// it was written; seeds from 1000 on are held out of the baseline.
// README.md in this directory describes the workloads,
// the metrics, and which end-to-end metric each layer should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"syscall"
	"time"
)

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees; every workload
// reports all of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
	{"p50_ms", "ms"},
	{"p95_ms", "ms"},
}

// perLayer are the metrics of single layers, printed by the traced run.
var perLayer = []metricDef{
	{"simulation.events", "count"},
	{"simulation.run_s", "s"},
	{"simulation.self_s", "s"},
	{"simulation.windows", "count"},
	{"simulation.barriers", "count"},
	{"simulation.multi_shard_ratio", "ratio"},
	{"core.global_s", "s"},
	{"core.global_events", "count"},
	{"core.tick_s", "s"},
	{"core.tick_s_w1", "s"},
	{"core.ticks", "count"},
	{"core.local_s", "s"},
	{"core.local_events", "count"},
	{"scheduler.placement_searches", "count"},
	{"scheduler.cache_short_circuits", "count"},
	{"scheduler.cache_hit_ratio", "ratio"},
	{"scheduler.spec_commits", "count"},
	{"scheduler.spec_conflicts", "count"},
	{"scheduler.spec_commit_ratio", "ratio"},
	{"scheduler.blocked_attempts", "count"},
	{"scheduler.preemptions", "count"},
	{"scheduler.starts", "count"},
	{"par.seq_wall_s", "s"},
	{"par.speedup", "ratio"},
	{"par.cpu_per_wall", "ratio"},
	{"workload.generate_s", "s"},
	{"analysis.analyze_s", "s"},
	{"trace.export_s", "s"},
	{"trace.export_mb", "MB"},
	{"sweep.units", "count"},
	{"sweep.expand_s", "s"},
	{"sweep.tail_s", "s"},
	{"sweep.export_s", "s"},
	{"sweep.export_kb", "KB"},
	{"federation.cell_s", "s"},
	{"federation.windows", "count"},
	{"federation.barriers", "count"},
	{"federation.spillover_moves", "count"},
	{"federation.evacuation_moves", "count"},
	{"hit_p50_ms", "ms"},
	{"hit_p99_ms", "ms"},
	{"miss_p50_ms", "ms"},
	{"miss_p90_ms", "ms"},
	{"slo_goodput_rps", "1/s"},
	{"failed_frac", "ratio"},
	{"serve.submit_ms_p50", "ms"},
	{"serve.fetch_ms_p50", "ms"},
	{"serve.result_kb", "KB"},
	{"serve.wait_ms_p50", "ms"},
	{"serve.wait_ms_p90", "ms"},
	{"serve.simulate_ms_p50", "ms"},
	{"serve.encode_ms_p50", "ms"},
	{"serve.queue_wait_ms", "ms"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.cache_entries", "count"},
	{"serve.lease_util", "ratio"},
	{"serve.lease_high_water", "count"},
	{"serve.queue_depth_mean", "count"},
	{"serve.rejected", "count"},
	{"load.late_ms_p99", "ms"},
	{"load.achieved_rps", "1/s"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"bench.trace_overhead_pct", "%"},
}

// runConfig is what a workload receives from the command line.
type runConfig struct {
	seed    uint64
	seconds time.Duration
	traced  bool
	// workers is the parallelism budget: nproc.
	workers int
}

// workloads maps each workload name to its driver.
var workloads = map[string]func(runConfig) (*outcome, error){
	"paper-full":  runPaperFull,
	"fleet-sweep": runFleetSweep,
	"serve-mix":   runServeMix,
}

func main() {
	name := flag.String("workload", "", "workload to run: paper-full, fleet-sweep or serve-mix")
	seed := flag.Uint64("seed", 1, "workload seed; the inputs are a pure function of it")
	secs := flag.Float64("seconds", 10, "how long the measured section runs (at least one operation)")
	trace := flag.Int("trace", 0, "1 prints per-layer metrics from a traced run instead of end-to-end metrics")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok || (*trace != 0 && *trace != 1) || *secs <= 0 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload paper-full|fleet-sweep|serve-mix --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	rc := runConfig{
		seed:    *seed,
		seconds: time.Duration(*secs * float64(time.Second)),
		traced:  *trace == 1,
		workers: runtime.NumCPU(),
	}
	out, err := run(rc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	defs := endToEnd
	if rc.traced {
		defs = perLayer
	}
	if err := out.print(os.Stdout, defs); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// metrics holds measured values by metric name.
type metrics map[string]float64

func (m metrics) set(name string, v float64) { m[name] = v }

func (m metrics) add(name string, v float64) { m[name] += v }

// outcome is one workload run: its metrics and its correctness tally.
type outcome struct {
	m                 metrics
	attempted, failed int
}

func newOutcome() *outcome { return &outcome{m: metrics{}} }

// check counts one operation or correctness check; a false ok is a failure
// and is described on standard error.
func (o *outcome) check(ok bool, format string, args ...any) {
	o.attempted++
	if !ok {
		o.failed++
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// print writes one human-readable line per metric, then the JSON result
// line. A metric the workload did not set reads 0.
func (o *outcome) print(f *os.File, defs []metricDef) error {
	rep := report{
		Correct:   o.failed == 0 && o.attempted > 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metricValue{},
	}
	o.m.set("failed_frac", ratio(float64(o.failed), float64(o.attempted)))
	for _, d := range defs {
		v := o.m[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
		rep.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(f, "%-32s %16.6f %s\n", d.name, v, d.unit)
	}
	fmt.Fprintf(f, "%-32s %16d of %d\n", "failed", o.failed, o.attempted)
	b, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(f, "%s\n", b)
	return err
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set size in MiB (Linux
// reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return float64(ru.Maxrss) / 1024
}

// memDelta is the Go runtime's allocation and GC activity over a section.
type memDelta struct {
	allocMB, gcCycles, gcPauseMS float64
}

// memSection returns a function that, called at the end of a section,
// reports the runtime activity since memSection was called.
func memSection() func() memDelta {
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	return func() memDelta {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		return memDelta{
			allocMB:   float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20),
			gcCycles:  float64(after.NumGC - before.NumGC),
			gcPauseMS: float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6,
		}
	}
}

func (d memDelta) record(m metrics) {
	m.set("runtime.alloc_mb", d.allocMB)
	m.set("runtime.gc_cycles", d.gcCycles)
	m.set("runtime.gc_pause_ms", d.gcPauseMS)
}

// percentile returns the nearest-rank q-quantile of values (0 when empty).
func percentile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := slices.Clone(values)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(values []float64) float64 { return percentile(values, 0.5) }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// overheadPct is the tracing overhead: how much longer the traced run took
// than the untraced one, in percent.
func overheadPct(traced, untraced float64) float64 {
	return 100 * ratio(traced-untraced, untraced)
}

// timed runs fn and returns its wall time in seconds.
func timed(fn func()) float64 {
	start := time.Now()
	fn()
	return time.Since(start).Seconds()
}
