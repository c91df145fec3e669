// Command philly-sweep runs a cross-product of study configurations and
// prints a per-scenario comparison table with confidence
// intervals over seed replicas.
//
// Usage:
//
//	philly-sweep [-scale small|medium|full] [-seed N] [-replicas N] [-workers N]
//	             [-jobs N] [-axis name=v1,v2]... [-o table|json] [-v]
//
// Each -axis flag adds one swept dimension; the scenarios are the
// cross-product of all axes. Example — the §4.1 locality/fragmentation
// trade-off over two policies, 8 replicas each:
//
//	philly-sweep -axis sched.policy=philly,fifo -axis locality.relax=0:0,4:8,16:32 -replicas 8
//
// Results are bit-identical for any -workers value: per-run seeds derive
// only from (seed, scenario index, replica index), and intra-study
// telemetry streams only from (run seed, entity id).
//
// -workers (default 0: all cores) is one shared budget for both
// parallelism layers, the studies and each study's intra-study fork-joins
// (speculative placement, federated studies' fleet windows); never more
// than -workers tasks run at once. Today the studies themselves run one
// at a time: the pool's one-shot offer of study units misses on the pool
// built a moment earlier, so only the intra-study fork-joins reach the
// other workers (ROADMAP item 1). A sweep never shards a study's event
// loop per virtual cluster; philly-sim/-repro's -workers is the same
// budget spent entirely within one study, which does.
//
// -o json emits the machine-readable sweep.Result export (format_version 1:
// per-replica metrics, per-metric aggregates, and each scenario's applied
// configuration) for CI diffing and plotting hooks; the comparison table is
// recoverable from it via sweep.DecodeJSON.
//
// The fleet.members axis makes every scenario a federated multi-cluster
// study: each value is a "+"-separated member preset list, every other
// axis applies to every member, and each scenario reports one row per
// member plus a fleet-wide row under a trailing "member" column — so
//
//	philly-sweep -axis sched.policy=philly,fifo \
//	             -axis fleet.members=philly-small+helios-like -replicas 4
//
// compares policies per-member and fleet-wide in one table (and in the
// JSON export and philly-plot output).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"philly/internal/cliflags"
	"philly/internal/profiling"
	"philly/internal/sweep"
)

// axisFlags collects repeated -axis flags.
type axisFlags []sweep.Axis

func (a *axisFlags) String() string { return fmt.Sprintf("%d axes", len(*a)) }

func (a *axisFlags) Set(spec string) error {
	ax, err := sweep.ParseAxis(spec)
	if err != nil {
		return err
	}
	*a = append(*a, ax)
	return nil
}

func main() {
	var axes axisFlags
	fs := flag.NewFlagSet("philly-sweep", flag.ContinueOnError)
	study := cliflags.Add(fs)
	replicas := fs.Int("replicas", 4, "seed replicas per scenario")
	jobs := fs.Int("jobs", 0, "override base workload job count (0 = scale default)")
	output := fs.String("o", "table", "output format: table or json (machine-readable sweep.Result export)")
	verbose := fs.Bool("v", false, "print per-run progress")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
	memProfile := fs.String("memprofile", "", "write a GC-settled heap profile to this file at exit")
	fs.Var(&axes, "axis", "axis spec name=v1,v2 (repeatable); known: "+strings.Join(sweep.KnownAxes(), ", "))
	study.Parse(os.Args[1:])

	base, err := study.Config()
	if err != nil {
		study.Fail(err)
	}
	if *jobs > 0 {
		base.Workload.TotalJobs = *jobs
	}

	m := sweep.Matrix{Base: base, Axes: axes}
	opts := sweep.Options{Replicas: *replicas, Workers: study.Workers}
	if *verbose {
		opts.Progress = func(done, total int) {
			fmt.Fprintf(os.Stderr, "\rphilly-sweep: %d/%d runs", done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}

	if *output != "table" && *output != "json" {
		study.Fail(fmt.Errorf("unknown output format %q (want table or json)", *output))
	}

	stopProf, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		study.Fail(err)
	}

	start := time.Now()
	res, err := m.Run(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "philly-sweep:", err)
		os.Exit(1)
	}
	if *output == "json" {
		if err := res.WriteJSON(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "philly-sweep:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wall: %v\n", time.Since(start).Round(time.Millisecond))
	} else {
		fmt.Print(res.RenderTable())
		fmt.Printf("wall: %v\n", time.Since(start).Round(time.Millisecond))
	}
	if err := stopProf(); err != nil {
		fmt.Fprintln(os.Stderr, "philly-sweep:", err)
		os.Exit(1)
	}
}
