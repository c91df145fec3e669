// Command philly-repro regenerates every table and figure of the paper in
// one run and prints them with the paper's values alongside.
//
// Usage:
//
//	philly-repro [-scale small|medium|full] [-seed N] [-policy philly|fifo|srtf|tiresias|gandiva]
//	             [-replicas N] [-workers N] [-federation SPEC]
//	             [-faults SPEC] [-checkpoint SPEC] [-o report.txt]
//
// -faults and -checkpoint enable the correlated-outage engine and the
// checkpoint/restore cost model (same specs as philly-sim); they apply to
// every run of every path, including each member of a -federation study.
//
// small  (~230 GPUs, 3.3k jobs) finishes in under a second;
// medium (~2300 GPUs, 24k jobs) in tens of seconds;
// full   (paper scale: ~2300 GPUs, 96,260 jobs over 75 days) in minutes.
//
// -policy also accepts a comma-separated list; with several policies (or
// with -replicas > 1) the multi-run loop goes through the internal/sweep
// harness and prints a cross-scenario comparison table instead of the full
// report — replicated over seeds, with 95% confidence intervals.
//
// -workers (default 0: all cores) is one shared parallelism budget. A
// single run spends it *within* the study: with more than one worker the
// event loop shards per virtual cluster, and its windows fan out across
// the workers. The multi-run path hands it to the sweep harness, which
// spends it *across* studies and federated studies' fleet windows — the
// two layers draw from the same pool and never oversubscribe. Results are
// bit-identical for any worker count.
//
// -federation runs a multi-cluster study instead of a single cluster: SPEC
// is a "+"-separated member preset list (e.g. "philly-small+helios-like"),
// the -policy flag (single policy) applies to every member, and the output
// is the fleet comparison table — per-member and combined queueing,
// utilization and failure aggregates. Use philly-sweep's fleet.members
// axis to cross federations with policies and replicas.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"philly"
	"philly/internal/cliflags"
	"philly/internal/scheduler"
	"philly/internal/sweep"
)

func main() {
	fs := flag.NewFlagSet("philly-repro", flag.ContinueOnError)
	study := cliflags.AddFleet(fs)
	policy := fs.String("policy", "philly", "scheduling policy (comma-separated list sweeps): philly, fifo, srtf, tiresias, gandiva")
	replicas := fs.Int("replicas", 1, "seed replicas; > 1 switches to the sweep comparison table")
	out := fs.String("o", "", "also write the report to this file")
	study.Parse(os.Args[1:])

	if study.Federation != "" {
		// Replication comes from philly-sweep's fleet.members axis;
		// silently dropping -replicas would misread as an aggregated
		// result.
		if study.Given("replicas") {
			study.Fail(errors.New("-replicas is incompatible with -federation (use philly-sweep -axis fleet.members=... for replicas)"))
		}
		cfg, err := study.FederationConfig()
		if err != nil {
			study.Fail(err)
		}
		p, err := scheduler.ParsePolicy(*policy)
		if err != nil {
			study.Fail(err)
		}
		for i := range cfg.Members {
			cfg.Members[i].Config.Scheduler.Policy = p
		}
		if err := runFederation(cfg, study, *policy, *out); err != nil {
			fmt.Fprintln(os.Stderr, "philly-repro:", err)
			os.Exit(1)
		}
		return
	}

	cfg, err := study.Config()
	if err != nil {
		study.Fail(err)
	}

	if strings.Contains(*policy, ",") || *replicas > 1 {
		ax, err := sweep.ParseAxis("sched.policy=" + *policy)
		if err != nil {
			study.Fail(err)
		}
		m := sweep.Matrix{Base: cfg, Axes: []sweep.Axis{ax}}
		if err := runSweep(m, study, *replicas, *out); err != nil {
			fmt.Fprintln(os.Stderr, "philly-repro:", err)
			os.Exit(1)
		}
		return
	}

	cfg.Scheduler.Policy, err = scheduler.ParsePolicy(*policy)
	if err != nil {
		study.Fail(err)
	}

	start := time.Now()
	res, err := philly.RunParallel(cfg, study.Workers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "philly-repro:", err)
		os.Exit(1)
	}
	report := philly.Analyze(res)
	fmt.Printf("scale=%s seed=%d policy=%s jobs=%d gpus=%d simulated=%v wall=%v\n\n",
		study.Scale, study.Seed, *policy, len(res.Jobs), res.TotalGPUs, res.SimEnd, time.Since(start).Round(time.Millisecond))
	fmt.Println(report.RenderAll())

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "philly-repro:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := report.WriteAll(f); err != nil {
			fmt.Fprintln(os.Stderr, "philly-repro:", err)
			os.Exit(1)
		}
	}
}

// runSweep drives the multi-run path — several policies and/or several
// seed replicas — through the sweep harness and prints its comparison
// table. Per-run seeds derive from (seed, scenario, replica), so the table
// is reproducible independent of worker count.
func runSweep(m sweep.Matrix, study *cliflags.Group, replicas int, out string) error {
	start := time.Now()
	res, err := m.Run(sweep.Options{Replicas: replicas, Workers: study.Workers})
	if err != nil {
		return err
	}
	fmt.Printf("scale=%s seed=%d: policy comparison via sweep harness\n", study.Scale, study.Seed)
	fmt.Print(res.RenderTable())
	fmt.Printf("wall: %v\n", time.Since(start).Round(time.Millisecond))
	if out != "" {
		if err := os.WriteFile(out, []byte(res.RenderTable()), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// runFederation drives the multi-cluster path: one federated study, the
// single -policy applied to every member, output as the fleet comparison
// table.
func runFederation(cfg philly.FederationConfig, study *cliflags.Group, policy, out string) error {
	start := time.Now()
	res, err := philly.RunFederated(cfg, study.Workers)
	if err != nil {
		return err
	}
	fmt.Printf("federation=%s seed=%d policy=%s: %d spillover move(s), %d quota change(s), wall %v\n",
		study.Federation, study.Seed, policy, res.Fleet.SpilloverMoves, res.Fleet.QuotaChanges,
		time.Since(start).Round(time.Millisecond))
	table := philly.AnalyzeFleet(res).Render()
	fmt.Println(table)
	if out != "" {
		if err := os.WriteFile(out, []byte(table), 0o644); err != nil {
			return err
		}
	}
	return nil
}
