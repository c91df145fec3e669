// Command philly-sim runs one cluster simulation and writes its artifacts:
// the job trace (CSV + JSON, in the spirit of the public Philly traces) and
// a run summary.
//
// Usage:
//
//	philly-sim [-scale small|medium|full] [-seed N] [-workers N]
//	           [-federation SPEC] [-pattern NAME] [-replay FILE]
//	           [-faults SPEC] [-checkpoint SPEC] [-out DIR]
//
// -faults enables correlated infrastructure outages ("none", "all", or a
// "+"-joined subset of server, rack, cluster with an optional ":SCALE"
// frequency multiplier, e.g. "server+rack:2"); -checkpoint enables the
// periodic checkpoint/restore cost model ("off" or
// "MIN[:WRITE_S[:RESTORE_S]]", interval in minutes, costs in seconds).
// Both compose with -federation: every member runs under the same fault
// and checkpoint model, and members hit by a large outage evacuate
// restorable jobs to the member with the most free GPUs.
//
// -pattern runs the workload under a temporal phase program (diurnal,
// weekly, ...; philly-trace pattern lists them); -replay runs a trace file
// (philly-trace spec CSV, a previous run's jobs.csv/trace.json, or the
// msr-fiddle philly-traces JSON) instead of the generative workload.
//
// -workers is the study's worker budget (default 0: all cores). With more
// than one worker the event loop shards per virtual cluster — one lane per
// VC, advanced in deterministic virtual-time windows — and the windows
// fan out across the workers. Output is bit-identical for any worker
// count; only wall-clock changes. To sweep many studies instead, use
// philly-sweep, whose -workers flag is the same budget spent across
// studies first.
//
// -federation runs a multi-cluster study instead: SPEC is a "+"-separated
// list of member presets (e.g. "philly-small+helios-like"; see philly-sim
// -federation help for the list). Member clusters advance in one virtual
// timeline with job spillover and fleet-wide quota rebalancing at window
// barriers; per-member artifacts land in out/<member>/ and the fleet
// comparison table prints to stdout. Bit-identical for any -workers.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"philly"
	"philly/internal/cliflags"
	"philly/internal/profiling"
)

func main() {
	fs := flag.NewFlagSet("philly-sim", flag.ContinueOnError)
	study := cliflags.AddFleet(fs)
	pattern := fs.String("pattern", "",
		"temporal workload pattern preset (see philly-trace pattern); 'help' lists presets")
	replayPath := fs.String("replay", "",
		"replay this trace file (.csv or .json) instead of generating a workload")
	out := fs.String("out", "philly-out", "output directory")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := fs.String("memprofile", "", "write a GC-settled heap profile to this file at exit")
	study.Parse(os.Args[1:])

	stopProf, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		study.Fail(err)
	}

	if *pattern == "help" {
		fmt.Println("workload pattern presets:", strings.Join(philly.WorkloadPatternNames(), ", "))
		return
	}

	if study.Federation != "" {
		for _, f := range []struct{ flag, axis string }{{"pattern", "pattern"}, {"replay", "trace"}} {
			if study.Given(f.flag) {
				study.Fail(fmt.Errorf("-%s is incompatible with -federation here; use philly-sweep's workload.%s axis with fleet.members instead", f.flag, f.axis))
			}
		}
		cfg, err := study.FederationConfig()
		if err != nil {
			study.Fail(err)
		}
		if err := runFederation(cfg, study.Workers, *out); err != nil {
			fmt.Fprintln(os.Stderr, "philly-sim:", err)
			os.Exit(1)
		}
		return
	}

	cfg, err := study.Config()
	if err != nil {
		study.Fail(err)
	}
	if *pattern != "" && *replayPath != "" {
		// ApplyReplay would silently drop the pattern (the trace is the
		// temporal authority); at the CLI that combination is a mistake.
		study.Fail(errors.New("-pattern and -replay are mutually exclusive (a replayed trace already fixes the arrival timeline)"))
	}
	if *pattern != "" {
		p, err := philly.PresetWorkloadPattern(*pattern)
		if err != nil {
			study.Fail(err)
		}
		cfg.Workload.Pattern = p
	}
	if *replayPath != "" {
		opts := philly.DefaultReplayOptions()
		opts.Seed = study.Seed
		specs, err := philly.LoadTrace(*replayPath, opts)
		if err == nil {
			err = philly.ApplyReplay(&cfg, specs)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "philly-sim:", err)
			os.Exit(1)
		}
	}

	start := time.Now()
	res, err := philly.RunParallel(cfg, study.Workers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "philly-sim:", err)
		os.Exit(1)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "philly-sim:", err)
		os.Exit(1)
	}

	tr := philly.NewTrace(res)
	csvPath := filepath.Join(*out, "jobs.csv")
	jsonPath := filepath.Join(*out, "trace.json")
	if err := writeFile(csvPath, tr.WriteJobsCSV); err != nil {
		fmt.Fprintln(os.Stderr, "philly-sim:", err)
		os.Exit(1)
	}
	if err := writeFile(jsonPath, tr.WriteJSON); err != nil {
		fmt.Fprintln(os.Stderr, "philly-sim:", err)
		os.Exit(1)
	}

	fmt.Printf("simulated %d jobs on %d GPUs in %v (simulated %v)\n",
		len(res.Jobs), res.TotalGPUs, time.Since(start).Round(time.Millisecond), res.SimEnd)
	fmt.Printf("scheduler: %d placement search(es)\n", res.Sched.PlacementSearches)
	if o := res.Outages; o.Events > 0 {
		fmt.Printf("outages: %d event(s) (%d maintenance), %d attempt(s) killed, %.1f GPU-h down, %.1f GPU-h lost, %.1f GPU-h ckpt overhead, ETTF %.1fh, ETTR %.2fh\n",
			o.Events, o.MaintenanceEvents, o.KilledAttempts,
			o.DownGPUHours, o.LostGPUHours, o.CkptOverheadGPUHours,
			o.ETTFHours, o.ETTRHours)
	}
	fmt.Printf("wrote %s (%d jobs) and %s (%d attempts)\n",
		csvPath, len(tr.Jobs), jsonPath, len(tr.Attempts))
	if err := stopProf(); err != nil {
		fmt.Fprintln(os.Stderr, "philly-sim:", err)
		os.Exit(1)
	}
}

// runFederation executes a federated multi-cluster study and writes one
// artifact directory per member plus the fleet comparison table.
func runFederation(cfg philly.FederationConfig, workers int, out string) error {
	start := time.Now()
	res, err := philly.RunFederated(cfg, workers)
	if err != nil {
		return err
	}
	for _, m := range res.Members {
		dir := filepath.Join(out, m.Name)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		tr := philly.NewTrace(m.Result)
		if err := writeFile(filepath.Join(dir, "jobs.csv"), tr.WriteJobsCSV); err != nil {
			return err
		}
		if err := writeFile(filepath.Join(dir, "trace.json"), tr.WriteJSON); err != nil {
			return err
		}
		fmt.Printf("member %-16s %d jobs on %d GPUs (simulated %v, %d search(es)) -> %s\n",
			m.Name, len(m.Result.Jobs), m.Result.TotalGPUs, m.Result.SimEnd,
			m.Result.Sched.PlacementSearches, dir)
	}
	fmt.Printf("fleet: %d spillover move(s) over %d check(s), %d quota change(s) over %d rebalance tick(s), wall %v\n",
		res.Fleet.SpilloverMoves, res.Fleet.SpilloverChecks,
		res.Fleet.QuotaChanges, res.Fleet.RebalanceTicks,
		time.Since(start).Round(time.Millisecond))
	fmt.Println(philly.AnalyzeFleet(res).Render())
	return nil
}

func writeFile(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
