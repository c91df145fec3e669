// Command philly-sim runs one cluster simulation and writes its artifacts:
// the job trace (CSV + JSON, in the spirit of the public Philly traces) and
// a run summary.
//
// Usage:
//
//	philly-sim [-scale small|medium|full] [-seed N] [-workers N]
//	           [-shard-events] [-federation SPEC] [-pattern NAME]
//	           [-replay FILE] [-faults SPEC] [-checkpoint SPEC] [-out DIR]
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
// -workers fans the study's speculative placement searches out across that
// many cores (default: all), and -shard-events (default on, effective when
// -workers > 1) additionally partitions the event loop itself per virtual
// cluster with a deterministic virtual-time-window merge. Output is
// bit-identical for any worker count and either engine; only wall-clock
// changes. To sweep many studies instead, use philly-sweep, whose -workers
// flag is the same budget spent across studies first.
//
// -federation runs a multi-cluster study instead: SPEC is a "+"-separated
// list of member presets (e.g. "philly-small+helios-like"; see philly-sim
// -federation help for the list). Member clusters advance in one virtual
// timeline with job spillover and fleet-wide quota rebalancing at window
// barriers; per-member artifacts land in out/<member>/ and the fleet
// comparison table prints to stdout. Bit-identical for any -workers.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"philly"
	"philly/internal/profiling"
)

func main() {
	scale := flag.String("scale", "small", "study scale: small, medium or full")
	seed := flag.Uint64("seed", 1, "master random seed")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0),
		"intra-study worker count (results are identical for any value)")
	shardEvents := flag.Bool("shard-events", true,
		"shard the event loop per virtual cluster when -workers > 1 (results are identical either way)")
	federationSpec := flag.String("federation", "",
		"run a federated multi-cluster study of these '+'-separated member presets (e.g. philly-small+helios-like); 'help' lists presets")
	pattern := flag.String("pattern", "",
		"temporal workload pattern preset (see philly-trace pattern); 'help' lists presets")
	replayPath := flag.String("replay", "",
		"replay this trace file (.csv or .json) instead of generating a workload")
	faultsSpec := flag.String("faults", "",
		"enable correlated outages: none, all, or server[+rack][+cluster], optionally :SCALE (e.g. server+rack:2)")
	checkpointSpec := flag.String("checkpoint", "",
		"enable the checkpoint/restore cost model: off or MIN[:WRITE_S[:RESTORE_S]] (minutes, then seconds)")
	out := flag.String("out", "philly-out", "output directory")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a GC-settled heap profile to this file at exit")
	flag.Parse()

	stopProf, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "philly-sim:", err)
		os.Exit(2)
	}

	// Fail fast on malformed reliability specs, before any simulation work.
	var faultsCfg philly.FaultsConfig
	if *faultsSpec != "" {
		var err error
		faultsCfg, err = philly.ParseFaultsSpec(*faultsSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "philly-sim:", err)
			os.Exit(2)
		}
	}
	var checkpointCfg philly.CheckpointConfig
	if *checkpointSpec != "" {
		var err error
		checkpointCfg, err = philly.ParseCheckpointSpec(*checkpointSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "philly-sim:", err)
			os.Exit(2)
		}
	}

	if *pattern == "help" {
		fmt.Println("workload pattern presets:", strings.Join(philly.WorkloadPatternNames(), ", "))
		return
	}

	if *federationSpec != "" {
		// Member scale comes from the presets; silently dropping an
		// explicit -scale would misread as a scaled federated run.
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "scale" {
				fmt.Fprintln(os.Stderr, "philly-sim: -scale is incompatible with -federation (member presets fix each cluster's scale)")
				os.Exit(2)
			}
			if f.Name == "pattern" || f.Name == "replay" {
				fmt.Fprintf(os.Stderr, "philly-sim: -%s is incompatible with -federation here; use philly-sweep's workload.%s axis with fleet.members instead\n",
					f.Name, map[string]string{"pattern": "pattern", "replay": "trace"}[f.Name])
				os.Exit(2)
			}
		})
		if err := runFederation(*federationSpec, *seed, *workers, *out,
			*faultsSpec != "", faultsCfg, *checkpointSpec != "", checkpointCfg); err != nil {
			fmt.Fprintln(os.Stderr, "philly-sim:", err)
			os.Exit(1)
		}
		return
	}

	var cfg philly.Config
	switch *scale {
	case "small":
		cfg = philly.SmallConfig()
	case "medium":
		cfg = philly.DefaultConfig()
		cfg.Workload.TotalJobs /= 4
		cfg.Workload.Duration /= 4
		cfg.Workload.MaxRuntimeMinutes = 7 * 24 * 60
	case "full":
		cfg = philly.DefaultConfig()
	default:
		fmt.Fprintf(os.Stderr, "philly-sim: unknown scale %q\n", *scale)
		os.Exit(2)
	}
	cfg.Seed = *seed
	if *faultsSpec != "" {
		cfg.Faults = faultsCfg
	}
	if *checkpointSpec != "" {
		cfg.Checkpoint = checkpointCfg
	}
	if *pattern != "" && *replayPath != "" {
		// ApplyReplay would silently drop the pattern (the trace is the
		// temporal authority); at the CLI that combination is a mistake.
		fmt.Fprintln(os.Stderr, "philly-sim: -pattern and -replay are mutually exclusive (a replayed trace already fixes the arrival timeline)")
		os.Exit(2)
	}
	if *pattern != "" {
		p, err := philly.PresetWorkloadPattern(*pattern)
		if err != nil {
			fmt.Fprintln(os.Stderr, "philly-sim:", err)
			os.Exit(2)
		}
		cfg.Workload.Pattern = p
	}
	if *replayPath != "" {
		opts := philly.DefaultReplayOptions()
		opts.Seed = *seed
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
	res, err := philly.RunWith(cfg, philly.RunOptions{
		Workers:     *workers,
		ShardEvents: *shardEvents && *workers != 1,
	})
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
	fmt.Printf("scheduler: %d placement search(es), %d cache short-circuit(s), %d speculative commit(s), %d conflict(s)\n",
		res.Sched.PlacementSearches, res.Sched.CacheShortCircuits,
		res.Sched.SpeculativeCommits, res.Sched.SpeculativeConflicts)
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
// artifact directory per member plus the fleet comparison table. The
// fault and checkpoint models, when set, apply to every member.
func runFederation(spec string, seed uint64, workers int, out string,
	haveFaults bool, faultsCfg philly.FaultsConfig,
	haveCkpt bool, checkpointCfg philly.CheckpointConfig) error {
	if spec == "help" {
		fmt.Println("federation member presets:", strings.Join(philly.FederationPresets(), ", "))
		return nil
	}
	cfg, err := philly.ParseFederationSpec(seed, spec)
	if err != nil {
		return err
	}
	for i := range cfg.Members {
		if haveFaults {
			cfg.Members[i].Config.Faults = faultsCfg.Clone()
		}
		if haveCkpt {
			cfg.Members[i].Config.Checkpoint = checkpointCfg
		}
	}
	start := time.Now()
	res, err := philly.RunFederated(cfg, philly.RunOptions{Workers: workers})
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
		fmt.Printf("member %-16s %d jobs on %d GPUs (simulated %v, %d search(es), %d cached, %d speculative) -> %s\n",
			m.Name, len(m.Result.Jobs), m.Result.TotalGPUs, m.Result.SimEnd,
			m.Result.Sched.PlacementSearches, m.Result.Sched.CacheShortCircuits,
			m.Result.Sched.SpeculativeCommits, dir)
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
