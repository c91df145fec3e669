// Command philly-trace is the trace half of the reproduction: it generates
// a synthetic workload (without simulating its execution), replays a trace
// file into a study, and describes the temporal workload patterns.
//
// Usage:
//
//	philly-trace [generate] [-jobs N] [-days D] [-seed S] [-pattern NAME] [-csv out.csv]
//	philly-trace replay -in trace.{csv,json} [-seed S] [-rate-scale X]
//	            [-time-compress X] [-mix-shift 1:0.2,8:0.8] [-csv out.csv]
//	            [-run] [-scale small|medium|full] [-workers N]
//	philly-trace pattern [NAME]
//
// generate emits the planned job stream in the full-fidelity spec CSV
// schema, which replay reads back bit-exactly: generating a trace and
// replaying it reproduces the generator study's job population exactly.
// replay also ingests this repository's observed-trace exports (philly-sim
// CSV/JSON) and the msr-fiddle philly-traces JSON format, with
// deterministic what-if transforms. pattern lists the phase-program
// presets usable with -pattern here, philly-sim, and the workload.pattern
// sweep axis.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"philly"
	"philly/internal/core"
	"philly/internal/failures"
	"philly/internal/simulation"
	"philly/internal/stats"
	"philly/internal/trace"
	"philly/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "philly-trace:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	mode := "generate"
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		mode, args = args[0], args[1:]
	}
	switch mode {
	case "generate":
		return runGenerate(args)
	case "replay":
		return runReplay(args)
	case "pattern":
		return runPattern(args)
	}
	return fmt.Errorf("unknown mode %q (want generate, replay or pattern)", mode)
}

func runGenerate(args []string) error {
	fs := flag.NewFlagSet("generate", flag.ExitOnError)
	jobs := fs.Int("jobs", 96260, "number of jobs to generate (must be > 0)")
	days := fs.Int("days", 75, "trace duration in days (must be > 0)")
	seed := fs.Uint64("seed", 1, "random seed")
	pattern := fs.String("pattern", "", "temporal pattern preset (see philly-trace pattern)")
	csvPath := fs.String("csv", "", "write the generated job stream to this spec CSV file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *jobs <= 0 {
		return fmt.Errorf("-jobs must be positive, got %d", *jobs)
	}
	if *days <= 0 {
		return fmt.Errorf("-days must be positive, got %d", *days)
	}

	cfg := workload.DefaultConfig()
	cfg.TotalJobs = *jobs
	cfg.Duration = simulation.Time(*days) * simulation.Day
	if *pattern != "" {
		p, err := workload.PresetPattern(*pattern)
		if err != nil {
			return err
		}
		cfg.Pattern = p
	}
	g := stats.NewRNG(*seed).Split("workload")
	gen, err := workload.NewGenerator(cfg, g)
	if err != nil {
		return err
	}
	specs := gen.Generate(g)
	if len(specs) == 0 {
		return fmt.Errorf("generated an empty trace")
	}
	fmt.Printf("generated %d jobs over %d days", len(specs), *days)
	if *pattern != "" {
		fmt.Printf(" (pattern %s)", *pattern)
	}
	fmt.Println()
	summarize(specs)
	if *csvPath == "" {
		return nil
	}
	if err := writeSpecs(*csvPath, specs); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", *csvPath)
	return nil
}

func runReplay(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	in := fs.String("in", "", "trace file to replay (.csv or .json; required)")
	seed := fs.Uint64("seed", 1, "seed for reconstruction and transform draws")
	rateScale := fs.Float64("rate-scale", 1, "arrival-rate multiplier (what-if transform)")
	timeCompress := fs.Float64("time-compress", 1, "timeline divisor: arrivals and runtimes (what-if transform)")
	mixShift := fs.String("mix-shift", "", "resample GPU sizes from SIZE:WEIGHT,... (what-if transform)")
	csvPath := fs.String("csv", "", "write the replayable job stream to this spec CSV file")
	doRun := fs.Bool("run", false, "simulate the replayed trace and print a study summary")
	scale := fs.String("scale", "full", "cluster scale for -run: small, medium or full")
	workers := fs.Int("workers", 0, "worker budget for -run (<= 0 means all cores)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("replay requires -in")
	}
	opts := philly.DefaultReplayOptions()
	opts.Seed = *seed
	specs, err := philly.LoadTrace(*in, opts)
	if err != nil {
		return err
	}
	tr := philly.TraceTransform{RateScale: *rateScale, TimeCompress: *timeCompress, Seed: *seed}
	if *mixShift != "" {
		if tr.MixShift, err = parseMixShift(*mixShift); err != nil {
			return err
		}
	}
	if specs, err = tr.Apply(specs); err != nil {
		return err
	}
	fmt.Printf("loaded %d jobs from %s\n", len(specs), *in)
	summarize(specs)
	if *csvPath != "" {
		if err := writeSpecs(*csvPath, specs); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *csvPath)
	}
	if !*doRun {
		return nil
	}
	cfg, err := core.ScaleConfig(*scale)
	if err != nil {
		return err
	}
	cfg.Seed = *seed
	if err := philly.ApplyReplay(&cfg, specs); err != nil {
		return err
	}
	res, err := philly.RunParallel(cfg, *workers)
	if err != nil {
		return err
	}
	printStudySummary(res)
	return nil
}

func runPattern(args []string) error {
	fs := flag.NewFlagSet("pattern", flag.ExitOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	names := fs.Args()
	if len(names) == 0 {
		names = philly.WorkloadPatternNames()
		fmt.Println("workload pattern presets:")
	}
	for _, name := range names {
		p, err := philly.PresetWorkloadPattern(name)
		if err != nil {
			return err
		}
		fmt.Printf("  %s\n", p)
	}
	return nil
}

func writeSpecs(path string, specs []workload.JobSpec) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteSpecsCSV(f, specs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// summarize prints the stream's composition: size mix, planned outcomes,
// population counts.
func summarize(specs []workload.JobSpec) {
	sizeCounts := map[int]int{}
	outcomes := map[failures.Outcome]int{}
	users := map[string]bool{}
	vcs := map[string]int{}
	for i := range specs {
		j := &specs[i]
		sizeCounts[j.GPUs]++
		outcomes[j.Plan.Outcome]++
		users[j.User] = true
		vcs[j.VC]++
	}
	fmt.Printf("population: %d users, %d VCs\n", len(users), len(vcs))
	sizes := make([]int, 0, len(sizeCounts))
	for s := range sizeCounts {
		sizes = append(sizes, s)
	}
	sort.Ints(sizes)
	fmt.Println("size mix:")
	for _, s := range sizes {
		fmt.Printf("  %3d GPUs: %6d (%.1f%%)\n", s, sizeCounts[s],
			100*float64(sizeCounts[s])/float64(len(specs)))
	}
	fmt.Println("planned outcomes:")
	for o := failures.Outcome(0); o < 3; o++ {
		fmt.Printf("  %-13s %6d (%.1f%%)\n", o, outcomes[o],
			100*float64(outcomes[o])/float64(len(specs)))
	}
}

func printStudySummary(res *philly.StudyResult) {
	var completed int
	var delays []float64
	for i := range res.Jobs {
		j := &res.Jobs[i]
		if !j.Completed || j.Offloaded {
			continue
		}
		completed++
		delays = append(delays, j.FirstQueueDelay.Minutes())
	}
	sort.Float64s(delays)
	pct := func(p float64) float64 {
		if len(delays) == 0 {
			return 0
		}
		i := int(p * float64(len(delays)-1))
		return delays[i]
	}
	fmt.Printf("study: %d jobs completed; queue delay p50 %.1f min, p95 %.1f min\n",
		completed, pct(0.50), pct(0.95))
}

// parseMixShift parses "SIZE:WEIGHT,SIZE:WEIGHT,..." into size weights.
func parseMixShift(s string) (map[int]float64, error) {
	out := map[int]float64{}
	for _, part := range strings.Split(s, ",") {
		sizeStr, wStr, ok := strings.Cut(strings.TrimSpace(part), ":")
		if !ok {
			return nil, fmt.Errorf("mix-shift entry %q is not SIZE:WEIGHT", part)
		}
		size, err := strconv.Atoi(sizeStr)
		if err != nil {
			return nil, fmt.Errorf("mix-shift size %q: %w", sizeStr, err)
		}
		w, err := strconv.ParseFloat(wStr, 64)
		if err != nil {
			return nil, fmt.Errorf("mix-shift weight %q: %w", wStr, err)
		}
		if _, dup := out[size]; dup {
			return nil, fmt.Errorf("mix-shift size %d repeated", size)
		}
		out[size] = w
	}
	return out, nil
}
