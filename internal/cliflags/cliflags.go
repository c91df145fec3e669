// Package cliflags is the flag group the study CLIs share. philly-sim,
// philly-repro and philly-sweep declare -scale, -seed and -workers
// through it, and philly-sim and philly-repro also -faults, -checkpoint
// and -federation, so every command has the same defaults (small, 1, 0 =
// all cores) and resolves them to a core.Config or a federation.Config
// the same way.
package cliflags

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"philly/internal/core"
	"philly/internal/faults"
	"philly/internal/federation"
)

// Group holds the group's flag values after parsing.
type Group struct {
	Scale string
	Seed  uint64
	// Workers is the worker budget; 0 means all cores. It never changes
	// results, only wall-clock.
	Workers int
	// Faults, Checkpoint and Federation are the raw specs; they stay
	// empty unless AddFleet registered them.
	Faults, Checkpoint, Federation string

	fs *flag.FlagSet
}

// Add registers -scale, -seed and -workers on fs, which must be a
// ContinueOnError set named after the command (see Parse).
func Add(fs *flag.FlagSet) *Group {
	g := &Group{fs: fs}
	fs.StringVar(&g.Scale, "scale", "small", "study scale: small, medium or full")
	fs.Uint64Var(&g.Seed, "seed", 1, "master random seed (a sweep derives every run's seed from it)")
	fs.IntVar(&g.Workers, "workers", 0, "worker budget, 0 = all cores (results are identical for any value)")
	return g
}

// AddFleet registers the whole group: Add's flags plus -faults,
// -checkpoint and -federation.
func AddFleet(fs *flag.FlagSet) *Group {
	g := Add(fs)
	fs.StringVar(&g.Faults, "faults", "",
		"enable correlated outages: none, all, or server[+rack][+cluster], optionally :SCALE (e.g. server+rack:2)")
	fs.StringVar(&g.Checkpoint, "checkpoint", "",
		"enable the checkpoint/restore cost model: off or MIN[:WRITE_S[:RESTORE_S]] (minutes, then seconds)")
	fs.StringVar(&g.Federation, "federation", "",
		"run a federated multi-cluster study of these '+'-separated member presets (e.g. philly-small+helios-like); 'help' lists presets")
	return g
}

// Parse parses args into the group's flag set. -h prints the usage and
// exits 0, as does -federation help after listing the member presets; a
// malformed command line exits 2 through Fail.
func (g *Group) Parse(args []string) {
	g.fs.SetOutput(io.Discard)
	err := g.fs.Parse(args)
	g.fs.SetOutput(os.Stderr)
	switch {
	case errors.Is(err, flag.ErrHelp):
		g.fs.Usage()
		os.Exit(0)
	case err != nil:
		g.Fail(err)
	case g.Federation == "help":
		fmt.Println("federation member presets:", strings.Join(federation.Presets(), ", "))
		os.Exit(0)
	}
}

// Fail reports a usage error as one "command: problem" line and exits 2,
// the status the flag package gives a malformed command line.
func (g *Group) Fail(err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", g.fs.Name(), err)
	os.Exit(2)
}

// Given reports whether the named flag was set on the command line.
func (g *Group) Given(name string) bool {
	given := false
	g.fs.Visit(func(f *flag.Flag) { given = given || f.Name == name })
	return given
}

// Config resolves the group to one study's configuration: the -scale
// base config seeded with -seed, under the -faults and -checkpoint models
// when they are set.
func (g *Group) Config() (core.Config, error) {
	cfg, err := core.ScaleConfig(g.Scale)
	if err != nil {
		return core.Config{}, err
	}
	fc, cc, err := g.models()
	if err != nil {
		return core.Config{}, err
	}
	cfg.Seed = g.Seed
	g.install(&cfg, fc, cc)
	return cfg, nil
}

// FederationConfig resolves the group to a federated study's
// configuration: the -federation member presets with seeds derived from
// -seed, every member under the -faults and -checkpoint models when they
// are set. An explicit -scale is refused, even -scale small: the presets
// fix each cluster's scale, and dropping the flag silently would misread
// as a scaled federated run.
func (g *Group) FederationConfig() (federation.Config, error) {
	if g.Given("scale") {
		return federation.Config{}, errors.New("-scale is incompatible with -federation (member presets fix each cluster's scale)")
	}
	fc, cc, err := g.models()
	if err != nil {
		return federation.Config{}, err
	}
	cfg, err := federation.ParseSpec(g.Seed, g.Federation)
	if err != nil {
		return federation.Config{}, err
	}
	for i := range cfg.Members {
		g.install(&cfg.Members[i].Config, fc, cc)
	}
	return cfg, nil
}

// models parses -faults and -checkpoint, each only when set.
func (g *Group) models() (fc faults.Config, cc core.CheckpointConfig, err error) {
	if g.Faults != "" {
		if fc, err = faults.ParseSpec(g.Faults); err != nil {
			return fc, cc, err
		}
	}
	if g.Checkpoint != "" {
		cc, err = core.ParseCheckpointSpec(g.Checkpoint)
	}
	return fc, cc, err
}

// install sets the parsed models on c; an unset flag leaves c's model as
// it is. Each config gets its own copy of the maintenance schedule.
func (g *Group) install(c *core.Config, fc faults.Config, cc core.CheckpointConfig) {
	if g.Faults != "" {
		c.Faults = fc.Clone()
	}
	if g.Checkpoint != "" {
		c.Checkpoint = cc
	}
}
