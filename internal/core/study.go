// Package core is the study driver: it wires the workload generator, the
// cluster, the scheduler, the performance model, the telemetry recorder,
// and the log pipeline into one deterministic discrete-event simulation,
// and produces the StudyResult that internal/analysis turns into every
// table and figure of the paper.
//
// The control flow mirrors the lifecycle of Figure 1: jobs arrive into
// per-VC queues; the scheduler gang-schedules them under locality
// constraints; running jobs emit per-minute telemetry; attempts fail per
// the failure plan, producing stderr logs that are classified back to root
// causes; failed jobs are retried a fixed number of times; preempted jobs
// resume from checkpoints.
package core

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"philly/internal/cluster"
	"philly/internal/faults"
	"philly/internal/perfmodel"
	"philly/internal/scheduler"
	"philly/internal/simulation"
	"philly/internal/workload"
)

// Config parameterizes a study run.
type Config struct {
	// Seed drives every random stream; equal seeds give identical results.
	Seed uint64
	// Cluster is the machine inventory.
	Cluster cluster.Config
	// Workload generates the job trace.
	Workload workload.Config
	// Scheduler configures the scheduling policy.
	Scheduler scheduler.Config
	// Util calibrates the GPU-utilization model.
	Util perfmodel.UtilParams
	// Host calibrates the host-resource model.
	Host perfmodel.HostParams
	// TelemetryInterval is the hardware-counter sampling period (the paper
	// uses per-minute Ganglia reports).
	TelemetryInterval simulation.Time
	// CheckpointRetention is the fraction of in-progress work retained
	// when a checkpointing job is preempted and later resumed.
	CheckpointRetention float64
	// HorizonFactor stops the simulation at Workload.Duration multiplied
	// by this factor, so late-arriving jobs get time to drain.
	HorizonFactor float64
	// MaxEvents bounds the event loop as a runaway guard.
	MaxEvents uint64

	// AdaptiveRetry enables the paper's §5 guideline of classifying
	// failures online and not retrying deterministic ones ("the scheduler
	// could stop retrying for failure categories like incorrect inputs and
	// continue retrying for network timeouts"). Off by default — Philly as
	// measured retries a fixed number of times.
	AdaptiveRetry bool

	// Defrag configures §5's migration-based defragmentation proposal.
	Defrag DefragConfig

	// Faults configures the correlated-outage engine (internal/faults):
	// server/rack/cluster failure domains with per-domain MTBF/MTTR plus
	// maintenance windows. Disabled by default; when disabled, results are
	// bit-identical to builds without the engine.
	Faults faults.Config

	// Checkpoint configures the periodic checkpoint/restore cost model
	// applied to outage kills (Kokolis et al. 2024). Orthogonal to
	// CheckpointRetention, which models preemption resume.
	Checkpoint CheckpointConfig
}

// CheckpointConfig is the per-job checkpoint/restore cost model: jobs that
// checkpoint at all (Train.CheckpointEveryEpochs > 0) write a checkpoint
// every Interval of clean wall time, stretching the attempt by
// WriteSeconds per interval, so an attempt killed by an infrastructure
// outage loses only the work since its last checkpoint and pays
// RestoreSeconds before making progress again.
type CheckpointConfig struct {
	// Enabled turns the cost model on. Off by default: outage kills then
	// lose the whole attempt, like the failure plan's own retries.
	Enabled bool
	// Interval is the wall time between periodic checkpoints.
	Interval simulation.Time
	// WriteSeconds is the wall-time cost of writing one checkpoint.
	WriteSeconds float64
	// RestoreSeconds is the wall-time cost of restoring from one.
	RestoreSeconds float64
}

// DefaultCheckpointConfig returns the calibrated but disabled cost model:
// a checkpoint every 30 minutes costing 30s to write and 120s to restore.
func DefaultCheckpointConfig() CheckpointConfig {
	return CheckpointConfig{
		Enabled:        false,
		Interval:       30 * simulation.Minute,
		WriteSeconds:   30,
		RestoreSeconds: 120,
	}
}

// ParseCheckpointSpec parses a CLI checkpoint spec: "off" disables the
// cost model; "MIN[:WRITE_S[:RESTORE_S]]" enables it with a checkpoint
// interval of MIN minutes and optional write/restore costs in seconds
// (defaults from DefaultCheckpointConfig). Errors are descriptive, for
// fail-fast flag validation.
func ParseCheckpointSpec(spec string) (CheckpointConfig, error) {
	min, w, r, off, err := parseCheckpointParts(spec)
	if err != nil {
		return CheckpointConfig{}, err
	}
	cfg := DefaultCheckpointConfig()
	if off {
		return cfg, nil
	}
	cfg.Enabled = true
	cfg.Interval = simulation.FromMinutes(min)
	cfg.WriteSeconds = w
	cfg.RestoreSeconds = r
	return cfg, nil
}

// CanonicalCheckpointSpec parses spec and re-renders it in canonical form:
// "off", or the fully explicit "MIN:WRITE_S:RESTORE_S" with each number as
// the shortest decimal that round-trips (elided costs are filled in from
// DefaultCheckpointConfig). The canonical form is a fixed point and parses
// to a CheckpointConfig identical to the original spec's.
func CanonicalCheckpointSpec(spec string) (string, error) {
	min, w, r, off, err := parseCheckpointParts(spec)
	if err != nil {
		return "", err
	}
	if off {
		return "off", nil
	}
	g := func(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }
	return g(min) + ":" + g(w) + ":" + g(r), nil
}

// parseCheckpointParts decodes a checkpoint spec to its raw numbers, with
// defaults applied. ParseCheckpointSpec and CanonicalCheckpointSpec share it
// so the canonical rendering can never drift from what the parser accepted.
// All three numbers must be finite: a NaN cost would silently poison every
// downstream duration sum.
func parseCheckpointParts(spec string) (min, w, r float64, off bool, err error) {
	def := DefaultCheckpointConfig()
	w, r = def.WriteSeconds, def.RestoreSeconds
	if spec == "off" {
		return 0, w, r, true, nil
	}
	parts := strings.Split(spec, ":")
	if len(parts) > 3 {
		return 0, 0, 0, false, fmt.Errorf("core: checkpoint spec %q: want off or MIN[:WRITE_S[:RESTORE_S]]", spec)
	}
	min, perr := strconv.ParseFloat(parts[0], 64)
	if perr != nil || min <= 0 || math.IsInf(min, 0) {
		return 0, 0, 0, false, fmt.Errorf("core: checkpoint spec %q: interval must be a positive number of minutes", spec)
	}
	if simulation.FromMinutes(min) <= 0 {
		return 0, 0, 0, false, fmt.Errorf("core: checkpoint spec %q: interval rounds to zero seconds", spec)
	}
	if len(parts) > 1 {
		w, perr = strconv.ParseFloat(parts[1], 64)
		if perr != nil || w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return 0, 0, 0, false, fmt.Errorf("core: checkpoint spec %q: write cost must be a non-negative number of seconds", spec)
		}
	}
	if len(parts) > 2 {
		r, perr = strconv.ParseFloat(parts[2], 64)
		if perr != nil || r < 0 || math.IsNaN(r) || math.IsInf(r, 0) {
			return 0, 0, 0, false, fmt.Errorf("core: checkpoint spec %q: restore cost must be a non-negative number of seconds", spec)
		}
	}
	return min, w, r, false, nil
}

// DefragConfig controls checkpoint-migration of small jobs to consolidate
// free GPUs into whole servers (§5: "support for job migration to
// defragment the cluster, especially applied to smaller jobs").
type DefragConfig struct {
	// Enabled turns the defragmenter on. Off by default: the measured
	// Philly had no migration support.
	Enabled bool
	// Interval is how often the defragmenter sweeps.
	Interval simulation.Time
	// MaxWidth bounds which jobs may be migrated (the paper suggests
	// applying migration to smaller jobs).
	MaxWidth int
	// MaxMovesPerSweep bounds churn per sweep.
	MaxMovesPerSweep int
	// PauseSeconds is the wall-time a migrated job loses to the
	// checkpoint-restore cycle.
	PauseSeconds float64
}

// DefaultDefragConfig returns sensible parameters for the ablation.
func DefaultDefragConfig() DefragConfig {
	return DefragConfig{
		Enabled:          false,
		Interval:         10 * simulation.Minute,
		MaxWidth:         2,
		MaxMovesPerSweep: 8,
		PauseSeconds:     60,
	}
}

// DefaultConfig returns a paper-scale configuration: ~2050 GPUs, 96,260
// jobs over 75 days, 14 VCs. The GPU count is chosen so the trace's total
// GPU-time demand (implied by Table 7's failure budget and Table 6's
// status shares) runs the cluster at the high occupancy the paper
// describes.
func DefaultConfig() Config {
	racks := make([]cluster.RackConfig, 0, 21)
	for i := 0; i < 15; i++ {
		racks = append(racks, cluster.RackConfig{Servers: 16, SKU: cluster.SKU8GPU})
	}
	for i := 0; i < 2; i++ {
		racks = append(racks, cluster.RackConfig{Servers: 32, SKU: cluster.SKU2GPU})
	}
	wl := workload.DefaultConfig()
	return Config{
		Seed:                1,
		Cluster:             cluster.Config{Racks: racks},
		Workload:            wl,
		Scheduler:           scheduler.DefaultConfig(),
		Util:                perfmodel.DefaultUtilParams(),
		Host:                perfmodel.DefaultHostParams(),
		TelemetryInterval:   simulation.Minute,
		CheckpointRetention: 0.9,
		HorizonFactor:       1.6,
		MaxEvents:           500_000_000,
		Defrag:              DefaultDefragConfig(),
		Faults:              faults.DefaultConfig(),
		Checkpoint:          DefaultCheckpointConfig(),
	}
}

// ScaleConfig maps a scale name — small, medium or full — to its base
// configuration. It is the one scale table behind every CLI's -scale
// flag and the serve Spec's scale field.
func ScaleConfig(name string) (Config, error) {
	switch name {
	case "small":
		return SmallConfig(), nil
	case "medium":
		return MediumConfig(), nil
	case "full":
		return DefaultConfig(), nil
	}
	return Config{}, fmt.Errorf("unknown scale %q", name)
}

// MediumConfig returns a quarter-scale paper configuration (~2300 GPUs,
// ~24k jobs over ~19 days) with a one-week runtime cap so the shortened
// window still drains. The divisors are calibration, and live in one
// place.
func MediumConfig() Config {
	cfg := DefaultConfig()
	cfg.Workload.TotalJobs /= 4
	cfg.Workload.Duration /= 4
	cfg.Workload.MaxRuntimeMinutes = 7 * 24 * 60
	return cfg
}

// SmallConfig returns a reduced configuration for tests and examples:
// ~230 GPUs, a few thousand jobs over 8 days, same distributions (so the
// paper's shapes still emerge), minute-level telemetry. The runtime cap is
// tightened so the trace drains within the horizon.
func SmallConfig() Config {
	cfg := DefaultConfig()
	cfg.Cluster = cluster.Config{Racks: []cluster.RackConfig{
		{Servers: 9, SKU: cluster.SKU8GPU},
		{Servers: 9, SKU: cluster.SKU8GPU},
		{Servers: 9, SKU: cluster.SKU8GPU},
		{Servers: 12, SKU: cluster.SKU2GPU},
	}}
	cfg.Workload.TotalJobs = 3300
	cfg.Workload.Duration = 8 * simulation.Day
	cfg.Workload.MaxRuntimeMinutes = 2 * 24 * 60
	cfg.Workload.VCs = smallVCs()
	cfg.HorizonFactor = 2.0
	return cfg
}

// smallVCs scales the default 14-VC quota set down to a ~230-GPU cluster,
// keeping the heterogeneous load factors (see workload.DefaultVCs).
func smallVCs() []workload.VirtualCluster {
	quotas := []int{90, 72, 55, 44, 24, 20, 18, 17, 24, 21, 5, 5, 4, 3}
	factors := []float64{0.5, 0.5, 0.5, 0.5, 1.43, 0.8, 0.8, 0.8, 0.5, 0.5, 1.33, 1.33, 1.33, 1.33}
	vcs := make([]workload.VirtualCluster, len(quotas))
	for i, q := range quotas {
		vcs[i] = workload.VirtualCluster{Name: fmt.Sprintf("vc%d", i+1), QuotaGPUs: q, LoadFactor: factors[i]}
	}
	return vcs
}

// Validate checks the configuration for consistency.
func (c Config) Validate() error {
	if err := c.Workload.Validate(); err != nil {
		return err
	}
	if err := c.Scheduler.Validate(); err != nil {
		return err
	}
	if err := c.Util.Validate(); err != nil {
		return err
	}
	if c.TelemetryInterval <= 0 {
		return fmt.Errorf("core: TelemetryInterval must be positive")
	}
	if c.CheckpointRetention < 0 || c.CheckpointRetention > 1 {
		return fmt.Errorf("core: CheckpointRetention %v out of [0, 1]", c.CheckpointRetention)
	}
	if c.HorizonFactor < 1 {
		return fmt.Errorf("core: HorizonFactor must be >= 1, got %v", c.HorizonFactor)
	}
	if c.MaxEvents == 0 {
		return fmt.Errorf("core: MaxEvents must be positive")
	}
	if c.Defrag.Enabled {
		if c.Defrag.Interval <= 0 {
			return fmt.Errorf("core: defrag interval must be positive")
		}
		if c.Defrag.MaxWidth <= 0 || c.Defrag.MaxMovesPerSweep <= 0 {
			return fmt.Errorf("core: defrag width and move bounds must be positive")
		}
		if c.Defrag.PauseSeconds < 0 {
			return fmt.Errorf("core: defrag pause must be >= 0")
		}
	}
	if err := c.Faults.Validate(len(c.Cluster.Racks)); err != nil {
		return err
	}
	if c.Checkpoint.Enabled {
		if c.Checkpoint.Interval <= 0 {
			return fmt.Errorf("core: checkpoint interval must be positive, got %v", c.Checkpoint.Interval)
		}
		if c.Checkpoint.WriteSeconds < 0 {
			return fmt.Errorf("core: checkpoint write cost must be >= 0, got %v", c.Checkpoint.WriteSeconds)
		}
		if c.Checkpoint.RestoreSeconds < 0 {
			return fmt.Errorf("core: checkpoint restore cost must be >= 0, got %v", c.Checkpoint.RestoreSeconds)
		}
	}
	return nil
}
