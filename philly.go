// Package philly is a discrete-event reproduction of "Analysis of
// Large-Scale Multi-Tenant GPU Clusters for DNN Training Workloads"
// (Jeon et al., USENIX ATC 2019) — the Philly trace study.
//
// The package simulates the production system the paper measures: a
// multi-tenant GPU cluster (racks as RDMA domains, 2- and 8-GPU server
// SKUs), a YARN-like fair-share scheduler with gang scheduling and
// locality-aware placement, per-minute hardware telemetry, a 22-reason
// failure model with log generation and signature classification, and a
// workload generator calibrated to every aggregate the paper publishes.
// Running a Study and feeding the result through Analyze regenerates the
// paper's tables and figures.
//
// Quick start:
//
//	cfg := philly.SmallConfig()
//	cfg.Seed = 42
//	res, err := philly.Run(cfg)
//	if err != nil { ... }
//	report := philly.Analyze(res)
//	fmt.Println(report.RenderAll())
//
// The heavy lifting lives in internal packages (internal/core,
// internal/scheduler, internal/analysis, ...); this package is the stable
// surface. The exported names below are type aliases onto the internal
// implementations so that the full configuration surface remains available
// without duplicating it.
package philly

import (
	"fmt"
	"io"
	"runtime"
	"strings"

	"philly/internal/analysis"
	"philly/internal/core"
	"philly/internal/failures"
	"philly/internal/faults"
	"philly/internal/federation"
	"philly/internal/joblog"
	"philly/internal/par"
	"philly/internal/perfmodel"
	"philly/internal/scheduler"
	"philly/internal/trace"
	"philly/internal/workload"
)

// Config is the full study configuration: cluster topology, workload,
// scheduler policy, performance-model calibration, telemetry cadence.
type Config = core.Config

// StudyResult is everything a simulation produces: per-job results,
// telemetry aggregates, scheduler counters.
type StudyResult = core.StudyResult

// JobResult is one job's outcome.
type JobResult = core.JobResult

// Trace is the Philly-traces-style export of a study.
type Trace = trace.Trace

// Policy names a scheduling discipline for Config.Scheduler.Policy.
type Policy = scheduler.Policy

// Scheduling policies (Table 1): Philly's locality-based scheduler and the
// comparison baselines.
const (
	PolicyPhilly   = scheduler.PolicyPhilly
	PolicyFIFO     = scheduler.PolicyFIFO
	PolicySRTF     = scheduler.PolicySRTF
	PolicyTiresias = scheduler.PolicyTiresias
	PolicyGandiva  = scheduler.PolicyGandiva
)

// DefaultConfig returns the paper-scale configuration: ~2300 GPUs, 96,260
// jobs over 75 days, 14 virtual clusters. A full run takes minutes and is
// what EXPERIMENTS.md records.
func DefaultConfig() Config { return core.DefaultConfig() }

// MediumConfig returns a quarter-scale paper configuration (~2300 GPUs,
// ~24k jobs) — tens of seconds per run, paper-like contention.
func MediumConfig() Config { return core.MediumConfig() }

// SmallConfig returns a laptop-scale configuration (~230 GPUs, 3,300 jobs
// over 8 days) that exhibits the same qualitative behaviour; the test
// suite's calibration assertions run against it.
func SmallConfig() Config { return core.SmallConfig() }

// Run executes a study to completion on the calling goroutine alone, on
// the sequential event engine.
func Run(cfg Config) (*StudyResult, error) { return RunParallel(cfg, 1) }

// RunParallel executes a study on a worker pool of the given size (<= 0
// means GOMAXPROCS). With more than one worker the event loop shards per
// virtual cluster — one internal/simulation.Fleet lane per VC, shard-local
// work running concurrently inside virtual-time windows — and the windows
// fan out across the pool; with one, the study runs inline on the
// sequential engine. The result is bit-identical to Run for every worker
// count — parallelism changes wall-clock only (see PERFORMANCE.md for the
// determinism argument).
func RunParallel(cfg Config, workers int) (*StudyResult, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	st, err := core.NewStudy(cfg)
	if err != nil {
		return nil, fmt.Errorf("philly: %w", err)
	}
	if workers > 1 {
		st.ShardEvents()
		pool := par.NewPool(workers)
		defer pool.Close()
		st.SetPool(pool)
	}
	return st.Run()
}

// NewTrace exports a study result in the Philly-traces-like format.
func NewTrace(res *StudyResult) *Trace { return trace.FromStudy(res) }

// JobSpec is one planned job: submission instant, shape, training plan and
// failure plan. Replay studies run streams of these verbatim.
type JobSpec = workload.JobSpec

// WorkloadPattern is a phase program — named phases with per-phase arrival
// rate, size mix, VC weights and failure scaling — that replaces the
// generator's stationary arrival process. Set Config.Workload.Pattern to
// use one; nil keeps the legacy diurnal cosine modulation.
type WorkloadPattern = workload.Pattern

// WorkloadPatternNames lists the built-in pattern presets ("stationary",
// "diurnal", "weekly", "burst", "night-batch").
func WorkloadPatternNames() []string { return workload.PatternNames() }

// PresetWorkloadPattern returns a built-in pattern preset by name.
func PresetWorkloadPattern(name string) (*WorkloadPattern, error) {
	return workload.PresetPattern(name)
}

// ReplayOptions parameterize trace-to-spec reconstruction (see
// internal/trace: the per-job streams are keyed by Seed, so a loaded trace
// is a pure function of the file bytes and these options).
type ReplayOptions = trace.ReplayOptions

// DefaultReplayOptions returns replay options matching the default
// workload configuration.
func DefaultReplayOptions() ReplayOptions { return trace.DefaultReplayOptions() }

// LoadTrace reads a trace file (.csv or .json — the spec schema
// philly-trace writes, this package's observed-trace exports, or the
// msr-fiddle philly-traces JSON) into a replayable job stream.
func LoadTrace(path string, opts ReplayOptions) ([]JobSpec, error) {
	return trace.LoadTraceFile(path, opts)
}

// TraceTransform is a deterministic what-if rewrite of a loaded trace:
// rate-scale, time-compress, mix-shift.
type TraceTransform = trace.Transform

// ApplyReplay installs a loaded job stream into a study configuration,
// deriving TotalJobs/Duration and appending any VCs the trace references
// that the configuration lacks.
func ApplyReplay(cfg *Config, specs []JobSpec) error { return trace.ApplyReplay(cfg, specs) }

// FaultsConfig configures the correlated-outage engine: per-domain
// (server / rack / cluster) MTBF and MTTR plus planned maintenance
// windows. Set Config.Faults to enable it; outages draw from a dedicated
// RNG stream, so a disabled config is byte-identical to a build without
// the engine.
type FaultsConfig = faults.Config

// DefaultFaultsConfig returns the calibrated but disabled outage model.
func DefaultFaultsConfig() FaultsConfig { return faults.DefaultConfig() }

// ParseFaultsSpec parses a CLI faults spec — "none", "all", or a
// "+"-joined subset of server, rack, cluster, with an optional ":SCALE"
// frequency multiplier (e.g. "server+rack:2").
func ParseFaultsSpec(spec string) (FaultsConfig, error) { return faults.ParseSpec(spec) }

// CheckpointConfig is the periodic checkpoint/restore cost model applied
// to outage kills: an outage-killed attempt loses only the work since its
// last checkpoint, paying write overhead while running and a restore cost
// on resume.
type CheckpointConfig = core.CheckpointConfig

// DefaultCheckpointConfig returns the calibrated but disabled cost model
// (30-minute interval, 30s writes, 120s restores).
func DefaultCheckpointConfig() CheckpointConfig { return core.DefaultCheckpointConfig() }

// ParseCheckpointSpec parses a CLI checkpoint spec — "off" or
// "MIN[:WRITE_S[:RESTORE_S]]" (interval in minutes, costs in seconds).
func ParseCheckpointSpec(spec string) (CheckpointConfig, error) {
	return core.ParseCheckpointSpec(spec)
}

// OutageStats summarizes the outage engine's activity over a run:
// event counts, killed attempts, down/lost/overhead GPU-hours, and the
// realized ETTF/ETTR.
type OutageStats = core.OutageStats

// FederationConfig specifies a multi-cluster (federated) study: member
// clusters, the spillover policy, and the fleet-wide quota rebalancing
// tick. See internal/federation for the barrier contract.
type FederationConfig = federation.Config

// FederationMember is one cluster of a federation.
type FederationMember = federation.Member

// FederatedResult is a completed federated study: per-member StudyResults
// plus fleet-level interaction statistics.
type FederatedResult = federation.Result

// FederationPresets lists the known member preset names ("philly-small",
// "philly-full", "helios-like", ...).
func FederationPresets() []string { return federation.Presets() }

// ParseFederationSpec parses a "+"-separated member preset list (e.g.
// "philly-small+helios-like") into a federation configuration with
// per-member seeds derived from seed and default cross-cluster
// interactions enabled.
func ParseFederationSpec(seed uint64, spec string) (FederationConfig, error) {
	return federation.ParseSpec(seed, spec)
}

// RunFederated executes a federated study on a worker pool of the given
// size (<= 0 means GOMAXPROCS): the pool runs member clusters concurrently
// inside fleet windows. Each member is already one event lane of the fleet
// coordinator, so nothing shards further. The result is bit-identical for
// every worker count.
func RunFederated(cfg FederationConfig, workers int) (*FederatedResult, error) {
	st, err := federation.NewStudy(cfg)
	if err != nil {
		return nil, fmt.Errorf("philly: %w", err)
	}
	if workers != 1 {
		pool := par.NewPool(workers)
		defer pool.Close()
		st.SetPool(pool)
	}
	return st.Run()
}

// FleetReport is the per-member + combined fleet aggregation table.
type FleetReport = analysis.FleetReport

// AnalyzeFleet computes the fleet comparison table — per-member and
// combined queueing, utilization and failure aggregates — from a federated
// result.
func AnalyzeFleet(res *FederatedResult) FleetReport {
	return analysis.ComputeFleet(res)
}

// Report bundles every reproduced table and figure for one study.
type Report struct {
	Figure2  analysis.Figure2
	Figure3  analysis.Figure3
	Figure4  analysis.Figure4
	Table2   analysis.Table2
	Figure5  analysis.Figure5
	Table3   analysis.Table3
	Table4   []perfmodel.ResNet50Result
	Figure6  analysis.Figure6
	Figure7  analysis.Figure7
	Table5   analysis.Table5
	Table6   analysis.Table6
	Figure8  analysis.Figure8
	Figure9  analysis.Figure9
	Table7   analysis.Table7
	Figure10 analysis.Figure10
	Sched    analysis.SchedulingStats
}

// Analyze computes every experiment from a study result. Table 4 (the
// controlled ResNet-50 experiment) comes from the analytical placement
// model and does not depend on the trace.
func Analyze(res *StudyResult) *Report {
	table4, err := perfmodel.ResNet50Table(perfmodel.DefaultResNet50Params())
	if err != nil {
		// Default parameters are statically valid; this is unreachable
		// short of a programming error.
		panic(err)
	}
	return &Report{
		Figure2:  analysis.ComputeFigure2(res),
		Figure3:  analysis.ComputeFigure3(res),
		Figure4:  analysis.ComputeFigure4(res),
		Table2:   analysis.ComputeTable2(res),
		Figure5:  analysis.ComputeFigure5(res),
		Table3:   analysis.ComputeTable3(res),
		Table4:   table4,
		Figure6:  analysis.ComputeFigure6(res),
		Figure7:  analysis.ComputeFigure7(res),
		Table5:   analysis.ComputeTable5(res),
		Table6:   analysis.ComputeTable6(res),
		Figure8:  analysis.ComputeFigure8(res),
		Figure9:  analysis.ComputeFigure9(res),
		Table7:   analysis.ComputeTable7(res),
		Figure10: analysis.ComputeFigure10(res),
		Sched:    analysis.ComputeSchedulingStats(res),
	}
}

// RenderTable4 prints the ResNet-50 placement experiment with the paper's
// measured values alongside.
func RenderTable4(rows []perfmodel.ResNet50Result) string {
	var b strings.Builder
	b.WriteString("Table 4: ResNet-50 placement experiment (2 GPUs, batch 32)\n")
	paper := perfmodel.PaperTable4()
	fmt.Fprintf(&b, "%-12s  %10s  %10s  %10s  %10s\n", "config", "util %", "paper", "images/s", "paper")
	for _, r := range rows {
		p := paper[r.Config]
		fmt.Fprintf(&b, "%-12s  %10.1f  %10.1f  %10.1f  %10.1f\n",
			r.Config, r.GPUUtil, p[0], r.ImagesPerSec, p[1])
	}
	return b.String()
}

// RenderAll prints every experiment in paper order.
func (r *Report) RenderAll() string {
	sections := []string{
		r.Figure2.Render(),
		r.Figure3.Render(),
		r.Figure4.Render(),
		r.Table2.Render(),
		r.Sched.Render(),
		r.Figure5.Render(),
		r.Table3.Render(),
		RenderTable4(r.Table4),
		r.Figure6.Render(),
		r.Figure7.Render(),
		r.Table5.Render(),
		r.Table6.Render(),
		r.Figure8.Render(),
		r.Figure9.Render(),
		r.Table7.Render(),
		r.Figure10.Render(),
	}
	return strings.Join(sections, "\n")
}

// WriteAll writes the rendered report to w.
func (r *Report) WriteAll(w io.Writer) error {
	_, err := io.WriteString(w, r.RenderAll())
	return err
}

// FailureReason is one class from the paper's Table 7 failure taxonomy.
type FailureReason = failures.Reason

// FailureTaxonomy returns the paper's 21 named failure reasons with their
// category flags, occurrence weights and runtime-to-failure distributions.
func FailureTaxonomy() []FailureReason { return failures.Taxonomy() }

// ClassifyFailureLog attributes a training job's stdout/stderr text to a
// root-cause failure reason code using the signature classifier (the
// paper's classifier has >230 rules; see internal/joblog). It returns
// "no_signature" when nothing matches.
func ClassifyFailureLog(log string) string {
	return joblog.NewClassifier().Classify(log)
}

// NumClassifierRules reports the size of the failure-signature rule set.
func NumClassifierRules() int { return joblog.NumRules() }
