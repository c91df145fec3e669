// Package workload generates the synthetic job trace the study runs on.
// The real input — Microsoft's 75-day, 96,260-job Philly trace — is
// replaced by a generative model calibrated to every aggregate the paper
// publishes: job-size mix, size-conditional heavy-tailed runtimes
// (Figure 2), 14 virtual clusters, a Zipf user population with error-prone
// users, per-size outcome probabilities (Table 6, Figure 9), and failure
// plans drawn from the Table 7 taxonomy.
package workload

import (
	"fmt"
	"math"
	"sort"

	"philly/internal/failures"
	"philly/internal/simulation"
	"philly/internal/stats"
	"philly/internal/training"
)

// VirtualCluster is one production group's share of the cluster (§2.3).
type VirtualCluster struct {
	// Name identifies the VC ("vc1" ... "vc14").
	Name string
	// QuotaGPUs is the VC's guaranteed GPU share.
	QuotaGPUs int
	// LoadFactor scales the VC's arrival rate relative to its quota share;
	// >1 models groups that routinely oversubscribe their quota (the paper
	// notes VC5 "often over-subscribes its quota").
	LoadFactor float64
}

// Config parameterizes the generator.
type Config struct {
	// TotalJobs is the number of jobs to generate across all VCs.
	TotalJobs int
	// Duration is the trace length (the paper's trace covers 75 days).
	Duration simulation.Time
	// VCs is the virtual-cluster set. Arrival rates are proportional to
	// quota × load factor.
	VCs []VirtualCluster
	// NumUsers is the size of the user population ("hundreds of users").
	NumUsers int
	// UserZipfS is the Zipf skew of per-user activity.
	UserZipfS float64
	// ErrorProneUserFraction is the share of users with a characteristic
	// failure mode (Table 7's per-user repetition factors).
	ErrorProneUserFraction float64
	// SizeWeights is the distribution over requested GPU counts.
	SizeWeights map[int]float64
	// RuntimeBySize maps each size bucket to the log-normal of planned
	// runtimes in minutes.
	RuntimeBySize [failures.NumSizeBuckets]stats.LogNormalSpec
	// KilledRuntimeMultiplier scales planned runtime for killed jobs:
	// users kill jobs they have watched plateau for a long time, which is
	// why killed jobs account for an outsized share of GPU time (Table 6:
	// 13.5% of jobs but 37.7% of GPU time).
	KilledRuntimeMultiplier float64
	// MaxRuntimeMinutes caps planned runtimes (the trace has jobs up to
	// weeks long; the cap keeps the tail inside the simulated window).
	MaxRuntimeMinutes float64
	// ConvergenceLogFraction is the share of jobs whose frameworks print
	// per-epoch loss lines (the paper could extract convergence data for
	// only ~2502 of 96k jobs).
	ConvergenceLogFraction float64
	// DiurnalAmplitude modulates the arrival rate over the day: intensity
	// swings between (1-A) at night and (1+A) at the afternoon peak. Bursty
	// arrivals are what make queues form at production scale — a uniform
	// Poisson process at the same mean load is absorbed by statistical
	// multiplexing across thousands of GPUs and produces no waiting at all.
	DiurnalAmplitude float64
	// WeekendFactor scales weekend arrival intensity (weekdays are
	// renormalized so the weekly mean stays 1).
	WeekendFactor float64
	// Failures configures the failure planner.
	Failures failures.PlannerConfig
	// Pattern, when non-nil, is a phase program that replaces the cosine
	// DiurnalAmplitude/WeekendFactor modulation entirely: arrival intensity,
	// job-size mix, per-VC weights and failure intensity follow the active
	// phase (see Pattern). The program is compiled into the same
	// deterministic single-stream generator, so results remain bit-identical
	// for a fixed (Config, seed) at any worker count.
	Pattern *Pattern
	// Replay, when non-empty, bypasses the generative model: the generator
	// emits exactly these specs (sorted by submission time). Built by
	// internal/trace from Philly-traces files or our own CSV/JSON exports.
	// The slice is treated as read-only and may be shared across scenarios.
	Replay []JobSpec
}

// DefaultVCs returns 14 virtual clusters with heterogeneous quotas summing
// to ~2440 GPUs, mirroring the paper's deployment ("14 virtual clusters",
// "thousands of GPUs"). VC5 oversubscribes.
func DefaultVCs() []VirtualCluster {
	// Quotas deliberately sum to ~1.9x the default cluster capacity, as in
	// production multi-tenant clusters: guarantees are provisioned against
	// peak group demand, not concurrent demand. This is the structural
	// precondition for the paper's fragmentation-delay dominance (Table 2):
	// a VC can be comfortably within its quota while the cluster is
	// physically full, so its waiting jobs are blocked by placement, not by
	// fair share. Demand per VC is quota x load factor; most groups run at
	// ~half their guarantee, while VC5 "often over-subscribes its quota"
	// (paper §3.1.1) and a few small groups chronically exceed theirs.
	quotas := []int{840, 675, 510, 414, 227, 188, 165, 158, 225, 195, 47, 43, 34, 28}
	factors := []float64{0.5, 0.5, 0.5, 0.5, 1.43, 0.8, 0.8, 0.8, 0.5, 0.5, 1.33, 1.33, 1.33, 1.33}
	vcs := make([]VirtualCluster, len(quotas))
	for i, q := range quotas {
		vcs[i] = VirtualCluster{Name: fmt.Sprintf("vc%d", i+1), QuotaGPUs: q, LoadFactor: factors[i]}
	}
	return vcs
}

// DefaultConfig returns the paper-scale configuration.
func DefaultConfig() Config {
	cfg := Config{
		TotalJobs:              96260,
		Duration:               75 * simulation.Day,
		VCs:                    DefaultVCs(),
		NumUsers:               300,
		UserZipfS:              1.2,
		ErrorProneUserFraction: 0.3,
		SizeWeights: map[int]float64{
			1:  0.60,
			2:  0.14,
			4:  0.095,
			8:  0.135,
			16: 0.02,
			24: 0.004,
			32: 0.006,
		},
		KilledRuntimeMultiplier: 8,
		MaxRuntimeMinutes:       3 * 7 * 24 * 60, // three weeks
		ConvergenceLogFraction:  0.026,
		DiurnalAmplitude:        0.75,
		WeekendFactor:           0.5,
		Failures:                failures.DefaultPlannerConfig(),
	}
	cfg.RuntimeBySize = DefaultRuntimeSpecs()
	return cfg
}

// DefaultRuntimeSpecs returns the size-conditional runtime distributions
// (minutes) behind Figure 2: heavy-tailed, with larger jobs running longer.
func DefaultRuntimeSpecs() [failures.NumSizeBuckets]stats.LogNormalSpec {
	mk := func(p50, p90 float64) stats.LogNormalSpec {
		spec, err := stats.LogNormalFromQuantiles(p50, 0.9, p90)
		if err != nil {
			panic(err) // static values; failure is a programming bug
		}
		return spec
	}
	return [failures.NumSizeBuckets]stats.LogNormalSpec{
		failures.Size1:     mk(14, 240),
		failures.Size2to4:  mk(28, 420),
		failures.Size5to8:  mk(55, 700),
		failures.SizeOver8: mk(140, 1600),
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if len(c.Replay) > 0 {
		return c.validateReplay()
	}
	if c.TotalJobs <= 0 {
		return fmt.Errorf("workload: TotalJobs must be positive, got %d", c.TotalJobs)
	}
	if c.Duration <= 0 {
		return fmt.Errorf("workload: Duration must be positive, got %v", c.Duration)
	}
	if len(c.VCs) == 0 {
		return fmt.Errorf("workload: at least one virtual cluster required")
	}
	seen := map[string]bool{}
	for _, vc := range c.VCs {
		if vc.Name == "" || vc.QuotaGPUs <= 0 || vc.LoadFactor <= 0 {
			return fmt.Errorf("workload: invalid VC %+v", vc)
		}
		if seen[vc.Name] {
			return fmt.Errorf("workload: duplicate VC name %q", vc.Name)
		}
		seen[vc.Name] = true
	}
	if c.NumUsers <= 0 {
		return fmt.Errorf("workload: NumUsers must be positive, got %d", c.NumUsers)
	}
	if len(c.SizeWeights) == 0 {
		return fmt.Errorf("workload: SizeWeights empty")
	}
	for size, w := range c.SizeWeights {
		if size <= 0 || w < 0 {
			return fmt.Errorf("workload: invalid size weight %d:%v", size, w)
		}
	}
	if c.ErrorProneUserFraction < 0 || c.ErrorProneUserFraction > 1 {
		return fmt.Errorf("workload: ErrorProneUserFraction out of [0, 1]")
	}
	if c.ConvergenceLogFraction < 0 || c.ConvergenceLogFraction > 1 {
		return fmt.Errorf("workload: ConvergenceLogFraction out of [0, 1]")
	}
	if c.KilledRuntimeMultiplier < 1 {
		return fmt.Errorf("workload: KilledRuntimeMultiplier must be >= 1")
	}
	if c.MaxRuntimeMinutes <= 0 {
		return fmt.Errorf("workload: MaxRuntimeMinutes must be positive")
	}
	if c.DiurnalAmplitude < 0 || c.DiurnalAmplitude >= 1 {
		return fmt.Errorf("workload: DiurnalAmplitude %v out of [0, 1)", c.DiurnalAmplitude)
	}
	if c.WeekendFactor <= 0 {
		return fmt.Errorf("workload: WeekendFactor must be positive, got %v", c.WeekendFactor)
	}
	if err := c.Pattern.Validate(c.VCs); err != nil {
		return err
	}
	return nil
}

// validateReplay checks a replay configuration: the generative knobs are
// ignored, but the cluster context (VCs, duration) and every replayed spec
// must be consistent.
func (c Config) validateReplay() error {
	if c.Pattern != nil {
		return fmt.Errorf("workload: Pattern and Replay are mutually exclusive (transform the trace instead)")
	}
	if c.Duration <= 0 {
		return fmt.Errorf("workload: Duration must be positive, got %v", c.Duration)
	}
	if len(c.VCs) == 0 {
		return fmt.Errorf("workload: at least one virtual cluster required")
	}
	known := map[string]bool{}
	for _, vc := range c.VCs {
		if vc.Name == "" || vc.QuotaGPUs <= 0 || vc.LoadFactor <= 0 {
			return fmt.Errorf("workload: invalid VC %+v", vc)
		}
		if known[vc.Name] {
			return fmt.Errorf("workload: duplicate VC name %q", vc.Name)
		}
		known[vc.Name] = true
	}
	seen := make(map[int64]bool, len(c.Replay))
	for i := range c.Replay {
		j := &c.Replay[i]
		if j.ID <= 0 {
			return fmt.Errorf("workload: replay job %d has non-positive ID %d", i, j.ID)
		}
		if seen[j.ID] {
			return fmt.Errorf("workload: replay job ID %d duplicated", j.ID)
		}
		seen[j.ID] = true
		if !known[j.VC] {
			return fmt.Errorf("workload: replay job %d in unknown VC %q", j.ID, j.VC)
		}
		if j.GPUs < 1 {
			return fmt.Errorf("workload: replay job %d requests %d GPUs", j.ID, j.GPUs)
		}
		if j.SubmitAt < 0 || j.SubmitAt >= c.Duration {
			return fmt.Errorf("workload: replay job %d submits at %v, outside [0, %v)",
				j.ID, j.SubmitAt, c.Duration)
		}
		if err := j.Train.Validate(); err != nil {
			return fmt.Errorf("workload: replay job %d: %w", j.ID, err)
		}
		if j.Plan.Outcome == failures.Unsuccessful && len(j.Plan.FailedAttempts) == 0 {
			return fmt.Errorf("workload: replay job %d unsuccessful with no failed attempts", j.ID)
		}
		for a := range j.Plan.FailedAttempts {
			ap := &j.Plan.FailedAttempts[a]
			if ap.Reason == nil || ap.RTFMinutes <= 0 {
				return fmt.Errorf("workload: replay job %d attempt %d has invalid failure plan", j.ID, a)
			}
		}
	}
	return nil
}

// arrivalIntensity is the relative arrival rate at simulated time t: a
// cosine diurnal cycle peaking mid-afternoon, scaled down on weekends.
func (c Config) arrivalIntensity(t simulation.Time) float64 {
	hour := float64(t%simulation.Day) / float64(simulation.Hour)
	day := int(t/simulation.Day) % 7
	m := 1 + c.DiurnalAmplitude*math.Cos(2*math.Pi*(hour-14)/24)
	if day >= 5 {
		m *= c.WeekendFactor
	}
	return m
}

// maxArrivalIntensity bounds arrivalIntensity for rejection sampling.
func (c Config) maxArrivalIntensity() float64 {
	m := 1 + c.DiurnalAmplitude
	if c.WeekendFactor > 1 {
		m *= c.WeekendFactor
	}
	return m
}

// JobSpec is one generated job: everything known at submission time plus
// the failure model's (hidden) plan for it.
type JobSpec struct {
	// ID is unique and dense, starting at 1.
	ID int64
	// VC is the virtual cluster the job belongs to.
	VC string
	// User is the submitting user ("user042").
	User string
	// GPUs is the requested GPU count (gang width).
	GPUs int
	// SubmitAt is the submission time.
	SubmitAt simulation.Time
	// Train is the configured training plan; its ideal runtime is the
	// job's planned duration on a perfect placement.
	Train training.Job
	// Plan is the failure model's decision for the job.
	Plan failures.JobPlan
	// LogsConvergence marks jobs whose logs include per-epoch losses.
	LogsConvergence bool
}

// PlannedRuntimeMinutes is the job's configured training time (ideal
// placement), in minutes.
func (j JobSpec) PlannedRuntimeMinutes() float64 {
	return j.Train.IdealRuntimeSeconds() / 60
}

// SizeBucket returns the paper's size class for the job.
func (j JobSpec) SizeBucket() failures.SizeBucket { return failures.SizeBucketFor(j.GPUs) }

// Generator produces job specs.
type Generator struct {
	cfg     Config
	planner *failures.Planner

	sizes     *stats.Categorical
	sizeVals  []int
	vcArrival *stats.Categorical
	userZipf  *stats.Zipf
	// usersByVC maps VC index to its user names; users are partitioned
	// across VCs proportional to quota.
	usersByVC [][]string
	// favorite maps user name to its characteristic failure reason (nil
	// for non-error-prone users).
	favorite map[string]*failures.Reason
	// phases holds the compiled phase samplers, parallel to
	// cfg.Pattern.Phases (nil when no pattern is configured).
	phases []compiledPhase
}

// NewGenerator builds a generator.
func NewGenerator(cfg Config, g *stats.RNG) (*Generator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	planner, err := failures.NewPlanner(cfg.Failures)
	if err != nil {
		return nil, err
	}
	gen := &Generator{cfg: cfg, planner: planner, favorite: map[string]*failures.Reason{}}
	if len(cfg.Replay) > 0 {
		// Replay bypasses the generative model entirely: no samplers, no
		// user population, and — deliberately — no RNG draws, so a replay
		// study's per-job streams (derived statelessly from the study seed)
		// are untouched by how this generator was built.
		return gen, nil
	}
	if cfg.Pattern != nil {
		gen.phases, err = compilePattern(cfg)
		if err != nil {
			return nil, err
		}
	}

	// Size distribution with deterministic ordering.
	for size := range cfg.SizeWeights {
		gen.sizeVals = append(gen.sizeVals, size)
	}
	sort.Ints(gen.sizeVals)
	weights := make([]float64, len(gen.sizeVals))
	for i, s := range gen.sizeVals {
		weights[i] = cfg.SizeWeights[s]
	}
	gen.sizes, err = stats.NewCategorical(weights)
	if err != nil {
		return nil, fmt.Errorf("workload: size weights: %w", err)
	}

	// VC arrival shares ∝ quota × load factor.
	vcWeights := make([]float64, len(cfg.VCs))
	for i, vc := range cfg.VCs {
		vcWeights[i] = float64(vc.QuotaGPUs) * vc.LoadFactor
	}
	gen.vcArrival, err = stats.NewCategorical(vcWeights)
	if err != nil {
		return nil, fmt.Errorf("workload: vc weights: %w", err)
	}

	// Partition users across VCs proportional to quota (at least one per
	// VC) and assign error-prone profiles.
	gen.userZipf, err = stats.NewZipf(max(1, cfg.NumUsers/len(cfg.VCs)), cfg.UserZipfS)
	if err != nil {
		return nil, err
	}
	totalQuota := 0
	for _, vc := range cfg.VCs {
		totalQuota += vc.QuotaGPUs
	}
	userID := 0
	gen.usersByVC = make([][]string, len(cfg.VCs))
	for i, vc := range cfg.VCs {
		n := max(1, cfg.NumUsers*vc.QuotaGPUs/totalQuota)
		for u := 0; u < n; u++ {
			name := fmt.Sprintf("user%03d", userID)
			userID++
			gen.usersByVC[i] = append(gen.usersByVC[i], name)
			if g.Bool(cfg.ErrorProneUserFraction) {
				gen.favorite[name] = planner.SampleUserProfile(g)
			}
		}
	}
	return gen, nil
}

// Planner exposes the failure planner (the driver needs it for log
// generation decisions).
func (gen *Generator) Planner() *failures.Planner { return gen.planner }

// Generate produces the full job list, sorted by submission time. For a
// replay configuration it returns the replayed specs unchanged (sorted);
// for a pattern configuration the arrival process and per-job mix follow
// the active phase. All paths draw from the single stream g in submission
// order, so generation is a pure function of (Config, seed).
func (gen *Generator) Generate(g *stats.RNG) []JobSpec {
	cfg := gen.cfg
	if len(cfg.Replay) > 0 {
		return gen.generateReplay()
	}
	pattern := cfg.Pattern
	jobs := make([]JobSpec, 0, cfg.TotalJobs)
	maxIntensity := cfg.maxArrivalIntensity()
	if pattern != nil {
		maxIntensity = pattern.maxRate()
	}
	for i := 0; i < cfg.TotalJobs; i++ {
		// Thinning: draw uniform instants, accept proportionally to the
		// diurnal/weekly (or phase-program) intensity.
		var submit simulation.Time
		for {
			submit = simulation.Time(g.Int63() % int64(cfg.Duration))
			intensity := 0.0
			if pattern != nil {
				intensity = pattern.RateAt(submit)
			} else {
				intensity = cfg.arrivalIntensity(submit)
			}
			if g.Float64()*maxIntensity <= intensity {
				break
			}
		}
		// Resolve the active phase's samplers; nil means base behaviour.
		var cp *compiledPhase
		if pattern != nil {
			if pi := pattern.phaseIndexAt(submit); pi >= 0 {
				cp = &gen.phases[pi]
			}
		}
		vcSampler := gen.vcArrival
		if cp != nil && cp.vcs != nil {
			vcSampler = cp.vcs
		}
		vcIdx := vcSampler.Sample(g)
		vc := cfg.VCs[vcIdx]
		users := gen.usersByVC[vcIdx]
		user := users[gen.userZipf.Sample(g)%len(users)]
		size := gen.sizeForVC(vc, cp, g)

		planner := gen.planner
		if cp != nil && cp.planner != nil {
			planner = cp.planner
		}
		plan := planner.PlanJob(size, gen.favorite[user], g)
		// Cap runtime-to-failure draws at the trace's runtime ceiling: a
		// failure cannot be observed beyond the job's stay in the cluster.
		// The taxonomy's own p95 values (max ~18k minutes) sit below the
		// default cap, so reported percentiles are unaffected.
		for a := range plan.FailedAttempts {
			if plan.FailedAttempts[a].RTFMinutes > cfg.MaxRuntimeMinutes {
				plan.FailedAttempts[a].RTFMinutes = cfg.MaxRuntimeMinutes
			}
		}

		bucket := failures.SizeBucketFor(size)
		runtimeMin := cfg.RuntimeBySize[bucket].Sample(g)
		if plan.Outcome == failures.Killed {
			runtimeMin *= cfg.KilledRuntimeMultiplier
		}
		if runtimeMin < 0.5 {
			runtimeMin = 0.5
		}
		if runtimeMin > cfg.MaxRuntimeMinutes {
			runtimeMin = cfg.MaxRuntimeMinutes
		}

		jobs = append(jobs, JobSpec{
			ID:              int64(i + 1),
			VC:              vc.Name,
			User:            user,
			GPUs:            size,
			SubmitAt:        submit,
			Train:           planTraining(runtimeMin, g),
			Plan:            plan,
			LogsConvergence: g.Bool(cfg.ConvergenceLogFraction),
		})
	}
	sort.SliceStable(jobs, func(i, j int) bool {
		if jobs[i].SubmitAt != jobs[j].SubmitAt {
			return jobs[i].SubmitAt < jobs[j].SubmitAt
		}
		return jobs[i].ID < jobs[j].ID
	})
	return jobs
}

// generateReplay copies the replayed specs into submission order. The copy
// keeps the shared Replay slice read-only, so one loaded trace can feed
// many concurrent scenarios.
func (gen *Generator) generateReplay() []JobSpec {
	jobs := append([]JobSpec(nil), gen.cfg.Replay...)
	sort.SliceStable(jobs, func(i, j int) bool {
		if jobs[i].SubmitAt != jobs[j].SubmitAt {
			return jobs[i].SubmitAt < jobs[j].SubmitAt
		}
		return jobs[i].ID < jobs[j].ID
	})
	return jobs
}

// sizeForVC samples a job size appropriate to the VC: teams size their
// training jobs to their share, so a gang is at most half the quota; and
// groups that chronically over-subscribe their quota (load factor > 1) run
// small exploratory jobs, not big distributed gangs. Both constraints are
// what give Table 2 its size gradient — large jobs live in under-loaded
// VCs, so their delays are fragmentation, while fair-share delay
// concentrates on the small jobs of over-subscribed groups.
func (gen *Generator) sizeForVC(vc VirtualCluster, cp *compiledPhase, g *stats.RNG) int {
	sizes, sizeVals := gen.sizes, gen.sizeVals
	if cp != nil && cp.sizes != nil {
		sizes, sizeVals = cp.sizes, cp.sizeVals
	}
	quota := vc.QuotaGPUs
	limit := quota / 2
	if vc.LoadFactor > 1 {
		limit = quota / 16
	}
	if limit < 1 {
		limit = 1
	}
	size := sizeVals[sizes.Sample(g)]
	for i := 0; i < 20 && size > limit; i++ {
		size = sizeVals[sizes.Sample(g)]
	}
	if size > limit {
		// Fall back to the largest configured size that fits.
		size = 1
		for _, s := range sizeVals {
			if s <= limit && s > size {
				size = s
			}
		}
	}
	return size
}

// planTraining converts a target ideal runtime into an epoch/minibatch/batch
// structure. Users configure epochs in the tens-to-hundred range (§4.1).
func planTraining(runtimeMin float64, g *stats.RNG) training.Job {
	epochs := 10 + g.IntN(91)
	mb := 50 + g.IntN(451)
	total := runtimeMin * 60
	bt := total / float64(epochs) / float64(mb)
	if bt <= 0 {
		bt = 0.001
	}
	ckpt := 0
	if g.Bool(0.7) {
		ckpt = 1 + g.IntN(5)
	}
	return training.Job{
		Epochs:                epochs,
		MinibatchesPerEpoch:   mb,
		BatchTime:             bt,
		CheckpointEveryEpochs: ckpt,
	}
}

// TrainingPlanFor converts a target ideal runtime into an epoch/minibatch/
// batch structure drawn from g — the exported form of planTraining, used by
// the trace replay path (internal/trace) to synthesize plausible training
// plans for observed jobs whose traces record only total runtime.
func TrainingPlanFor(runtimeMin float64, g *stats.RNG) training.Job {
	return planTraining(runtimeMin, g)
}
