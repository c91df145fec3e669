// Package sweep is the parallel study-sweep harness: it expands named
// configuration axes into a cross-product of core.Config scenarios, runs
// scenario × seed replicas across a worker pool, and folds the replicas
// into per-scenario summaries with confidence intervals.
//
// The paper's headline results are comparisons across configurations
// (queueing delay vs. locality relaxation, utilization with and without
// interference, failure cost with and without adaptive retry), and related
// characterization studies sweep policies and replicate over seeds the same
// way. The harness makes those comparisons one call instead of N
// hand-driven runs — and keeps them trustworthy: per-run seeds are derived
// purely from (baseSeed, scenarioIdx, replicaIdx), so aggregated output is
// bit-identical regardless of worker count or completion order.
package sweep

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"philly/internal/cluster"
	"philly/internal/core"
	"philly/internal/faults"
	"philly/internal/federation"
	"philly/internal/scheduler"
	"philly/internal/simulation"
	"philly/internal/trace"
	"philly/internal/workload"
)

// Value is one setting of an axis: a human-readable label plus the config
// mutation it stands for.
type Value struct {
	// Label names the setting in scenario names and tables ("fifo", "on").
	Label string
	// Apply mutates a copy of the base configuration. It may be nil for
	// fleet-level values.
	Apply func(*core.Config)
	// Fleet, when non-nil, makes scenarios with this value federated: the
	// listed member presets run as one multi-cluster study (see
	// internal/federation), with every other axis's Apply applied to every
	// member's configuration. Set by the fleet.members axis.
	Fleet []string
}

// Axis is one named configuration dimension with the values to sweep.
type Axis struct {
	// Name is the axis name ("sched.policy", "defrag").
	Name string
	// Values are the settings to cross with every other axis.
	Values []Value
}

// Matrix is a sweep specification: a base configuration plus the axes whose
// cross-product defines the scenarios.
type Matrix struct {
	// Base is the configuration every scenario starts from. Base.Seed is
	// the default base seed for replica derivation (see Options.BaseSeed).
	Base core.Config
	// Axes are crossed in order; scenario names join "axis=label" pairs.
	Axes []Axis
}

// Scenario is one expanded cell of the matrix.
type Scenario struct {
	// Index is the scenario's position in expansion order (row-major over
	// the axes, first axis slowest). Seed derivation uses it, so scenario
	// order — not completion order — defines the random streams.
	Index int
	// Name joins the axis settings, e.g. "sched.policy=fifo defrag=on".
	// For an empty matrix (no axes) it is "base".
	Name string
	// Labels holds the per-axis value labels in axis order.
	Labels []string
	// Config is the fully-applied configuration (Seed still unset; the
	// runner overwrites it per replica).
	Config core.Config
	// Fleet lists the member presets of a federated scenario (nil for a
	// plain single-cluster one); set by a fleet.members axis value.
	Fleet []string
	// applies holds the non-fleet value mutations in axis order, so the
	// runner can re-apply them to each federation member's preset config.
	applies []func(*core.Config)
}

// Scenarios expands the cross-product. An axis with no values is an error
// (it would silently zero the whole product), as is a duplicate axis name
// (the later axis would silently win every cell).
func (m Matrix) Scenarios() ([]Scenario, error) {
	seen := map[string]bool{}
	fleetAxes := 0
	for _, ax := range m.Axes {
		if ax.Name == "" {
			return nil, fmt.Errorf("sweep: axis with empty name")
		}
		if seen[ax.Name] {
			return nil, fmt.Errorf("sweep: duplicate axis %q", ax.Name)
		}
		seen[ax.Name] = true
		if len(ax.Values) == 0 {
			return nil, fmt.Errorf("sweep: axis %q has no values", ax.Name)
		}
		fleetVals := 0
		for _, v := range ax.Values {
			if v.Fleet != nil {
				fleetVals++
			}
		}
		if fleetVals > 0 {
			if fleetVals != len(ax.Values) {
				// A mixed axis would make some scenarios federated and some
				// not; the member-row expansion is all-or-nothing per
				// matrix, and failing here beats failing after every cell
				// has already simulated.
				return nil, fmt.Errorf("sweep: axis %q mixes fleet and non-fleet values", ax.Name)
			}
			fleetAxes++
		}
	}
	if fleetAxes > 1 {
		return nil, fmt.Errorf("sweep: at most one axis may set fleet members")
	}
	total := 1
	for _, ax := range m.Axes {
		total *= len(ax.Values)
	}
	scenarios := make([]Scenario, 0, total)
	idx := make([]int, len(m.Axes))
	for i := 0; i < total; i++ {
		cfg := cloneConfig(m.Base)
		labels := make([]string, len(m.Axes))
		parts := make([]string, len(m.Axes))
		var fleet []string
		var applies []func(*core.Config)
		for a, ax := range m.Axes {
			v := ax.Values[idx[a]]
			if v.Apply != nil {
				v.Apply(&cfg)
				applies = append(applies, v.Apply)
			}
			if v.Fleet != nil {
				fleet = v.Fleet
			}
			labels[a] = v.Label
			parts[a] = ax.Name + "=" + v.Label
		}
		name := strings.Join(parts, " ")
		if name == "" {
			name = "base"
		}
		scenarios = append(scenarios, Scenario{
			Index:   i,
			Name:    name,
			Labels:  labels,
			Config:  cfg,
			Fleet:   fleet,
			applies: applies,
		})
		// Odometer increment, last axis fastest.
		for a := len(idx) - 1; a >= 0; a-- {
			idx[a]++
			if idx[a] < len(m.Axes[a].Values) {
				break
			}
			idx[a] = 0
		}
	}
	return scenarios, nil
}

// cloneConfig copies the base configuration deeply enough that an Apply
// mutating any reference-typed field — rack sizes, VC quotas, the job-size
// weight map — cannot alias across scenarios. core.Config's only other
// nested fields are value types.
func cloneConfig(c core.Config) core.Config {
	c.Cluster.Racks = append([]cluster.RackConfig(nil), c.Cluster.Racks...)
	c.Workload.VCs = append([]workload.VirtualCluster(nil), c.Workload.VCs...)
	if c.Workload.SizeWeights != nil {
		w := make(map[int]float64, len(c.Workload.SizeWeights))
		for k, v := range c.Workload.SizeWeights {
			w[k] = v
		}
		c.Workload.SizeWeights = w
	}
	// Pattern holds per-phase weight maps; Clone stops scenarios aliasing
	// them. Replay is deliberately NOT copied: a loaded trace is read-only
	// by contract (the generator copies before sorting), and duplicating a
	// 100k-job stream per scenario would dominate sweep memory.
	c.Workload.Pattern = c.Workload.Pattern.Clone()
	// Faults holds the maintenance-window slice.
	c.Faults = c.Faults.Clone()
	return c
}

// axisParser builds the Apply function for one value of a named knob.
type axisParser func(value string) (func(*core.Config), error)

// knobs is the registry of axis names ParseAxis understands. Each knob
// parses one comma-separated value into a config mutation.
var knobs = map[string]axisParser{
	"sched.policy": func(v string) (func(*core.Config), error) {
		p, err := scheduler.ParsePolicy(v)
		if err != nil {
			return nil, err
		}
		return func(c *core.Config) { c.Scheduler.Policy = p }, nil
	},
	"defrag": func(v string) (func(*core.Config), error) {
		on, err := parseOnOff(v)
		if err != nil {
			return nil, err
		}
		return func(c *core.Config) { c.Defrag.Enabled = on }, nil
	},
	"adaptive-retry": func(v string) (func(*core.Config), error) {
		on, err := parseOnOff(v)
		if err != nil {
			return nil, err
		}
		return func(c *core.Config) { c.AdaptiveRetry = on }, nil
	},
	"checkpoint.retention": func(v string) (func(*core.Config), error) {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return nil, fmt.Errorf("checkpoint.retention %q: %v", v, err)
		}
		return func(c *core.Config) { c.CheckpointRetention = f }, nil
	},
	"sched.backoff-min": func(v string) (func(*core.Config), error) {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return nil, fmt.Errorf("sched.backoff-min %q: %v", v, err)
		}
		return func(c *core.Config) { c.Scheduler.Backoff = simulation.FromMinutes(f) }, nil
	},
	// locality.relax takes "rack:any" attempt thresholds, e.g. "4:8";
	// "0:0" is the impatient scheduler that relaxes immediately.
	"locality.relax": func(v string) (func(*core.Config), error) {
		rack, any, ok := strings.Cut(v, ":")
		if !ok {
			return nil, fmt.Errorf("locality.relax %q: want rackAfter:anyAfter", v)
		}
		r, err1 := strconv.Atoi(rack)
		a, err2 := strconv.Atoi(any)
		if err1 != nil || err2 != nil || r < 0 || a < 0 {
			return nil, fmt.Errorf("locality.relax %q: want two non-negative ints", v)
		}
		return func(c *core.Config) {
			c.Scheduler.RelaxToRackAfter = r
			c.Scheduler.RelaxToAnyAfter = a
		}, nil
	},
	"jobs": func(v string) (func(*core.Config), error) {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("jobs %q: want a positive int", v)
		}
		return func(c *core.Config) { c.Workload.TotalJobs = n }, nil
	},
	// workload.mix selects the job-size distribution: a named preset
	// ("default" is the paper's Table 6 mix, "small" skews toward 1-GPU
	// jobs, "large" toward multi-server gangs) or an explicit
	// semicolon-separated weight list like "1:0.7;8:0.3".
	"workload.mix": func(v string) (func(*core.Config), error) {
		weights, err := parseMix(v)
		if err != nil {
			return nil, err
		}
		return func(c *core.Config) {
			// Fresh copy per application: one Value can apply to many
			// scenarios, whose configs must not share the map.
			w := make(map[int]float64, len(weights))
			for size, wt := range weights {
				w[size] = wt
			}
			c.Workload.SizeWeights = w
		}, nil
	},
	// failure.scale multiplies the per-size-bucket unsuccessful and
	// transient-failure probabilities, clamped so the per-bucket outcome
	// distribution stays valid; 1 is the paper's calibration, 0 a failure-
	// free cluster, 2 a cluster failing twice as often. A phase's
	// FailureScale applies workload.ScaleFailures again on top of this
	// base, so axis and phase scales compose multiplicatively.
	"failure.scale": func(v string) (func(*core.Config), error) {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || f < 0 {
			return nil, fmt.Errorf("failure.scale %q: want a non-negative float", v)
		}
		return func(c *core.Config) {
			c.Workload.Failures = workload.ScaleFailures(c.Workload.Failures, f)
		}, nil
	},
	// failure.domains configures the correlated-outage engine: "none"
	// disables it, otherwise a "+"-joined subset of server, rack, cluster
	// (or "all") with an optional :SCALE frequency multiplier — see
	// faults.ParseSpec. Outage draws come from a dedicated RNG stream, so
	// "none" is byte-identical to a matrix without this axis.
	"failure.domains": func(v string) (func(*core.Config), error) {
		fc, err := faults.ParseSpec(v)
		if err != nil {
			return nil, err
		}
		return func(c *core.Config) {
			// Fresh clone per application: one Value can apply to many
			// scenarios, whose configs must not share the maintenance slice.
			c.Faults = fc.Clone()
		}, nil
	},
	// checkpoint.interval sets the periodic-checkpoint cost model: "off"
	// disables it, a positive float enables it with that interval in
	// minutes (write/restore costs keep the base config's values, which
	// default to core.DefaultCheckpointConfig's).
	"checkpoint.interval": func(v string) (func(*core.Config), error) {
		if v == "off" {
			return func(c *core.Config) { c.Checkpoint.Enabled = false }, nil
		}
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || f <= 0 {
			return nil, fmt.Errorf("checkpoint.interval %q: want off or a positive float (minutes)", v)
		}
		iv := simulation.FromMinutes(f)
		if iv <= 0 {
			return nil, fmt.Errorf("checkpoint.interval %q: rounds to zero seconds", v)
		}
		return func(c *core.Config) {
			c.Checkpoint.Enabled = true
			c.Checkpoint.Interval = iv
		}, nil
	},
	// telemetry.cadence sets the hardware-counter sampling period in
	// minutes (the paper's Ganglia reports are per-minute; coarser cadence
	// trades telemetry resolution for simulation speed).
	"telemetry.cadence": func(v string) (func(*core.Config), error) {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || f <= 0 {
			return nil, fmt.Errorf("telemetry.cadence %q: want a positive float (minutes)", v)
		}
		iv := simulation.FromMinutes(f)
		if iv <= 0 {
			return nil, fmt.Errorf("telemetry.cadence %q: rounds to zero seconds", v)
		}
		return func(c *core.Config) { c.TelemetryInterval = iv }, nil
	},
	// workload.pattern selects the temporal phase program: a preset name
	// from workload.PatternNames() ("stationary", "diurnal", "weekly",
	// "burst", "night-batch"), or "none" for the legacy cosine modulation.
	// Composes with every other axis, including fleet.members (each member
	// runs the pattern on its own derived streams).
	"workload.pattern": func(v string) (func(*core.Config), error) {
		if v == "none" {
			return func(c *core.Config) { c.Workload.Pattern = nil }, nil
		}
		p, err := workload.PresetPattern(v)
		if err != nil {
			return nil, err
		}
		return func(c *core.Config) {
			// Fresh clone per application: one Value can apply to many
			// scenarios, whose configs must not share the phase maps.
			c.Workload.Pattern = p.Clone()
		}, nil
	},
	// workload.trace replays a trace file (spec CSV, observed CSV/JSON, or
	// msr-fiddle philly JSON; "none" keeps the generative workload) instead
	// of the generative model. The file is loaded once at parse time with
	// default replay options; TotalJobs/Duration and any missing VCs are
	// derived from the stream per scenario (see trace.ApplyReplay).
	"workload.trace": func(v string) (func(*core.Config), error) {
		if v == "none" {
			return func(c *core.Config) { c.Workload.Replay = nil }, nil
		}
		specs, err := trace.LoadTraceFile(v, trace.DefaultReplayOptions())
		if err != nil {
			return nil, err
		}
		return func(c *core.Config) {
			// ApplyReplay only errors on an empty stream, which the load
			// above has already excluded.
			_ = trace.ApplyReplay(c, specs)
		}, nil
	},
	// cluster.scale multiplies servers per rack, VC quotas, and the job
	// count by the same factor, holding contention roughly constant.
	"cluster.scale": func(v string) (func(*core.Config), error) {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || f <= 0 {
			return nil, fmt.Errorf("cluster.scale %q: want a positive float", v)
		}
		return func(c *core.Config) {
			// Scenarios clones the rack and VC slices, so in-place element
			// mutation cannot alias other scenarios.
			for i := range c.Cluster.Racks {
				s := int(float64(c.Cluster.Racks[i].Servers)*f + 0.5)
				if s < 1 {
					s = 1
				}
				c.Cluster.Racks[i].Servers = s
			}
			for i := range c.Workload.VCs {
				q := int(float64(c.Workload.VCs[i].QuotaGPUs)*f + 0.5)
				if q < 1 {
					q = 1
				}
				c.Workload.VCs[i].QuotaGPUs = q
			}
			n := int(float64(c.Workload.TotalJobs)*f + 0.5)
			if n < 1 {
				n = 1
			}
			c.Workload.TotalJobs = n
		}, nil
	},
}

// FleetAxisName is the federated-scenario axis: each value is a
// "+"-separated list of member presets (see internal/federation), e.g.
// "philly-small+helios-like", and every scenario runs as one multi-cluster
// study reported per member plus fleet-wide.
const FleetAxisName = "fleet.members"

// KnownAxes lists the axis names ParseAxis accepts, sorted.
func KnownAxes() []string {
	names := make([]string, 0, len(knobs)+1)
	for name := range knobs {
		names = append(names, name)
	}
	names = append(names, FleetAxisName)
	sort.Strings(names)
	return names
}

// parseFleetAxis builds the fleet.members axis: values are member-preset
// lists, validated against the federation preset registry.
func parseFleetAxis(vals string) (Axis, error) {
	ax := Axis{Name: FleetAxisName}
	for _, v := range strings.Split(vals, ",") {
		v = strings.TrimSpace(v)
		if v == "" {
			continue
		}
		fcfg, err := federation.ParseSpec(0, v)
		if err != nil {
			return Axis{}, fmt.Errorf("sweep: axis %s: %w", FleetAxisName, err)
		}
		members := make([]string, 0, len(fcfg.Members))
		for _, p := range strings.Split(v, "+") {
			if p = strings.TrimSpace(p); p != "" {
				members = append(members, p)
			}
		}
		ax.Values = append(ax.Values, Value{Label: v, Fleet: members})
	}
	if len(ax.Values) == 0 {
		return Axis{}, fmt.Errorf("sweep: axis %q has no values", FleetAxisName)
	}
	return ax, nil
}

// ParseAxis parses a "name=v1,v2,..." axis specification against the knob
// registry, as the philly-sweep CLI accepts it.
func ParseAxis(spec string) (Axis, error) {
	name, vals, ok := strings.Cut(spec, "=")
	if !ok || name == "" {
		return Axis{}, fmt.Errorf("sweep: axis spec %q: want name=v1,v2,...", spec)
	}
	if name == FleetAxisName {
		return parseFleetAxis(vals)
	}
	parse, ok := knobs[name]
	if !ok {
		return Axis{}, fmt.Errorf("sweep: unknown axis %q (known: %s)", name, strings.Join(KnownAxes(), ", "))
	}
	var ax Axis
	ax.Name = name
	for _, v := range strings.Split(vals, ",") {
		v = strings.TrimSpace(v)
		if v == "" {
			continue
		}
		apply, err := parse(v)
		if err != nil {
			return Axis{}, fmt.Errorf("sweep: axis %s: %v", name, err)
		}
		ax.Values = append(ax.Values, Value{Label: v, Apply: apply})
	}
	if len(ax.Values) == 0 {
		return Axis{}, fmt.Errorf("sweep: axis %q has no values", name)
	}
	return ax, nil
}

// mixPresets are the named job-size distributions workload.mix accepts,
// besides "default": "small" models a cluster dominated by single-GPU
// experimentation, "large" one dominated by multi-server training gangs.
// "default" is resolved from workload.DefaultConfig so the paper's Table 6
// calibration has exactly one definition.
var mixPresets = map[string]map[int]float64{
	"small": {1: 0.80, 2: 0.10, 4: 0.05, 8: 0.045, 16: 0.005},
	"large": {1: 0.30, 2: 0.15, 4: 0.15, 8: 0.25, 16: 0.09, 24: 0.03, 32: 0.03},
}

// parseMix resolves a workload.mix value: a preset name or an explicit
// "size:weight[;size:weight]..." list.
func parseMix(v string) (map[int]float64, error) {
	if v == "default" {
		return workload.DefaultConfig().SizeWeights, nil
	}
	if w, ok := mixPresets[v]; ok {
		return w, nil
	}
	if !strings.Contains(v, ":") {
		names := []string{"default"}
		for name := range mixPresets {
			names = append(names, name)
		}
		sort.Strings(names)
		return nil, fmt.Errorf("workload.mix %q: want a preset (%s) or size:weight[;...]",
			v, strings.Join(names, ", "))
	}
	weights := map[int]float64{}
	for _, pair := range strings.Split(v, ";") {
		sizeStr, weightStr, ok := strings.Cut(pair, ":")
		if !ok {
			return nil, fmt.Errorf("workload.mix %q: entry %q is not size:weight", v, pair)
		}
		size, err1 := strconv.Atoi(strings.TrimSpace(sizeStr))
		weight, err2 := strconv.ParseFloat(strings.TrimSpace(weightStr), 64)
		if err1 != nil || err2 != nil || size <= 0 || weight < 0 {
			return nil, fmt.Errorf("workload.mix %q: entry %q: want positive size, non-negative weight", v, pair)
		}
		weights[size] = weight
	}
	if len(weights) == 0 {
		return nil, fmt.Errorf("workload.mix %q: no entries", v)
	}
	return weights, nil
}

func parseOnOff(v string) (bool, error) {
	switch v {
	case "on", "true", "1":
		return true, nil
	case "off", "false", "0":
		return false, nil
	}
	return false, fmt.Errorf("%q: want on or off", v)
}
