// Package serve turns the simulation engine into a long-lived
// multi-tenant service: an HTTP/JSON API that accepts study, sweep and
// federation specs, schedules them onto one shared worker budget with
// admission control and per-tenant weighted fairness (the paper's VC-quota
// ideas applied to the simulator itself), streams progress, and memoizes
// completed results in an LRU keyed by a canonical config hash.
//
// The cache is provably exact, not heuristically "probably fine": every
// study is bit-deterministic in its fully-resolved configuration (the
// invariance and conformance suites enforce this for every engine), and
// the hash covers exactly the inputs that resolution depends on — so two
// requests with equal hashes would have produced byte-identical results,
// and returning the memoized one is indistinguishable from re-running.
package serve

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"philly/internal/core"
	"philly/internal/faults"
	"philly/internal/federation"
	"philly/internal/sweep"
	"philly/internal/trace"
	"philly/internal/workload"
)

// Spec is the request body of POST /v1/studies: one study, sweep, or
// federation run, expressed through the same surfaces the CLIs expose
// (philly-sim's -pattern/-replay/-faults/-checkpoint/-federation,
// philly-sweep's -axis/-replicas). Zero values mean the CLI defaults.
type Spec struct {
	// Scale selects the base configuration: small, medium or full
	// (default small). Incompatible with Federation, whose member presets
	// fix each cluster's scale.
	Scale string `json:"scale,omitempty"`
	// Seed is the base seed for per-run derivation (default 1).
	Seed uint64 `json:"seed,omitempty"`
	// Jobs overrides the base workload job count (0 = scale default).
	Jobs int `json:"jobs,omitempty"`
	// Replicas is the number of seed replicas per scenario (default 1).
	Replicas int `json:"replicas,omitempty"`
	// Workers is the worker lease the study asks for; the server clamps
	// it to [1, budget]. It never affects results — only wall-clock — so
	// it is excluded from the canonical hash.
	Workers int `json:"workers,omitempty"`
	// Pattern is a temporal workload pattern preset name (philly-sim
	// -pattern). Mutually exclusive with Replay.
	Pattern string `json:"pattern,omitempty"`
	// Replay replays a server-local trace file instead of the generative
	// workload (philly-sim -replay). The path must be relative and stay
	// inside the server's trace directory (Config.TraceDir); absolute
	// paths and ".." escapes are rejected, so a client can never make
	// the server open an arbitrary file. The file's content digest — not
	// the path — enters the canonical hash, so an edited trace can never
	// alias a stale cached result.
	Replay string `json:"replay,omitempty"`
	// Faults enables correlated outages (philly-sim -faults grammar).
	Faults string `json:"faults,omitempty"`
	// Checkpoint enables the checkpoint/restore cost model (philly-sim
	// -checkpoint grammar).
	Checkpoint string `json:"checkpoint,omitempty"`
	// Federation runs a federated multi-cluster study of these
	// "+"-separated member presets (philly-sim -federation grammar).
	Federation string `json:"federation,omitempty"`
	// Axes are philly-sweep -axis specs ("name=v1,v2", repeatable); the
	// scenarios are the cross-product, in axis order. workload.trace is
	// refused: its values are file paths, and Replay is the confined way
	// to replay a trace.
	Axes []string `json:"axes,omitempty"`
}

// Resolved is a Spec with every default applied and every sub-spec
// re-rendered canonically by the same parsers the CLIs validate with.
// Its canonical JSON rendering (fixed struct field order) is what
// CanonicalHash digests: two Specs resolve equal iff they would produce
// identical studies, regardless of JSON field order, whitespace, or
// cosmetic spec spelling ("server+rack:1" vs "rack+server").
type Resolved struct {
	Scale        string   `json:"scale"`
	Seed         uint64   `json:"seed"`
	Jobs         int      `json:"jobs,omitempty"`
	Replicas     int      `json:"replicas"`
	Pattern      string   `json:"pattern,omitempty"`
	Replay       string   `json:"replay,omitempty"`
	ReplayDigest string   `json:"replay_digest,omitempty"`
	Faults       string   `json:"faults,omitempty"`
	Checkpoint   string   `json:"checkpoint,omitempty"`
	Federation   string   `json:"federation,omitempty"`
	Axes         []string `json:"axes,omitempty"`
}

// MaxSpecJobs caps the jobs one request may simulate, counted by
// jobsBound before any scenario expands; a spec over it is a 400. A
// full-scale 5-policy × 4-replica sweep is 1.9 M jobs.
const MaxSpecJobs = 1 << 23

// jobsBound is an upper bound on the jobs a resolved matrix simulates:
// replicas × the axes' value counts × the largest study. A plain study is
// baseJobs; under a fleet.members axis a study is one value's federation,
// each member counting memberJobs(preset). A jobs axis may replace each
// count, so each counts as the larger of the two, and the largest
// cluster.scale value multiplies the sum. float64 saturates at +Inf
// instead of wrapping, so no request can overflow the product into a
// small bound.
func jobsBound(axes []sweep.Axis, replicas, baseJobs int, memberJobs func(preset string) int) float64 {
	bound := float64(replicas)
	jobsAxis, scale := 0.0, 1.0
	var fleet []sweep.Value
	for _, ax := range axes {
		bound *= float64(len(ax.Values))
		if ax.Name == sweep.FleetAxisName {
			fleet = ax.Values
		}
		if ax.Name != "jobs" && ax.Name != "cluster.scale" {
			continue
		}
		for _, v := range ax.Values {
			// ParseAxis has already validated every label as a number.
			f, _ := strconv.ParseFloat(v.Label, 64)
			if ax.Name == "jobs" {
				jobsAxis = max(jobsAxis, f)
			} else {
				scale = max(scale, f)
			}
		}
	}
	study := max(float64(baseJobs), jobsAxis)
	if fleet != nil {
		study = 0
		for _, v := range fleet {
			sum := 0.0
			for _, preset := range v.Fleet {
				sum += max(float64(memberJobs(preset)), jobsAxis)
			}
			study = max(study, sum)
		}
	}
	return bound * study * scale
}

// MaxSpecStudies caps the studies one request may run — replicas × the
// axes' value counts × federation members — counted by studiesBound
// before any scenario expands; a spec over it is a 400. MaxSpecJobs
// alone cannot bound this: at jobs 1 a few short axes still expand
// millions of scenarios, each a full configuration in memory. A
// full-scale 5-policy × 4-replica sweep is 20 studies.
const MaxSpecStudies = 1 << 12

// studiesBound counts the studies a resolved matrix runs: replicas × each
// axis's value count, where a fleet.members value counts once per member.
// Like jobsBound it saturates at +Inf instead of wrapping.
func studiesBound(axes []sweep.Axis, replicas int) float64 {
	n := float64(replicas)
	for _, ax := range axes {
		k := 0
		for _, v := range ax.Values {
			k += max(1, len(v.Fleet))
		}
		n *= float64(k)
	}
	return n
}

// maxReplayBytes caps client-supplied replay traces. Digesting reads
// the whole file, so without a cap one submit could pin a handler
// goroutine on an arbitrarily large server-local file. A var, not a
// const, so tests can lower it without writing 64 MiB fixtures.
var maxReplayBytes int64 = 64 << 20

// resolveReplay validates a client-supplied replay path — relative
// only, no escape from root ("" means the working directory), a regular
// file (never a device node or directory), and under the size cap —
// and returns the server-local path plus its content digest. Unreadable
// and irregular paths all map to one generic error: distinguishing
// "absent" from "present but unreadable" would let clients probe the
// server's filesystem.
func resolveReplay(root, p string) (full, digest string, err error) {
	if filepath.IsAbs(p) {
		return "", "", fmt.Errorf("replay %q: absolute paths are not allowed (replay paths are relative to the server's trace directory)", p)
	}
	clean := filepath.Clean(p)
	if clean == ".." || strings.HasPrefix(clean, ".."+string(filepath.Separator)) {
		return "", "", fmt.Errorf("replay %q: path escapes the trace directory", p)
	}
	full = clean
	if root != "" {
		full = filepath.Join(root, clean)
	}
	info, statErr := os.Stat(full)
	if statErr != nil || !info.Mode().IsRegular() {
		return "", "", fmt.Errorf("replay %q: not a readable trace file", p)
	}
	if info.Size() > maxReplayBytes {
		return "", "", fmt.Errorf("replay %q: trace is %d bytes, over the %d-byte limit", p, info.Size(), maxReplayBytes)
	}
	digest, err = digestFile(full)
	if err != nil {
		return "", "", fmt.Errorf("replay %q: not a readable trace file", p)
	}
	return full, digest, nil
}

// Resolve validates the spec through the shared CLI parsers and renders
// it canonically. Every error it returns is the same fail-fast message
// the equivalent CLI flag would print, so a 400 from the service reads
// exactly like a philly-sim/-sweep usage error. Replay paths resolve
// inside the current working directory; the server confines them to its
// Config.TraceDir via resolveWithin.
func (s Spec) Resolve() (Resolved, error) { return s.resolveWithin("") }

// resolveWithin is Resolve with replay paths confined to traceDir (""
// means the working directory).
func (s Spec) resolveWithin(traceDir string) (Resolved, error) {
	r := Resolved{Seed: s.Seed, Jobs: s.Jobs, Replicas: s.Replicas}
	if r.Seed == 0 {
		r.Seed = 1
	}
	if r.Replicas <= 0 {
		r.Replicas = 1
	}
	if r.Jobs < 0 {
		return Resolved{}, fmt.Errorf("jobs %d: want a positive int", s.Jobs)
	}

	r.Scale = s.Scale
	if r.Scale == "" {
		r.Scale = "small"
	}
	if _, err := core.ScaleConfig(r.Scale); err != nil {
		return Resolved{}, err
	}

	if s.Pattern != "" && s.Replay != "" {
		return Resolved{}, fmt.Errorf("pattern and replay are mutually exclusive (a replayed trace already fixes the arrival timeline)")
	}
	if s.Pattern != "" {
		p, err := workload.PresetPattern(s.Pattern)
		if err != nil {
			return Resolved{}, err
		}
		r.Pattern = p.Name
	}
	replayJobs := 0
	if s.Replay != "" {
		full, digest, err := resolveReplay(traceDir, s.Replay)
		if err != nil {
			return Resolved{}, err
		}
		// Load once for fail-fast validation; BuildMatrix loads again at
		// run time (the file content is pinned by the digest).
		specs, err := trace.LoadTraceFile(full, trace.DefaultReplayOptions())
		if err != nil {
			return Resolved{}, err
		}
		replayJobs = len(specs)
		r.Replay = full
		r.ReplayDigest = digest
	}
	if s.Faults != "" {
		canon, err := faults.CanonicalSpec(s.Faults)
		if err != nil {
			return Resolved{}, err
		}
		r.Faults = canon
	}
	if s.Checkpoint != "" {
		canon, err := core.CanonicalCheckpointSpec(s.Checkpoint)
		if err != nil {
			return Resolved{}, err
		}
		r.Checkpoint = canon
	}
	if s.Federation != "" {
		if _, err := federation.ParseSpec(0, s.Federation); err != nil {
			return Resolved{}, err
		}
		var members []string
		for _, p := range strings.Split(s.Federation, "+") {
			if p = strings.TrimSpace(p); p != "" {
				members = append(members, p)
			}
		}
		r.Federation = strings.Join(members, "+")
		// Member presets fix each cluster's scale and workload size; the
		// same combinations philly-sim rejects are rejected here.
		if s.Scale != "" {
			return Resolved{}, fmt.Errorf("scale is incompatible with federation (member presets fix each cluster's scale)")
		}
		if s.Jobs != 0 {
			return Resolved{}, fmt.Errorf("jobs is incompatible with federation (member presets fix each cluster's workload)")
		}
	}
	for _, spec := range s.Axes {
		// ParseAxis would open a workload.trace value as a file, from
		// anywhere on disk; refuse it before parsing.
		if name, _, _ := strings.Cut(spec, "="); name == "workload.trace" {
			return Resolved{}, fmt.Errorf("axis workload.trace is not accepted: replay a trace from the server's trace directory with the replay field")
		}
		ax, err := sweep.ParseAxis(spec)
		if err != nil {
			return Resolved{}, err
		}
		labels := make([]string, len(ax.Values))
		for i, v := range ax.Values {
			labels[i] = v.Label
		}
		r.Axes = append(r.Axes, ax.Name+"="+strings.Join(labels, ","))
	}

	// Expansion-time errors (duplicate axis names, an axis colliding with
	// a field-derived one under federation) should 400 at submit, not
	// fail the job after it was queued.
	m, err := r.BuildMatrix()
	if err != nil {
		return Resolved{}, err
	}
	// A plain study runs the jobs field, the scale's default or the
	// replayed trace; a federation member runs its preset's workload, or
	// the replayed trace, which the federation field hands every member.
	memberJobs := func(preset string) int {
		if s.Federation != "" && replayJobs > 0 {
			return replayJobs
		}
		pc, _ := federation.PresetConfig(preset) // ParseAxis validated the name
		return pc.Workload.TotalJobs
	}
	// Written as !(n <= max) so a NaN bound (cluster.scale=NaN parses) is
	// refused too.
	if n := jobsBound(m.Axes, r.Replicas, m.Base.Workload.TotalJobs, memberJobs); !(n <= MaxSpecJobs) {
		return Resolved{}, fmt.Errorf("spec simulates up to %.0f jobs (replicas × axis values × jobs per study), over the %d-job limit", n, MaxSpecJobs)
	}
	if n := studiesBound(m.Axes, r.Replicas); n > MaxSpecStudies {
		return Resolved{}, fmt.Errorf("spec runs up to %.0f studies (replicas × axis values × federation members), over the %d-study limit", n, MaxSpecStudies)
	}
	if _, err := m.Scenarios(); err != nil {
		return Resolved{}, err
	}
	return r, nil
}

// BuildMatrix turns a resolved spec into the sweep matrix that runs it.
// Non-federated specs apply pattern/replay/faults/checkpoint to the base
// configuration exactly like philly-sim's flags; federated specs route
// them through single-value axes instead, because axis mutations are the
// one mechanism the sweep re-applies to every member's preset
// configuration (see sweep.federatedConfig).
func (r Resolved) BuildMatrix() (sweep.Matrix, error) {
	base, err := core.ScaleConfig(r.Scale)
	if err != nil {
		return sweep.Matrix{}, err
	}
	base.Seed = r.Seed
	if r.Jobs > 0 {
		base.Workload.TotalJobs = r.Jobs
	}

	var axes []sweep.Axis
	for _, spec := range r.Axes {
		ax, err := sweep.ParseAxis(spec)
		if err != nil {
			return sweep.Matrix{}, err
		}
		axes = append(axes, ax)
	}

	if r.Federation == "" {
		if r.Pattern != "" {
			p, err := workload.PresetPattern(r.Pattern)
			if err != nil {
				return sweep.Matrix{}, err
			}
			base.Workload.Pattern = p
		}
		if r.Replay != "" {
			specs, err := trace.LoadTraceFile(r.Replay, trace.DefaultReplayOptions())
			if err != nil {
				return sweep.Matrix{}, err
			}
			if err := trace.ApplyReplay(&base, specs); err != nil {
				return sweep.Matrix{}, err
			}
		}
		if r.Faults != "" {
			fc, err := faults.ParseSpec(r.Faults)
			if err != nil {
				return sweep.Matrix{}, err
			}
			base.Faults = fc
		}
		if r.Checkpoint != "" {
			cc, err := core.ParseCheckpointSpec(r.Checkpoint)
			if err != nil {
				return sweep.Matrix{}, err
			}
			base.Checkpoint = cc
		}
		return sweep.Matrix{Base: base, Axes: axes}, nil
	}

	// Federated: field-derived single-value axes reach every member. The
	// failure.domains and workload.* axes share the exact parsers the
	// non-federated path uses; checkpoint needs a custom value because
	// the checkpoint.interval axis cannot carry explicit write/restore
	// costs.
	appendAxis := func(spec string) error {
		ax, err := sweep.ParseAxis(spec)
		if err != nil {
			return err
		}
		axes = append(axes, ax)
		return nil
	}
	if r.Pattern != "" {
		if err := appendAxis("workload.pattern=" + r.Pattern); err != nil {
			return sweep.Matrix{}, err
		}
	}
	if r.Replay != "" {
		if err := appendAxis("workload.trace=" + r.Replay); err != nil {
			return sweep.Matrix{}, err
		}
	}
	if r.Faults != "" {
		if err := appendAxis("failure.domains=" + r.Faults); err != nil {
			return sweep.Matrix{}, err
		}
	}
	if r.Checkpoint != "" {
		cc, err := core.ParseCheckpointSpec(r.Checkpoint)
		if err != nil {
			return sweep.Matrix{}, err
		}
		axes = append(axes, sweep.Axis{Name: "checkpoint.spec", Values: []sweep.Value{{
			Label: r.Checkpoint,
			// CheckpointConfig is a value type, so sharing cc across
			// scenarios cannot alias.
			Apply: func(c *core.Config) { c.Checkpoint = cc },
		}}})
	}
	if err := appendAxis(sweep.FleetAxisName + "=" + r.Federation); err != nil {
		return sweep.Matrix{}, err
	}
	return sweep.Matrix{Base: base, Axes: axes}, nil
}
