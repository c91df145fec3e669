// Package federation runs multi-cluster studies: N member clusters — each
// a full core.Study with its own workload, failure profile and telemetry —
// advance inside one virtual timeline on the simulation.Fleet coordinator
// (the windowed executor per-VC sharding runs on, with each lane an
// entire cluster), and interact only through coarse-grained fleet events
// executing at window barriers:
//
//   - Job spillover: when a member's queued jobs wait past a threshold,
//     never-started jobs are withdrawn and re-submitted to the member with
//     the most free GPUs — the cross-fleet offloading question raised by
//     the Helios and Meta multi-cluster studies (PAPERS.md).
//   - Fleet-wide quota rebalancing: at a fleet tick, every member
//     re-shares its VC quota pool proportionally to instantaneous demand,
//     all at one consistent barrier.
//
// Determinism contract (see PERFORMANCE.md § PR 5): between barriers the
// members share no state, so any worker count and any member execution
// interleaving produces a bit-identical federation.Result; barrier events
// run alone, in one global order, on the coordinator goroutine. A
// federated study with one member and interactions disabled is
// byte-identical to the plain sequential Study — the regression anchor
// TestSingleMemberMatchesPlainStudy pins.
package federation

import (
	"fmt"
	"strings"

	"philly/internal/core"
	"philly/internal/par"
	"philly/internal/simulation"
	"philly/internal/stats"
)

// Member is one cluster of the federation.
type Member struct {
	// Name labels the member in results and tables; unique in the fleet.
	Name string
	// Config is the member's full study configuration, seed included.
	Config core.Config
}

// Spillover configures cross-cluster job offloading.
type Spillover struct {
	// Enabled turns spillover checks on (needs at least two members).
	Enabled bool
	// MinWait is the queueing delay past which a never-started job becomes
	// a spillover candidate.
	MinWait simulation.Time
	// Interval is the fleet-tick cadence of spillover checks.
	Interval simulation.Time
	// MaxMovesPerCheck bounds churn per donor member per check.
	MaxMovesPerCheck int
}

// DefaultSpillover returns the default offloading policy: check every 10
// minutes, move jobs stuck for 30+ minutes, at most 8 per member per check.
func DefaultSpillover() Spillover {
	return Spillover{
		Enabled:          true,
		MinWait:          30 * simulation.Minute,
		Interval:         10 * simulation.Minute,
		MaxMovesPerCheck: 8,
	}
}

// Evacuation configures checkpoint-migration of restorable jobs away from
// outage-degraded members — the extension of spillover from never-started
// jobs to running ones (Meta-style workload evacuation; Kokolis et al.
// 2024). Checks ride the spillover ticker, so they need Spillover.Enabled
// and at least two members; they only ever fire on members whose
// correlated-outage engine (core.Config.Faults) is holding capacity down,
// so the default-enabled policy is inert in fault-free fleets.
type Evacuation struct {
	// Enabled turns evacuation checks on.
	Enabled bool
	// MinDownFraction is the outage-held share of a member's GPU capacity
	// at which the member starts evacuating at barriers.
	MinDownFraction float64
	// MaxMovesPerCheck bounds churn per donor member per check.
	MaxMovesPerCheck int
	// DataGravitySeconds is the one-time cross-member transfer penalty
	// (dataset + checkpoint movement) the receiving side pays on top of
	// the donor's checkpoint restore cost.
	DataGravitySeconds float64
}

// DefaultEvacuation returns the default evacuation policy: members with a
// tenth of their capacity down evacuate up to 4 restorable jobs per check,
// each paying 5 minutes of data gravity on arrival.
func DefaultEvacuation() Evacuation {
	return Evacuation{
		Enabled:            true,
		MinDownFraction:    0.10,
		MaxMovesPerCheck:   4,
		DataGravitySeconds: 300,
	}
}

// Rebalance configures the fleet-wide quota rebalancing tick.
type Rebalance struct {
	// Enabled turns rebalancing on.
	Enabled bool
	// Interval is the fleet-tick cadence.
	Interval simulation.Time
}

// DefaultRebalance returns the default rebalancing policy: every member
// re-shares its VC quotas by demand once an hour.
func DefaultRebalance() Rebalance {
	return Rebalance{Enabled: true, Interval: simulation.Hour}
}

// Config is a federated study specification.
type Config struct {
	// Members are the clusters, in fleet order (the order barrier logic
	// walks them — part of the deterministic contract).
	Members []Member
	// Spillover configures job offloading between members.
	Spillover Spillover
	// Evacuation configures checkpoint-migration of restorable jobs off
	// outage-degraded members (piggybacks on the spillover ticker).
	Evacuation Evacuation
	// Rebalance configures the fleet-wide quota rebalancing tick.
	Rebalance Rebalance
}

// Validate checks the federation configuration, including every member's.
func (c Config) Validate() error {
	if len(c.Members) == 0 {
		return fmt.Errorf("federation: at least one member required")
	}
	seen := map[string]bool{}
	for i, m := range c.Members {
		if m.Name == "" {
			return fmt.Errorf("federation: member %d has no name", i)
		}
		if seen[m.Name] {
			return fmt.Errorf("federation: duplicate member name %q", m.Name)
		}
		seen[m.Name] = true
		if err := m.Config.Validate(); err != nil {
			return fmt.Errorf("federation: member %q: %w", m.Name, err)
		}
	}
	if c.Spillover.Enabled {
		if c.Spillover.Interval <= 0 {
			return fmt.Errorf("federation: spillover interval must be positive")
		}
		if c.Spillover.MinWait < 0 {
			return fmt.Errorf("federation: spillover min wait must be >= 0")
		}
		if c.Spillover.MaxMovesPerCheck <= 0 {
			return fmt.Errorf("federation: spillover move bound must be positive")
		}
	}
	if c.Evacuation.Enabled {
		if c.Evacuation.MinDownFraction < 0 || c.Evacuation.MinDownFraction > 1 {
			return fmt.Errorf("federation: evacuation min down fraction %v out of [0, 1]", c.Evacuation.MinDownFraction)
		}
		if c.Evacuation.MaxMovesPerCheck <= 0 {
			return fmt.Errorf("federation: evacuation move bound must be positive")
		}
		if c.Evacuation.DataGravitySeconds < 0 {
			return fmt.Errorf("federation: evacuation data gravity must be >= 0")
		}
	}
	if c.Rebalance.Enabled && c.Rebalance.Interval <= 0 {
		return fmt.Errorf("federation: rebalance interval must be positive")
	}
	return nil
}

// NewConfig builds a federation from member preset names, with per-member
// seeds derived from the fleet seed via stats.DeriveEntitySeed (so nearby
// fleet seeds give unrelated member workloads) and default interactions.
// Repeated presets get #n name suffixes.
func NewConfig(seed uint64, presetNames ...string) (Config, error) {
	if len(presetNames) == 0 {
		return Config{}, fmt.Errorf("federation: at least one member preset required")
	}
	counts := map[string]int{}
	for _, p := range presetNames {
		counts[p]++
	}
	ordinal := map[string]int{}
	cfg := Config{
		Spillover:  DefaultSpillover(),
		Evacuation: DefaultEvacuation(),
		Rebalance:  DefaultRebalance(),
	}
	for i, p := range presetNames {
		mc, err := PresetConfig(p)
		if err != nil {
			return Config{}, err
		}
		mc.Seed = stats.DeriveEntitySeed(seed, "fed-member", uint64(i))
		name := p
		if counts[p] > 1 {
			ordinal[p]++
			name = fmt.Sprintf("%s#%d", p, ordinal[p])
		}
		cfg.Members = append(cfg.Members, Member{Name: name, Config: mc})
	}
	return cfg, nil
}

// ParseSpec parses a CLI/sweep federation spec: "+"-separated member
// preset names, e.g. "philly-small+helios-like".
func ParseSpec(seed uint64, spec string) (Config, error) {
	var names []string
	for _, p := range strings.Split(spec, "+") {
		p = strings.TrimSpace(p)
		if p != "" {
			names = append(names, p)
		}
	}
	if len(names) == 0 {
		return Config{}, fmt.Errorf("federation: empty federation spec %q", spec)
	}
	return NewConfig(seed, names...)
}

// MemberFleetStats counts one member's cross-cluster traffic.
type MemberFleetStats struct {
	Name string
	// JobsOffloaded / JobsReceived count spillover moves out of / into the
	// member; the GPU variants weigh them by gang width.
	JobsOffloaded, JobsReceived int
	GPUsOffloaded, GPUsReceived int
	// JobsEvacuated / JobsResumed count checkpoint migrations out of / into
	// the member; the GPU variants weigh them by gang width.
	JobsEvacuated, JobsResumed int
	GPUsEvacuated, GPUsResumed int
}

// FleetStats summarizes the federation's cross-cluster activity. All
// counters are deterministic: they depend on the member timelines and the
// barrier schedule only, never on worker count.
type FleetStats struct {
	// SpilloverChecks / SpilloverMoves count ticks and executed moves.
	SpilloverChecks, SpilloverMoves int
	// EvacuationMoves counts checkpoint migrations of restorable jobs off
	// outage-degraded members.
	EvacuationMoves int
	// RebalanceTicks / QuotaChanges count ticks and per-VC quota updates.
	RebalanceTicks, QuotaChanges int
	// Members holds per-member traffic, in fleet order.
	Members []MemberFleetStats
	// Windows is the coordinator's window accounting.
	Windows simulation.WindowStats
}

// MemberResult pairs a member with its completed study result.
type MemberResult struct {
	Name   string
	Result *core.StudyResult
}

// Result is a completed federated study.
type Result struct {
	// Members holds per-member results, in fleet order.
	Members []MemberResult
	// Fleet summarizes the cross-cluster interactions.
	Fleet FleetStats
}

// memberRT is the runtime pairing of a member study with its fleet lane.
type memberRT struct {
	study *core.Study
	view  *simulation.Member
	// horizon is the member's own run bound (set at Arm): spillover never
	// targets a member past it — the injected submission would sit beyond
	// the lane horizon forever.
	horizon simulation.Time
	// traffic names the member and counts its moves; spill counts into it
	// and Run reports it as is.
	traffic MemberFleetStats
}

// Study is a configured, runnable federation.
type Study struct {
	cfg     Config
	fleet   *simulation.Fleet
	members []*memberRT
	stats   FleetStats
	ran     bool
}

// NewStudy builds a federated study: one core.Study per member, each
// executing on its private fleet lane.
func NewStudy(cfg Config) (*Study, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Study{cfg: cfg, fleet: simulation.NewFleet(len(cfg.Members))}
	for i, m := range cfg.Members {
		st, err := core.NewStudy(m.Config)
		if err != nil {
			return nil, fmt.Errorf("federation: member %q: %w", m.Name, err)
		}
		view := s.fleet.Member(simulation.ShardID(i))
		st.SetExecutor(view)
		s.members = append(s.members, &memberRT{study: st, view: view, traffic: MemberFleetStats{Name: m.Name}})
	}
	return s, nil
}

// NumMembers returns the member count.
func (s *Study) NumMembers() int { return len(s.members) }

// MemberNumJobs returns member mi's generated job count — the sizing hint
// for streaming reducers (spillover injections can push job indices past
// it).
func (s *Study) MemberNumJobs(mi int) int { return s.members[mi].study.NumJobs() }

// StreamMemberJobs registers fn as every member's job observer (see
// core.Study.StreamJobs): fn(member, i, r) runs as member's job i
// finalizes, barrier-serialized with all other global events, and the
// member study then releases the record's variable-size parts — so a
// paper-scale federated study holds scalars per completed job instead of
// full attempt histories. fn must not retain r or r.Attempts past the
// call. Must be called before Run.
func (s *Study) StreamMemberJobs(fn func(member, i int, r *core.JobResult)) {
	for mi, m := range s.members {
		mi := mi
		m.study.StreamJobs(func(i int, r *core.JobResult) { fn(mi, i, r) })
	}
}

// SetPool attaches a shared fork-join pool: member lanes run concurrently
// inside fleet windows. Each member is one sequential lane, so nothing
// inside a member forks. Must be called before Run. Pool size changes
// wall-clock only — the Result is bit-identical for any size, including
// none.
func (s *Study) SetPool(p *par.Pool) { s.fleet.SetPool(p) }

// anyPending reports whether any member still has unfinished jobs.
func (s *Study) anyPending() bool {
	for _, m := range s.members {
		if m.study.PendingJobs() > 0 {
			return true
		}
	}
	return false
}

// Run executes the federation to completion.
func (s *Study) Run() (*Result, error) {
	if s.ran {
		return nil, fmt.Errorf("federation: study already ran")
	}
	s.ran = true

	// Arm every member on its lane; the fleet horizon covers the longest
	// member (each lane additionally honors its own, so a short member's
	// timeline is identical to its standalone run).
	var maxH simulation.Time
	for _, m := range s.members {
		h := m.study.Arm()
		m.horizon = h
		m.view.SetHorizon(h)
		if h > maxH {
			maxH = h
		}
	}

	// Cross-cluster interaction ticks are fleet-global events: they run
	// alone at window barriers and are the only code that touches more
	// than one member.
	if s.cfg.Spillover.Enabled && len(s.members) > 1 {
		iv := s.cfg.Spillover.Interval
		s.fleet.Ticker(iv, iv, func(now simulation.Time) bool {
			s.spill(now)
			return now < maxH && s.anyPending()
		})
	}
	if s.cfg.Rebalance.Enabled {
		iv := s.cfg.Rebalance.Interval
		s.fleet.Ticker(iv, iv, func(now simulation.Time) bool {
			s.rebalance()
			return now < maxH && s.anyPending()
		})
	}

	s.fleet.Run(maxH)

	res := &Result{Fleet: s.stats}
	res.Fleet.Windows = s.fleet.Stats()
	for _, m := range s.members {
		sr, err := m.study.Collect()
		if err != nil {
			return nil, fmt.Errorf("federation: member %q: %w", m.traffic.Name, err)
		}
		res.Members = append(res.Members, MemberResult{Name: m.traffic.Name, Result: sr})
		res.Fleet.Members = append(res.Fleet.Members, m.traffic)
	}
	return res, nil
}

// spill runs one spillover check at a window barrier: for every donor in
// fleet order, withdraw overdue never-started jobs and re-submit each to
// the other member with the most free GPUs. A per-barrier ledger charges
// each move against the target's free capacity (the injected submissions
// only land on the lanes after the barrier, so FreeGPUs alone would let
// one barrier over-commit a target arbitrarily), and members that already
// finished their own run — drained-and-stopped, or past their horizon —
// are never targets: their lanes would hold the injected submission
// forever and silently lose the job.
func (s *Study) spill(now simulation.Time) {
	s.stats.SpilloverChecks++
	sp := s.cfg.Spillover
	free := make([]int, len(s.members))
	alive := make([]bool, len(s.members))
	for i, m := range s.members {
		free[i] = m.study.FreeGPUs()
		alive[i] = m.study.PendingJobs() > 0 && now < m.horizon
	}
	// Evacuation pass first: a member losing capacity to an outage moves
	// restorable (checkpointed) jobs before ordinary queue spillover runs,
	// so the evacuated gangs claim target capacity ahead of never-started
	// jobs — they are the ones actively burning lost GPU time.
	if s.cfg.Evacuation.Enabled {
		ev := s.cfg.Evacuation
		for di, donor := range s.members {
			total := donor.study.TotalGPUs()
			down := donor.study.OutageGPUsDown()
			if donor.study.PendingJobs() == 0 || total == 0 || down == 0 ||
				float64(down)/float64(total) < ev.MinDownFraction {
				continue
			}
			for _, cand := range donor.study.EvacuationCandidates(ev.MaxMovesPerCheck) {
				ti := s.pickTarget(di, cand.GPUs, free, alive)
				if ti < 0 {
					continue
				}
				target := s.members[ti]
				spec, remaining, err := donor.study.Evacuate(cand.ID, now)
				if err != nil {
					// Candidates were validated against the same barrier
					// state; a failure here is a bookkeeping bug.
					panic(fmt.Sprintf("federation: evacuate job %d from %s: %v", cand.ID, donor.traffic.Name, err))
				}
				penalty := donor.study.CheckpointRestoreSeconds() + ev.DataGravitySeconds
				spec.VC = target.study.SpilloverVC()
				if _, err := target.study.InjectResumed(spec, remaining, penalty, now); err != nil {
					panic(fmt.Sprintf("federation: inject evacuated job into %s: %v", target.traffic.Name, err))
				}
				free[ti] -= cand.GPUs
				s.stats.EvacuationMoves++
				donor.traffic.JobsEvacuated++
				donor.traffic.GPUsEvacuated += cand.GPUs
				target.traffic.JobsResumed++
				target.traffic.GPUsResumed += cand.GPUs
			}
		}
	}

	for di, donor := range s.members {
		if donor.study.PendingJobs() == 0 {
			continue
		}
		for _, cand := range donor.study.OffloadCandidates(now, sp.MinWait, sp.MaxMovesPerCheck) {
			ti := s.pickTarget(di, cand.GPUs, free, alive)
			if ti < 0 {
				continue
			}
			target := s.members[ti]
			spec, err := donor.study.Offload(cand.ID, now)
			if err != nil {
				// Candidates were validated against the same barrier state;
				// a failure here is a bookkeeping bug, not a recoverable
				// condition.
				panic(fmt.Sprintf("federation: offload job %d from %s: %v", cand.ID, donor.traffic.Name, err))
			}
			spec.VC = target.study.SpilloverVC()
			if _, err := target.study.Inject(spec, now); err != nil {
				panic(fmt.Sprintf("federation: inject job into %s: %v", target.traffic.Name, err))
			}
			free[ti] -= cand.GPUs
			s.stats.SpilloverMoves++
			donor.traffic.JobsOffloaded++
			donor.traffic.GPUsOffloaded += cand.GPUs
			target.traffic.JobsReceived++
			target.traffic.GPUsReceived += cand.GPUs
		}
	}
}

// pickTarget returns the index of the member best placed to absorb a gang
// of the given width — the most remaining free GPUs in this barrier's
// ledger among live members other than the donor, requiring the gang to
// fit (ties break toward fleet order) — or -1 when nobody can take it
// now.
func (s *Study) pickTarget(donor, gpus int, free []int, alive []bool) int {
	best, bestFree := -1, 0
	for i := range s.members {
		if i == donor || !alive[i] || free[i] < gpus {
			continue
		}
		if best < 0 || free[i] > bestFree {
			best, bestFree = i, free[i]
		}
	}
	return best
}

// rebalance runs one fleet-wide quota rebalancing barrier: every member
// re-shares its VC quota pool by instantaneous demand at one instant.
func (s *Study) rebalance() {
	s.stats.RebalanceTicks++
	for _, m := range s.members {
		s.stats.QuotaChanges += m.study.RebalanceVCQuotas()
	}
}

// Run is the one-call form: build and run a federated study sequentially.
func Run(cfg Config) (*Result, error) {
	st, err := NewStudy(cfg)
	if err != nil {
		return nil, err
	}
	return st.Run()
}
