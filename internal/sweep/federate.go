package sweep

// Federated sweeps: a fleet.members axis turns every scenario into a
// multi-cluster study (internal/federation). Each member's configuration
// is its preset with every other axis's mutation applied on top — so
// "sched.policy=fifo fleet.members=philly-small+helios-like" runs FIFO on
// both members — and the result expands into one row per member plus a
// fleet-wide fold, under a synthetic trailing "member" axis, so the
// comparison table, JSON export and philly-plot compare policies
// per-member and fleet-wide without any special-casing downstream.

import (
	"fmt"

	"philly/internal/analysis"
	"philly/internal/core"
	"philly/internal/federation"
	"philly/internal/par"
)

// fleetMemberLabel names the synthetic row carrying the fleet-wide fold.
const fleetMemberLabel = "fleet"

// federatedConfig resolves a federated scenario into a federation.Config:
// member presets with the scenario's non-fleet axis mutations applied, and
// per-member seeds derived from the run seed.
func federatedConfig(sc *Scenario, runSeed uint64) (federation.Config, error) {
	fcfg, err := federation.NewConfig(runSeed, sc.Fleet...)
	if err != nil {
		return federation.Config{}, err
	}
	for i := range fcfg.Members {
		for _, apply := range sc.applies {
			apply(&fcfg.Members[i].Config)
		}
	}
	return fcfg, nil
}

// runFederatedCell executes one federated scenario replica and reduces it
// to one ReplicaMetrics per member plus the fleet-wide row, in that order.
// Members stream: each completed job folds into a per-member
// analysis.StreamReducer the moment it finalizes and the study drops its
// attempt history, so a paper-scale federated replica holds scalars per
// job — the same memory profile as the plain-study streaming path. Each
// member's tally is finished in one walk of its jobs, and the fleet row is
// analysis.CombineFleet over those tallies, the same fold philly-sim's
// fleet table prints (TestFederatedStreamingMatchesBatch pins the
// streamed cell against a replay of the retained results).
func runFederatedCell(sc *Scenario, runSeed uint64, pool *par.Pool) ([]ReplicaMetrics, error) {
	fcfg, err := federatedConfig(sc, runSeed)
	if err != nil {
		return nil, err
	}
	st, err := federation.NewStudy(fcfg)
	if err != nil {
		return nil, err
	}
	st.SetPool(pool)
	reds := make([]*analysis.StreamReducer, st.NumMembers())
	for i := range reds {
		reds[i] = analysis.NewStreamReducer(st.MemberNumJobs(i))
	}
	st.StreamMemberJobs(func(mi, i int, r *core.JobResult) { reds[mi].ObserveJob(i, r) })
	res, err := st.Run()
	if err != nil {
		return nil, err
	}
	tallies := make([]analysis.Tally, len(res.Members))
	cell := make([]ReplicaMetrics, 0, len(res.Members)+1)
	for mi, m := range res.Members {
		tallies[mi] = reds[mi].Finish(m.Result)
		cell = append(cell, replicaMetrics(m.Result.Config.Seed, tallies[mi]))
	}
	return append(cell, replicaMetrics(runSeed, analysis.CombineFleet(tallies))), nil
}

// hasFleetScenario reports whether any scenario is federated. A fleet
// axis gives every scenario a member list, so this is all-or-nothing per
// matrix.
func hasFleetScenario(scenarios []Scenario) bool {
	for i := range scenarios {
		if scenarios[i].Fleet != nil {
			return true
		}
	}
	return false
}

// expandFederated turns per-scenario federated cells into the final
// result: each scenario becomes one row per member plus a "fleet" row,
// labeled under a synthetic trailing "member" axis. Member rows carry the
// member's resolved configuration (preset plus applies, seed unset, as
// scenario configs always are); the fleet row carries the scenario's base
// configuration.
func expandFederated(out *Result, scenarios []Scenario, metrics [][][]ReplicaMetrics) (*Result, error) {
	out.AxisNames = append(out.AxisNames, "member")
	for i := range scenarios {
		sc := &scenarios[i]
		fcfg, err := federatedConfig(sc, 0)
		if err != nil {
			return nil, fmt.Errorf("sweep: scenario %q: %w", sc.Name, err)
		}
		names := make([]string, 0, len(fcfg.Members)+1)
		configs := make([]core.Config, 0, len(fcfg.Members)+1)
		for _, mem := range fcfg.Members {
			cfg := mem.Config
			cfg.Seed = 0
			names = append(names, mem.Name)
			configs = append(configs, cfg)
		}
		names = append(names, fleetMemberLabel)
		configs = append(configs, sc.Config)

		for mi, mname := range names {
			rows := make([]ReplicaMetrics, len(metrics[i]))
			for r := range metrics[i] {
				if mi >= len(metrics[i][r]) {
					return nil, fmt.Errorf("sweep: scenario %q replica %d: short federated cell", sc.Name, r)
				}
				rows[r] = metrics[i][r][mi]
			}
			labels := append(append([]string(nil), sc.Labels...), mname)
			out.Scenarios = append(out.Scenarios, ScenarioResult{
				Scenario: Scenario{
					Index:  len(out.Scenarios),
					Name:   sc.Name + " member=" + mname,
					Labels: labels,
					Config: configs[mi],
					Fleet:  sc.Fleet,
				},
				Replicas: rows,
				Summary:  Summarize(rows),
			})
		}
	}
	return out, nil
}
