package scheduler

import (
	"cmp"
	"math/rand/v2"
	"slices"
	"testing"

	"philly/internal/cluster"
	"philly/internal/simulation"
)

// TestVictimTiesGoToLowestID pins the tie-break every victim rule shares.
// Four 8-GPU gangs start at one instant in the order 7, 5, 6, 8, filling
// the cluster, so their preemption keys tie under every policy: equal
// start times (philly's youngest-first, gandiva's longest holder), equal
// remaining work (srtf) and equal attained service (tiresias). A waiting
// 8-GPU job then needs one of them, and the victim must be the lowest ID,
// not the first or last to start.
func TestVictimTiesGoToLowestID(t *testing.T) {
	const later = 2 * simulation.Hour // past PreemptMinRun and the quantum
	for _, tc := range []struct {
		policy    Policy
		waitVC    string // vca is entitled; vcb runs the gangs over quota
		fairShare bool
	}{
		{PolicyPhilly, "vca", true},
		{PolicySRTF, "vcb", false},
		{PolicyTiresias, "vcb", false},
		{PolicyGandiva, "vcb", false},
	} {
		t.Run(tc.policy.String(), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Policy = tc.policy
			s := newSched(t, cfg, testCluster(), defaultVCs())
			for _, id := range []cluster.JobID{7, 5, 6, 8} {
				j := NewJob(id, "vcb", 8, 0)
				j.RemainingSeconds = 1000
				if err := s.Submit(j, 0); err != nil {
					t.Fatal(err)
				}
			}
			var started []cluster.JobID
			for _, ev := range s.Pump(0).Starts {
				started = append(started, ev.Job.ID)
			}
			if want := []cluster.JobID{7, 5, 6, 8}; !slices.Equal(started, want) {
				t.Fatalf("start order %v, want %v", started, want)
			}
			waiting := NewJob(9, tc.waitVC, 8, later)
			waiting.RemainingSeconds = 10
			if err := s.Submit(waiting, later); err != nil {
				t.Fatal(err)
			}
			res := s.Pump(later)
			if len(res.Preemptions) != 1 {
				t.Fatalf("%d preemptions, want exactly 1", len(res.Preemptions))
			}
			if ev := res.Preemptions[0]; ev.Job.ID != 5 || ev.FairShare != tc.fairShare {
				t.Errorf("preempted job %d (fair-share %v), want job 5 (fair-share %v)",
					ev.Job.ID, ev.FairShare, tc.fairShare)
			}
		})
	}
}

// TestRunningSetChurn checks each VC's running set against a naive model
// through a seeded churn: three VCs with quotas below capacity submit
// jobs of mixed widths, the test releases random running jobs and runs
// Defrag, and time advances, so borrowing, >= 90% occupancy, fair-share
// and policy preemption, and same-instant start groups all happen. The
// model tracks each VC's running jobs from start and preempt events and
// the test's own releases. After every step each VC's slice must be
// strictly increasing under runningOrder, hold exactly the model's jobs,
// and its used counter must equal their GPU total.
func TestRunningSetChurn(t *testing.T) {
	const steps = 400
	vcs := []VC{{Name: "vca", Quota: 32}, {Name: "vcb", Quota: 24}, {Name: "vcc", Quota: 8}}
	widths := []int{1, 2, 4, 8, 8, 16}
	var fairShare, policy int
	for _, p := range []Policy{PolicyPhilly, PolicySRTF, PolicyTiresias, PolicyGandiva} {
		t.Run(p.String(), func(t *testing.T) {
			cl := cluster.MustNew(cluster.Config{Racks: []cluster.RackConfig{
				{Servers: 4, SKU: cluster.SKU8GPU},
				{Servers: 4, SKU: cluster.SKU8GPU},
			}})
			cfg := DefaultConfig()
			cfg.Policy = p
			s := newSched(t, cfg, cl, vcs)
			rng := rand.New(rand.NewPCG(22, uint64(p)))
			ids := rng.Perm(4 * steps) // IDs unrelated to start order
			model := map[string]map[*Job]bool{}
			for _, vc := range vcs {
				model[vc.Name] = map[*Job]bool{}
			}
			// apply replays one Pump's events in Seq order: a job can start
			// and be preempted within one Pump.
			apply := func(res PumpResult) {
				si, pi := 0, 0
				for si < len(res.Starts) || pi < len(res.Preemptions) {
					if pi == len(res.Preemptions) || (si < len(res.Starts) && res.Starts[si].Seq < res.Preemptions[pi].Seq) {
						j := res.Starts[si].Job
						model[j.VCName][j] = true
						si++
					} else {
						j := res.Preemptions[pi].Job
						delete(model[j.VCName], j)
						pi++
					}
				}
			}
			sameInstant := false
			now := simulation.Time(0)
			for step := 0; step < steps; step++ {
				if len(s.QueuedJobs()) < 24 {
					for k := rng.IntN(3); k >= 0; k-- {
						// Skewed demand: vca and vcb borrow, vcc's jobs
						// arrive entitled and reclaim.
						vc := vcs[min(rng.IntN(5), 2)].Name
						j := NewJob(cluster.JobID(ids[0]+1), vc, widths[rng.IntN(len(widths))], now)
						ids = ids[1:]
						j.RemainingSeconds = float64(rng.IntN(40)) * 600
						if err := s.Submit(j, now); err != nil {
							t.Fatal(err)
						}
					}
				}
				apply(s.Pump(now))
				if rng.IntN(4) > 0 {
					var all []*Job
					for _, vc := range vcs {
						for j := range model[vc.Name] {
							all = append(all, j)
						}
					}
					if len(all) > 0 {
						slices.SortFunc(all, func(a, b *Job) int { return cmp.Compare(a.ID, b.ID) })
						j := all[rng.IntN(len(all))]
						if err := s.Release(j, now); err != nil {
							t.Fatal(err)
						}
						delete(model[j.VCName], j)
						apply(s.Pump(now))
					}
				}
				if step%7 == 0 {
					s.Defrag(now, 2, 2)
				}
				total := 0
				for _, vc := range s.vcList {
					want := model[vc.Name]
					if len(vc.running) != len(want) {
						t.Fatalf("step %d: VC %s runs %d jobs, model has %d", step, vc.Name, len(vc.running), len(want))
					}
					gpus := 0
					for i, j := range vc.running {
						if i > 0 && runningOrder(vc.running[i-1], j) >= 0 {
							t.Fatalf("step %d: VC %s running set out of order at %d: job %d@%d before job %d@%d",
								step, vc.Name, i, vc.running[i-1].ID, vc.running[i-1].StartedAt, j.ID, j.StartedAt)
						}
						if i > 0 && vc.running[i-1].StartedAt == j.StartedAt {
							sameInstant = true
						}
						if !want[j] || j.State != StateRunning {
							t.Fatalf("step %d: VC %s holds job %d (state %v) the model does not run", step, vc.Name, j.ID, j.State)
						}
						gpus += j.GPUs
					}
					if vc.used != gpus {
						t.Fatalf("step %d: VC %s used = %d, running GPUs sum to %d", step, vc.Name, vc.used, gpus)
					}
					total += gpus
				}
				if busy := cl.TotalGPUs() - cl.FreeGPUs(); busy != total {
					t.Fatalf("step %d: cluster has %d GPUs allocated, running sets hold %d", step, busy, total)
				}
				now += simulation.Time(rng.IntN(8)) * simulation.Minute
			}
			st := s.Stats()
			fairShare += st.FairSharePreemptions
			policy += st.PolicyPreemptions
			if p == PolicyPhilly && st.FairSharePreemptions == 0 {
				t.Error("no fair-share preemption: the churn never reclaimed quota")
			}
			if p != PolicyPhilly && st.PolicyPreemptions == 0 {
				t.Errorf("no %v preemption", p)
			}
			if !sameInstant {
				t.Error("no same-instant start group: the ID tie-break went unexercised")
			}
			t.Logf("%d starts, %d fair-share and %d policy preemptions, %d migrations",
				st.Starts, st.FairSharePreemptions, st.PolicyPreemptions, st.Migrations)
		})
	}
	if fairShare == 0 || policy == 0 {
		t.Errorf("churn is vacuous: %d fair-share and %d policy preemptions", fairShare, policy)
	}
}
