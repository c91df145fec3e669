package core

import (
	"fmt"
	"math"
	"testing"

	"philly/internal/scheduler"
)

// relGap is |a-b| relative to the larger magnitude (0 when both are 0).
func relGap(a, b float64) float64 {
	d := math.Abs(a - b)
	if d == 0 {
		return 0
	}
	return d / math.Max(math.Abs(a), math.Abs(b))
}

// TestEpisodeTimeConserved checks every completed job's GPU-time record
// against naive recomputations from its attempt list, across every kind
// of episode end: finish, fair-share and policy preemption, defrag
// migration, and outage kills with checkpoint salvage. Per job, the
// attempts' runtimes sum to RunMinutes, GPUMinutes is RunMinutes times
// the gang width, and neither lost nor checkpoint GPU time exceeds the
// GPU time charged. The checked jobs of each cell must include preempted
// and outage-killed ones (and the cell must migrate with defrag on), or
// the check proves nothing.
func TestEpisodeTimeConserved(t *testing.T) {
	const tol = 1e-9
	for _, policy := range []scheduler.Policy{scheduler.PolicyPhilly, scheduler.PolicyGandiva, scheduler.PolicySRTF} {
		for _, defrag := range []bool{false, true} {
			cfg := faultyConfig(13)
			cfg.Scheduler.Policy = policy
			if defrag {
				cfg.Defrag = DefaultDefragConfig()
				cfg.Defrag.Enabled = true
			}
			name := fmt.Sprintf("%v/defrag=%v", policy, defrag)
			res, _ := runWithPool(t, cfg, 0)

			completed, preemptions, kills := 0, 0, 0
			var worstRun, worstGPU float64
			for i := range res.Jobs {
				j := &res.Jobs[i]
				if !j.Completed {
					continue
				}
				completed++
				preemptions += j.Preemptions
				kills += j.OutageKills
				attempts := 0.0
				for _, a := range j.Attempts {
					attempts += a.RuntimeMinutes
				}
				runGap := relGap(attempts, j.RunMinutes)
				gpuGap := relGap(j.GPUMinutes, j.RunMinutes*float64(j.Spec.GPUs))
				worstRun, worstGPU = math.Max(worstRun, runGap), math.Max(worstGPU, gpuGap)
				switch {
				case runGap > tol:
					t.Errorf("%s job %d: attempts sum to %v min, RunMinutes %v", name, j.Spec.ID, attempts, j.RunMinutes)
				case gpuGap > tol:
					t.Errorf("%s job %d: GPUMinutes %v != RunMinutes %v × %d GPUs",
						name, j.Spec.ID, j.GPUMinutes, j.RunMinutes, j.Spec.GPUs)
				case j.LostGPUMinutes > j.GPUMinutes || j.CkptGPUMinutes > j.GPUMinutes:
					t.Errorf("%s job %d: lost %v or checkpoint %v GPU-min exceeds the %v charged",
						name, j.Spec.ID, j.LostGPUMinutes, j.CkptGPUMinutes, j.GPUMinutes)
				}
			}
			migrations := res.Sched.Migrations
			if completed == 0 || preemptions == 0 || kills == 0 || (defrag && migrations == 0) {
				t.Fatalf("%s: vacuous cell: %d completed, %d preemptions, %d kills, %d migrations",
					name, completed, preemptions, kills, migrations)
			}
			t.Logf("%s: %d completed, %d preemptions, %d kills, %d migrations; worst gaps %.1e run, %.1e GPU",
				name, completed, preemptions, kills, migrations, worstRun, worstGPU)
		}
	}
}
