package core

import (
	"testing"

	"philly/internal/failures"
	"philly/internal/faults"
	"philly/internal/telemetry"
)

// TestTelemetryCountsConserved checks the recorder's sample counts on real
// studies against naive recomputations: every job-minute lands once in the
// all-jobs histogram, once in its outcome margin, once in its size × outcome
// cell and once in its job's accumulator; every 16-GPU job-minute lands in
// exactly one spread histogram; and every tick samples every server once.
// It runs parallelConfig with and without outages, on the sequential engine
// and on four workers with per-VC event sharding.
func TestTelemetryCountsConserved(t *testing.T) {
	plain := parallelConfig()
	plain.Seed = 7
	faulty := plain
	faulty.Faults = faults.DefaultConfig()
	faulty.Faults.Enabled = true
	faulty.Faults = faulty.Faults.Scale(8)
	outcomes := []failures.Outcome{failures.Passed, failures.Killed, failures.Unsuccessful}

	for _, c := range []struct {
		name string
		cfg  Config
	}{{"plain", plain}, {"faults", faulty}} {
		for _, workers := range []int{1, 4} {
			run := runWithPool
			if workers > 1 {
				run = runShardedWithPool
			}
			res, st := run(t, c.cfg, workers)
			if c.cfg.Faults.Enabled && res.Outages.Events == 0 {
				t.Fatalf("%s: no outage fired", c.name)
			}
			tel := res.Telemetry

			var jobMinutes, minutes16 uint64
			for _, js := range st.states {
				m := uint64(js.usage.Minutes)
				jobMinutes += m
				if js.spec.GPUs == 16 {
					minutes16 += m
				}
			}
			var byStatus, bySizeStatus, spread uint64
			for _, o := range outcomes {
				byStatus += tel.AllByStatus(o).Count()
				for cl := telemetry.SizeClass(0); cl < telemetry.NumSizeClasses; cl++ {
					bySizeStatus += tel.SizeStatus(cl, o).Count()
				}
			}
			for _, servers := range tel.Spread16Servers() {
				spread += tel.Spread16(servers).Count()
			}
			hostMinutes := uint64(len(res.OccupancySamples) * st.cluster.NumServers())

			all := tel.All().Count()
			if all == 0 || minutes16 == 0 || hostMinutes == 0 {
				t.Fatalf("%s workers=%d: vacuous study: %d job-minutes, %d at 16 GPUs, %d host-minutes",
					c.name, workers, all, minutes16, hostMinutes)
			}
			for _, chk := range []struct {
				what      string
				got, want uint64
			}{
				{"All vs job accumulators", all, jobMinutes},
				{"All vs outcome margins", all, byStatus},
				{"All vs size × outcome cells", all, bySizeStatus},
				{"spread-16 histograms vs 16-GPU job minutes", spread, minutes16},
				{"HostCPU vs ticks × servers", tel.HostCPU().Count(), hostMinutes},
				{"HostMem vs ticks × servers", tel.HostMem().Count(), hostMinutes},
			} {
				if chk.got != chk.want {
					t.Errorf("%s workers=%d: %s: %d != %d", c.name, workers, chk.what, chk.got, chk.want)
				}
			}
			t.Logf("%s workers=%d: %d job-minutes, %d host-minutes", c.name, workers, all, hostMinutes)
		}
	}
}
