// Correlated-outage execution: this file applies the pre-drawn
// internal/faults plan to a running study. Every effect here runs as a
// GLOBAL event (scheduled at Arm, in plan order), so on the sharded engine
// and in a fleet it executes alone at window barriers in the sequential
// engine's exact (at, seq) order — outage-enabled studies keep the
// bit-identical worker/shard invariance contract (PERFORMANCE.md § PR 7).
package core

import (
	"fmt"
	"math"
	"sort"

	"philly/internal/cluster"
	"philly/internal/faults"
	"philly/internal/simulation"
)

// outageHoldBase is the job-ID space for the per-server capacity-hold
// sentinels: while server S is down, its free GPUs are allocated to
// JobID(outageHoldBase + S) so the scheduler cannot place gangs there. Far
// above both generated IDs (dense from 1) and injected IDs (injectIDBase).
const outageHoldBase int64 = 1 << 40

// OutageStats summarizes the outage engine's activity over a run.
type OutageStats struct {
	// Events counts outage events that began; MaintenanceEvents is the
	// subset that were planned maintenance windows.
	Events            int
	MaintenanceEvents int
	// KilledAttempts counts running attempts killed by outages.
	KilledAttempts int
	// DownGPUHours is capacity taken offline, in GPU-hours (horizon-
	// clamped).
	DownGPUHours float64
	// LostGPUHours is GPU time destroyed by kills: work since the victims'
	// last checkpoints, which must be re-run.
	LostGPUHours float64
	// CkptOverheadGPUHours is GPU time spent writing periodic checkpoints
	// and restoring from them — the other side of the lost-work tradeoff.
	CkptOverheadGPUHours float64
	// ETTFHours and ETTRHours are the realized mean time between outage
	// events and mean (horizon-clamped) outage duration, in hours; both 0
	// when no event fired.
	ETTFHours float64
	ETTRHours float64
}

// OutageGPUsDown returns how many GPUs outages currently hold offline
// (federation reads it at barriers to decide evacuation).
func (s *Study) OutageGPUsDown() int { return s.heldGPUs }

// beginOutage applies one outage: kill every running attempt touching an
// affected server, then hold the down capacity with sentinel allocations
// until the repair event releases it.
func (s *Study) beginOutage(o faults.Outage) {
	now := s.engine.Now()
	srvs := s.outageServers(o)
	s.outStats.Events++
	if o.Maintenance {
		s.outStats.MaintenanceEvents++
	}

	// Victims: every distinct job holding a GPU on an affected server.
	// Collected fully before the first kill (a kill mutates placements),
	// deduplicated and killed in ID order.
	var victims []cluster.JobID
	for _, sid := range srvs {
		for _, id := range s.cluster.Server(sid).Jobs() {
			if int64(id) >= outageHoldBase {
				continue // an overlapping outage's sentinel
			}
			victims = append(victims, id)
		}
	}
	sort.Slice(victims, func(i, j int) bool { return victims[i] < victims[j] })
	prev := cluster.JobID(0)
	for _, id := range victims {
		if id == prev {
			continue
		}
		prev = id
		s.killJob(s.states[id], now)
	}

	// Hold the down capacity. Overlapping outages share servers: only the
	// 0→1 transition allocates the sentinel, and only the last repair
	// releases it.
	newlyHeld := 0
	for _, sid := range srvs {
		s.downCount[sid]++
		if s.downCount[sid] > 1 {
			continue
		}
		srv := s.cluster.Server(sid)
		slots := make([]cluster.Slot, 0, len(srv.GPUs))
		for g := range srv.GPUs {
			if srv.GPUs[g].Owner == 0 {
				slots = append(slots, cluster.Slot{Server: sid, GPU: g})
			}
		}
		if len(slots) == 0 {
			continue
		}
		hold := cluster.JobID(outageHoldBase + int64(sid))
		if err := s.cluster.Allocate(hold, cluster.Placement{Slots: slots}); err != nil {
			panic(fmt.Sprintf("core: outage hold on server %d: %v", sid, err))
		}
		newlyHeld += len(slots)
	}
	s.heldGPUs += newlyHeld

	effEnd := o.At + o.Duration
	if effEnd > s.horizon {
		effEnd = s.horizon
	}
	s.outStats.DownGPUHours += float64(newlyHeld) * (effEnd - now).Hours()
	s.outageDownSec += float64(effEnd - now)

	// Victims spanning healthy servers freed capacity there; requeued
	// victims and waiting gangs may start immediately.
	s.pump()
}

// endOutage repairs one outage: when the last overlapping outage on a
// server ends, its sentinel hold is released and the capacity returns.
func (s *Study) endOutage(o faults.Outage) {
	released := 0
	for _, sid := range s.outageServers(o) {
		s.downCount[sid]--
		if s.downCount[sid] > 0 {
			continue
		}
		if s.downCount[sid] < 0 {
			panic(fmt.Sprintf("core: repair of server %d without an outage", sid))
		}
		hold := cluster.JobID(outageHoldBase + int64(sid))
		if p, ok := s.cluster.PlacementOf(hold); ok {
			released += len(p.Slots)
			if err := s.cluster.Release(hold); err != nil {
				panic(fmt.Sprintf("core: outage release on server %d: %v", sid, err))
			}
		}
	}
	s.heldGPUs -= released
	if released > 0 {
		s.pump()
	}
}

// outageServers resolves an outage to the affected server IDs, ascending
// (server IDs are assigned rack-major, so a rack's servers are contiguous).
func (s *Study) outageServers(o faults.Outage) []int {
	switch o.Level {
	case faults.LevelServer:
		if o.Domain < 0 || o.Domain >= s.cluster.NumServers() {
			return nil
		}
		return []int{o.Domain}
	case faults.LevelRack:
		if o.Domain < 0 || o.Domain >= len(s.cluster.Racks) {
			return nil
		}
		rack := s.cluster.Racks[o.Domain]
		ids := make([]int, 0, len(rack.Servers))
		for _, srv := range rack.Servers {
			ids = append(ids, srv.ID)
		}
		return ids
	default: // faults.LevelCluster
		ids := make([]int, 0, s.cluster.NumServers())
		for _, srv := range s.cluster.Servers() {
			ids = append(ids, srv.ID)
		}
		return ids
	}
}

// killJob terminates a running attempt hit by an outage and sends the job
// back through the queue — the same Release+Submit path commitFinish uses
// for retries. The episode is charged and salvaged to its last checkpoint
// (see salvageToCheckpoint).
func (s *Study) killJob(js *jobState, now simulation.Time) {
	if js == nil || !js.running {
		return
	}
	s.salvageToCheckpoint(js, s.chargeEpisode(js, now))
	s.outStats.KilledAttempts++
	js.res.OutageKills++
	s.removeRunning(js)
	if err := s.sched.Release(js.sched, now); err != nil {
		panic(fmt.Sprintf("core: outage release job %d: %v", js.sched.ID, err))
	}
	if err := s.sched.Submit(js.sched, now); err != nil {
		panic(fmt.Sprintf("core: outage resubmit job %d: %v", js.sched.ID, err))
	}
}

// salvageToCheckpoint settles a clean episode cut short by an outage kill
// or an evacuation: work up to its last periodic checkpoint survives and
// the next episode owes a restore; the wall time since that checkpoint
// (the whole episode when the cost model is off) is lost GPU time. A
// failing attempt keeps its cumulative runtime-to-failure clock, exactly
// like a preemption, so the job's planned failure budget is honored.
func (s *Study) salvageToCheckpoint(js *jobState, elapsed float64) {
	if js.currentFailure() != nil {
		return
	}
	retainedWall := 0.0
	if ck := s.cfg.Checkpoint; ck.Enabled && js.spec.Train.CheckpointEveryEpochs > 0 {
		retainedWall = math.Floor(elapsed/float64(ck.Interval)) * float64(ck.Interval)
		js.pendingRestoreSec = ck.RestoreSeconds
	}
	js.sched.RemainingSeconds = max(js.sched.RemainingSeconds-retainedWall/js.slowdown, 0)
	lost := (elapsed - retainedWall) / 60 * float64(js.spec.GPUs)
	js.res.LostGPUMinutes += lost
	s.outStats.LostGPUHours += lost / 60
}
