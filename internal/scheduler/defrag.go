package scheduler

import (
	"sort"

	"philly/internal/simulation"
)

// Migration support implements the paper's §5 guideline: "Support for job
// migration to defragment the cluster, especially applied to smaller jobs,
// will mitigate interference for small jobs, and will improve intra-job
// locality for large jobs." Small running jobs are checkpoint-migrated off
// lightly used servers so that whole servers free up for waiting gangs.

// MigrationEvent reports one job moved during defragmentation.
type MigrationEvent struct {
	Job  *Job
	From []int // server IDs before
	To   []int // server IDs after
}

// Defrag migrates up to maxMoves small running jobs (width <= maxWidth)
// away from servers where they are the minority occupant, consolidating
// free GPUs into whole servers. A job is only moved when its new placement
// (a) does not touch any of its current servers and (b) leaves at least one
// of its former servers completely empty, so every move strictly reduces
// fragmentation. Returns the migrations performed; the caller applies the
// checkpoint-restore cost to each moved job.
func (s *Scheduler) Defrag(now simulation.Time, maxWidth, maxMoves int) []MigrationEvent {
	if maxMoves <= 0 {
		return nil
	}
	var events []MigrationEvent
	// Candidate jobs: small, running, alone-on-their-server-tail. Sorted
	// for determinism: jobs on the emptiest servers first (cheapest wins).
	type candidate struct {
		job      *Job
		usedHere int
	}
	var cands []candidate
	for _, vc := range s.vcList {
		for _, j := range vc.running {
			if j.GPUs > maxWidth {
				continue
			}
			servers := j.Placement.ServerIDs()
			if len(servers) != 1 {
				continue
			}
			srv := s.cluster.Server(servers[0])
			// Only worth moving when the job's server is mostly free: the
			// move can then liberate the whole machine.
			if srv.UsedGPUs() != j.GPUs {
				continue
			}
			if srv.FreeGPUs() == 0 {
				continue
			}
			cands = append(cands, candidate{job: j, usedHere: srv.UsedGPUs()})
		}
	}
	sort.Slice(cands, func(i, k int) bool {
		if cands[i].usedHere != cands[k].usedHere {
			return cands[i].usedHere < cands[k].usedHere
		}
		return cands[i].job.ID < cands[k].job.ID
	})

	for _, c := range cands {
		if len(events) >= maxMoves {
			break
		}
		j := c.job
		from := j.Placement.ServerIDs()
		fromSet := map[int]bool{}
		for _, id := range from {
			fromSet[id] = true
		}
		// Release, search, and either move or restore.
		old := j.Placement
		if err := s.cluster.Release(j.ID); err != nil {
			panic("scheduler: defrag release failed: " + err.Error())
		}
		p, ok := s.cluster.FindMigrationTarget(j.GPUs, fromSet)
		if !ok {
			// No strictly better spot; put the job back where it was.
			if err := s.cluster.Allocate(j.ID, old); err != nil {
				panic("scheduler: defrag restore failed: " + err.Error())
			}
			continue
		}
		if err := s.cluster.Allocate(j.ID, p); err != nil {
			panic("scheduler: defrag move failed: " + err.Error())
		}
		j.Placement = p
		s.stats.Migrations++
		events = append(events, MigrationEvent{Job: j, From: from, To: p.ServerIDs()})
	}
	return events
}

// The single-server best-fit target search lives on the cluster now
// (cluster.FindMigrationTarget): the free-count bucket bitmaps give the
// former full-inventory scan's "smallest free >= gpus, partly used, ties by
// lowest ID" answer as a first-set-bit walk.
