// Package cluster models the physical GPU cluster that Philly runs on:
// racks (which are RDMA domains), servers belonging to a hardware SKU, and
// individual GPUs with exclusive job assignment. The model captures exactly
// the state the paper's scheduler consults — per-GPU allocation, per-server
// and per-rack occupancy, and the network hierarchy (intra-server PCIe /
// NVLink, intra-rack 100 Gbps InfiniBand, cross-rack Ethernet).
//
// Event-sharding classification: the physical cluster is shared by every
// virtual cluster — placements from different VCs land on the same racks
// and compete for the same free GPUs — so ALL mutations here (Allocate,
// Release) and all occupancy-dependent queries (FindPlacement, Occupancy,
// the free-count bucket indexes) are global state in the sense of
// internal/simulation's per-VC sharding: they may only run in global
// events at window barriers, never on a VC's event lane. This is the "minimum
// cross-VC interaction" that bounds the conservative lookahead — two VCs
// interact exactly when the scheduler consults or mutates this package.
package cluster

import (
	"fmt"
	"sort"
)

// SKU describes a server hardware class. The paper's cluster has two SKUs:
// 2-GPU servers and 8-GPU servers; RDMA domains are homogeneous in SKU.
type SKU struct {
	// Name identifies the SKU in traces and logs.
	Name string
	// GPUsPerServer is the GPU count per machine (2 or 8 in the paper).
	GPUsPerServer int
	// CPUCoresPerServer and MemoryGBPerServer size the host resources that
	// are allocated proportionally to requested GPUs (paper §2.3).
	CPUCoresPerServer int
	MemoryGBPerServer int
}

// Standard SKUs matching the paper's description (§2.4).
var (
	SKU8GPU = SKU{Name: "sku-8gpu", GPUsPerServer: 8, CPUCoresPerServer: 48, MemoryGBPerServer: 512}
	SKU2GPU = SKU{Name: "sku-2gpu", GPUsPerServer: 2, CPUCoresPerServer: 24, MemoryGBPerServer: 224}
)

// JobID identifies a job. Zero means "no job".
type JobID int64

// GPU is a single device. GPUs are monolithic: at most one job owns a GPU
// at a time (the paper's clusters never share a GPU between jobs).
type GPU struct {
	// Index is the device ordinal within its server.
	Index int
	// Owner is the job currently allocated this GPU, or 0 if free.
	Owner JobID
}

// Server is one machine.
type Server struct {
	// ID is unique across the cluster.
	ID int
	// Rack is the index of the rack (RDMA domain) containing the server.
	Rack int
	// SKU is the hardware class.
	SKU SKU
	// GPUs are the devices on this server.
	GPUs []GPU

	free int // cached count of free GPUs
	// local is the server's index within its rack (ascending ID order),
	// which is also its bit position in the rack's free-count buckets.
	local int
	// bucketFree is the free count the cluster's bucket indexes currently
	// reflect for this server; it trails free within Allocate/Release and is
	// re-synced before they return.
	bucketFree int
	// jobs tracks how many GPUs each job holds on this server, to detect
	// colocation and compute per-job spread. At most a handful of jobs share
	// a server, so a small slice beats a map: no hashing on the allocation
	// path and deterministic iteration for free.
	jobs []jobShare
}

// jobShare is one job's GPU count on a server.
type jobShare struct {
	id   JobID
	gpus int
}

// FreeGPUs returns the number of unallocated GPUs on the server.
func (s *Server) FreeGPUs() int { return s.free }

// UsedGPUs returns the number of allocated GPUs on the server.
func (s *Server) UsedGPUs() int { return len(s.GPUs) - s.free }

// Jobs returns the IDs of jobs holding at least one GPU on this server, in
// ascending order (deterministic iteration for the simulator).
func (s *Server) Jobs() []JobID {
	ids := make([]JobID, 0, len(s.jobs))
	for _, js := range s.jobs {
		ids = append(ids, js.id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// JobGPUs returns how many GPUs the given job holds on this server.
func (s *Server) JobGPUs(id JobID) int {
	for _, js := range s.jobs {
		if js.id == id {
			return js.gpus
		}
	}
	return 0
}

// addJobGPU charges one GPU on this server to the job.
func (s *Server) addJobGPU(id JobID) {
	for i := range s.jobs {
		if s.jobs[i].id == id {
			s.jobs[i].gpus++
			return
		}
	}
	s.jobs = append(s.jobs, jobShare{id: id, gpus: 1})
}

// removeJobGPU releases one GPU held by the job.
func (s *Server) removeJobGPU(id JobID) {
	for i := range s.jobs {
		if s.jobs[i].id == id {
			s.jobs[i].gpus--
			if s.jobs[i].gpus == 0 {
				s.jobs = append(s.jobs[:i], s.jobs[i+1:]...)
			}
			return
		}
	}
}

// Colocated reports whether more than one distinct job holds GPUs here.
func (s *Server) Colocated() bool { return len(s.jobs) > 1 }

// Rack is an RDMA domain: a set of servers connected by 100 Gbps InfiniBand.
// Cross-rack traffic goes over Ethernet (paper §2.2).
type Rack struct {
	// ID is the rack index.
	ID int
	// Servers in this rack. Homogeneous SKU.
	Servers []*Server
	// SKU is the hardware class of every server in the rack.
	SKU SKU

	// free is the rack's total free GPUs, maintained incrementally.
	free int
	// buckets[f] is a bitmap (over local server index) of servers with
	// exactly f free GPUs, f in [0, SKU.GPUsPerServer]. It yields "servers
	// by free descending, ties by ID" as a bucket walk with no sorting.
	buckets [][]uint64
}

// FreeGPUs returns the total free GPUs in the rack.
func (r *Rack) FreeGPUs() int { return r.free }

// TotalGPUs returns the rack's GPU capacity.
func (r *Rack) TotalGPUs() int { return len(r.Servers) * r.SKU.GPUsPerServer }

// Config describes a cluster to build.
type Config struct {
	// Racks lists rack specs in order. Rack IDs are assigned sequentially.
	Racks []RackConfig
}

// RackConfig describes one rack.
type RackConfig struct {
	// Servers is the number of machines in the rack.
	Servers int
	// SKU is the hardware class for every server in the rack.
	SKU SKU
}

// DefaultConfig returns a topology resembling the paper's deployment scale:
// mostly 8-GPU servers with some 2-GPU racks, "hundreds of machines
// accounting for thousands of GPUs".
func DefaultConfig() Config {
	racks := make([]RackConfig, 0, 14)
	// 12 racks of 16 x 8-GPU servers = 1536 GPUs.
	for i := 0; i < 12; i++ {
		racks = append(racks, RackConfig{Servers: 16, SKU: SKU8GPU})
	}
	// 2 racks of 24 x 2-GPU servers = 96 GPUs.
	for i := 0; i < 2; i++ {
		racks = append(racks, RackConfig{Servers: 24, SKU: SKU2GPU})
	}
	return Config{Racks: racks}
}

// Cluster is the full machine inventory plus allocation state.
type Cluster struct {
	Racks   []*Rack
	servers []*Server // flat index by server ID

	totalGPUs int
	freeGPUs  int

	// maxPerServer is the largest per-server GPU count, bounding the
	// free-count bucket range.
	maxPerServer int
	// freeBuckets[f] is a bitmap over global server IDs of servers with
	// exactly f free GPUs; best-fit queries are first-set-bit scans.
	freeBuckets [][]uint64
	// emptyServers counts servers with zero allocated GPUs, maintained on
	// alloc/free so fragmentation sampling is O(1) instead of a full walk.
	emptyServers int
	// srvUsed[id] is the allocated-GPU count per server and srvCap[id] the
	// capacity — flat arrays for the per-tick telemetry walk.
	srvUsed []int32
	srvCap  []int32

	// picks and rackScratch are the placement search's reused scratch: the
	// candidate (server, take) picks and the rack visit order (see
	// placement.go).
	picks       []pick
	rackScratch []*Rack

	// searches counts FindPlacement calls (see SearchStats).
	searches int

	// placements tracks the live placement of each job for release and for
	// locality/interference queries.
	placements map[JobID]Placement
}

// New builds a cluster from cfg. It returns an error for empty or invalid
// configurations.
func New(cfg Config) (*Cluster, error) {
	if len(cfg.Racks) == 0 {
		return nil, fmt.Errorf("cluster: no racks configured")
	}
	c := &Cluster{placements: make(map[JobID]Placement)}
	serverID := 0
	for rackID, rc := range cfg.Racks {
		if rc.Servers <= 0 {
			return nil, fmt.Errorf("cluster: rack %d has %d servers", rackID, rc.Servers)
		}
		if rc.SKU.GPUsPerServer <= 0 {
			return nil, fmt.Errorf("cluster: rack %d SKU %q has %d GPUs per server", rackID, rc.SKU.Name, rc.SKU.GPUsPerServer)
		}
		rack := &Rack{ID: rackID, SKU: rc.SKU}
		for i := 0; i < rc.Servers; i++ {
			srv := &Server{
				ID:         serverID,
				Rack:       rackID,
				SKU:        rc.SKU,
				GPUs:       make([]GPU, rc.SKU.GPUsPerServer),
				free:       rc.SKU.GPUsPerServer,
				bucketFree: rc.SKU.GPUsPerServer,
				local:      i,
			}
			for g := range srv.GPUs {
				srv.GPUs[g].Index = g
			}
			rack.Servers = append(rack.Servers, srv)
			c.servers = append(c.servers, srv)
			c.totalGPUs += rc.SKU.GPUsPerServer
			serverID++
		}
		c.Racks = append(c.Racks, rack)
	}
	c.freeGPUs = c.totalGPUs
	c.buildIndexes()
	return c, nil
}

// buildIndexes initializes the incremental free-count bucket bitmaps and
// telemetry arrays from a freshly built (fully free) inventory.
func (c *Cluster) buildIndexes() {
	for _, r := range c.Racks {
		if r.SKU.GPUsPerServer > c.maxPerServer {
			c.maxPerServer = r.SKU.GPUsPerServer
		}
	}
	words := (len(c.servers) + 63) / 64
	c.freeBuckets = make([][]uint64, c.maxPerServer+1)
	for f := range c.freeBuckets {
		c.freeBuckets[f] = make([]uint64, words)
	}
	c.srvUsed = make([]int32, len(c.servers))
	c.srvCap = make([]int32, len(c.servers))
	for _, r := range c.Racks {
		rackWords := (len(r.Servers) + 63) / 64
		r.buckets = make([][]uint64, r.SKU.GPUsPerServer+1)
		for f := range r.buckets {
			r.buckets[f] = make([]uint64, rackWords)
		}
		r.free = len(r.Servers) * r.SKU.GPUsPerServer
		for _, s := range r.Servers {
			setBit(r.buckets[s.free], s.local)
			setBit(c.freeBuckets[s.free], s.ID)
			c.srvCap[s.ID] = int32(len(s.GPUs))
		}
	}
	c.emptyServers = len(c.servers)
}

// syncServerIndexes moves a server whose free count changed into its new
// bucket and updates the rack/cluster aggregates. Callers batch it once per
// touched server after applying all of a placement's slots.
func (c *Cluster) syncServerIndexes(s *Server) {
	old, nw := s.bucketFree, s.free
	if old == nw {
		return
	}
	r := c.Racks[s.Rack]
	clearBit(r.buckets[old], s.local)
	setBit(r.buckets[nw], s.local)
	clearBit(c.freeBuckets[old], s.ID)
	setBit(c.freeBuckets[nw], s.ID)
	r.free += nw - old
	c.srvUsed[s.ID] = int32(len(s.GPUs) - nw)
	if cap := len(s.GPUs); old == cap {
		c.emptyServers--
	} else if nw == cap {
		c.emptyServers++
	}
	s.bucketFree = nw
}

func setBit(words []uint64, i int)   { words[i/64] |= 1 << (uint(i) % 64) }
func clearBit(words []uint64, i int) { words[i/64] &^= 1 << (uint(i) % 64) }

// MustNew is New but panics on error, for statically known configs.
func MustNew(cfg Config) *Cluster {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// TotalGPUs returns the cluster's GPU capacity.
func (c *Cluster) TotalGPUs() int { return c.totalGPUs }

// FreeGPUs returns the number of unallocated GPUs cluster-wide.
func (c *Cluster) FreeGPUs() int { return c.freeGPUs }

// UsedGPUs returns the number of allocated GPUs cluster-wide.
func (c *Cluster) UsedGPUs() int { return c.totalGPUs - c.freeGPUs }

// Occupancy returns the fraction of GPUs allocated, in [0, 1].
func (c *Cluster) Occupancy() float64 {
	if c.totalGPUs == 0 {
		return 0
	}
	return float64(c.UsedGPUs()) / float64(c.totalGPUs)
}

// Servers returns the flat server list indexed by server ID.
func (c *Cluster) Servers() []*Server { return c.servers }

// Server returns the server with the given ID, or nil.
func (c *Cluster) Server(id int) *Server {
	if id < 0 || id >= len(c.servers) {
		return nil
	}
	return c.servers[id]
}

// NumServers returns the machine count.
func (c *Cluster) NumServers() int { return len(c.servers) }

// EmptyServers returns the count of servers with zero allocated GPUs. The
// paper uses this to quantify fragmentation ("when two thirds of GPUs are
// in use, under 4.5% of servers are completely empty"). The count is
// maintained incrementally on alloc/free, so sampling it per telemetry tick
// costs O(1) instead of a full server walk.
func (c *Cluster) EmptyServers() int { return c.emptyServers }

// UsedBySrv returns per-server allocated-GPU counts indexed by server ID.
// The slice is a live, incrementally maintained view — callers must treat it
// as read-only and not retain it across allocations.
func (c *Cluster) UsedBySrv() []int32 { return c.srvUsed }

// CapBySrv returns per-server GPU capacities indexed by server ID, read-only.
func (c *Cluster) CapBySrv() []int32 { return c.srvCap }

// Placement records which GPU slots a job occupies.
type Placement struct {
	// Slots lists the allocated (server, GPU index) pairs.
	Slots []Slot
}

// Slot is one allocated GPU.
type Slot struct {
	Server int
	GPU    int
}

// NumGPUs returns the number of allocated GPUs.
func (p Placement) NumGPUs() int { return len(p.Slots) }

// ServerIDs returns the distinct servers used, ascending. Placements span a
// handful of servers, so dedup is a linear scan rather than a map.
func (p Placement) ServerIDs() []int {
	ids := make([]int, 0, 8)
	for _, s := range p.Slots {
		ids = appendDistinct(ids, s.Server)
	}
	sort.Ints(ids)
	return ids
}

// NumServers returns the number of distinct servers used. Unlike ServerIDs
// it does not allocate: it counts distinct IDs through a small stack buffer
// (placement construction groups slots by server, so the distinct count is
// small even for wide gangs).
func (p Placement) NumServers() int {
	var buf [16]int
	seen := buf[:0]
	for _, s := range p.Slots {
		seen = appendDistinct(seen, s.Server)
	}
	return len(seen)
}

// appendDistinct appends v unless already present.
func appendDistinct(ids []int, v int) []int {
	for _, id := range ids {
		if id == v {
			return ids
		}
	}
	return append(ids, v)
}

// RackIDs returns the distinct racks used, ascending, resolved against c.
func (p Placement) RackIDs(c *Cluster) []int {
	ids := make([]int, 0, 4)
	for _, s := range p.Slots {
		ids = appendDistinct(ids, c.Server(s.Server).Rack)
	}
	sort.Ints(ids)
	return ids
}

// CrossRack reports whether the placement spans more than one RDMA domain.
func (p Placement) CrossRack(c *Cluster) bool {
	if len(p.Slots) == 0 {
		return false
	}
	first := c.Server(p.Slots[0].Server).Rack
	for _, s := range p.Slots[1:] {
		if c.Server(s.Server).Rack != first {
			return true
		}
	}
	return false
}

// Allocate assigns the placement's GPU slots to job. Every slot must be
// free; on error nothing is allocated. Allocating for a job that already
// holds GPUs is an error (jobs are gang-scheduled in one shot).
func (c *Cluster) Allocate(job JobID, p Placement) error {
	if job == 0 {
		return fmt.Errorf("cluster: job ID 0 is reserved for 'no job'")
	}
	if len(p.Slots) == 0 {
		return fmt.Errorf("cluster: empty placement for job %d", job)
	}
	if _, exists := c.placements[job]; exists {
		return fmt.Errorf("cluster: job %d already has an allocation", job)
	}
	// Validate first so failure leaves no partial state. Duplicate detection
	// is a quadratic scan for the gang widths the simulator produces (it
	// beats a map allocation well past any realistic width) with a map
	// fallback for pathological placements.
	for i, sl := range p.Slots {
		srv := c.Server(sl.Server)
		if srv == nil {
			return fmt.Errorf("cluster: placement references unknown server %d", sl.Server)
		}
		if sl.GPU < 0 || sl.GPU >= len(srv.GPUs) {
			return fmt.Errorf("cluster: placement references GPU %d on server %d (has %d)", sl.GPU, sl.Server, len(srv.GPUs))
		}
		if srv.GPUs[sl.GPU].Owner != 0 {
			return fmt.Errorf("cluster: GPU %d on server %d already owned by job %d", sl.GPU, sl.Server, srv.GPUs[sl.GPU].Owner)
		}
		if len(p.Slots) <= 128 {
			for _, prev := range p.Slots[:i] {
				if prev == sl {
					return fmt.Errorf("cluster: duplicate slot %+v in placement", sl)
				}
			}
		}
	}
	if len(p.Slots) > 128 {
		seen := make(map[Slot]bool, len(p.Slots))
		for _, sl := range p.Slots {
			if seen[sl] {
				return fmt.Errorf("cluster: duplicate slot %+v in placement", sl)
			}
			seen[sl] = true
		}
	}
	for _, sl := range p.Slots {
		srv := c.servers[sl.Server]
		srv.GPUs[sl.GPU].Owner = job
		srv.free--
		srv.addJobGPU(job)
	}
	for _, sl := range p.Slots {
		c.syncServerIndexes(c.servers[sl.Server])
	}
	c.freeGPUs -= len(p.Slots)
	// Store a defensive copy.
	cp := Placement{Slots: append([]Slot(nil), p.Slots...)}
	c.placements[job] = cp
	return nil
}

// Release frees all GPUs held by job. Releasing a job with no allocation is
// an error (double release indicates a scheduler bug).
func (c *Cluster) Release(job JobID) error {
	p, ok := c.placements[job]
	if !ok {
		return fmt.Errorf("cluster: job %d has no allocation to release", job)
	}
	for _, sl := range p.Slots {
		srv := c.servers[sl.Server]
		srv.GPUs[sl.GPU].Owner = 0
		srv.free++
		srv.removeJobGPU(job)
	}
	for _, sl := range p.Slots {
		c.syncServerIndexes(c.servers[sl.Server])
	}
	c.freeGPUs += len(p.Slots)
	delete(c.placements, job)
	return nil
}

// PlacementOf returns the live placement for job and whether one exists.
func (c *Cluster) PlacementOf(job JobID) (Placement, bool) {
	p, ok := c.placements[job]
	return p, ok
}

// RunningJobs returns IDs of all jobs holding GPUs, ascending.
func (c *Cluster) RunningJobs() []JobID {
	ids := make([]JobID, 0, len(c.placements))
	for id := range c.placements {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// SharesServers reports whether job shares at least one server with another
// job — the paper's colocation condition for interference.
func (c *Cluster) SharesServers(job JobID) bool {
	p, ok := c.placements[job]
	if !ok {
		return false
	}
	for _, sl := range p.Slots {
		if len(c.servers[sl.Server].jobs) > 1 {
			return true
		}
	}
	return false
}
