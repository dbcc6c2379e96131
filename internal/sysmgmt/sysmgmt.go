// Package sysmgmt models Frontier's system management plane (§3.4.2):
// HPE's Performance Cluster Manager (HPCM) with one admin node and
// twenty-one leader nodes providing Gluster-backed utility storage and
// reliable, scalable boot; transparent leader failover via CTDB virtual
// IPs; twelve DVS nodes caching the center-wide NFS home areas; the
// Slurm controller pair; and the periodic hardware-discovery daemon that
// notices chassis changes without human intervention.
package sysmgmt

import (
	"fmt"

	"frontiersim/internal/sim"
	"frontiersim/internal/units"
)

// Role classifies a service node.
type Role int

// Service node roles.
const (
	Admin Role = iota
	Leader
	DVS
	SlurmController
	FabricManagerHost
)

// String implements fmt.Stringer.
func (r Role) String() string {
	switch r {
	case Admin:
		return "admin"
	case Leader:
		return "leader"
	case DVS:
		return "dvs"
	case SlurmController:
		return "slurmctl"
	case FabricManagerHost:
		return "fabric-mgr"
	}
	return fmt.Sprintf("Role(%d)", int(r))
}

// ServiceNode is one management-plane node.
type ServiceNode struct {
	ID      int
	Role    Role
	Healthy bool
	// VIP is the CTDB virtual IP a leader answers on. After failover
	// another leader answers the same VIP, which is what makes the
	// failure transparent to clients.
	VIP int
}

// HPCM is the cluster manager instance.
type HPCM struct {
	K *sim.Kernel

	AdminNode *ServiceNode
	Leaders   []*ServiceNode
	DVSNodes  []*ServiceNode
	SlurmCtls []*ServiceNode

	// vipOwner maps each leader VIP to the service node currently
	// answering it (the home leader, or its CTDB takeover peer).
	vipOwner map[int]*ServiceNode
	// clientVIP maps each compute node to the leader VIP that serves
	// its boot, logging, and image traffic.
	clientVIP map[int]int

	// Inventory is the hardware database the discovery daemon keeps.
	Inventory map[string]string
	// DiscoverInterval is the chassis-poll period.
	DiscoverInterval units.Seconds

	// Boot parameters.
	ImageSize     units.Bytes
	LeaderImageBW units.BytesPerSecond
	NodeBootFixed units.Seconds
	BootWaves     int // nodes served concurrently per leader per wave

	// Stats.
	Failovers   int
	Discoveries int

	discoverEvt  sim.Event
	discoverPoll func() map[string]string
}

// Config sizes the management plane (Frontier: 1 admin, 21 leaders, 12
// DVS nodes, 2 Slurm controllers — derived by the machine-spec layer).
type Config struct {
	ComputeNodes int
	Leaders      int
	DVSNodes     int
	SlurmCtls    int
}

// New builds the management plane and assigns every compute node to a
// leader VIP round-robin.
func New(k *sim.Kernel, cfg Config) (*HPCM, error) {
	if cfg.Leaders < 2 {
		return nil, fmt.Errorf("sysmgmt: CTDB failover needs at least two leaders")
	}
	if cfg.ComputeNodes < 1 {
		return nil, fmt.Errorf("sysmgmt: need compute nodes")
	}
	h := &HPCM{
		K:                k,
		AdminNode:        &ServiceNode{ID: 0, Role: Admin, Healthy: true},
		vipOwner:         map[int]*ServiceNode{},
		clientVIP:        map[int]int{},
		Inventory:        map[string]string{},
		DiscoverInterval: 60,
		ImageSize:        2 * units.GiB,
		LeaderImageBW:    5 * units.GBps,
		NodeBootFixed:    90,
		BootWaves:        64,
	}
	id := 1
	for i := 0; i < cfg.Leaders; i++ {
		n := &ServiceNode{ID: id, Role: Leader, Healthy: true, VIP: i}
		h.Leaders = append(h.Leaders, n)
		h.vipOwner[i] = n
		id++
	}
	for i := 0; i < cfg.DVSNodes; i++ {
		h.DVSNodes = append(h.DVSNodes, &ServiceNode{ID: id, Role: DVS, Healthy: true})
		id++
	}
	for i := 0; i < cfg.SlurmCtls; i++ {
		h.SlurmCtls = append(h.SlurmCtls, &ServiceNode{ID: id, Role: SlurmController, Healthy: true})
		id++
	}
	for n := 0; n < cfg.ComputeNodes; n++ {
		h.clientVIP[n] = n % cfg.Leaders
	}
	return h, nil
}

// LeaderFor returns the service node currently answering the VIP that
// serves compute node n.
func (h *HPCM) LeaderFor(n int) (*ServiceNode, error) {
	vip, ok := h.clientVIP[n]
	if !ok {
		return nil, fmt.Errorf("sysmgmt: unknown compute node %d", n)
	}
	owner := h.vipOwner[vip]
	if owner == nil || !owner.Healthy {
		return nil, fmt.Errorf("sysmgmt: VIP %d has no healthy owner", vip)
	}
	return owner, nil
}

// FailLeader takes a leader down; CTDB moves its VIPs to the healthy
// leader with the fewest VIPs. Clients notice nothing.
func (h *HPCM) FailLeader(id int) error {
	var victim *ServiceNode
	for _, l := range h.Leaders {
		if l.ID == id {
			victim = l
			break
		}
	}
	if victim == nil {
		return fmt.Errorf("sysmgmt: no leader with id %d", id)
	}
	if !victim.Healthy {
		return nil
	}
	victim.Healthy = false
	for vip, owner := range h.vipOwner {
		if owner != victim {
			continue
		}
		takeover := h.leastLoadedHealthyLeader()
		if takeover == nil {
			return fmt.Errorf("sysmgmt: no healthy leader left for VIP %d", vip)
		}
		h.vipOwner[vip] = takeover
		h.Failovers++
	}
	return nil
}

// RestoreLeader returns a repaired leader to service and gives it its
// home VIP back.
func (h *HPCM) RestoreLeader(id int) {
	for _, l := range h.Leaders {
		if l.ID == id {
			l.Healthy = true
			h.vipOwner[l.VIP] = l
			return
		}
	}
}

func (h *HPCM) leastLoadedHealthyLeader() *ServiceNode {
	load := map[int]int{}
	for _, owner := range h.vipOwner {
		load[owner.ID]++
	}
	var best *ServiceNode
	for _, l := range h.Leaders {
		if !l.Healthy {
			continue
		}
		if best == nil || load[l.ID] < load[best.ID] ||
			(load[l.ID] == load[best.ID] && l.ID < best.ID) {
			best = l
		}
	}
	return best
}

// HealthyLeaders counts leaders in service.
func (h *HPCM) HealthyLeaders() int {
	n := 0
	for _, l := range h.Leaders {
		if l.Healthy {
			n++
		}
	}
	return n
}

// BootTime estimates a reliable, scalable boot of n compute nodes: each
// healthy leader streams the node image to its clients in waves.
func (h *HPCM) BootTime(n int) units.Seconds {
	leaders := h.HealthyLeaders()
	if leaders == 0 || n <= 0 {
		return 0
	}
	perLeader := (n + leaders - 1) / leaders
	waves := (perLeader + h.BootWaves - 1) / h.BootWaves
	perWave := units.Seconds(float64(h.ImageSize) * float64(h.BootWaves) / float64(h.LeaderImageBW))
	return h.NodeBootFixed + units.Seconds(waves)*perWave
}

// RecordHardware ingests a discovery observation: the daemon notices
// additions and maintenance swaps and updates the database without
// human intervention.
func (h *HPCM) RecordHardware(component, state string) {
	if h.Inventory[component] != state {
		h.Inventory[component] = state
		h.Discoveries++
	}
}

// discoveryTick is the closure-free sweep body: the HPCM itself is the
// event arg, so the periodic rescheduling allocates nothing per tick.
func discoveryTick(arg any) {
	h := arg.(*HPCM)
	for c, s := range h.discoverPoll() {
		h.RecordHardware(c, s)
	}
	h.discoverEvt = h.K.AfterCall(h.DiscoverInterval, discoveryTick, h)
}

// StartDiscovery schedules the periodic chassis sweep; poll is invoked
// each interval and returns observations to record.
func (h *HPCM) StartDiscovery(poll func() map[string]string) {
	h.discoverPoll = poll
	h.discoverEvt = h.K.AfterCall(h.DiscoverInterval, discoveryTick, h)
}

// StopDiscovery cancels the sweep.
func (h *HPCM) StopDiscovery() {
	h.discoverEvt.Cancel()
	h.discoverEvt = sim.Event{}
	h.discoverPoll = nil
}

// String summarises the plane.
func (h *HPCM) String() string {
	return fmt.Sprintf("hpcm: 1 admin, %d leaders (%d healthy), %d dvs, %d slurmctl; %d clients",
		len(h.Leaders), h.HealthyLeaders(), len(h.DVSNodes), len(h.SlurmCtls), len(h.clientVIP))
}
