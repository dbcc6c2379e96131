package fabric

import (
	"fmt"

	"frontiersim/internal/units"
)

// ClosConfig describes a non-blocking fat tree, the topology Summit used
// before HPE traded it for the dragonfly (§4.2.2). The fabric is modelled
// as leaf switches joined by a perfect core: with full bisection
// bandwidth, contention exists only at endpoints, which is exactly the
// behaviour the paper's Summit mpiGraph histogram shows.
type ClosConfig struct {
	Name               string
	Leaves             int
	EndpointsPerLeaf   int
	NICsPerNode        int
	LinkRate           units.BytesPerSecond
	EndpointEfficiency float64
	SwitchLatency      units.Seconds
	EndpointLatency    units.Seconds
}

// NewClos builds a fat-tree fabric. Switch ids 0..Leaves-1 are leaves;
// switch id Leaves is the idealised core (a folded multi-stage network
// collapsed into one non-blocking stage).
func NewClos(cfg ClosConfig) (*Fabric, error) {
	if cfg.Leaves < 1 || cfg.EndpointsPerLeaf < 1 || cfg.NICsPerNode < 1 {
		return nil, fmt.Errorf("fabric: clos needs leaves, endpoints and NICs per node")
	}
	if cfg.EndpointEfficiency <= 0 || cfg.EndpointEfficiency > 1 {
		return nil, fmt.Errorf("fabric: endpoint efficiency %v out of (0,1]", cfg.EndpointEfficiency)
	}
	f := &Fabric{
		Cfg: Config{
			Name:                 cfg.Name,
			ComputeGroups:        1,
			ComputeGroupSwitches: cfg.Leaves,
			EndpointsPerSwitch:   cfg.EndpointsPerLeaf,
			NICsPerNode:          cfg.NICsPerNode,
			LinkRate:             cfg.LinkRate,
			EndpointEfficiency:   cfg.EndpointEfficiency,
			SwitchLatency:        cfg.SwitchLatency,
			EndpointLatency:      cfg.EndpointLatency,
		},
		Kind: FatTree,
	}
	f.NumSwitches = cfg.Leaves + 1 // the last one is the core
	f.SwitchGroup = make([]int, f.NumSwitches)
	leafIDs := make([]int, cfg.Leaves)
	for s := range leafIDs {
		leafIDs[s] = s
	}
	f.groupClass = []GroupClass{ComputeGroup}
	f.groupSwitches = [][]int{leafIDs}
	f.initRoutingIndex()
	core := cfg.Leaves
	epCap := float64(cfg.LinkRate) * cfg.EndpointEfficiency
	trunk := float64(cfg.LinkRate) * float64(cfg.EndpointsPerLeaf) // non-blocking
	endpoints := cfg.Leaves * cfg.EndpointsPerLeaf
	f.allocLinks(2*cfg.Leaves+2*endpoints, endpoints)
	f.uplink = make([]int, cfg.Leaves)
	f.downlink = make([]int, cfg.Leaves)
	for s := 0; s < cfg.Leaves; s++ {
		f.uplink[s] = f.addLink(Uplink, s, core, trunk)
		f.downlink[s] = f.addLink(Downlink, core, s, trunk)
		for e := 0; e < cfg.EndpointsPerLeaf; e++ {
			f.cableEndpoint(s*cfg.EndpointsPerLeaf+e, s, epCap)
		}
	}
	f.indexNodeGroups()
	return f, nil
}
