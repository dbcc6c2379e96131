// Package fabric models the HPE Slingshot interconnect (§3.2): 64-port
// Rosetta switches arranged as a three-hop dragonfly, the global-link
// taper between groups, and minimal and Valiant non-minimal routing. A
// Clos (non-blocking fat tree) builder is included for the Summit
// comparisons in Figure 6.
package fabric

import (
	"fmt"

	"frontiersim/internal/units"
)

// GroupClass distinguishes the three dragonfly group types on Frontier.
type GroupClass int

// Group classes.
const (
	ComputeGroup GroupClass = iota // 32 water-cooled blade switches
	IOGroup                        // 16 top-of-rack switches
	MgmtGroup                      // 16 top-of-rack switches
)

// String implements fmt.Stringer.
func (c GroupClass) String() string {
	switch c {
	case ComputeGroup:
		return "compute"
	case IOGroup:
		return "io"
	case MgmtGroup:
		return "mgmt"
	}
	return fmt.Sprintf("GroupClass(%d)", int(c))
}

// Config describes a dragonfly fabric. Counts of global links between
// group pairs are expressed in links (each QSFP-DD "bundle" cable carries
// two 200 Gb/s links).
type Config struct {
	// Name labels the fabric in reports.
	Name string
	// ComputeGroups, IOGroups, MgmtGroups are group counts by class
	// (74, 5, 1 on Frontier).
	ComputeGroups, IOGroups, MgmtGroups int
	// ComputeGroupSwitches is the switch count per compute group (32).
	ComputeGroupSwitches int
	// TORGroupSwitches is the switch count per I/O or management group (16).
	TORGroupSwitches int
	// EndpointsPerSwitch is the number of L0 ports wired to endpoints (16).
	EndpointsPerSwitch int
	// NICsPerNode maps endpoints to compute nodes (4 on Bard Peak).
	NICsPerNode int
	// LinkRate is the per-direction line rate of every link (25 GB/s).
	LinkRate units.BytesPerSecond
	// EndpointEfficiency is the achievable fraction of line rate at an
	// endpoint (protocol and DMA overheads). The paper's best-case
	// measured per-NIC bandwidth of 17.5 GB/s out of 25 gives 0.70.
	EndpointEfficiency float64
	// Global link counts between group pairs by class pair.
	ComputeComputeLinks int // 4 on Frontier (bundle size two)
	ComputeIOLinks      int // 2 (one bundle)
	ComputeMgmtLinks    int // 2 (one bundle)
	IOIOLinks           int // 10 (five bundles)
	IOMgmtLinks         int // 6 (three bundles)
	// Latency parameters.
	SwitchLatency   units.Seconds // per switch traversal
	EndpointLatency units.Seconds // NIC + software per endpoint
}

// Validate checks structural invariants: the counts, the link physics,
// the port budget of the 64-port switch (16 L0 + 32 L1 + 16 L2 on
// compute blades, one pool of 64 on top-of-rack switches), and nodes
// whole within a group. Machine specs defer to it, so messages spell
// fields as the spec's JSON does.
func (c Config) Validate() error {
	if c.ComputeGroups < 1 {
		return fmt.Errorf("fabric: dragonfly needs at least one compute group (computeGroups %d)", c.ComputeGroups)
	}
	if need := min(c.ComputeGroups, 2); c.ComputeGroupSwitches < need {
		return fmt.Errorf("fabric: %d compute groups need computeGroupSwitches of at least %d (got %d)",
			c.ComputeGroups, need, c.ComputeGroupSwitches)
	}
	if c.EndpointsPerSwitch < 1 {
		return fmt.Errorf("fabric: dragonfly needs endpointsPerSwitch of at least 1 (got %d)", c.EndpointsPerSwitch)
	}
	if c.IOGroups < 0 || c.MgmtGroups < 0 {
		return fmt.Errorf("fabric: ioGroups and mgmtGroups must not be negative (got %d, %d)", c.IOGroups, c.MgmtGroups)
	}
	if c.IOGroups+c.MgmtGroups > 0 && c.TORGroupSwitches < 1 {
		return fmt.Errorf("fabric: I/O and management groups need torGroupSwitches of at least 1 (got %d)", c.TORGroupSwitches)
	}
	// Bundle counts size the global-link table; a negative one would
	// make its per-pair offsets decrease.
	if min(c.ComputeComputeLinks, c.ComputeIOLinks, c.ComputeMgmtLinks, c.IOIOLinks, c.IOMgmtLinks) < 0 {
		return fmt.Errorf("fabric: global link counts (computeComputeLinks, computeIOLinks, computeMgmtLinks, ioIOLinks, ioMgmtLinks) must not be negative")
	}
	if c.ComputeGroups > 1 && c.ComputeComputeLinks < 1 {
		return fmt.Errorf("fabric: %d compute groups need computeComputeLinks of at least 1 (got %d), or no route joins them",
			c.ComputeGroups, c.ComputeComputeLinks)
	}
	if err := checkEndpoints(c.NICsPerNode, c.LinkRate, c.EndpointEfficiency); err != nil {
		return err
	}
	// L1: full connectivity within a group needs switches-1 ports.
	if c.ComputeGroupSwitches-1 > 32 {
		return fmt.Errorf("fabric: computeGroupSwitches %d needs %d L1 ports per switch, over the 32 of a Rosetta switch",
			c.ComputeGroupSwitches, c.ComputeGroupSwitches-1)
	}
	if c.EndpointsPerSwitch > 16 {
		return fmt.Errorf("fabric: endpointsPerSwitch %d exceeds the 16 L0 ports of a Rosetta switch", c.EndpointsPerSwitch)
	}
	// L2: global ports per group must cover all peer groups.
	needed := (c.ComputeGroups-1)*c.ComputeComputeLinks +
		c.IOGroups*c.ComputeIOLinks + c.MgmtGroups*c.ComputeMgmtLinks
	if avail := c.ComputeGroupSwitches * 16; needed > avail {
		return fmt.Errorf("fabric: compute group needs %d global links (computeComputeLinks, computeIOLinks, computeMgmtLinks to its peer groups) but has %d L2 ports",
			needed, avail)
	}
	// Top-of-rack switches share their 64 ports among endpoints, the
	// group's intra links and its global links. globalLinksBetween
	// cables management pairs like I/O–management ones.
	torPorts := c.TORGroupSwitches * (64 - c.EndpointsPerSwitch - (c.TORGroupSwitches - 1))
	if need := c.ComputeGroups*c.ComputeIOLinks + (c.IOGroups-1)*c.IOIOLinks + c.MgmtGroups*c.IOMgmtLinks; c.IOGroups > 0 && need > torPorts {
		return fmt.Errorf("fabric: an I/O group needs %d global links (computeIOLinks, ioIOLinks, ioMgmtLinks to its peer groups) but its torGroupSwitches have %d ports left after endpoints and intra-group links",
			need, max(torPorts, 0))
	}
	if need := c.ComputeGroups*c.ComputeMgmtLinks + (c.IOGroups+c.MgmtGroups-1)*c.IOMgmtLinks; c.MgmtGroups > 0 && need > torPorts {
		return fmt.Errorf("fabric: a management group needs %d global links (computeMgmtLinks, ioMgmtLinks to its peer groups) but its torGroupSwitches have %d ports left after endpoints and intra-group links",
			need, max(torPorts, 0))
	}
	// A node's NICs sit in one group. With a remainder some nodes would
	// straddle two groups, and ComputeNodes would exceed ComputeGroups ×
	// NodesPerGroup, by which per-group node tables are sized.
	if ep := c.ComputeGroupSwitches * c.EndpointsPerSwitch; ep%c.NICsPerNode != 0 {
		return fmt.Errorf("fabric: nicsPerNode %d does not divide a compute group's %d endpoints (computeGroupSwitches × endpointsPerSwitch)",
			c.NICsPerNode, ep)
	}
	return nil
}

// checkEndpoints holds the endpoint wiring and link physics every
// topology shares.
func checkEndpoints(nicsPerNode int, rate units.BytesPerSecond, efficiency float64) error {
	if nicsPerNode < 1 {
		return fmt.Errorf("fabric: nicsPerNode must be positive (got %d)", nicsPerNode)
	}
	if rate <= 0 {
		return fmt.Errorf("fabric: link rate must be positive (got %v)", rate)
	}
	if efficiency <= 0 || efficiency > 1 {
		return fmt.Errorf("fabric: endpoint efficiency %v out of (0,1]", efficiency)
	}
	return nil
}

// TotalGroups returns the group count.
func (c Config) TotalGroups() int { return c.ComputeGroups + c.IOGroups + c.MgmtGroups }

// ComputeEndpoints returns the number of compute NIC endpoints.
func (c Config) ComputeEndpoints() int {
	return c.ComputeGroups * c.ComputeGroupSwitches * c.EndpointsPerSwitch
}

// ComputeNodes returns the number of compute nodes served by the fabric.
func (c Config) ComputeNodes() int { return c.ComputeEndpoints() / c.NICsPerNode }

// NodesPerGroup returns compute nodes per dragonfly group (128 on Frontier).
func (c Config) NodesPerGroup() int {
	return c.ComputeGroupSwitches * c.EndpointsPerSwitch / c.NICsPerNode
}

// GroupInjectionBandwidth returns per-group injection bandwidth
// (12.8 TB/s on Frontier: 512 endpoints × 25 GB/s).
func (c Config) GroupInjectionBandwidth() units.BytesPerSecond {
	return units.BytesPerSecond(c.ComputeGroupSwitches*c.EndpointsPerSwitch) * c.LinkRate
}

// GroupGlobalBandwidth returns per-group global bandwidth to other
// compute groups (7.3 TB/s on Frontier: 73 × 4 × 25 GB/s).
func (c Config) GroupGlobalBandwidth() units.BytesPerSecond {
	return units.BytesPerSecond((c.ComputeGroups-1)*c.ComputeComputeLinks) * c.LinkRate
}

// Taper returns the global-to-injection bandwidth ratio (~57% on Frontier).
func (c Config) Taper() float64 {
	return float64(c.GroupGlobalBandwidth()) / float64(c.GroupInjectionBandwidth())
}

// TotalGlobalBandwidth returns the aggregate bandwidth between compute
// groups, one direction (270.1 TB/s on Frontier).
func (c Config) TotalGlobalBandwidth() units.BytesPerSecond {
	pairs := c.ComputeGroups * (c.ComputeGroups - 1) / 2
	return units.BytesPerSecond(pairs*c.ComputeComputeLinks) * c.LinkRate
}
