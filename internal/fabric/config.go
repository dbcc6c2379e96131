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

// Validate checks structural invariants: the port budget of the 64-port
// switch (16 L0 + 32 L1 + 16 L2 on compute blades) must not be exceeded.
func (c Config) Validate() error {
	if c.ComputeGroups < 1 {
		return fmt.Errorf("fabric: need at least one compute group")
	}
	if c.ComputeGroupSwitches < 2 && c.ComputeGroups > 1 {
		return fmt.Errorf("fabric: need at least two switches per group")
	}
	if c.EndpointsPerSwitch < 1 {
		return fmt.Errorf("fabric: need endpoints")
	}
	if c.ComputeGroupSwitches < 1 {
		return fmt.Errorf("fabric: need at least one switch per compute group")
	}
	if c.IOGroups < 0 || c.MgmtGroups < 0 {
		return fmt.Errorf("fabric: negative group count (io %d, mgmt %d)", c.IOGroups, c.MgmtGroups)
	}
	if c.IOGroups+c.MgmtGroups > 0 && c.TORGroupSwitches < 1 {
		return fmt.Errorf("fabric: need at least one switch per I/O or management group (got %d)", c.TORGroupSwitches)
	}
	// Bundle counts size the global-link table; a negative one would
	// make its per-pair offsets decrease.
	if min(c.ComputeComputeLinks, c.ComputeIOLinks, c.ComputeMgmtLinks, c.IOIOLinks, c.IOMgmtLinks) < 0 {
		return fmt.Errorf("fabric: negative global link count")
	}
	if c.ComputeGroups > 1 && c.ComputeComputeLinks < 1 {
		return fmt.Errorf("fabric: %d compute groups need ComputeComputeLinks of at least 1 (got %d), or no route joins them",
			c.ComputeGroups, c.ComputeComputeLinks)
	}
	if c.NICsPerNode < 1 {
		return fmt.Errorf("fabric: need at least one NIC per node")
	}
	if c.EndpointEfficiency <= 0 || c.EndpointEfficiency > 1 {
		return fmt.Errorf("fabric: endpoint efficiency %v out of (0,1]", c.EndpointEfficiency)
	}
	// L1: full connectivity within a group needs switches-1 ports.
	if c.ComputeGroupSwitches-1 > 32 {
		return fmt.Errorf("fabric: %d switches per group exceeds 32 L1 ports", c.ComputeGroupSwitches)
	}
	if c.EndpointsPerSwitch > 16 {
		return fmt.Errorf("fabric: %d endpoints per switch exceeds 16 L0 ports", c.EndpointsPerSwitch)
	}
	// L2: global ports per group must cover all peer groups.
	needed := (c.ComputeGroups-1)*c.ComputeComputeLinks +
		c.IOGroups*c.ComputeIOLinks + c.MgmtGroups*c.ComputeMgmtLinks
	avail := c.ComputeGroupSwitches * 16
	if needed > avail {
		return fmt.Errorf("fabric: compute group needs %d global links but has %d L2 ports", needed, avail)
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
