// Package node models the Bard Peak compute node (Cray EX235a, §3.1): one
// Trento CPU, four MI250X OAM packages (eight GCDs), the InfinityFabric
// link graph that joins them in a twisted ladder (Figure 2), and the four
// Slingshot Cassini NICs that hang off the OAM packages rather than the
// CPU — one of the design's chief innovations.
package node

import (
	"fmt"

	"frontiersim/internal/cpu"
	"frontiersim/internal/gpu"
	"frontiersim/internal/units"
)

// LinkClass identifies the kind of InfinityFabric connection.
type LinkClass int

// Link classes within a Bard Peak node.
const (
	// IntraOAM joins the two GCDs in one MI250X package: four xGMI-3
	// links, 200+200 GB/s ("north/south" within the package).
	IntraOAM LinkClass = iota
	// InterOAMNS is a north/south connection between GCDs in two
	// different OAM packages: two xGMI-3 links, 100+100 GB/s.
	InterOAMNS
	// InterOAMEW is an east/west connection: a single xGMI-3 link,
	// 50+50 GB/s.
	InterOAMEW
	// HostLink joins a CCD to its paired GCD: xGMI-2, 36+36 GB/s.
	HostLink
)

// String implements fmt.Stringer.
func (c LinkClass) String() string {
	switch c {
	case IntraOAM:
		return "intra-OAM(4x)"
	case InterOAMNS:
		return "north-south(2x)"
	case InterOAMEW:
		return "east-west(1x)"
	case HostLink:
		return "host-xGMI2"
	}
	return fmt.Sprintf("LinkClass(%d)", int(c))
}

// xGMI link rates (§3.1.3). N+N denotes a bidirectional link; the values
// here are per direction.
const (
	XGMI3LinkRate = 50 * units.GBps // per xGMI-3 link
	XGMI2LinkRate = 36 * units.GBps // CPU↔GCD xGMI-2 connection
)

// GCDLink is an edge in the node's GPU link graph.
type GCDLink struct {
	A, B  int // GCD ids
	Links int // number of xGMI-3 links bonded on this edge
	Class LinkClass
}

// Rate returns the theoretical one-direction bandwidth of the edge.
func (l GCDLink) Rate() units.BytesPerSecond {
	return XGMI3LinkRate * units.BytesPerSecond(l.Links)
}

// Node is one Bard Peak compute node.
type Node struct {
	// ID is the node's index within the machine.
	ID int
	// CPU is the Trento socket.
	CPU *cpu.Trento
	// GCDs are the eight graphics compute dies (OAM i holds GCDs 2i and
	// 2i+1).
	GCDs [8]*gpu.GCD
	// Links is the twisted-ladder link graph between GCDs,
	// reconstructed from Figure 2: each GCD has its OAM partner on four
	// links, one north/south neighbour in another OAM on two links, and
	// one east/west neighbour on a single link.
	Links []GCDLink
	// NICs are the four Cassini NICs; NICs[i] is attached to OAM i
	// (specifically GCD 2i), not to the CPU.
	NICs [4]NIC
}

// NIC is one Slingshot Cassini adapter (§3.1.4): 200 Gb/s HPC Ethernet
// with OS bypass.
type NIC struct {
	// AttachedGCD is the GCD whose fabric port hosts the NIC.
	AttachedGCD int
	// Rate is the line rate per direction (25 GB/s).
	Rate units.BytesPerSecond
}

// New builds a Bard Peak node.
func New(id int) *Node {
	n := &Node{ID: id, CPU: cpu.NewTrento()}
	for i := range n.GCDs {
		n.GCDs[i] = gpu.NewMI250XGCD()
	}
	n.Links = twistedLadder()
	for i := range n.NICs {
		n.NICs[i] = NIC{AttachedGCD: 2 * i, Rate: 25 * units.GBps}
	}
	return n
}

// twistedLadder returns the Figure 2 GCD adjacency. GCD pairs (0,1),
// (2,3), (4,5), (6,7) share an OAM. Across OAMs, the ladder is twisted:
// each GCD reaches one GCD in the adjacent OAM over two links
// (north/south) and one GCD in the opposite OAM over a single link
// (east/west). Every GCD thus uses 4+2+1 = 7 GCD ports plus one host
// port, the MI250X's full complement of eight InfinityFabric ports.
func twistedLadder() []GCDLink {
	// The graph is a Möbius ladder on the ring 0-2-4-6-1-3-5-7 with the
	// OAM pairs as the antipodal rungs; the twist gives the 8-GCD graph
	// diameter 2, so any GCD reaches any other in at most one forward.
	links := []GCDLink{
		// Intra-OAM rungs: 4 links each.
		{A: 0, B: 1, Links: 4, Class: IntraOAM},
		{A: 2, B: 3, Links: 4, Class: IntraOAM},
		{A: 4, B: 5, Links: 4, Class: IntraOAM},
		{A: 6, B: 7, Links: 4, Class: IntraOAM},
		// North/south between OAM pairs: 2 links each.
		{A: 0, B: 2, Links: 2, Class: InterOAMNS},
		{A: 4, B: 6, Links: 2, Class: InterOAMNS},
		{A: 1, B: 3, Links: 2, Class: InterOAMNS},
		{A: 5, B: 7, Links: 2, Class: InterOAMNS},
		// East/west singles closing the twisted ladder.
		{A: 2, B: 4, Links: 1, Class: InterOAMEW},
		{A: 1, B: 6, Links: 1, Class: InterOAMEW},
		{A: 3, B: 5, Links: 1, Class: InterOAMEW},
		{A: 0, B: 7, Links: 1, Class: InterOAMEW},
	}
	return links
}

// LinkBetween returns the direct edge between two GCDs, if any.
func (n *Node) LinkBetween(a, b int) (GCDLink, bool) {
	for _, l := range n.Links {
		if (l.A == a && l.B == b) || (l.A == b && l.B == a) {
			return l, true
		}
	}
	return GCDLink{}, false
}

// PeakFP64 returns the node's aggregate FP64 vector peak: CPU plus eight
// GCDs (~194 TF/s; 9,472 nodes gives the ~2 EF of Table 1).
func (n *Node) PeakFP64() units.Flops {
	f := n.CPU.PeakFlops()
	for _, g := range n.GCDs {
		f += g.VectorPeak[gpu.FP64]
	}
	return f
}

// HBMCapacity returns aggregate node HBM (512 GiB).
func (n *Node) HBMCapacity() units.Bytes {
	var b units.Bytes
	for _, g := range n.GCDs {
		b += g.HBM.Capacity()
	}
	return b
}

// HBMPeak returns aggregate node HBM bandwidth (13.08 TB/s).
func (n *Node) HBMPeak() units.BytesPerSecond {
	var b units.BytesPerSecond
	for _, g := range n.GCDs {
		b += g.HBM.Peak()
	}
	return b
}

// DDRCapacity returns node DDR4 capacity (512 GiB).
func (n *Node) DDRCapacity() units.Bytes { return n.CPU.DRAM.Capacity() }

// InjectionBandwidth returns the node's aggregate NIC injection rate
// (100 GB/s).
func (n *Node) InjectionBandwidth() units.BytesPerSecond {
	var b units.BytesPerSecond
	for _, nic := range n.NICs {
		b += nic.Rate
	}
	return b
}

// String summarises the node.
func (n *Node) String() string {
	return fmt.Sprintf("Bard Peak node %d: %s; 4x MI250X (8 GCDs), %s HBM @ %s; 4x Cassini @ %s",
		n.ID, n.CPU, n.HBMCapacity().Binary(), n.HBMPeak(), n.NICs[0].Rate)
}
