// Package power models Frontier's electrical budget (§5.1): per-node
// component draw, fabric and storage overheads, and the Green500-style
// efficiency metric. Frontier's debut HPL run delivered 1.102 EF at
// 21.1 MW — 52 GF/W, beating the 2008 exascale report's 50 GF/W target
// and its 20 MW/EF ceiling.
package power

import (
	"frontiersim/internal/units"
)

// NodePower is the per-node draw under load.
type NodePower struct {
	CPU    units.Watts // Trento socket
	GPUs   units.Watts // four MI250X OAMs
	Memory units.Watts // eight DDR4 DIMMs
	NIC    units.Watts // four Cassini NICs
	NVMe   units.Watts // two M.2 drives
	Misc   units.Watts // board, VRs, fans share
}

// Total sums the node components.
func (n NodePower) Total() units.Watts {
	return n.CPU + n.GPUs + n.Memory + n.NIC + n.NVMe + n.Misc
}

// Machine is the system-level power model.
type Machine struct {
	Nodes       int
	NodeHPL     NodePower // draw during HPL
	NodeIdle    NodePower
	Switches    int
	SwitchPower units.Watts
	// StorageOverhead covers Orion and service nodes.
	StorageOverhead units.Watts
	// CoolingFactor is the in-machine cooling overhead multiplier
	// (warm-water cooling keeps it near 1).
	CoolingFactor float64
}

// SystemHPL is the machine draw during an HPL run on n nodes (the rest
// of the machine idles).
func (m Machine) SystemHPL(activeNodes int) units.Watts {
	if activeNodes > m.Nodes {
		activeNodes = m.Nodes
	}
	nodes := units.Watts(activeNodes)*m.NodeHPL.Total() +
		units.Watts(m.Nodes-activeNodes)*m.NodeIdle.Total()
	fabric := units.Watts(m.Switches) * m.SwitchPower
	return units.Watts(float64(nodes+fabric+m.StorageOverhead) * m.CoolingFactor)
}

// Efficiency returns the Green500 metric in FLOP/s per watt.
func Efficiency(flops units.Flops, w units.Watts) float64 {
	if w <= 0 {
		return 0
	}
	return float64(flops) / float64(w)
}

// MWPerExaflop converts a sustained rate and draw to the 2008 report's
// MW/EF figure of merit (their ceiling was 20 MW/EF).
func MWPerExaflop(flops units.Flops, w units.Watts) float64 {
	if flops <= 0 {
		return 0
	}
	return float64(w) / 1e6 / (float64(flops) / 1e18)
}
