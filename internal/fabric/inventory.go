package fabric

import (
	"fmt"
)

// Inventory counts the physical plant of a fabric: switches, switch
// ports in use, and cables by type. The paper's §4.2.2 rationale for the
// dragonfly is exactly this accounting: "A dragonfly has ~50% less ports
// and cables compared to a Clos and is similar to a 2:1 over-subscribed
// fat-tree."
type Inventory struct {
	Switches int
	// PortsInUse counts switch ports carrying links (endpoint, intra,
	// global) — each bidirectional connection uses one port per side.
	PortsInUse int
	// EndpointCables connect NICs to switches; IntraCables are the
	// short intra-group (backplane/copper) switch-switch runs;
	// OpticalCables are the long inter-group AOCs, counted as QSFP-DD
	// bundles of two links where applicable.
	EndpointCables int
	IntraCables    int
	OpticalCables  int
}

// InterSwitchCables counts switch-to-switch cabling of both kinds — the
// plant a topology choice actually changes.
func (inv Inventory) InterSwitchCables() int { return inv.IntraCables + inv.OpticalCables }

// String summarises the inventory.
func (inv Inventory) String() string {
	return fmt.Sprintf("%d switches, %d ports, %d endpoint + %d intra + %d optical cables",
		inv.Switches, inv.PortsInUse, inv.EndpointCables, inv.IntraCables, inv.OpticalCables)
}

// CountInventory audits the built fabric.
func (f *Fabric) CountInventory() Inventory {
	inv := Inventory{Switches: f.NumSwitches}
	if f.Kind == FatTree {
		inv.Switches-- // the virtual core stands in for the real spine
	}
	globals := 0
	for _, l := range f.Links {
		switch l.Kind {
		case Injection:
			inv.PortsInUse++ // endpoint side is a NIC, not a switch port
			inv.EndpointCables++
		case Intra:
			inv.PortsInUse++ // one port per directed link = 2 per cable
			if l.From < l.To {
				inv.IntraCables++
			}
		case Global:
			inv.PortsInUse++
			if l.From < l.To {
				globals++
			}
		case Uplink:
			inv.PortsInUse += 2
			inv.IntraCables++
		}
	}
	// Two 200 Gb/s global links share one QSFP-DD AOC bundle.
	inv.OpticalCables = (globals + 1) / 2
	return inv
}

// EquivalentClosInventory sizes a non-blocking three-level fat tree for
// the same endpoint count out of the same 64-port switch ASIC — the
// alternative HPE traded away. Leaf switches host 32 endpoints and 32
// uplinks; spine tiers provide full bisection (a folded Clos needs
// ~endpoints*(2*levels-1)/64... here: 3-level fat tree on 64-port
// switches supports up to 64^3/4 endpoints with 5*N/64 switches and
// 2*N inter-switch cables).
func EquivalentClosInventory(endpoints int) Inventory {
	const radix = 64
	leaves := ceilDiv(endpoints, radix/2)
	// Middle and top tiers of a folded 3-level Clos: each tier carries
	// the same bisection as the leaf uplinks.
	mid := leaves
	top := ceilDiv(leaves, 2)
	switches := leaves + mid + top
	// Cables: endpoint links + leaf->mid + mid->top (each a full
	// radix/2 bundle per switch).
	interSwitch := leaves*(radix/2) + mid*(radix/2)
	return Inventory{
		Switches:       switches,
		PortsInUse:     endpoints + 3*interSwitch, // both sides of inter-switch + endpoint ports
		EndpointCables: endpoints,
		OpticalCables:  interSwitch,
	}
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// DragonflyVsClos reports the dragonfly's switch-port and inter-switch
// cable counts as fractions of the equivalent Clos — the "~50% less
// ports and cables" of §4.2.2.
func (f *Fabric) DragonflyVsClos() (portFraction, cableFraction float64) {
	df := f.CountInventory()
	clos := EquivalentClosInventory(f.NumEndpoints)
	return float64(df.PortsInUse) / float64(clos.PortsInUse),
		float64(df.InterSwitchCables()) / float64(clos.InterSwitchCables())
}
