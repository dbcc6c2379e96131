package experiments

import (
	"errors"
	"testing"

	"frontiersim/internal/core"
	"frontiersim/internal/machine"
)

// FuzzSpecRuns holds Validate to its contract: every machine it accepts
// simulates. It mutates the topology of Frontier's spec; when Validate
// accepts the result, the fabric and the system must build, and a quick
// run of a cheap experiment set must return a table or an error wrapping
// machine.ErrNotInSpec: never another error, never a panic. Each draw is
// capped (8 groups of a class, 40 switches, 20 endpoints per switch, 6
// NICs per node, bundles of 0–12 links; a node-count override, 0 to
// derive it) so one input runs in well under a second. An accepted
// override must also fit the fabric the scheduler allocates from. The
// seeds are the shapes that once passed Validate and then failed: nodes
// straddling groups, a taper arm over its L2 ports, a bundle over the L2
// ports of the spec itself, and an override above the fabric's nodes.
func FuzzSpecRuns(f *testing.F) {
	// Frontier's own shape at 8 compute groups, then with 3 NICs per node
	// (which panicked in the scheduler campaigns).
	f.Add(uint8(8), uint8(5), uint8(1), uint8(32), uint8(16), uint8(16), uint8(4), uint8(4), uint8(2), uint8(2), uint8(10), uint8(6), uint16(0))
	f.Add(uint8(8), uint8(5), uint8(1), uint8(32), uint8(16), uint8(16), uint8(3), uint8(4), uint8(2), uint8(2), uint8(10), uint8(6), uint16(0))
	// 6 groups × 2 switches × 12 endpoints, 6 NICs: ablation-taper's
	// bundle-6 arm needs 42 global links of 32 L2 ports.
	f.Add(uint8(6), uint8(5), uint8(1), uint8(2), uint8(16), uint8(12), uint8(6), uint8(4), uint8(2), uint8(2), uint8(10), uint8(6), uint16(0))
	// computeComputeLinks 8 on 4 switches: 68 global links, 64 L2 ports.
	f.Add(uint8(8), uint8(5), uint8(1), uint8(4), uint8(16), uint8(16), uint8(4), uint8(8), uint8(2), uint8(2), uint8(10), uint8(6), uint16(0))
	// 4 compute groups carry 512 nodes, where nodes: 1000 made the
	// campaigns schedule 512 while HPL, power and the HPCM counted 1,000.
	f.Add(uint8(4), uint8(5), uint8(1), uint8(32), uint8(16), uint8(16), uint8(4), uint8(4), uint8(2), uint8(2), uint8(10), uint8(6), uint16(1000))
	f.Fuzz(func(t *testing.T, groups, io, mgmt, switches, tor, endpoints, nics, cc, cio, cm, ioio, iom uint8, nodes uint16) {
		spec := machine.Frontier()
		tp := &spec.Topology
		tp.ComputeGroups, tp.IOGroups, tp.MgmtGroups = int(groups%9), int(io%9), int(mgmt%9)
		tp.ComputeGroupSwitches, tp.TORGroupSwitches = int(switches%41), int(tor%41)
		tp.EndpointsPerSwitch, tp.NICsPerNode = int(endpoints%21), int(nics%7)
		tp.ComputeComputeLinks, tp.ComputeIOLinks, tp.ComputeMgmtLinks = int(cc%13), int(cio%13), int(cm%13)
		tp.IOIOLinks, tp.IOMgmtLinks = int(ioio%13), int(iom%13)
		tp.Nodes = int(nodes)
		if spec.Validate() != nil {
			return
		}
		fab, err := spec.NewFabric()
		if err != nil {
			t.Fatalf("accepted spec does not build its fabric: %v\n%+v", err, *tp)
		}
		if spec.Nodes() > fab.Cfg.ComputeNodes() {
			t.Fatalf("accepted spec counts %d nodes on a fabric of %d\n%+v", spec.Nodes(), fab.Cfg.ComputeNodes(), *tp)
		}
		if _, err := core.New(spec, 42); err != nil {
			t.Fatalf("accepted spec does not build its system: %v\n%+v", err, *tp)
		}
		for _, id := range []string{"table1", "ablation-taper", "ablation-placement", "ext-inventory", "ext-campaign"} {
			out, err := captureRecovered(id, Options{Quick: true, Seed: 42, Machine: &spec})
			switch {
			case err != nil && !errors.Is(err, machine.ErrNotInSpec):
				t.Errorf("%s: err = %v, want a table or an error wrapping machine.ErrNotInSpec\n%+v", id, err, *tp)
			case err == nil && len(out) == 0:
				t.Errorf("%s: empty table\n%+v", id, *tp)
			}
		}
	})
}
