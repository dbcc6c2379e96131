package fabric

import (
	"fmt"
	"strings"
	"testing"
)

// portUsage is one switch's port budget, counted from the built links:
// the Rosetta ASIC has 64 ports, which HPE splits 16 L0 (endpoints) +
// 32 L1 (intra-group) + 16 L2 (global) on compute blades. The audit
// checks the builder against the arithmetic Config.Validate enforces.
type portUsage struct {
	Switch                    int
	L0, L1, L2                int
	L0Limit, L1Limit, L2Limit int
}

// total returns ports in use.
func (p portUsage) total() int { return p.L0 + p.L1 + p.L2 }

// withinBudget reports whether the switch respects the 64-port ASIC and
// the per-tier split.
func (p portUsage) withinBudget() bool {
	return p.L0 <= p.L0Limit && p.L1 <= p.L1Limit && p.L2 <= p.L2Limit && p.total() <= 64
}

// portBudget audits one switch's physical port usage against the ASIC.
func portBudget(f *Fabric, sw int) portUsage {
	u := portUsage{Switch: sw, L0Limit: 16, L1Limit: 32, L2Limit: 16}
	if f.Kind == FatTree {
		u.L0Limit, u.L1Limit, u.L2Limit = 64, 64, 64
	}
	s := int32(sw)
	for _, l := range f.Links {
		switch l.Kind {
		case Injection:
			if l.To == s {
				u.L0++
			}
		case Ejection:
			// The ejection direction shares the L0 port counted above.
		case Intra:
			if l.From == s {
				u.L1++
			}
		case Global:
			if l.From == s {
				u.L2++
			}
		case Uplink, Downlink:
			if l.From == s || l.To == s {
				u.L1++
			}
		}
	}
	return u
}

// auditPorts checks every switch of f against the ASIC budget.
func auditPorts(f *Fabric) error {
	for sw := 0; sw < f.NumSwitches; sw++ {
		if u := portBudget(f, sw); !u.withinBudget() {
			return fmt.Errorf("switch %d exceeds port budget: L0 %d/%d, L1 %d/%d, L2 %d/%d",
				sw, u.L0, u.L0Limit, u.L1, u.L1Limit, u.L2, u.L2Limit)
		}
	}
	return nil
}

func TestPortBudgetFrontier(t *testing.T) {
	f, err := NewDragonfly(FrontierConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := auditPorts(f); err != nil {
		t.Fatal(err)
	}
	// A compute-blade switch: 16 endpoints, 31 group-mates, and its
	// share of 304 global links over 32 switches (9-10).
	u := portBudget(f, 0)
	if u.L0 != 16 {
		t.Errorf("L0 = %d, want 16", u.L0)
	}
	if u.L1 != 31 {
		t.Errorf("L1 = %d, want 31", u.L1)
	}
	if u.L2 < 8 || u.L2 > 12 {
		t.Errorf("L2 = %d, want ~9-10 (304 global links over 32 switches)", u.L2)
	}
	if u.total() > 64 {
		t.Errorf("total ports = %d, exceeds the 64-port ASIC", u.total())
	}
}

func TestPortBudgetRejectsOverbuild(t *testing.T) {
	// 3 links per compute pair x 200 groups would blow the L2 budget;
	// Validate already rejects it, and the audit agrees on a legal but
	// tight configuration.
	cfg := ScaledConfig(6, 8, 4)
	f, err := NewDragonfly(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := auditPorts(f); err != nil {
		t.Fatal(err)
	}
}

// A top-of-rack switch spends its 64 ports on endpoints, its
// group-mates and global links. Frontier's I/O group needs 194 global
// links of the 16 × (64 − 16 − 15) = 528 its switches have left;
// computeIOLinks 12 asks 74 × 12 + 4 × 10 + 6 = 934, and Validate must
// refuse to build it, naming the spec's fields.
func TestPortBudgetTopOfRackGroups(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
		want   []string
	}{
		{"I/O bundles", func(c *Config) { c.ComputeIOLinks = 12 }, []string{"I/O group", "934", "computeIOLinks", "528"}},
		{"management bundles", func(c *Config) { c.ComputeMgmtLinks = 12 }, []string{"management group", "918", "computeMgmtLinks"}},
		{"intra links alone", func(c *Config) { c.TORGroupSwitches = 60 }, []string{"torGroupSwitches", "0 ports left"}},
	} {
		cfg := FrontierConfig()
		tc.mutate(&cfg)
		err := cfg.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, cfg)
			continue
		}
		for _, w := range tc.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%s: error %q does not mention %q", tc.name, err, w)
			}
		}
	}
}

// §4.2.2: "A dragonfly has ~50% less ports and cables compared to a
// Clos" — reproduced by direct inventory of the built fabric against an
// equivalently sized non-blocking fat tree.
func TestDragonflyHalvesPortsAndCables(t *testing.T) {
	f, err := NewDragonfly(FrontierConfig())
	if err != nil {
		t.Fatal(err)
	}
	ports, cables := f.DragonflyVsClos()
	if ports < 0.40 || ports > 0.60 {
		t.Errorf("port fraction = %.2f, want ~0.5", ports)
	}
	if cables < 0.40 || cables > 0.65 {
		t.Errorf("inter-switch cable fraction = %.2f, want ~0.5", cables)
	}
	inv := f.CountInventory()
	if inv.EndpointCables != 39424 {
		t.Errorf("endpoint cables = %d, want 39424", inv.EndpointCables)
	}
	// 74 compute groups x C(32,2) + 6 service groups x C(16,2) intra.
	wantIntra := 74*(32*31/2) + 6*(16*15/2)
	if inv.IntraCables != wantIntra {
		t.Errorf("intra cables = %d, want %d", inv.IntraCables, wantIntra)
	}
	// ~10.8k global links pair into ~5.9k QSFP-DD bundles.
	if inv.OpticalCables < 5500 || inv.OpticalCables > 6500 {
		t.Errorf("optical bundles = %d, want ~5.9k", inv.OpticalCables)
	}
	if inv.String() == "" {
		t.Error("inventory formatting broken")
	}
}

// §4.2.2's worst-case arithmetic: all traffic on global links divides
// the 270.1 TB/s among 37,888 endpoints, halved again by non-minimal
// routing — ~3.6 GB/s, the floor of the Figure 6 histogram.
func TestGlobalOnlyFloorArithmetic(t *testing.T) {
	c := FrontierConfig()
	// Directed capacity is 2x; each Valiant byte burns 2 directed hops:
	// the factors cancel, leaving global/endpoints/2.
	floor := float64(c.TotalGlobalBandwidth()) / float64(c.ComputeEndpoints()) / 2
	if floor < 3.3e9 || floor > 3.9e9 {
		t.Errorf("global-only floor = %.2f GB/s, want ~3.6", floor/1e9)
	}
}

// §4.2.2's other comparison: the dragonfly "is similar to a 2:1
// over-subscribed fat-tree" — its 57% global-to-injection taper sits at
// the same effective bisection as a fat tree provisioned with half its
// uplinks.
func TestTaperLikeTwoToOneFatTree(t *testing.T) {
	c := FrontierConfig()
	// A 2:1 oversubscribed fat tree delivers 50% of injection bandwidth
	// through its core; Frontier's dragonfly delivers 57% through its
	// global links — "similar", slightly richer.
	taper := c.Taper()
	if taper < 0.5 || taper > 0.65 {
		t.Errorf("taper = %.2f, want between a 2:1 fat tree (0.5) and full provisioning", taper)
	}
	// And unlike the fat tree, non-minimal routing halves the usable
	// share under adversarial traffic — the cost Figure 6 shows.
	adversarial := taper / 2
	if adversarial > 0.33 {
		t.Errorf("worst-case effective taper = %.2f, should fall below a 2:1 fat tree's 0.5", adversarial)
	}
}
