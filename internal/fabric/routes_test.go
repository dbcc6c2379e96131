package fabric

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

func TestTableForwardingMatchesMinimal(t *testing.T) {
	f := small(t)
	tables := f.BuildAllRoutingTables()
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		src := rng.Intn(f.NumEndpoints)
		dst := rng.Intn(f.NumEndpoints)
		if src == dst {
			continue
		}
		fwd, err := f.ForwardMinimal(tables, src, dst)
		if err != nil {
			t.Fatalf("%d->%d: %v", src, dst, err)
		}
		min, err := f.MinimalPath(src, dst, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Both are minimal-class routes (2..5 links); the choice among
		// parallel global links can shift a path by one intra hop on
		// either side.
		if len(fwd) < 2 || len(fwd) > 5 {
			t.Fatalf("%d->%d: table path %d hops outside [2,5]", src, dst, len(fwd))
		}
		if diff := len(fwd) - len(min); diff < -2 || diff > 1 {
			t.Fatalf("%d->%d: table path %d vs minimal %d", src, dst, len(fwd), len(min))
		}
	}
}

// Property: table-driven forwarding is loop-free and lands at the right
// endpoint for all pairs.
func TestTableForwardingProperty(t *testing.T) {
	f := small(t)
	tables := f.BuildAllRoutingTables()
	check := func(a, b uint16) bool {
		src := int(a) % f.NumEndpoints
		dst := int(b) % f.NumEndpoints
		if src == dst {
			return true
		}
		path, err := f.ForwardMinimal(tables, src, dst)
		if err != nil {
			return false
		}
		last := f.Links[path[len(path)-1]]
		return last.Kind == Ejection && last.To == dst
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestTablesRerouteAroundFailures(t *testing.T) {
	f := small(t)
	m := NewManager(f, 10)
	// Kill every global link that leaves endpoint 0's switch toward
	// group 1; the manager's next sweep must reroute via group-mates.
	sw := f.endpointSwitch[0]
	killed := 0
	for _, id := range f.GlobalLinks(0, 1) {
		if f.Links[id].From == sw {
			f.FailLink(id)
			killed++
		}
	}
	if m.Sweep() == 0 && killed > 0 {
		t.Fatal("sweep missed the failures")
	}
	path, err := f.ForwardMinimal(m.Tables(), 0, 40)
	if err != nil {
		t.Fatalf("reroute failed: %v", err)
	}
	for _, id := range path {
		if !f.Links[id].Up {
			t.Error("rerouted path uses a down link")
		}
	}
}

func TestStaleTablesDetectDownLinks(t *testing.T) {
	f := small(t)
	tables := f.BuildAllRoutingTables()
	// Fail links *after* the tables were pushed: forwarding must refuse
	// to use them (the window between failure and the next sweep).
	for _, id := range f.GlobalLinks(0, 1) {
		f.FailLink(id)
	}
	failedAny := false
	for ep := 0; ep < 32; ep++ {
		if _, err := f.ForwardMinimal(tables, ep, 40); err != nil {
			failedAny = true
		}
	}
	if !failedAny {
		t.Error("stale tables over dead links should surface errors")
	}
}

func TestClosTablesEmpty(t *testing.T) {
	f, err := NewClos(SummitClosConfig())
	if err != nil {
		t.Fatal(err)
	}
	rt := f.BuildRoutingTable(0)
	if len(rt.LocalNext) != 0 || len(rt.GlobalNext) != 0 {
		t.Error("clos leaves forward to the core; tables should be empty")
	}
}

func TestManagerPushesTablesOnChange(t *testing.T) {
	f := small(t)
	m := NewManager(f, 10)
	if _, ok := m.Tables()[5]; !ok {
		t.Fatal("healthy switch 5 has no table before the failure")
	}
	f.FailSwitch(5)
	m.Sweep()
	tables := m.Tables()
	if _, ok := tables[5]; ok {
		t.Error("failed switch should not receive a table")
	}
	// Surviving switches in the same group must have dropped their
	// LocalNext entries toward the dead switch.
	g := f.SwitchGroup[5]
	for _, sw := range f.groupSwitches[g] {
		if sw == 5 {
			continue
		}
		if _, ok := tables[sw].LocalNext[5]; ok {
			t.Errorf("switch %d still routes to dead switch 5", sw)
		}
	}
}

// Tables are built on first read, from the state the last sweep saw: a
// link that fails after that sweep stays in them until the next sweep
// observes the failure, exactly as in tables pushed eagerly at sweep time.
func TestManagerTablesReflectLastSweep(t *testing.T) {
	f := small(t)
	m := NewManager(f, 10)
	pushed := f.BuildAllRoutingTables()
	dead := f.GlobalLinks(0, 1)[0]
	sw := f.Links[dead].From
	f.FailLink(dead)

	tables := m.Tables()
	if !slices.Contains(tables[sw].GlobalNext[1], dead) {
		t.Error("link failed after the last sweep is missing from the tables before the next sweep")
	}
	if !reflect.DeepEqual(tables, pushed) {
		t.Error("tables read after a failure differ from those pushed at construction")
	}

	m.Sweep()
	tables = m.Tables()
	if slices.Contains(tables[sw].GlobalNext[1], dead) {
		t.Error("failed link still in the tables after the sweep that saw it")
	}
	if !reflect.DeepEqual(tables, f.BuildAllRoutingTables()) {
		t.Error("tables after a sweep differ from an eager build at sweep time")
	}
}

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
	for _, l := range f.Links {
		switch l.Kind {
		case Injection:
			if l.To == sw {
				u.L0++
			}
		case Ejection:
			// The ejection direction shares the L0 port counted above.
		case Intra:
			if l.From == sw {
				u.L1++
			}
		case Global:
			if l.From == sw {
				u.L2++
			}
		case Uplink, Downlink:
			if l.From == sw || l.To == sw {
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
	perEndpoint := float64(c.TotalGlobalBandwidth()) / float64(c.ComputeEndpoints()) / 2 * 2
	// Directed capacity is 2x; each Valiant byte burns 2 directed hops:
	// the factors cancel, leaving global/endpoints/2.
	floor := float64(c.TotalGlobalBandwidth()) / float64(c.ComputeEndpoints()) / 2
	if floor < 3.3e9 || floor > 3.9e9 {
		t.Errorf("global-only floor = %.2f GB/s, want ~3.6", floor/1e9)
	}
	_ = perEndpoint
}

// Property: after any single switch failure, every endpoint pair not
// touching the dead switch still routes adaptively — the fault tolerance
// the fabric manager's sweeps maintain.
func TestSingleSwitchFailureTolerance(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 5; trial++ {
		f := small(t)
		dead := rng.Intn(f.NumSwitches)
		f.FailSwitch(dead)
		for pair := 0; pair < 100; pair++ {
			src := rng.Intn(f.NumEndpoints)
			dst := rng.Intn(f.NumEndpoints)
			if src == dst || f.endpointSwitch[src] == dead || f.endpointSwitch[dst] == dead {
				continue
			}
			ps, err := f.AdaptivePaths(src, dst, 3, rng)
			if err != nil || len(ps.Paths) == 0 {
				t.Fatalf("switch %d down: %d->%d unroutable: %v", dead, src, dst, err)
			}
			for _, p := range ps.Paths {
				for _, id := range p {
					if !f.Links[id].Up {
						t.Fatal("adaptive path uses a dead link")
					}
				}
			}
		}
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
