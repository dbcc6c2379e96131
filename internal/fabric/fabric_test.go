package fabric

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"frontiersim/internal/sim"
	"frontiersim/internal/units"
)

func small(t *testing.T) *Fabric {
	t.Helper()
	f, err := NewDragonfly(ScaledConfig(6, 8, 4))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestFrontierConfigAggregates(t *testing.T) {
	c := FrontierConfig()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.TotalGroups() != 80 {
		t.Errorf("groups = %d, want 80", c.TotalGroups())
	}
	if c.ComputeEndpoints() != 37888 {
		t.Errorf("endpoints = %d, want 37888", c.ComputeEndpoints())
	}
	if c.ComputeNodes() != 9472 {
		t.Errorf("nodes = %d, want 9472", c.ComputeNodes())
	}
	if c.NodesPerGroup() != 128 {
		t.Errorf("nodes/group = %d, want 128", c.NodesPerGroup())
	}
	// Paper: 12.8 TB/s injection, 7.3 TB/s global per group, 57% taper,
	// 270.1 TB/s total global.
	if got := float64(c.GroupInjectionBandwidth()) / 1e12; math.Abs(got-12.8) > 0.01 {
		t.Errorf("injection/group = %.1f TB/s, want 12.8", got)
	}
	if got := float64(c.GroupGlobalBandwidth()) / 1e12; math.Abs(got-7.3) > 0.01 {
		t.Errorf("global/group = %.1f TB/s, want 7.3", got)
	}
	if got := c.Taper(); math.Abs(got-0.5703) > 0.001 {
		t.Errorf("taper = %.3f, want ~0.57", got)
	}
	if got := float64(c.TotalGlobalBandwidth()) / 1e12; math.Abs(got-270.1) > 0.1 {
		t.Errorf("total global = %.1f TB/s, want 270.1", got)
	}
}

func TestConfigValidation(t *testing.T) {
	c := FrontierConfig()
	c.ComputeGroupSwitches = 40 // needs 39 L1 ports > 32
	if err := c.Validate(); err == nil {
		t.Error("want L1 overflow error")
	}
	c = FrontierConfig()
	c.EndpointsPerSwitch = 20
	if err := c.Validate(); err == nil {
		t.Error("want L0 overflow error")
	}
	c = FrontierConfig()
	c.ComputeGroups = 200 // 199*4 > 512 L2 ports
	if err := c.Validate(); err == nil {
		t.Error("want L2 overflow error")
	}
	c = FrontierConfig()
	c.EndpointEfficiency = 0
	if err := c.Validate(); err == nil {
		t.Error("want efficiency error")
	}
	c = FrontierConfig()
	c.NICsPerNode = 0
	if err := c.Validate(); err == nil {
		t.Error("want NIC count error")
	}
}

func TestDragonflyStructure(t *testing.T) {
	f := small(t)
	if f.NumSwitches != 48 {
		t.Errorf("switches = %d, want 48", f.NumSwitches)
	}
	if f.NumEndpoints != 192 {
		t.Errorf("endpoints = %d, want 192", f.NumEndpoints)
	}
	// Every endpoint should map to a switch in the right group.
	for ep := 0; ep < f.NumEndpoints; ep++ {
		sw := f.endpointSwitch[ep]
		if g := f.SwitchGroup[sw]; g != f.EndpointGroup(ep) {
			t.Fatalf("endpoint %d group mismatch: %d vs %d", ep, g, f.EndpointGroup(ep))
		}
	}
	// Global links between each compute-group pair.
	for a := 0; a < 6; a++ {
		for b := 0; b < 6; b++ {
			if a == b {
				continue
			}
			if got := len(f.GlobalLinks(a, b)); got != 4 {
				t.Errorf("global links %d->%d = %d, want 4", a, b, got)
			}
		}
	}
	if f.String() == "" {
		t.Error("empty String")
	}
}

func TestNodeEndpoints(t *testing.T) {
	f := small(t)
	eps := f.NodeEndpoints(3)
	if len(eps) != 4 || eps[0] != 12 || eps[3] != 15 {
		t.Errorf("node 3 endpoints = %v, want [12 13 14 15]", eps)
	}
}

// The dense node→group table must agree with the cabling it caches —
// the group of each node's first NIC — for every node of both built
// topologies.
func TestNodeGroupTable(t *testing.T) {
	frontier, err := NewDragonfly(FrontierConfig())
	if err != nil {
		t.Fatal(err)
	}
	summit, err := NewClos(SummitClosConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []*Fabric{frontier, summit} {
		nodes := f.Cfg.ComputeNodes()
		if nodes < 4000 {
			t.Fatalf("%s: %d compute nodes, want a full machine", f.Cfg.Name, nodes)
		}
		for n := 0; n < nodes; n++ {
			if got, want := f.NodeGroup(n), f.SwitchGroup[f.endpointSwitch[n*f.Cfg.NICsPerNode]]; got != want {
				t.Fatalf("%s: NodeGroup(%d) = %d, want %d", f.Cfg.Name, n, got, want)
			}
		}
	}
}

// GroupsSpanned and the stretch table behind it must agree with a
// map-based count over sorted, unsorted and repeated node lists, on a
// dragonfly, a fat tree (one group), and a dragonfly relabeled so its
// groups interleave: stretches are then shorter than groups and a sorted
// list re-enters a group it left.
func TestGroupsSpannedMatchesReference(t *testing.T) {
	interleaved := small(t)
	for s := range interleaved.SwitchGroup {
		interleaved.SwitchGroup[s] = (s / 3) % interleaved.numGroups
	}
	interleaved.indexNodeGroups()
	summit, err := NewClos(SummitClosConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(18))
	for _, f := range []*Fabric{small(t), summit, interleaved} {
		total := f.Cfg.ComputeNodes()
		all := make([]int, total)
		for n := range all {
			all[n] = n
		}
		for n := 0; n < total; n++ {
			end := n + 1
			for end < total && f.NodeGroup(end) == f.NodeGroup(n) {
				end++
			}
			if got := f.NextStretch(all, n); got != end {
				t.Fatalf("%s: stretch from node %d ends at %d, want %d", f.Cfg.Name, n, got, end)
			}
		}
		for trial := 0; trial < 300; trial++ {
			var nodes []int
			p := r.Float64()
			for n := 0; n < total; n++ {
				if r.Float64() < p {
					nodes = append(nodes, n)
				}
			}
			switch trial % 3 {
			case 1:
				r.Shuffle(len(nodes), func(i, k int) { nodes[i], nodes[k] = nodes[k], nodes[i] })
			case 2:
				if len(nodes) > 0 {
					nodes = append(nodes, nodes[r.Intn(len(nodes))])
				}
			}
			seen := map[int]bool{}
			for _, n := range nodes {
				seen[f.NodeGroup(n)] = true
			}
			if got := f.GroupsSpanned(nodes); got != len(seen) {
				t.Fatalf("%s trial %d: GroupsSpanned(%d nodes) = %d, want %d", f.Cfg.Name, trial, len(nodes), got, len(seen))
			}
		}
	}
}

// NodeEndpoint maps (node, rank-ish index) onto the node's NICs,
// wrapping the index round-robin.
func TestNodeEndpoint(t *testing.T) {
	f := small(t)
	per := f.Cfg.NICsPerNode
	for n := 0; n < 3; n++ {
		for i := 0; i < 2*per; i++ {
			want := n*per + i%per
			if got := f.NodeEndpoint(n, i); got != want {
				t.Errorf("NodeEndpoint(%d, %d) = %d, want %d", n, i, got, want)
			}
		}
	}
}

func TestMinimalPathSameSwitch(t *testing.T) {
	f := small(t)
	p, err := f.MinimalPath(0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != 2 {
		t.Errorf("same-switch path length = %d, want 2 (inject+eject)", len(p))
	}
}

func TestMinimalPathIntraGroup(t *testing.T) {
	f := small(t)
	// Endpoints 0 and 5 share group 0 but different switches (4 per switch).
	p, err := f.MinimalPath(0, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != 3 {
		t.Errorf("intra-group path length = %d, want 3", len(p))
	}
	if f.Links[p[1]].Kind != Intra {
		t.Errorf("middle link kind = %v, want intra", f.Links[p[1]].Kind)
	}
}

func TestMinimalPathInterGroup(t *testing.T) {
	f := small(t)
	rng := rand.New(rand.NewSource(1))
	// Group 0 endpoint 0 to group 1 (endpoints 32..63 are group 1: 8 sw × 4).
	p, err := f.MinimalPath(0, 40, rng)
	if err != nil {
		t.Fatal(err)
	}
	globals := 0
	for _, id := range p {
		if f.Links[id].Kind == Global {
			globals++
		}
	}
	if globals != 1 {
		t.Errorf("minimal inter-group path has %d global hops, want 1", globals)
	}
	if len(p) > 5 {
		t.Errorf("minimal path length = %d, want <= 5", len(p))
	}
}

func TestValiantPath(t *testing.T) {
	f := small(t)
	rng := rand.New(rand.NewSource(1))
	p, err := f.ValiantPath(0, 40, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	globals := 0
	for _, id := range p {
		if f.Links[id].Kind == Global {
			globals++
		}
	}
	if globals != 2 {
		t.Errorf("valiant path has %d global hops, want 2", globals)
	}
	if _, err := f.ValiantPath(0, 40, 0, rng); err == nil {
		t.Error("valiant via source group should error")
	}
}

// Property: every generated path is connected — each link starts where
// the previous one ended — and starts/ends at the right endpoints.
func TestPathConnectivityProperty(t *testing.T) {
	f := small(t)
	rng := rand.New(rand.NewSource(2))
	check := func(rawSrc, rawDst uint16) bool {
		src := int(rawSrc) % f.NumEndpoints
		dst := int(rawDst) % f.NumEndpoints
		if src == dst {
			return true
		}
		ps, err := f.AdaptivePaths(src, dst, 3, rng)
		if err != nil {
			return false
		}
		for _, p := range ps.Paths {
			if f.Links[p[0]].Kind != Injection || f.Links[p[0]].From != src {
				return false
			}
			last := p[len(p)-1]
			if f.Links[last].Kind != Ejection || f.Links[last].To != dst {
				return false
			}
			for i := 1; i < len(p); i++ {
				if f.Links[p[i]].From != f.Links[p[i-1]].To {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestAdaptivePathsIntraGroupMinimalOnly(t *testing.T) {
	f := small(t)
	rng := rand.New(rand.NewSource(3))
	ps, err := f.AdaptivePaths(0, 9, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps.Paths) != 1 {
		t.Errorf("intra-group adaptive paths = %d, want 1 (minimal only)", len(ps.Paths))
	}
}

func TestAdaptivePathsInterGroup(t *testing.T) {
	f := small(t)
	rng := rand.New(rand.NewSource(3))
	ps, err := f.AdaptivePaths(0, 40, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps.Paths) != 4 {
		t.Errorf("adaptive paths = %d, want 1 minimal + 3 valiant", len(ps.Paths))
	}
}

func TestLinkFailureReroutes(t *testing.T) {
	f := small(t)
	rng := rand.New(rand.NewSource(4))
	// Kill 3 of the 4 global links from group 0 to group 1.
	ids := f.GlobalLinks(0, 1)
	before := f.StateEpoch()
	for _, id := range ids[:3] {
		f.FailLink(id)
	}
	if f.StateEpoch() == before {
		t.Error("FailLink did not advance the state epoch")
	}
	p, err := f.MinimalPath(0, 40, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range p {
		if !f.Links[id].Up {
			t.Error("path uses a failed link")
		}
	}
	// Kill the last one: minimal routing must now fail...
	f.FailLink(ids[3])
	if _, err := f.MinimalPath(0, 40, rng); err == nil {
		t.Error("want error with all direct global links down")
	}
	// ...but adaptive routing still reaches via Valiant intermediates.
	ps, err := f.AdaptivePaths(0, 40, 3, rng)
	if err != nil || len(ps.Paths) == 0 {
		t.Fatalf("adaptive should survive direct-link loss: %v", err)
	}
	before = f.StateEpoch()
	f.RestoreLink(ids[0])
	if f.StateEpoch() == before {
		t.Error("RestoreLink did not advance the state epoch")
	}
	if _, err := f.MinimalPath(0, 40, rng); err != nil {
		t.Errorf("restore failed: %v", err)
	}
}

func TestSwitchFailure(t *testing.T) {
	f := small(t)
	sw := f.endpointSwitch[0]
	f.FailSwitch(sw)
	if _, err := f.MinimalPath(0, 40, nil); err == nil {
		t.Error("endpoint on failed switch should be unreachable")
	}
	// Endpoints on other switches still work.
	if _, err := f.MinimalPath(8, 40, rand.New(rand.NewSource(5))); err != nil {
		t.Errorf("unrelated endpoints should route: %v", err)
	}
}

func TestPathCacheSwitchFailureAdvancesEpoch(t *testing.T) {
	f := small(t)
	before := f.StateEpoch()
	f.FailSwitch(5)
	if f.StateEpoch() == before {
		t.Error("FailSwitch did not advance the state epoch")
	}
}

// linkUp reads the dense usable table that FailLink, RestoreLink and
// FailSwitch keep. Whatever order failures and repairs come in, it must
// equal the link's own state with both end switches healthy.
func TestLinkUsableMatchesLinkState(t *testing.T) {
	summit, err := NewClos(SummitClosConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []*Fabric{small(t), summit} {
		check := func(step string) {
			t.Helper()
			for id := range f.Links {
				l := &f.Links[id]
				if want := l.Up && l.endsHealthy(f.SwitchHealthy); f.linkUp(id) != want {
					t.Fatalf("%s after %s: linkUp(%d) = %v, want %v", f.Cfg.Name, step, id, !want, want)
				}
			}
		}
		check("build")

		// A link restored while its switch is failed stays unusable.
		id := f.ejectLink[0]
		f.FailSwitch(f.endpointSwitch[0])
		f.RestoreLink(id)
		if !f.Links[id].Up || f.linkUp(id) {
			t.Errorf("%s: restored link %d on a failed switch: Up %v, linkUp %v; want Up and unusable",
				f.Cfg.Name, id, f.Links[id].Up, f.linkUp(id))
		}
		check("RestoreLink on a failed switch")

		rng := rand.New(rand.NewSource(11))
		var failed []int
		for step := 0; step < 200; step++ {
			switch op := rng.Intn(10); {
			case op == 0:
				sw := rng.Intn(f.NumSwitches)
				f.FailSwitch(sw)
				check(fmt.Sprintf("step %d FailSwitch(%d)", step, sw))
			case op < 5 || len(failed) == 0:
				id := rng.Intn(len(f.Links))
				f.FailLink(id)
				failed = append(failed, id)
				check(fmt.Sprintf("step %d FailLink(%d)", step, id))
			default:
				i := rng.Intn(len(failed))
				id := failed[i]
				failed = append(failed[:i], failed[i+1:]...)
				f.RestoreLink(id)
				check(fmt.Sprintf("step %d RestoreLink(%d)", step, id))
			}
		}
	}
}

func TestPathLatency(t *testing.T) {
	f := small(t)
	rng := rand.New(rand.NewSource(6))
	min, _ := f.MinimalPath(0, 40, rng)
	val, _ := f.ValiantPath(0, 40, 3, rng)
	lmin, lval := f.PathLatency(min), f.PathLatency(val)
	if lmin <= 0 || lval <= lmin {
		t.Errorf("latency ordering wrong: minimal %v, valiant %v", lmin, lval)
	}
	// Zero-load latency should be in the low microseconds, like the
	// paper's 2.6us RR latency.
	if lmin < 1*units.Microsecond || lmin > 5*units.Microsecond {
		t.Errorf("minimal latency = %v, want ~2-3us", lmin)
	}
}

func TestClosSummit(t *testing.T) {
	f, err := NewClos(SummitClosConfig())
	if err != nil {
		t.Fatal(err)
	}
	if f.NumEndpoints != 9216 {
		t.Errorf("endpoints = %d, want 9216 (dual-rail EDR)", f.NumEndpoints)
	}
	if f.Cfg.ComputeNodes() != 4608 {
		t.Errorf("nodes = %d, want 4608", f.Cfg.ComputeNodes())
	}
	p, err := f.MinimalPath(0, 4000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != 4 {
		t.Errorf("clos path length = %d, want 4", len(p))
	}
	// Fat tree never takes valiant detours.
	ps, err := f.AdaptivePaths(0, 4000, 4, rand.New(rand.NewSource(7)))
	if err != nil || len(ps.Paths) != 1 {
		t.Errorf("clos adaptive paths = %d (%v), want 1", len(ps.Paths), err)
	}
}

func TestClosValidation(t *testing.T) {
	if _, err := NewClos(ClosConfig{}); err == nil {
		t.Error("empty clos config should error")
	}
	c := SummitClosConfig()
	c.EndpointEfficiency = 2
	if _, err := NewClos(c); err == nil {
		t.Error("bad efficiency should error")
	}
}

func TestManagerSweep(t *testing.T) {
	f := small(t)
	m := NewManager(f, 10)
	if m.Sweep() != 0 {
		t.Error("clean fabric should show no changes")
	}
	f.FailLink(f.GlobalLinks(0, 1)[0])
	if ch := m.Sweep(); ch != 1 {
		t.Errorf("changes = %d, want 1", ch)
	}
	if m.Epoch != 1 {
		t.Errorf("epoch = %d, want 1", m.Epoch)
	}
	if m.Sweep() != 0 {
		t.Error("second sweep should be quiet")
	}
	f.FailSwitch(0)
	if ch := m.Sweep(); ch == 0 {
		t.Error("switch failure should be detected")
	}
}

func TestManagerPeriodicSweeps(t *testing.T) {
	f := small(t)
	k := sim.NewKernel(1)
	m := NewManager(f, 10)
	m.Start(k)
	k.After(25, func() { f.FailLink(f.GlobalLinks(1, 2)[0]) })
	k.RunUntil(100)
	m.Stop()
	if m.Epoch != 1 {
		t.Errorf("epoch = %d, want 1 (failure detected by periodic sweep)", m.Epoch)
	}
	pending := k.Pending()
	k.RunUntil(1000)
	if k.Pending() >= pending && pending > 0 {
		t.Log("sweeps stopped as requested")
	}
}

func TestStringersFabric(t *testing.T) {
	for _, k := range []LinkKind{Injection, Ejection, Intra, Global, Uplink, Downlink, LinkKind(42)} {
		if k.String() == "" {
			t.Errorf("empty LinkKind string for %d", int(k))
		}
	}
	for _, c := range []GroupClass{ComputeGroup, IOGroup, MgmtGroup, GroupClass(9)} {
		if c.String() == "" {
			t.Errorf("empty GroupClass string for %d", int(c))
		}
	}
}

func TestFrontierFullBuild(t *testing.T) {
	if testing.Short() {
		t.Skip("full fabric build in -short mode")
	}
	f, err := NewDragonfly(FrontierConfig())
	if err != nil {
		t.Fatal(err)
	}
	if f.NumEndpoints != 37888+5*16*16+1*16*16 {
		t.Errorf("endpoints = %d", f.NumEndpoints)
	}
	// 9,472 nodes worth of compute endpoints come first.
	if g := f.EndpointGroup(37887); f.GroupClassOf(g) != ComputeGroup {
		t.Error("endpoint 37887 should be compute")
	}
	if g := f.EndpointGroup(37888); f.GroupClassOf(g) != IOGroup {
		t.Error("endpoint 37888 should be I/O")
	}
	rng := rand.New(rand.NewSource(8))
	if _, err := f.MinimalPath(0, 37000, rng); err != nil {
		t.Errorf("full-system route failed: %v", err)
	}
}
