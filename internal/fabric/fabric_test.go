package fabric

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

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

// TestConfigValidation checks each topology rule against Frontier's
// fabric. A machine spec's Validate hands its topology to this check, so
// every message names the field as the spec's JSON spells it.
func TestConfigValidation(t *testing.T) {
	for _, tc := range []struct {
		name  string
		set   func(*Config)
		field string
	}{
		{"L1 overflow", func(c *Config) { c.ComputeGroupSwitches = 40 }, "computeGroupSwitches"}, // 39 L1 ports > 32
		{"L1 overflow by two", func(c *Config) { c.ComputeGroupSwitches = 34 }, "computeGroupSwitches"},
		{"L0 overflow", func(c *Config) { c.EndpointsPerSwitch = 17 }, "endpointsPerSwitch"},
		{"L2 overflow by groups", func(c *Config) { c.ComputeGroups = 200 }, "computeComputeLinks"}, // 199*4 > 512 L2 ports
		{"L2 overflow by bundle", func(c *Config) { c.ComputeComputeLinks = 8 }, "computeComputeLinks"},
		{"one switch per group", func(c *Config) { c.ComputeGroups, c.ComputeGroupSwitches = 8, 1 }, "computeGroupSwitches"},
		{"no endpoints", func(c *Config) { c.EndpointsPerSwitch = 0 }, "endpointsPerSwitch"},
		{"zero efficiency", func(c *Config) { c.EndpointEfficiency = 0 }, "efficiency"},
		{"zero link rate", func(c *Config) { c.LinkRate = 0 }, "link rate"},
		{"zero NICs", func(c *Config) { c.NICsPerNode = 0 }, "nicsPerNode"},
		// 512 endpoints per group do not split into 3-NIC nodes: 12,629
		// nodes would outnumber 74 groups × 170 nodes.
		{"NICs straddle groups", func(c *Config) { c.NICsPerNode = 3 }, "nicsPerNode"},
		// Without compute-to-compute links no path joins two compute groups.
		{"disconnected compute groups", func(c *Config) { c.ComputeComputeLinks = 0 }, "computeComputeLinks"},
	} {
		c := FrontierConfig()
		tc.set(&c)
		if err := c.Validate(); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: err = %v, want one naming %s", tc.name, err, tc.field)
		}
	}
	c := FrontierConfig()
	c.ComputeGroups, c.ComputeComputeLinks = 1, 0
	if err := c.Validate(); err != nil {
		t.Errorf("one compute group needs no compute-to-compute links: %v", err)
	}
	c = FrontierConfig()
	c.ComputeGroups, c.ComputeGroupSwitches = 1, 1
	if err := c.Validate(); err != nil {
		t.Errorf("one compute group may have one switch: %v", err)
	}
}

// TestDragonflyRejectsNegativeCounts checks that counts which size the
// link tables cannot be negative: NewDragonfly returns an error rather
// than panicking on a negative allocation or a decreasing offset table.
func TestDragonflyRejectsNegativeCounts(t *testing.T) {
	for name, set := range map[string]func(*Config){
		"ComputeGroupSwitches":  func(c *Config) { c.ComputeGroups, c.ComputeGroupSwitches = 1, -1 },
		"IOGroups":              func(c *Config) { c.IOGroups = -1 },
		"MgmtGroups":            func(c *Config) { c.MgmtGroups = -2 },
		"TORGroupSwitches":      func(c *Config) { c.TORGroupSwitches = -1 },
		"zero TORGroupSwitches": func(c *Config) { c.TORGroupSwitches = 0 },
		"ComputeComputeLinks":   func(c *Config) { c.ComputeComputeLinks = -1 },
		"ComputeIOLinks":        func(c *Config) { c.ComputeIOLinks = -1 },
		"ComputeMgmtLinks":      func(c *Config) { c.ComputeMgmtLinks = -1 },
		"IOIOLinks":             func(c *Config) { c.IOIOLinks = -1 },
		"IOMgmtLinks":           func(c *Config) { c.IOMgmtLinks = -3 },
	} {
		c := FrontierConfig()
		set(&c)
		if f, err := NewDragonfly(c); err == nil {
			t.Errorf("%s: built a fabric of %d links, want an error", name, len(f.Links))
		}
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

// NodeGroup's arithmetic — compute group g is the node range
// [g·NodesPerGroup, (g+1)·NodesPerGroup) — must agree with the cabling,
// the group of each node's first NIC, for every node of a full
// dragonfly, a fat tree and a scaled dragonfly.
func TestNodeGroupTable(t *testing.T) {
	frontier, err := NewDragonfly(FrontierConfig())
	if err != nil {
		t.Fatal(err)
	}
	summit, err := NewClos(SummitClosConfig())
	if err != nil {
		t.Fatal(err)
	}
	scaled, err := NewDragonfly(ScaledConfig(6, 4, 6))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []*Fabric{frontier, summit, scaled} {
		nodes := f.Cfg.ComputeNodes()
		for n := 0; n < nodes; n++ {
			if got, want := f.NodeGroup(n), f.SwitchGroup[f.endpointSwitch[n*f.Cfg.NICsPerNode]]; got != want {
				t.Fatalf("%s: NodeGroup(%d) = %d, want %d", f.Cfg.Name, n, got, want)
			}
		}
	}
}

// checkRuns fails unless p is the canonical run form of the node list
// want: its runs are ascending, maximal and inside one group, they expand
// to exactly want, and its node and group counts and Contains agree with
// a per-node walk and a map-based count.
func checkRuns(t *testing.T, f *Fabric, p Placement, want []int) {
	t.Helper()
	per := f.Cfg.NodesPerGroup()
	runs := p.Runs()
	for i, r := range runs {
		if r.Count < 1 || r.First/per != (r.End()-1)/per {
			t.Fatalf("%s: run %v is empty or crosses a group", f.Cfg.Name, r)
		}
		if i > 0 && (r.First < runs[i-1].End() || r.First == runs[i-1].End() && r.First%per != 0) {
			t.Fatalf("%s: run %v after %v is out of order or not maximal", f.Cfg.Name, r, runs[i-1])
		}
	}
	if got := p.AppendNodes(nil); !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
		t.Fatalf("%s: placement expands to %v, want %v", f.Cfg.Name, got, want)
	}
	seen, in := map[int]bool{}, map[int]bool{}
	for _, n := range want {
		seen[f.NodeGroup(n)] = true
		in[n] = true
	}
	if p.Nodes() != len(want) || p.GroupsSpanned() != len(seen) {
		t.Fatalf("%s: %d nodes in %d groups, want %d in %d", f.Cfg.Name, p.Nodes(), p.GroupsSpanned(), len(want), len(seen))
	}
	for n := -1; n <= f.Cfg.ComputeNodes(); n++ {
		if p.Contains(n) != in[n] {
			t.Fatalf("%s: Contains(%d) = %v", f.Cfg.Name, n, p.Contains(n))
		}
	}
}

// A placement built from any sorted node list is that list's canonical
// run form with its group count, on a dragonfly and a fat tree (one
// group), as is every prefix of it.
func TestGroupsSpannedMatchesReference(t *testing.T) {
	summit, err := NewClos(SummitClosConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(18))
	for _, f := range []*Fabric{small(t), summit} {
		total := f.Cfg.ComputeNodes()
		for trial := 0; trial < 100; trial++ {
			var nodes []int
			p := r.Float64()
			for n := 0; n < total; n++ {
				if r.Float64() < p {
					nodes = append(nodes, n)
				}
			}
			pl, err := f.NewPlacement(nodes)
			if err != nil {
				t.Fatal(err)
			}
			checkRuns(t, f, pl, nodes)
			for range 3 {
				k := r.Intn(len(nodes) + 1)
				checkRuns(t, f, pl.Prefix(k), nodes[:k])
			}
		}
	}
}

// NewPlacement rejects the lists outside the placement contract, naming
// the first offending node; the builder splits a range at group
// boundaries, extends the last run with a contiguous one, and refuses a
// range that does not extend the placement; a spread takes node
// i·total/n.
func TestPlacementConstruction(t *testing.T) {
	f := small(t) // 6 groups of 8 nodes
	for _, tc := range []struct {
		nodes []int
		err   string
	}{
		{[]int{3, 3}, "node 3 follows node 3: a placement is strictly increasing"},
		{[]int{9, 2, 5}, "node 2 follows node 9"},
		{[]int{0, 48}, "node 48 outside fabric (0..47)"},
		{[]int{-1}, "node -1 outside fabric"},
	} {
		if _, err := f.NewPlacement(tc.nodes); err == nil || !strings.Contains(err.Error(), tc.err) {
			t.Errorf("NewPlacement(%v) = %v, want an error naming %q", tc.nodes, err, tc.err)
		}
	}
	b := f.NewPlacementBuilder()
	b.Append(2, 3)  // [2,5) in group 0
	b.Append(5, 10) // [5,8) extends it, [8,15) starts group 1
	b.Append(15, 1) // extends group 1's run
	b.Append(20, 1)
	p := b.Placement()
	if want := []Run{{2, 6}, {8, 8}, {20, 1}}; !reflect.DeepEqual(p.Runs(), want) || p.GroupsSpanned() != 3 || p.Nodes() != 15 {
		t.Errorf("built runs %v (%d nodes, %d groups), want %v (15 nodes, 3 groups)", p.Runs(), p.Nodes(), p.GroupsSpanned(), want)
	}
	b.Reset()
	b.Append(0, 1)
	if !reflect.DeepEqual(p.Runs(), []Run{{2, 6}, {8, 8}, {20, 1}}) || b.Placement().Nodes() != 1 {
		t.Error("resetting the builder changed a placement it returned")
	}
	for _, bad := range [][2]int{{0, 1}, {1, 0}, {47, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Append(%d, %d) after node 0 did not panic", bad[0], bad[1])
				}
			}()
			b.Append(bad[0], bad[1])
		}()
	}
	spread := f.SpreadPlacement(12)
	want := make([]int, 12)
	for i := range want {
		want[i] = i * 48 / 12
	}
	checkRuns(t, f, spread, want)
	checkRuns(t, f, f.SpreadPlacement(48), small48())
}

func small48() []int {
	all := make([]int, 48)
	for i := range all {
		all[i] = i
	}
	return all
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
		paths, err := adaptivePaths(f, src, dst, 3, rng)
		if err != nil {
			return false
		}
		for _, p := range paths {
			if f.Links[p[0]].Kind != Injection || int(f.Links[p[0]].From) != src {
				return false
			}
			last := p[len(p)-1]
			if f.Links[last].Kind != Ejection || int(f.Links[last].To) != dst {
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
	paths, err := adaptivePaths(f, 0, 9, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 {
		t.Errorf("intra-group adaptive paths = %d, want 1 (minimal only)", len(paths))
	}
}

func TestAdaptivePathsInterGroup(t *testing.T) {
	f := small(t)
	rng := rand.New(rand.NewSource(3))
	paths, err := adaptivePaths(f, 0, 40, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 4 {
		t.Errorf("adaptive paths = %d, want 1 minimal + 3 valiant", len(paths))
	}
}

// adaptivePaths routes one pair into fresh buffers and returns each
// route as its own slice.
func adaptivePaths(f *Fabric, src, dst, nValiant int, rng *rand.Rand) ([][]int, error) {
	links, ends, err := f.AppendAdaptivePaths(nil, []int{0}, src, dst, nValiant, rng)
	if err != nil {
		return nil, err
	}
	paths := make([][]int, len(ends)-1)
	for r := range paths {
		paths[r] = links[ends[r]:ends[r+1]]
	}
	return paths, nil
}

// Appending into buffers that already hold routes leaves them intact,
// adds the same routes a fresh buffer gets from the same draws, and
// records ends as offsets into the whole buffer.
func TestAppendAdaptivePathsKeepsPrefix(t *testing.T) {
	f := small(t)
	want, err := adaptivePaths(f, 0, 40, 3, rand.New(rand.NewSource(8)))
	if err != nil {
		t.Fatal(err)
	}
	links := []int{7, 7, 7}
	ends := []int{0, 3}
	links, ends, err = f.AppendAdaptivePaths(links, ends, 0, 40, 3, rand.New(rand.NewSource(8)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(links[:3], []int{7, 7, 7}) || ends[1] != 3 {
		t.Fatalf("prefix clobbered: links %v ends %v", links[:3], ends[:2])
	}
	if len(ends)-2 != len(want) {
		t.Fatalf("appended %d routes, want %d", len(ends)-2, len(want))
	}
	for r, p := range want {
		if got := links[ends[r+1]:ends[r+2]]; !reflect.DeepEqual(got, p) {
			t.Errorf("route %d = %v, want %v", r, got, p)
		}
	}
}

// A spec may give a global bundle zero links. Minimal routing between
// the two groups then fails, adaptive routing still reaches the
// destination through Valiant detours over non-empty bundles, and a pair
// that no detour can join has no path at all.
func TestEmptyBundle(t *testing.T) {
	c := mixedConfig()
	c.IOIOLinks = 0
	f, err := NewDragonfly(c)
	if err != nil {
		t.Fatal(err)
	}
	// Endpoints are laid out compute-first, then I/O group by group.
	io0 := c.ComputeEndpoints()
	io1 := io0 + c.TORGroupSwitches*c.EndpointsPerSwitch
	if g0, g1 := f.EndpointGroup(io0), f.EndpointGroup(io1); g0 == g1 || f.GroupClassOf(g0) != IOGroup || f.GroupClassOf(g1) != IOGroup {
		t.Fatalf("endpoints %d and %d should sit in two I/O groups (got %d, %d)", io0, io1, g0, g1)
	}
	if _, err := f.MinimalPath(io0, io1, nil); err == nil {
		t.Error("minimal path over an empty bundle should error")
	}
	rng := rand.New(rand.NewSource(12))
	paths, err := adaptivePaths(f, io0, io1, 2, rng)
	if err != nil || len(paths) == 0 {
		t.Fatalf("adaptive routing should detour around an empty bundle: %v", err)
	}
	for _, p := range paths {
		if p[0] != f.injectLink[io0] || p[len(p)-1] != f.ejectLink[io1] {
			t.Errorf("detour %v does not join endpoint %d to %d", p, io0, io1)
		}
	}

	// With no compute-to-I/O links either, no detour joins the groups.
	c.ComputeIOLinks = 0
	if f, err = NewDragonfly(c); err != nil {
		t.Fatal(err)
	}
	links, ends, err := f.AppendAdaptivePaths([]int{5}, []int{0, 1}, io0, io1, 2, rng)
	if err == nil {
		t.Error("want an error when every route crosses an empty bundle")
	}
	if len(links) != 1 || len(ends) != 2 {
		t.Errorf("a failed route grew the buffers to %d links, %d ends", len(links), len(ends))
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
	paths, err := adaptivePaths(f, 0, 4000, 4, rand.New(rand.NewSource(7)))
	if err != nil || len(paths) != 1 {
		t.Errorf("clos adaptive paths = %d (%v), want 1", len(paths), err)
	}
}

func TestClosValidation(t *testing.T) {
	if _, err := NewClos(ClosConfig{}); err == nil || !strings.Contains(err.Error(), "leaves") {
		t.Errorf("empty clos config: err = %v, want one naming leaves", err)
	}
	c := SummitClosConfig()
	c.EndpointEfficiency = 2
	if _, err := NewClos(c); err == nil {
		t.Error("bad efficiency should error")
	}
	c = SummitClosConfig()
	c.LinkRate = 0
	if _, err := NewClos(c); err == nil || !strings.Contains(err.Error(), "link rate") {
		t.Errorf("zero link rate: err = %v, want one naming the link rate", err)
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
