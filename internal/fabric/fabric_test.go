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
	// Without compute-to-compute links no path joins two compute groups.
	c = FrontierConfig()
	c.ComputeComputeLinks = 0
	if err := c.Validate(); err == nil || !strings.Contains(err.Error(), "ComputeComputeLinks") {
		t.Errorf("disconnected compute groups: err = %v, want one naming ComputeComputeLinks", err)
	}
	c.ComputeGroups = 1
	if err := c.Validate(); err != nil {
		t.Errorf("one compute group needs no compute-to-compute links: %v", err)
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
	if _, err := NewClos(ClosConfig{}); err == nil {
		t.Error("empty clos config should error")
	}
	c := SummitClosConfig()
	c.EndpointEfficiency = 2
	if _, err := NewClos(c); err == nil {
		t.Error("bad efficiency should error")
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
