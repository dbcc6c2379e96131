package fabric

import (
	"slices"
	"testing"
	"unsafe"
)

// mixedConfig is a small dragonfly with every group class: compute,
// I/O and management groups, so global bundles of all five class pairs
// are cabled.
func mixedConfig() Config {
	c := ScaledConfig(5, 4, 2)
	c.Name = "mixed-dragonfly"
	c.IOGroups = 2
	c.MgmtGroups = 1
	c.TORGroupSwitches = 3
	return c
}

// wantDragonflyLinks counts a dragonfly's directed links from the config
// by class pair, independently of the builder's per-pair loop.
func wantDragonflyLinks(c Config) int {
	pairs := func(n int) int { return n * (n - 1) / 2 }
	cg, io, mg := c.ComputeGroups, c.IOGroups, c.MgmtGroups
	tor := io + mg
	switches := cg*c.ComputeGroupSwitches + tor*c.TORGroupSwitches
	endpoint := 2 * switches * c.EndpointsPerSwitch
	intra := cg*c.ComputeGroupSwitches*(c.ComputeGroupSwitches-1) +
		tor*c.TORGroupSwitches*(c.TORGroupSwitches-1)
	global := pairs(cg)*c.ComputeComputeLinks + cg*io*c.ComputeIOLinks + cg*mg*c.ComputeMgmtLinks +
		pairs(io)*c.IOIOLinks + io*mg*c.IOMgmtLinks + pairs(mg)*c.IOMgmtLinks
	return endpoint + intra + 2*global
}

// TestFabricTablesExactlySized checks that a build allocates its link and
// endpoint tables once at their final length: cap == len everywhere, and
// the link count is the config's. The fixtures cover both builders —
// Frontier's dragonfly and Summit's Clos — plus every group class;
// TestCanonicalFabricsExactlySized in internal/machine runs the exported
// half of the check on every canonical machine.
func TestFabricTablesExactlySized(t *testing.T) {
	summit := SummitClosConfig()
	cases := []struct {
		name  string
		build func() (*Fabric, error)
		links int
	}{
		{"frontier", func() (*Fabric, error) { return NewDragonfly(FrontierConfig()) }, wantDragonflyLinks(FrontierConfig())},
		{"scaled", func() (*Fabric, error) { return NewDragonfly(ScaledConfig(6, 8, 4)) }, wantDragonflyLinks(ScaledConfig(6, 8, 4))},
		{"mixed", func() (*Fabric, error) { return NewDragonfly(mixedConfig()) }, wantDragonflyLinks(mixedConfig())},
		{"summit", func() (*Fabric, error) { return NewClos(summit) }, summit.Leaves * 2 * (1 + summit.EndpointsPerLeaf)},
	}
	for _, c := range cases {
		f, err := c.build()
		if err != nil {
			t.Fatal(err)
		}
		if len(f.Links) != c.links {
			t.Errorf("%s: %d links, want %d", c.name, len(f.Links), c.links)
		}
		for _, tab := range []struct {
			name     string
			len, cap int
		}{
			{"Links", len(f.Links), cap(f.Links)},
			{"endpointSwitch", len(f.endpointSwitch), cap(f.endpointSwitch)},
			{"injectLink", len(f.injectLink), cap(f.injectLink)},
			{"ejectLink", len(f.ejectLink), cap(f.ejectLink)},
			{"globalIDs", len(f.globalIDs), cap(f.globalIDs)},
		} {
			if tab.len != tab.cap {
				t.Errorf("%s: %s has len %d but cap %d", c.name, tab.name, tab.len, tab.cap)
			}
		}
		for _, n := range []int{len(f.endpointSwitch), len(f.injectLink), len(f.ejectLink)} {
			if n != f.NumEndpoints {
				t.Errorf("%s: endpoint table of %d entries for %d endpoints", c.name, n, f.NumEndpoints)
			}
		}
	}
	if got := wantDragonflyLinks(FrontierConfig()); got != 177340 {
		t.Errorf("Frontier cables %d directed links, want 177,340", got)
	}
}

// TestLinkIs24Bytes pins the link layout: every solve reads links by
// random id across the whole array.
func TestLinkIs24Bytes(t *testing.T) {
	if size := unsafe.Sizeof(Link{}); size > 24 {
		t.Errorf("Link is %d bytes, want <= 24", size)
	}
}

// TestFabricBuildAllocationsBounded holds a full Frontier build to a
// fixed handful of allocations: one per table, none per link, switch or
// group.
func TestFabricBuildAllocationsBounded(t *testing.T) {
	cfg := FrontierConfig()
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := NewDragonfly(cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 32 {
		t.Errorf("NewDragonfly(Frontier) makes %.0f allocations, want <= 32", allocs)
	}
}

// TestGlobalLinksMatchReference checks the CSR global-link table against
// a map built from the link array in id order: same ids per ordered group
// pair, in the same order, since pickUp's offsets index into it.
func TestGlobalLinksMatchReference(t *testing.T) {
	for _, cfg := range []Config{mixedConfig(), FrontierConfig()} {
		f, err := NewDragonfly(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref := map[[2]int][]int{}
		for id, l := range f.Links {
			if l.Kind == Global {
				k := [2]int{f.SwitchGroup[l.From], f.SwitchGroup[l.To]}
				ref[k] = append(ref[k], id)
			}
		}
		groups := cfg.TotalGroups()
		for a := 0; a < groups; a++ {
			for b := 0; b < groups; b++ {
				got := f.GlobalLinks(a, b)
				if want := ref[[2]int{a, b}]; !slices.Equal(got, want) {
					t.Fatalf("%s: GlobalLinks(%d, %d) = %v, want %v", cfg.Name, a, b, got, want)
				}
				if cap(got) != len(got) {
					t.Fatalf("%s: GlobalLinks(%d, %d) has spare capacity %d", cfg.Name, a, b, cap(got)-len(got))
				}
			}
		}
		for _, p := range [][2]int{{-1, 0}, {0, groups}, {groups, groups}} {
			if got := f.GlobalLinks(p[0], p[1]); got != nil {
				t.Errorf("%s: GlobalLinks(%d, %d) = %v outside the fabric, want nil", cfg.Name, p[0], p[1], got)
			}
		}
	}
}
