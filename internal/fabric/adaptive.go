package fabric

import (
	"fmt"
	"math/rand"
)

// PathSet is the set of routes adaptive routing spreads one traffic pair
// across: the minimal route plus zero or more Valiant non-minimal routes.
// Slingshot routes per packet, so at the flow level a pair's traffic
// occupies all of these paths simultaneously and the bandwidth a pair
// achieves is the sum over the set.
//
// Storage is CSR-style: every row of Paths aliases one flat backing
// array, so a whole set costs two allocations (flat links + row headers)
// instead of one slice per route. Rows are full-capacity slices —
// appending to one reallocates rather than clobbering its neighbour —
// but callers must still treat a PathSet as immutable once built; cached
// sets are shared across workers.
type PathSet struct {
	Src, Dst int
	Paths    [][]int
}

// seal materialises the nested-slice view over a CSR fill: flat holds
// every route's links back to back, offs the row boundaries.
func (ps *PathSet) seal(flat, offs []int) {
	if len(offs) <= 1 {
		return // no routes; keep Paths nil like the historical shape
	}
	ps.Paths = make([][]int, len(offs)-1)
	for i := range ps.Paths {
		ps.Paths[i] = flat[offs[i]:offs[i+1]:offs[i+1]]
	}
}

// containsInt reports membership in a small linear-scan set — the group
// exclusion lists here never exceed 2+nValiant entries, where a slice
// beats a map by an order of magnitude and allocates nothing.
func containsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// AdaptivePaths builds the path set used by Slingshot's adaptive routing
// for one endpoint pair: within a group (or on a fat tree) routing is
// minimal-only; between dragonfly groups the minimal route is supplemented
// by nValiant Valiant routes through distinct random intermediate groups.
func (f *Fabric) AdaptivePaths(src, dst, nValiant int, rng *rand.Rand) (PathSet, error) {
	ps := PathSet{Src: src, Dst: dst}
	flat := make([]int, 0, 6+8*nValiant)
	// Row ends live on the stack for up to seven detours (censuses use
	// four); seal copies them out, and more detours spill to the heap.
	var offsBuf [8]int
	offs := offsBuf[:1]

	next, minErr := f.appendMinimalPath(flat, src, dst, rng)
	if minErr == nil {
		flat = next
		offs = append(offs, len(flat))
	}
	if f.Kind == FatTree {
		if minErr != nil {
			return ps, minErr
		}
		ps.seal(flat, offs)
		return ps, nil
	}
	g1, g2 := f.EndpointGroup(src), f.EndpointGroup(dst)
	if g1 == g2 || nValiant <= 0 {
		if minErr != nil {
			return ps, minErr
		}
		ps.seal(flat, offs)
		return ps, nil
	}
	total := f.Cfg.TotalGroups()
	if total <= 2 {
		ps.seal(flat, offs)
		return ps, nil
	}
	seen := make([]int, 0, 8)
	seen = append(seen, g1, g2)
	attempts := 0
	for len(offs)-1 < 1+nValiant && attempts < 8*nValiant {
		attempts++
		via := rng.Intn(total)
		if containsInt(seen, via) {
			continue
		}
		// Valiant detours stay on compute groups: service groups are
		// not used as intermediates for compute traffic.
		if f.groupClass[via] != ComputeGroup {
			continue
		}
		seen = append(seen, via)
		next, err := f.appendValiantPath(flat, src, dst, via, rng)
		if err != nil {
			continue // intermediate group unreachable (failures); try another
		}
		flat = next
		offs = append(offs, len(flat))
	}
	if len(offs) == 1 {
		return ps, fmt.Errorf("fabric: no usable path %d->%d", src, dst)
	}
	ps.seal(flat, offs)
	return ps, nil
}
