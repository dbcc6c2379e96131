package fabric

import (
	"fmt"
	"math/rand"
)

// MaxRouteLinks is the most links one route can take: a Valiant detour's
// inject, three intra-group hops, two global hops and eject. Minimal
// dragonfly routes take at most five and fat-tree routes four, so
// callers can size route buffers from a route count.
const MaxRouteLinks = 7

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

// AppendAdaptivePaths appends the path set Slingshot's adaptive routing
// spreads one endpoint pair across: within a group (or on a fat tree)
// the minimal route only; between dragonfly groups the minimal route
// plus up to nValiant Valiant routes through distinct random
// intermediate groups. At the flow level a pair's traffic occupies all
// of these routes at once, so its bandwidth is the sum over the set.
//
// The routes' links land in links back to back, and after each route
// its end, len(links), is appended to ends. A caller that seeds ends
// with len(links) gets CSR offsets: route r of the set spans
// links[e[r]:e[r+1]] with e the ends from the seed on. Both buffers are
// the caller's, so routing a census allocates nothing per pair.
//
// On error both slices come back at their original lengths. A pair
// whose minimal route fails between groups on a fabric with no
// intermediate group gets no route and no error.
func (f *Fabric) AppendAdaptivePaths(links, ends []int, src, dst, nValiant int, rng *rand.Rand) ([]int, []int, error) {
	nEnds := len(ends)
	next, minErr := f.appendMinimalPath(links, src, dst, rng)
	if minErr == nil {
		links = next
		ends = append(ends, len(links))
	}
	if f.Kind == FatTree {
		return links, ends, minErr
	}
	g1, g2 := f.EndpointGroup(src), f.EndpointGroup(dst)
	if g1 == g2 || nValiant <= 0 {
		return links, ends, minErr
	}
	total := f.Cfg.TotalGroups()
	if total <= 2 {
		return links, ends, nil
	}
	var seenBuf [8]int
	seen := append(seenBuf[:0], g1, g2)
	attempts := 0
	for len(ends)-nEnds < 1+nValiant && attempts < 8*nValiant {
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
		next, err := f.appendValiantPath(links, src, dst, via, rng)
		if err != nil {
			continue // an empty bundle to or from via; try another
		}
		links = next
		ends = append(ends, len(links))
	}
	if len(ends) == nEnds {
		return links, ends, fmt.Errorf("fabric: no path %d->%d", src, dst)
	}
	return links, ends, nil
}
