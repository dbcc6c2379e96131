package scheduler

import (
	"math/bits"
	"slices"
	"sort"
	"testing"

	"frontiersim/internal/machine"
	"frontiersim/internal/rng"
	"frontiersim/internal/sim"
)

// referencePlace is a frozen copy of the sort-based place that the
// counting-sort spread path replaced: first pass an equal share per group
// in (free desc, id asc) order, second pass the lowest untaken free nodes
// off the bitmap, then sort.Ints. It is the reference the differential
// test holds place to.
func referencePlace(s *Scheduler, n int) []int {
	if n <= s.nodesPerGroup {
		best := -1
		for g := 0; g < s.groups; g++ {
			f := s.groupFree[g]
			if f >= n && (best == -1 || f < s.groupFree[best]) {
				best = g
			}
		}
		if best >= 0 {
			return referenceTakeFromGroup(s, best, n)
		}
	}
	if s.freeHealthy < n {
		return nil
	}
	type groupFreeCount struct{ id, free int }
	var gf []groupFreeCount
	for g := 0; g < s.groups; g++ {
		gf = append(gf, groupFreeCount{id: g, free: s.groupFree[g]})
	}
	sort.Slice(gf, func(i, k int) bool {
		if gf[i].free != gf[k].free {
			return gf[i].free > gf[k].free
		}
		return gf[i].id < gf[k].id
	})
	var alloc []int
	remaining := n
	groupsWithFree := 0
	for _, g := range gf {
		if g.free > 0 {
			groupsWithFree++
		}
	}
	share := (n + groupsWithFree - 1) / groupsWithFree
	for _, g := range gf {
		if remaining == 0 {
			break
		}
		take := share
		if take > g.free {
			take = g.free
		}
		if take > remaining {
			take = remaining
		}
		alloc = append(alloc, referenceTakeFromGroup(s, g.id, take)...)
		remaining -= take
	}
	if remaining > 0 {
		taken := make([]bool, s.totalNodes)
		for _, a := range alloc {
			taken[a] = true
		}
		for node := 0; node < s.totalNodes && remaining > 0; {
			w := s.freeBits[node>>6] >> (node & 63)
			if w == 0 {
				node = (node &^ 63) + 64
				continue
			}
			node += bits.TrailingZeros64(w)
			if node >= s.totalNodes {
				break
			}
			if !taken[node] {
				taken[node] = true
				alloc = append(alloc, node)
				remaining--
			}
			node++
		}
	}
	if remaining > 0 {
		return nil
	}
	sort.Ints(alloc)
	return alloc
}

func referenceTakeFromGroup(s *Scheduler, g, n int) []int {
	out := make([]int, 0, n)
	start := g * s.nodesPerGroup
	end := start + s.nodesPerGroup
	if end > s.totalNodes {
		end = s.totalNodes
	}
	for node := start; node < end && len(out) < n; {
		w := s.freeBits[node>>6] >> (node & 63)
		if w == 0 {
			node = (node &^ 63) + 64
			continue
		}
		node += bits.TrailingZeros64(w)
		if node >= end {
			break
		}
		out = append(out, node)
		node++
	}
	return out
}

// setState overwrites the scheduler's node state with the given idle and
// unhealthy flags and rebuilds the scheduling index from them.
func setState(s *Scheduler, free, unhealthy []bool) {
	clear(s.idle)
	clear(s.down)
	clear(s.freeBits)
	clear(s.groupFree)
	s.freeHealthy = 0
	for n := range free {
		if free[n] {
			s.idle[n>>6] |= 1 << (n & 63)
		}
		if unhealthy[n] {
			s.down[n>>6] |= 1 << (n & 63)
		}
		if free[n] && !unhealthy[n] {
			s.setFree(n)
		}
	}
}

// place must pick exactly the nodes the sort-based reference picks, in
// the same order, over random idle/unhealthy bitmaps and job sizes —
// sparse and dense machines, pack and spread paths, fits and misses.
func TestPlaceMatchesReference(t *testing.T) {
	for _, shape := range [][3]int{{6, 8, 4}, {10, 16, 8}, {3, 32, 16}} {
		s := newScheduler(t, sim.NewKernel(1), machine.Scaled(shape[0], shape[1], shape[2]))
		r := rng.New(int64(shape[0]*1000 + shape[1]))
		free := make([]bool, s.totalNodes)
		unhealthy := make([]bool, s.totalNodes)
		for trial := 0; trial < 500; trial++ {
			pFree, pSick := r.Float64(), 0.2*r.Float64()
			for n := range free {
				free[n] = r.Float64() < pFree
				unhealthy[n] = r.Float64() < pSick
			}
			setState(s, free, unhealthy)
			for k := 0; k < 8; k++ {
				n := 1 + r.Intn(s.totalNodes)
				if k%2 == 0 && s.freeHealthy > 0 {
					n = 1 + r.Intn(s.freeHealthy) // mostly jobs that fit
				}
				got, want := s.place(n), referencePlace(s, n)
				if !slices.Equal(got, want) {
					t.Fatalf("%v trial %d: place(%d) with %d free = %v, reference %v",
						shape, trial, n, s.freeHealthy, got, want)
				}
			}
			for g, tk := range s.take {
				if tk != 0 {
					t.Fatalf("%v trial %d: take[%d] = %d left behind", shape, trial, g, tk)
				}
			}
		}
	}
}
