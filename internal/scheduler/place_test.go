package scheduler

import (
	"fmt"
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

// checkPlace fails unless place(n) picks exactly the nodes the
// sort-based reference picks, as canonical runs — ascending, maximal,
// none crossing a group — whose eachWord masks equal a per-node build,
// and leaves no take count behind.
func checkPlace(t *testing.T, s *Scheduler, n int, ctx string) {
	t.Helper()
	got, ok := s.place(n)
	want := referencePlace(s, n)
	if ok != (want != nil) || !slices.Equal(got.AppendNodes(nil), want) {
		t.Fatalf("%s: place(%d) with %d free = %v (ok %v), reference %v",
			ctx, n, s.freeHealthy, got.AppendNodes(nil), ok, want)
	}
	runs := got.Runs()
	for i, r := range runs {
		if r.Count < 1 || r.First/s.nodesPerGroup != (r.End()-1)/s.nodesPerGroup {
			t.Fatalf("%s: place(%d) run %v is empty or crosses a group", ctx, n, r)
		}
		if i > 0 && (r.First < runs[i-1].End() || r.First == runs[i-1].End() && r.First%s.nodesPerGroup != 0) {
			t.Fatalf("%s: place(%d) run %v after %v is out of order or not maximal", ctx, n, r, runs[i-1])
		}
	}
	type mask struct {
		g, w int
		m    uint64
	}
	var masks, perNode []mask
	s.eachWord(got, func(g, w int, m uint64) { masks = append(masks, mask{g, w, m}) })
	for _, node := range want {
		g, w := node/s.nodesPerGroup, node>>6
		if k := len(perNode) - 1; k >= 0 && perNode[k].g == g && perNode[k].w == w {
			perNode[k].m |= 1 << (node & 63)
		} else {
			perNode = append(perNode, mask{g, w, 1 << (node & 63)})
		}
	}
	if !slices.Equal(masks, perNode) {
		t.Fatalf("%s: eachWord over place(%d) = %x, per-node build %x", ctx, n, masks, perNode)
	}
	for g, tk := range s.take {
		if tk != 0 {
			t.Fatalf("%s: take[%d] = %d left behind", ctx, g, tk)
		}
	}
}

// placeShapes are the (groups, switches per group, endpoints per switch)
// machines the placement tests draw from: groups inside one word, of one
// word, of 60 nodes (group edges mid-word), and of two whole words.
var placeShapes = [][3]int{{6, 8, 4}, {10, 16, 8}, {5, 15, 16}, {3, 32, 16}}

// place must pick exactly the nodes the sort-based reference picks, in
// the same order, over random idle/unhealthy bitmaps and job sizes —
// sparse and dense machines, pack and spread paths, fits and misses.
func TestPlaceMatchesReference(t *testing.T) {
	for _, shape := range placeShapes {
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
				checkPlace(t, s, n, fmt.Sprintf("%v trial %d", shape, trial))
			}
		}
	}
}

// FuzzPlaceMatchesReference holds place to the reference on a machine
// drawn from placeShapes, idle and unhealthy bitmaps drawn from seed at
// the densities pFree/255 and pSick/255, and a job of 1 + size mod the
// machine's nodes.
func FuzzPlaceMatchesReference(f *testing.F) {
	f.Add(uint8(0), int64(1), uint8(200), uint8(10), uint16(5))
	f.Add(uint8(1), int64(2), uint8(255), uint8(0), uint16(33))
	f.Add(uint8(2), int64(3), uint8(128), uint8(40), uint16(150))
	f.Add(uint8(3), int64(4), uint8(250), uint8(5), uint16(200))
	scheds := map[int]*Scheduler{}
	f.Fuzz(func(t *testing.T, shape uint8, seed int64, pFree, pSick uint8, size uint16) {
		i := int(shape) % len(placeShapes)
		s := scheds[i]
		if s == nil {
			sh := placeShapes[i]
			s = newScheduler(t, sim.NewKernel(1), machine.Scaled(sh[0], sh[1], sh[2]))
			scheds[i] = s
		}
		r := rng.New(seed)
		free := make([]bool, s.totalNodes)
		unhealthy := make([]bool, s.totalNodes)
		for n := range free {
			free[n] = r.Intn(255) < int(pFree)
			unhealthy[n] = r.Intn(255) < int(pSick)
		}
		setState(s, free, unhealthy)
		checkPlace(t, s, 1+int(size)%s.totalNodes, fmt.Sprintf("%v", placeShapes[i]))
	})
}
