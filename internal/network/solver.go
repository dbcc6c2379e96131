package network

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"frontiersim/internal/fabric"
)

// Solver is a reusable water-filling solver arena. A zero-value Solver is
// ready to use; each solve sizes the internal buffers as needed and
// subsequent solves reuse them, so repeated solves within one experiment
// are allocation-free in steady state. A Solver is not safe for
// concurrent use; the package-level Solve wrapper draws Solvers from a
// pool and is.
//
// A problem is built straight from path generation: begin reserves the
// arena, addRouted routes one endpoint pair into reusable scratch and
// add counts each route link on the spot, appending it to the
// subflow→link CSR. Only the link→subflow CSR is left for a sequential
// pass over those arrays when the solve starts. Solve(f, []*Demand) is a
// thin adapter onto the same builder.
//
// Arena links are indexed by fabric link id, so a route needs no
// translation; each capped route's pseudo-link takes the next index past
// the fabric's links. The freeze loop seeds its heap in the order the
// problem first met its links, kept in order, because heap ties, and so
// the output's bits, depend on it.
type Solver struct {
	fab *fabric.Fabric

	// Per-link state, indexed by fabric link id; demand-cap
	// pseudo-links follow from len(fab.Links) on.
	linkCap   []float64
	linkUsed  []float64
	linkCount []int32 // unfrozen subflows crossing the link; 0 if unused
	linkStart []int32 // CSR offsets into linkSubs (len nlinks+1)
	linkSubs  []int32 // subflow indices, grouped by link
	// order lists the problem's links, real and pseudo, in the order
	// they were first met.
	order []int32

	// Per-subflow state, indexed by subflow index. Subflows are numbered
	// in demand order, route by route.
	subDemand []int32
	subStart  []int32 // CSR offsets into subLinks (len nsubs+1)
	subLinks  []int32 // link indices, grouped by subflow
	// subRate is a subflow's frozen rate. frozen has one bit per
	// subflow, set once it is frozen: a bitset small enough to stay in
	// cache for the freeze loop's membership test.
	subRate []float64
	frozen  []uint64

	// Per-demand state, indexed by demand index in add order.
	keys   []demandKey
	demSub []int32 // CSR offsets into the subflows (len ndemands+1)
	// demRate[di] accumulates demand di's rate in freeze order, the order
	// referenceSolve adds in, so a demand's rate keeps its bits.
	demRate []float64

	capped    bool    // the demand being added has a cap
	pseudoCap float64 // its cap split evenly over its routes
	empty     int     // first demand added with no route, or -1

	// Route scratch for addRouted: one path set at a time.
	pathLinks, pathEnds []int

	// The freeze loop's lazy min-heap of (bound, link), see heapPop.
	heapB []float64
	heapL []int32
}

// demandKey is what the solver keeps of a demand besides its routes:
// the endpoints and cap that name it in errors and signatures.
type demandKey struct {
	src, dst int32
	cap      float64
}

// NewSolver returns an empty solver arena.
func NewSolver() *Solver { return &Solver{} }

// solverPool backs the package-level Solve wrapper and the census and
// GPCNeT solves, so concurrent callers each get a private arena and
// steady-state calls stay allocation-free.
var solverPool = sync.Pool{New: func() any { return NewSolver() }}

// begin starts a problem on fabric f. The counts size the arena: the
// demands, their routes, the links over all routes and the routes of
// capped demands. Exact counts make every arena slice its final size at
// once; upper bounds do too at a little memory, and an undercount only
// costs append growth. The problem's links are the distinct fabric links
// (at most min(routeLinks, fabric links)) plus one pseudo-link per
// capped route; the heap never holds more entries than that.
func (s *Solver) begin(f *fabric.Fabric, demands, routes, routeLinks, capped int) {
	s.fab = f
	n := len(f.Links)
	// One sequential pass over the link table costs less than reading
	// each link's capacity at random as routes first meet it.
	// Room for the pseudo-links keeps their appends from reallocating.
	s.linkCap = grow(s.linkCap, n+capped)[:n]
	for lid := range s.linkCap {
		s.linkCap[lid] = f.Links[lid].Cap
	}
	s.linkCount = grow(s.linkCount, n+capped)[:n]
	clear(s.linkCount)
	nlinks := min(routeLinks, n) + capped
	s.order = emptyWithCap(s.order, nlinks)
	s.subDemand = emptyWithCap(s.subDemand, routes)
	s.subStart = append(emptyWithCap(s.subStart, routes+1), 0)
	s.subLinks = emptyWithCap(s.subLinks, routeLinks+capped)
	s.keys = emptyWithCap(s.keys, demands)
	s.demSub = append(emptyWithCap(s.demSub, demands+1), 0)
	s.heapB = emptyWithCap(s.heapB, nlinks)
	s.heapL = emptyWithCap(s.heapL, nlinks)
	s.empty = -1
}

// routedBound bounds the routes and route links of n adaptively routed
// demands with up to valiant detours each, for begin.
func routedBound(n, valiant int) (routes, routeLinks int) {
	routes = n * (1 + max(valiant, 0))
	return routes, routes * fabric.MaxRouteLinks
}

// emptyWithCap returns buf emptied, reallocated at capacity n if smaller.
func emptyWithCap[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, 0, n)
	}
	return buf[:0]
}

// grow returns buf resized to n, reusing its backing array when possible.
func grow[T any](buf []T, n int) []T {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]T, n)
}

// addRouted routes src→dst over its adaptive path set, drawing from rng
// exactly as fabric.AppendAdaptivePaths does, and adds the pair as one
// demand. A routing error adds nothing.
func (s *Solver) addRouted(src, dst int, limit float64, valiant int, rng *rand.Rand) error {
	links, ends, err := s.fab.AppendAdaptivePaths(s.pathLinks[:0], append(s.pathEnds[:0], 0), src, dst, valiant, rng)
	s.pathLinks, s.pathEnds = links, ends
	if err != nil {
		return err
	}
	s.add(src, dst, limit, links, ends)
	return nil
}

// add appends one demand whose routes are links[ends[r]:ends[r+1]]. A
// positive limit caps the demand's total rate (bytes/s).
func (s *Solver) add(src, dst int, limit float64, links, ends []int) {
	s.open(src, dst, limit, len(ends)-1)
	for r := 1; r < len(ends); r++ {
		s.route(links[ends[r-1]:ends[r]])
	}
}

// open starts a demand of the given route count; route adds each route.
// A demand with no routes fails the solve, in add order.
func (s *Solver) open(src, dst int, limit float64, routes int) {
	if routes == 0 && s.empty < 0 {
		s.empty = len(s.keys)
	}
	s.keys = append(s.keys, demandKey{int32(src), int32(dst), limit})
	s.demSub = append(s.demSub, s.demSub[len(s.demSub)-1]+int32(routes))
	s.capped = limit > 0
	s.pseudoCap = limit / float64(routes)
}

// route appends one subflow of the open demand, noting each link the
// first time the problem meets it. A capped demand's private
// pseudo-link, enforcing its cap split evenly across its routes, is met
// right after each route's links.
func (s *Solver) route(links []int) {
	for _, lid := range links {
		if s.linkCount[lid] == 0 {
			s.order = append(s.order, int32(lid))
		}
		s.linkCount[lid]++
		s.subLinks = append(s.subLinks, int32(lid))
	}
	if s.capped {
		pseudo := int32(len(s.linkCap))
		s.linkCap = append(s.linkCap, s.pseudoCap)
		s.linkCount = append(s.linkCount, 1)
		s.order = append(s.order, pseudo)
		s.subLinks = append(s.subLinks, pseudo)
	}
	s.subDemand = append(s.subDemand, int32(len(s.keys)-1))
	s.subStart = append(s.subStart, int32(len(s.subLinks)))
}

// solve computes the max-min fair allocation of the problem built since
// begin: it fails on the first demand added with no route, then builds
// the link→subflow CSR and runs the freeze loop.
func (s *Solver) solve() error {
	if s.empty >= 0 {
		k := s.keys[s.empty]
		return fmt.Errorf("network: demand %d (%d->%d) has no paths", s.empty, k.src, k.dst)
	}
	s.index()
	return s.fill()
}

// index builds the link→subflow CSR from the per-link degrees in one
// sequential pass over the subflows. The pass runs backwards, filling
// each link's block from its end, so every link's subflows come out in
// ascending order — the order referenceSolve builds them in by appends.
func (s *Solver) index() {
	nlinks := len(s.linkCap)
	s.linkStart = grow(s.linkStart, nlinks+1)
	total := int32(0)
	for li, c := range s.linkCount {
		total += c
		s.linkStart[li] = total
	}
	s.linkStart[nlinks] = total
	s.linkSubs = grow(s.linkSubs, int(total))
	for si := len(s.subDemand) - 1; si >= 0; si-- {
		for _, li := range s.subLinks[s.subStart[si]:s.subStart[si+1]] {
			s.linkStart[li]--
			s.linkSubs[s.linkStart[li]] = int32(si)
		}
	}
}

// load builds the problem of a demand set, sizing the arena from the
// path lengths.
func (s *Solver) load(f *fabric.Fabric, demands []*Demand) {
	routes, routeLinks, capped := 0, 0, 0
	for _, d := range demands {
		routes += len(d.Paths)
		for _, p := range d.Paths {
			routeLinks += len(p)
		}
		if d.Cap > 0 {
			capped += len(d.Paths)
		}
	}
	s.begin(f, len(demands), routes, routeLinks, capped)
	for _, d := range demands {
		s.open(d.Src, d.Dst, d.Cap, len(d.Paths))
		for _, p := range d.Paths {
			s.route(p)
		}
	}
}

// writeRates copies the solved allocation onto the demands it was
// loaded from, reusing each demand's SubRates when it is large enough.
func (s *Solver) writeRates(demands []*Demand) {
	for di, d := range demands {
		d.Rate = s.demRate[di]
		sub := s.subRate[s.demSub[di]:s.demSub[di+1]]
		d.SubRates = grow(d.SubRates, len(sub))
		copy(d.SubRates, sub)
	}
}

// zeroDemandRates clears every demand's allocation so error paths never
// leave the set half-written.
func zeroDemandRates(demands []*Demand) {
	for _, d := range demands {
		d.Rate = 0
		clear(d.SubRates)
	}
}

// Solve computes the max-min fair allocation for the demands on fabric f.
// It loads the demands through the same builder the census uses and
// copies the result back, so results are byte-identical to the pre-arena
// package-level Solve (TestSolverMatchesReference pins this against a
// verbatim copy of the original implementation). The load reserves
// every arena slice at its final size from the path lengths, so a cold
// solve costs the same 16 slice allocations whatever the demand count
// (TestColdSolveAllocationsBounded).
//
// On error every demand is left with Rate 0 and all SubRates zeroed.
func (s *Solver) Solve(f *fabric.Fabric, demands []*Demand) error {
	s.load(f, demands)
	if err := s.solve(); err != nil {
		zeroDemandRates(demands)
		return err
	}
	s.writeRates(demands)
	return nil
}

// linkUse sums the solved subflow rates crossing each link,
// subflow by subflow and link by link: per link, the additions come in
// demand, route and link order.
func (s *Solver) linkUse() []float64 {
	used := make([]float64, len(s.linkCap))
	for si, r := range s.subRate[:len(s.subDemand)] {
		for _, li := range s.subLinks[s.subStart[si]:s.subStart[si+1]] {
			used[li] += r
		}
	}
	return used
}

// fill runs the water-filling freeze loop over the CSR arrays index just
// produced, consuming the per-link degrees as it freezes: zero usage,
// then repeatedly freeze the subflows crossing the tightest bottleneck,
// adding each frozen level to its demand's rate.
func (s *Solver) fill() error {
	nlinks := len(s.linkCap)
	nsubs := len(s.subDemand)

	s.linkUsed = grow(s.linkUsed, nlinks)
	clear(s.linkUsed)
	s.subRate = grow(s.subRate, nsubs)
	s.frozen = grow(s.frozen, (nsubs+63)/64)
	clear(s.frozen)
	s.demRate = grow(s.demRate, len(s.keys))
	clear(s.demRate)

	// Lazy heap of (bound, link): bounds only grow as flows freeze, so a
	// stale entry is re-pushed with its recomputed bound.
	bound := func(li int32) float64 {
		if s.linkCount[li] == 0 {
			return math.Inf(1)
		}
		b := (s.linkCap[li] - s.linkUsed[li]) / float64(s.linkCount[li])
		if b < 0 {
			b = 0
		}
		return b
	}
	for _, li := range s.order {
		s.heapPush(boundEntry{bound(li), li})
	}

	remaining := nsubs
	for remaining > 0 && len(s.heapB) > 0 {
		e := s.heapPop()
		if s.linkCount[e.link] == 0 {
			continue // drained: no bound to recompute
		}
		cur := bound(e.link)
		if cur > e.bound+1e-15 {
			s.heapPush(boundEntry{cur, e.link})
			continue
		}
		level := cur
		// Freeze every unfrozen subflow crossing the bottleneck.
		for _, fsi := range s.linkSubs[s.linkStart[e.link]:s.linkStart[e.link+1]] {
			w, bit := fsi>>6, uint64(1)<<(fsi&63)
			if s.frozen[w]&bit != 0 {
				continue
			}
			s.frozen[w] |= bit
			s.subRate[fsi] = level
			remaining--
			s.demRate[s.subDemand[fsi]] += level
			for _, li := range s.subLinks[s.subStart[fsi]:s.subStart[fsi+1]] {
				s.linkUsed[li] += level
				s.linkCount[li]--
			}
		}
		// Neighbouring links got new bounds; lazy revalidation handles
		// them when popped, but the bottleneck itself is done.
	}
	if remaining > 0 {
		return fmt.Errorf("network: solver left %d subflows unallocated", remaining)
	}
	return nil
}

type boundEntry struct {
	bound float64
	link  int32
}

// heapPush and heapPop are container/heap's push/pop specialised to a
// heap of boundEntry kept as two parallel arrays, heapB of bounds and
// heapL of links, so the sift loops compare within the dense bounds
// alone. The loops move a hole instead of swapping, which leaves every
// entry where heap.up/heap.down's swaps would, so pop order — including
// ties — matches the pre-arena solver exactly, without boxing every
// entry through an interface.
func (s *Solver) heapPush(e boundEntry) {
	s.heapB = append(s.heapB, e.bound)
	s.heapL = append(s.heapL, e.link)
	hb, hl := s.heapB, s.heapL[:len(s.heapB)]
	j := len(hb) - 1
	for j > 0 {
		i := (j - 1) / 2
		if e.bound >= hb[i] {
			break
		}
		hb[j], hl[j] = hb[i], hl[i]
		j = i
	}
	hb[j], hl[j] = e.bound, e.link
}

func (s *Solver) heapPop() boundEntry {
	n := len(s.heapB) - 1
	top := boundEntry{s.heapB[0], s.heapL[0]}
	xb, xl := s.heapB[n], s.heapL[n]
	// Sift x, the last entry, down from the root over heap[:n].
	hb, hl := s.heapB[:n], s.heapL[:n]
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= len(hb) {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < len(hb) && hb[j2] < hb[j1] {
			j = j2
		}
		if hb[j] >= xb {
			break
		}
		hb[i], hl[i] = hb[j], hl[j]
		i = j
	}
	if n > 0 {
		hb[i], hl[i] = xb, xl
	}
	s.heapB, s.heapL = hb, hl
	return top
}
