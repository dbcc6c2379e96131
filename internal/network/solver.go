package network

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
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
// the fabric's links. The freeze loop takes links in (bound, link id)
// order, a total order, so its sequence, and so the output's bits,
// depend only on the problem and not on how the queue is laid out.
type Solver struct {
	fab *fabric.Fabric

	// Per-link state, indexed by fabric link id; demand-cap
	// pseudo-links follow from len(fab.Links) on.
	linkCap   []float64
	linkUsed  []float64
	linkCount []int32 // unfrozen subflows crossing the link; 0 if unused
	linkStart []int32 // CSR offsets into linkSubs (len nlinks+1)
	linkSubs  []int32 // subflow indices, grouped by link
	// run lists the problem's links, real and pseudo, in (initial
	// bound, link id) order: the freeze loop's queue before any link's
	// bound rises.
	run []int32

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

	// The freeze loop's min-heap of re-pushed (bound, link) entries, see
	// heapPop. Before the loop, sortRun borrows it as its value table.
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
// capped route; neither the run nor the heap ever holds more entries
// than that, and the heap has room for sortRun's smallest value table.
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
	s.run = emptyWithCap(s.run, nlinks)
	s.subDemand = emptyWithCap(s.subDemand, routes)
	s.subStart = append(emptyWithCap(s.subStart, routes+1), 0)
	s.subLinks = emptyWithCap(s.subLinks, routeLinks+capped)
	s.keys = emptyWithCap(s.keys, demands)
	s.demSub = append(emptyWithCap(s.demSub, demands+1), 0)
	s.heapB = emptyWithCap(s.heapB, max(nlinks, minValueTable))
	s.heapL = emptyWithCap(s.heapL, max(nlinks, minValueTable))
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

// route appends one subflow of the open demand, counting it on each of
// its links. A capped demand's private pseudo-link, enforcing its cap
// split evenly across its routes, follows each route's links.
func (s *Solver) route(links []int) {
	for _, lid := range links {
		s.linkCount[lid]++
		s.subLinks = append(s.subLinks, int32(lid))
	}
	if s.capped {
		pseudo := int32(len(s.linkCap))
		s.linkCap = append(s.linkCap, s.pseudoCap)
		s.linkCount = append(s.linkCount, 1)
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
// copies the result back, so the census and Solve agree bit for bit;
// TestSolverMatchesReference holds both to referenceSolve, a map and
// container/heap oracle with the same (bound, link id) freeze order.
// The load reserves every arena slice at its final size from the path
// lengths, so a cold solve costs the same 16 slice allocations whatever
// the demand count (TestColdSolveAllocationsBounded).
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
//
// Links are taken in (bound, link id) order from two queues: the run,
// every link at its initial bound, and a heap of the links whose bound
// rose after the run listed them. Bounds only grow as flows freeze, so a
// taken link whose bound has risen is stale and moves to the heap at its
// new bound. A drained link, with no unfrozen subflow left, is dropped.
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

	// bound is an undrained link's current fair share.
	bound := func(li int32) float64 {
		b := (s.linkCap[li] - s.linkUsed[li]) / float64(s.linkCount[li])
		if b < 0 {
			b = 0
		}
		return b
	}
	s.sortRun()

	run, next := s.run, 0
	var nextB float64 // run[next]'s initial bound
	if len(run) > 0 {
		nextB = s.initialBound(run[0])
	}
	remaining := nsubs
	for remaining > 0 && (next < len(run) || len(s.heapB) > 0) {
		var li int32
		var b float64
		if next < len(run) && (len(s.heapB) == 0 || before(nextB, run[next], s.heapB[0], s.heapL[0])) {
			li, b = run[next], nextB
			if next++; next < len(run) {
				nextB = s.initialBound(run[next])
			}
		} else {
			b, li = s.heapPop()
		}
		if s.linkCount[li] == 0 {
			continue // drained: no bound to recompute
		}
		cur := bound(li)
		if cur > b+1e-15 {
			s.heapPush(cur, li)
			continue
		}
		level := cur
		// Freeze every unfrozen subflow crossing the bottleneck.
		for _, fsi := range s.linkSubs[s.linkStart[li]:s.linkStart[li+1]] {
			w, bit := fsi>>6, uint64(1)<<(fsi&63)
			if s.frozen[w]&bit != 0 {
				continue
			}
			s.frozen[w] |= bit
			s.subRate[fsi] = level
			remaining--
			s.demRate[s.subDemand[fsi]] += level
			for _, sl := range s.subLinks[s.subStart[fsi]:s.subStart[fsi+1]] {
				s.linkUsed[sl] += level
				s.linkCount[sl]--
			}
		}
		// Neighbouring links got new bounds; they are revalidated when
		// taken, but the bottleneck itself is done.
	}
	if remaining > 0 {
		return fmt.Errorf("network: solver left %d subflows unallocated", remaining)
	}
	return nil
}

// minValueTable is the size sortRun's value table starts at: room for
// 128 distinct initial bounds, past the 90 a census solve has.
const minValueTable = 256

// sortRun fills s.run with the problem's links, those crossed by a
// subflow, in (initial bound, link id) order. It is a counting sort
// keyed by bound: one pass in link-id order counts the links of each
// distinct bound in an open-addressing value table, and a second places
// each link after the links of all smaller bounds, so the links of one
// bound stay in id order. The table borrows the heap's arrays, which
// stay empty until the freeze loop: a slot's bound in heapB, and in
// heapL its link count, then its next run position. It doubles, and
// counting starts over, whenever it is half full.
func (s *Solver) sortRun() {
	size, shift := minValueTable, 64-bits.TrailingZeros(minValueTable)
	var keys []float64
	var counts []int32 // 0 for a free slot
	var distinct, links int
count:
	for {
		s.heapB, s.heapL = grow(s.heapB, size), grow(s.heapL, size)
		keys, counts = s.heapB, s.heapL
		clear(counts)
		distinct, links = 0, 0
		for li, c := range s.linkCount {
			if c == 0 {
				continue
			}
			b := s.initialBound(int32(li))
			key := math.Float64bits(b)
			h := valueSlot(key, shift)
			for counts[h] != 0 && math.Float64bits(keys[h]) != key {
				h = (h + 1) & (size - 1)
			}
			if counts[h] == 0 {
				if distinct++; 2*distinct > size {
					size, shift = 2*size, shift-1
					continue count
				}
				keys[h] = b
			}
			counts[h]++
			links++
		}
		break
	}
	// List the used slots in the run's first entries, in bound order,
	// and turn each count into the run position its links start at.
	s.run = grow(s.run, links)
	slots := s.run[:0]
	for h, c := range counts {
		if c != 0 {
			slots = append(slots, int32(h))
		}
	}
	slices.SortFunc(slots, func(x, y int32) int { return cmp.Compare(keys[x], keys[y]) })
	pos := int32(0)
	for _, h := range slots {
		pos, counts[h] = pos+counts[h], pos
	}
	for li, c := range s.linkCount {
		if c == 0 {
			continue
		}
		key := math.Float64bits(s.initialBound(int32(li)))
		h := valueSlot(key, shift)
		for math.Float64bits(keys[h]) != key {
			h = (h + 1) & (size - 1)
		}
		s.run[counts[h]] = int32(li)
		counts[h]++
	}
	s.heapB, s.heapL = s.heapB[:0], s.heapL[:0]
}

// initialBound is link li's bound before anything froze, when its
// degree is still the length of its CSR block: the freeze loop's bound
// at that time, bit for bit.
func (s *Solver) initialBound(li int32) float64 {
	b := s.linkCap[li] / float64(s.linkStart[li+1]-s.linkStart[li])
	if b < 0 {
		b = 0
	}
	return b
}

// valueSlot hashes a bound's bits to its home slot in a value table of
// 1<<(64-shift) slots (Fibonacci hashing).
func valueSlot(key uint64, shift int) int {
	return int(key * 0x9e3779b97f4a7c15 >> shift)
}

// before reports whether the freeze loop takes entry (b1, l1) before
// (b2, l2): the lower bound first, and of equal bounds the lower link id.
func before(b1 float64, l1 int32, b2 float64, l2 int32) bool {
	return b1 < b2 || b1 == b2 && l1 < l2
}

// heapPush and heapPop keep a binary min-heap in before's order as two
// parallel arrays, heapB of bounds and heapL of links, so the sift loops
// read a link only on a tie. The loops move a hole instead of swapping.
// The order is total, so entries come out in one sequence whatever the
// heap's shape.
func (s *Solver) heapPush(b float64, l int32) {
	s.heapB = append(s.heapB, b)
	s.heapL = append(s.heapL, l)
	hb, hl := s.heapB, s.heapL[:len(s.heapB)]
	j := len(hb) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !before(b, l, hb[i], hl[i]) {
			break
		}
		hb[j], hl[j] = hb[i], hl[i]
		j = i
	}
	hb[j], hl[j] = b, l
}

func (s *Solver) heapPop() (float64, int32) {
	n := len(s.heapB) - 1
	topB, topL := s.heapB[0], s.heapL[0]
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
		if j2 := j1 + 1; j2 < len(hb) && before(hb[j2], hl[j2], hb[j1], hl[j1]) {
			j = j2
		}
		if !before(hb[j], hl[j], xb, xl) {
			break
		}
		hb[i], hl[i] = hb[j], hl[j]
		i = j
	}
	if n > 0 {
		hb[i], hl[i] = xb, xl
	}
	s.heapB, s.heapL = hb, hl
	return topB, topL
}
