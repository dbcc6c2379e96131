package network

import (
	"fmt"
	"math"
	"sync"

	"frontiersim/internal/fabric"
)

// Solver is a reusable water-filling solver arena. A zero-value Solver is
// ready to use; each call to Solve sizes the internal buffers as needed
// and subsequent calls reuse them, so repeated solves within one
// experiment are allocation-free in steady state. A cold solve costs a
// fixed 15 slice allocations whatever the demand count
// (TestColdSolveAllocationsBounded): all per-link and per-subflow
// adjacency lives in flat CSR arrays rather than per-element slices, and
// a pre-pass over the path lengths reserves every arena slice at its
// final size, so none grows by doubling. Cold solves are the common case
// at census scale, because the pool behind the package-level Solve drops
// its arenas at every GC. A Solver is not safe for concurrent use; the
// package-level Solve wrapper draws Solvers from a pool and is.
//
// The arena replaces the per-call map from fabric link id to local index
// with an epoch-stamped dense slice: fabric link ids are dense ints, so a
// versioned slice gives O(1) lookup with no clearing between solves — a
// slot is valid only when its stamp matches the current solve's epoch.
type Solver struct {
	// idx[lid] is the arena index of fabric link lid, valid iff
	// stamp[lid] == epoch. Neither slice is cleared between solves.
	idx   []int32
	stamp []uint32
	epoch uint32

	// Per-link state, indexed by arena link index. Demand-cap
	// pseudo-links live in the same space as real fabric links.
	linkCap   []float64
	linkUsed  []float64
	linkCount []int32 // unfrozen subflows crossing the link
	linkStart []int32 // CSR offsets into linkSubs (len nlinks+1)
	linkSubs  []int32 // subflow indices, grouped by link
	cursor    []int32 // scratch fill cursor for the CSR pass

	// Per-subflow state, indexed by subflow index. Subflows are numbered
	// in demand order, path by path, so demand d's subflows are the
	// len(d.Paths) consecutive indices after its predecessors'.
	subDemand []int32
	subPseudo []int32 // arena index of the cap pseudo-link, or -1
	subStart  []int32 // CSR offsets into subLinks (len nsubs+1)
	subLinks  []int32 // arena link indices, grouped by subflow
	// subRate is a subflow's frozen rate, negative while it is unfrozen
	// (a frozen level is never negative: bounds clamp at zero).
	subRate []float64

	// demRate[di] accumulates demand di's rate in freeze order, the order
	// referenceSolve adds in, so Demand.Rate keeps its bits.
	demRate []float64

	heap []boundEntry
}

// NewSolver returns an empty solver arena.
func NewSolver() *Solver { return &Solver{} }

// solverPool backs the package-level Solve wrapper so concurrent callers
// each get a private arena and steady-state calls stay allocation-free.
var solverPool = sync.Pool{New: func() any { return NewSolver() }}

// reset advances the link-index epoch for a solve over a fabric with
// numLinks links, reallocating the index if it is smaller than that.
func (s *Solver) reset(numLinks int) {
	if len(s.stamp) < numLinks {
		s.stamp = make([]uint32, numLinks)
		s.idx = make([]int32, numLinks)
		s.epoch = 0
	}
	s.epoch++
	if s.epoch == 0 { // stamp wrap: invalidate every slot once per 2^32 solves
		for i := range s.stamp {
			s.stamp[i] = 0
		}
		s.epoch = 1
	}
}

// reserve is build's pre-pass: from the path lengths alone it empties
// the append-built arena slices and makes sure each can hold everything
// this solve appends — allocating at that size only when the current
// array is too small — so no slice grows by doubling mid-build. Arena
// links are the distinct fabric links (at most min(pathLinks, numLinks))
// plus one pseudo-link per capped subflow; the heap never holds more
// entries than there are arena links. It validates nothing, so errors
// still come from build's first pass, in demand order.
func (s *Solver) reserve(numLinks int, demands []*Demand) {
	nsubs, pathLinks, capped := 0, 0, 0
	for _, d := range demands {
		nsubs += len(d.Paths)
		for _, p := range d.Paths {
			pathLinks += len(p)
		}
		if d.Cap > 0 {
			capped += len(d.Paths)
		}
	}
	nlinks := min(pathLinks, numLinks) + capped
	s.linkCap = emptyWithCap(s.linkCap, nlinks)
	s.linkCount = emptyWithCap(s.linkCount, nlinks)
	s.subDemand = emptyWithCap(s.subDemand, nsubs)
	s.subPseudo = emptyWithCap(s.subPseudo, nsubs)
	s.subLinks = emptyWithCap(s.subLinks, pathLinks+capped)
	s.heap = emptyWithCap(s.heap, nlinks)
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

// zeroDemandRates clears every demand's allocation so error paths never
// leave the set half-written: before the fix a mid-solve error (say a
// demand routed over a down link) left demands before the failure point
// zeroed and demands after it still carrying the previous solve's rates.
func zeroDemandRates(demands []*Demand) {
	for _, d := range demands {
		d.Rate = 0
		for i := range d.SubRates {
			d.SubRates[i] = 0
		}
	}
}

// Solve computes the max-min fair allocation for the demands on fabric f.
// Results are byte-identical to the pre-arena package-level Solve: the
// CSR arena changes where scratch state lives, not the order of any
// floating-point operation (TestSolverMatchesReference pins this against
// a verbatim copy of the original implementation).
//
// On error every demand is left with Rate 0 and all SubRates zeroed.
func (s *Solver) Solve(f *fabric.Fabric, demands []*Demand) error {
	s.reset(len(f.Links))
	if err := s.build(f, demands); err != nil {
		zeroDemandRates(demands)
		return err
	}
	if err := s.fill(demands); err != nil {
		zeroDemandRates(demands)
		return err
	}
	return nil
}

// build sizes the arena from the path lengths, then runs the two
// construction passes: validate demands, assign arena link indices in
// first-encounter order (pseudo-links interleave after each capped path,
// exactly as the original append order did), count per-link degrees, and
// fill the link→subflow / subflow→link CSR arrays.
func (s *Solver) build(f *fabric.Fabric, demands []*Demand) error {
	s.reserve(len(f.Links), demands)
	for di, d := range demands {
		if len(d.Paths) == 0 {
			return fmt.Errorf("network: demand %d (%d->%d) has no paths", di, d.Src, d.Dst)
		}
		if cap(d.SubRates) >= len(d.Paths) {
			d.SubRates = d.SubRates[:len(d.Paths)]
		} else {
			d.SubRates = make([]float64, len(d.Paths))
		}
		for _, p := range d.Paths {
			for _, lid := range p {
				if s.stamp[lid] != s.epoch {
					fl := f.Links[lid]
					if !fl.Up {
						return fmt.Errorf("network: demand %d routed over down link %d", di, lid)
					}
					s.idx[lid] = int32(len(s.linkCap))
					s.stamp[lid] = s.epoch
					s.linkCap = append(s.linkCap, fl.Cap)
					s.linkCount = append(s.linkCount, 0)
				}
				s.linkCount[s.idx[lid]]++
			}
			pseudo := int32(-1)
			if d.Cap > 0 {
				// Pseudo-link private to this subflow, enforcing the
				// demand cap split evenly across its paths.
				pseudo = int32(len(s.linkCap))
				s.linkCap = append(s.linkCap, d.Cap/float64(len(d.Paths)))
				s.linkCount = append(s.linkCount, 1)
			}
			s.subDemand = append(s.subDemand, int32(di))
			s.subPseudo = append(s.subPseudo, pseudo)
		}
	}
	nlinks, nsubs := len(s.linkCap), len(s.subDemand)

	// Prefix sums over the degrees give the CSR offsets; the fill pass
	// revisits the demands in the same order, so every link's subflow
	// list ends up in exactly the order the original built by appends.
	s.linkStart = grow(s.linkStart, nlinks+1)
	s.cursor = grow(s.cursor, nlinks)
	total := int32(0)
	for li := 0; li < nlinks; li++ {
		s.linkStart[li] = total
		s.cursor[li] = total
		total += s.linkCount[li]
	}
	s.linkStart[nlinks] = total
	s.linkSubs = grow(s.linkSubs, int(total))
	s.subStart = grow(s.subStart, nsubs+1)

	si := int32(0)
	for _, d := range demands {
		for _, p := range d.Paths {
			s.subStart[si] = int32(len(s.subLinks))
			for _, lid := range p {
				li := s.idx[lid]
				s.linkSubs[s.cursor[li]] = si
				s.cursor[li]++
				s.subLinks = append(s.subLinks, li)
			}
			if pseudo := s.subPseudo[si]; pseudo >= 0 {
				s.linkSubs[s.cursor[pseudo]] = si
				s.cursor[pseudo]++
				s.subLinks = append(s.subLinks, pseudo)
			}
			si++
		}
	}
	s.subStart[nsubs] = int32(len(s.subLinks))
	return nil
}

// fill runs the water-filling freeze loop over the CSR arrays build just
// produced, consuming the per-link degrees as it freezes: zero usage,
// repeatedly freeze the subflows crossing the tightest bottleneck, then
// write every demand's rates in one pass over the demands.
func (s *Solver) fill(demands []*Demand) error {
	nlinks := len(s.linkCap)
	nsubs := len(s.subDemand)

	s.linkUsed = grow(s.linkUsed, nlinks)
	for li := range s.linkUsed {
		s.linkUsed[li] = 0
	}
	s.subRate = grow(s.subRate, nsubs)
	for si := range s.subRate {
		s.subRate[si] = -1
	}
	s.demRate = grow(s.demRate, len(demands))
	for di := range s.demRate {
		s.demRate[di] = 0
	}

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
	for li := 0; li < nlinks; li++ {
		s.heapPush(boundEntry{bound(int32(li)), int32(li)})
	}

	remaining := nsubs
	for remaining > 0 && len(s.heap) > 0 {
		e := s.heapPop()
		cur := bound(e.link)
		if s.linkCount[e.link] == 0 {
			continue
		}
		if cur > e.bound+1e-15 {
			s.heapPush(boundEntry{cur, e.link})
			continue
		}
		level := cur
		// Freeze every unfrozen subflow crossing the bottleneck.
		for _, fsi := range s.linkSubs[s.linkStart[e.link]:s.linkStart[e.link+1]] {
			if s.subRate[fsi] >= 0 {
				continue
			}
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
	si := 0
	for di, d := range demands {
		d.Rate = s.demRate[di]
		si += copy(d.SubRates, s.subRate[si:])
	}
	return nil
}

type boundEntry struct {
	bound float64
	link  int32
}

// heapPush and heapPop are container/heap's push/pop specialised to
// []boundEntry: the sift loops are verbatim ports of heap.up/heap.down,
// so pop order — including ties — matches the pre-arena solver exactly,
// without boxing every entry through an interface.
func (s *Solver) heapPush(e boundEntry) {
	s.heap = append(s.heap, e)
	h := s.heap
	j := len(h) - 1
	for j > 0 {
		i := (j - 1) / 2
		if h[j].bound >= h[i].bound {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (s *Solver) heapPop() boundEntry {
	h := s.heap
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	// Sift the new root down over h[:n].
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && h[j2].bound < h[j1].bound {
			j = j2
		}
		if h[j].bound >= h[i].bound {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	e := h[n]
	s.heap = h[:n]
	return e
}
