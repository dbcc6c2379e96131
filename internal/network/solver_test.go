package network

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"frontiersim/internal/fabric"
	"frontiersim/internal/machine"
)

// referenceSolve is the pre-arena solver (per-call map link index,
// container/heap, fresh slices per call), kept verbatim as an oracle: the
// arena solver must match it float-for-float on any input.
func referenceSolve(f *fabric.Fabric, demands []*Demand) error {
	type link struct {
		cap   float64
		used  float64
		count int
		subs  []int32
	}
	var links []link
	linkIdx := make(map[int]int32)

	type subflow struct {
		demand int32
		path   int32
		links  []int32
	}
	var subs []subflow

	for di, d := range demands {
		if len(d.Paths) == 0 {
			return fmt.Errorf("network: demand %d (%d->%d) has no paths", di, d.Src, d.Dst)
		}
		d.SubRates = make([]float64, len(d.Paths))
		d.Rate = 0
		for pi, p := range d.Paths {
			si := int32(len(subs))
			sf := subflow{demand: int32(di), path: int32(pi)}
			for _, lid := range p {
				li, ok := linkIdx[lid]
				if !ok {
					li = int32(len(links))
					linkIdx[lid] = li
					fl := f.Links[lid]
					links = append(links, link{cap: fl.Cap})
				}
				links[li].count++
				links[li].subs = append(links[li].subs, si)
				sf.links = append(sf.links, li)
			}
			if d.Cap > 0 {
				li := int32(len(links))
				links = append(links, link{cap: d.Cap / float64(len(d.Paths)), count: 1, subs: []int32{si}})
				sf.links = append(sf.links, li)
			}
			subs = append(subs, sf)
		}
	}

	h := &refBoundHeap{}
	bound := func(li int32) float64 {
		l := &links[li]
		if l.count == 0 {
			return math.Inf(1)
		}
		b := (l.cap - l.used) / float64(l.count)
		if b < 0 {
			b = 0
		}
		return b
	}
	for li := range links {
		heap.Push(h, boundEntry{bound(int32(li)), int32(li)})
	}

	frozen := make([]bool, len(subs))
	remaining := len(subs)
	for remaining > 0 && h.Len() > 0 {
		e := heap.Pop(h).(boundEntry)
		cur := bound(e.link)
		if links[e.link].count == 0 {
			continue
		}
		if cur > e.bound+1e-15 {
			heap.Push(h, boundEntry{cur, e.link})
			continue
		}
		level := cur
		for _, si := range links[e.link].subs {
			if frozen[si] {
				continue
			}
			frozen[si] = true
			remaining--
			d := demands[subs[si].demand]
			d.SubRates[subs[si].path] = level
			d.Rate += level
			for _, li := range subs[si].links {
				links[li].used += level
				links[li].count--
			}
		}
	}
	if remaining > 0 {
		return fmt.Errorf("network: solver left %d subflows unallocated", remaining)
	}
	return nil
}

type refBoundHeap []boundEntry

func (h refBoundHeap) Len() int           { return len(h) }
func (h refBoundHeap) Less(i, j int) bool { return h[i].bound < h[j].bound }
func (h refBoundHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refBoundHeap) Push(x any)        { *h = append(*h, x.(boundEntry)) }
func (h *refBoundHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

func cloneDemands(demands []*Demand) []*Demand {
	out := make([]*Demand, len(demands))
	for i, d := range demands {
		c := *d
		c.SubRates = nil
		out[i] = &c
	}
	return out
}

// The arena solver must be bit-identical to the pre-arena implementation
// on randomised demand sets, including repeated solves reusing one arena:
// re-solving the same demands must reproduce the reference answer.
// Changing demand sets are covered by
// TestSolverMatchesReferenceDeltaSequences.
func TestSolverMatchesReference(t *testing.T) {
	f := smallFabric(t)
	rng := rand.New(rand.NewSource(42))
	s := NewSolver()
	for trial := 0; trial < 25; trial++ {
		var demands []*Demand
		n := 2 + rng.Intn(40)
		for i := 0; i < n; i++ {
			src := rng.Intn(f.NumEndpoints)
			dst := rng.Intn(f.NumEndpoints)
			if src == dst {
				continue
			}
			d := demand(t, f, src, dst, rng.Intn(4), rng)
			if rng.Intn(3) == 0 {
				d.Cap = float64(1+rng.Intn(30)) * 1e9
			}
			demands = append(demands, d)
		}
		if len(demands) == 0 {
			continue
		}
		ref := cloneDemands(demands)
		if err := referenceSolve(f, ref); err != nil {
			t.Fatal(err)
		}
		if err := s.Solve(f, demands); err != nil {
			t.Fatal(err)
		}
		compare := func(stage string) {
			t.Helper()
			for i := range demands {
				if demands[i].Rate != ref[i].Rate {
					t.Fatalf("trial %d %s demand %d: arena rate %v != reference %v", trial, stage, i, demands[i].Rate, ref[i].Rate)
				}
				for pi := range demands[i].SubRates {
					if demands[i].SubRates[pi] != ref[i].SubRates[pi] {
						t.Fatalf("trial %d %s demand %d path %d: arena %v != reference %v",
							trial, stage, i, pi, demands[i].SubRates[pi], ref[i].SubRates[pi])
					}
				}
			}
		}
		compare("cold")
		// Re-solve: nothing changed, the previous answer stands.
		if err := s.Solve(f, demands); err != nil {
			t.Fatal(err)
		}
		compare("re-solve")
	}
}

// FuzzSolverMatchesReference builds one random demand set three ways —
// routed straight into a pooled arena as the census does, loaded from
// []*Demand through Solve, and solved by referenceSolve — and requires
// bit-identical rates from all three, the same errors, and one cache
// signature for the arena and the demand set. Demands draw 1–5 routes
// on a small dragonfly, so routes share links; some are capped, some
// repeat an earlier pair's routes exactly, and a rare one has no route.
func FuzzSolverMatchesReference(f *testing.F) {
	fab, err := machine.Scaled(6, 8, 4).NewFabric()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(int64(1), uint8(12), uint8(4), uint8(3))
	f.Add(int64(42), uint8(40), uint8(0), uint8(1))
	f.Add(int64(7), uint8(3), uint8(2), uint8(0))
	f.Add(int64(-5), uint8(255), uint8(255), uint8(2))
	// Heap ties here make demand 9's rate depend on seeding the heap in
	// the order the problem first met its links.
	f.Add(int64(-113), uint8(34), uint8(0), uint8(6))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, valiantRaw, capEvery uint8) {
		n, valiant := 1+int(nRaw)%48, int(valiantRaw)%5
		pick := rand.New(rand.NewSource(seed))
		fusedRoutes := rand.New(rand.NewSource(seed + 1))
		demandRoutes := rand.New(rand.NewSource(seed + 1))

		s := solverPool.Get().(*Solver)
		defer solverPool.Put(s)
		routes, routeLinks := routedBound(n, valiant)
		s.begin(fab, n, routes, routeLinks, routes)
		var demands []*Demand
		for len(demands) < n {
			limit := 0.0
			if capEvery > 0 && pick.Intn(int(capEvery)+1) == 0 {
				limit = float64(1+pick.Intn(40)) * 1e9
			}
			switch k := pick.Intn(20); {
			case k == 0:
				d := &Demand{Src: 1, Dst: 2, Cap: limit}
				s.add(d.Src, d.Dst, limit, nil, []int{0})
				demands = append(demands, d)
				continue
			case k < 4 && len(demands) > 0:
				// The same routes again: every link shared.
				prev := demands[pick.Intn(len(demands))]
				links, ends := []int(nil), []int{0}
				for _, p := range prev.Paths {
					links = append(links, p...)
					ends = append(ends, len(links))
				}
				d := &Demand{Src: prev.Src, Dst: prev.Dst, Paths: prev.Paths, Cap: limit}
				s.add(d.Src, d.Dst, limit, links, ends)
				demands = append(demands, d)
				continue
			}
			src, dst := pick.Intn(fab.NumEndpoints), pick.Intn(fab.NumEndpoints)
			if src == dst {
				continue
			}
			paths, err := adaptivePaths(fab, src, dst, valiant, demandRoutes)
			fusedErr := s.addRouted(src, dst, limit, valiant, fusedRoutes)
			if (err == nil) != (fusedErr == nil) {
				t.Fatalf("routing %d->%d: demand err %v, arena err %v", src, dst, err, fusedErr)
			}
			if err != nil {
				continue
			}
			demands = append(demands, &Demand{Src: src, Dst: dst, Paths: paths, Cap: limit})
		}
		if got, want := s.signature(), DemandSignature(demands); got != want {
			t.Fatal("arena signature differs from DemandSignature of the same demands")
		}
		ref := cloneDemands(demands)
		refErr := referenceSolve(fab, ref)
		loadErr := NewSolver().Solve(fab, demands)
		fusedErr := s.solve()
		if (refErr == nil) != (loadErr == nil) || (refErr == nil) != (fusedErr == nil) {
			t.Fatalf("errors differ: reference %v, Solve %v, arena %v", refErr, loadErr, fusedErr)
		}
		if refErr != nil {
			if refErr.Error() != loadErr.Error() || refErr.Error() != fusedErr.Error() {
				t.Fatalf("error text differs: reference %q, Solve %q, arena %q", refErr, loadErr, fusedErr)
			}
			return
		}
		for di, d := range demands {
			if d.Rate != ref[di].Rate || s.demRate[di] != ref[di].Rate {
				t.Fatalf("demand %d: Solve %v, arena %v, reference %v", di, d.Rate, s.demRate[di], ref[di].Rate)
			}
			sub := s.subRate[s.demSub[di]:s.demSub[di+1]]
			if len(sub) != len(ref[di].SubRates) || len(d.SubRates) != len(ref[di].SubRates) {
				t.Fatalf("demand %d: %d arena and %d Solve subflows, want %d", di, len(sub), len(d.SubRates), len(ref[di].SubRates))
			}
			for r, want := range ref[di].SubRates {
				if d.SubRates[r] != want || sub[r] != want {
					t.Fatalf("demand %d route %d: Solve %v, arena %v, reference %v", di, r, d.SubRates[r], sub[r], want)
				}
			}
		}
	})
}

// A dedicated Solver re-solving the same demand set allocates nothing in
// steady state: the arena, the heap, and the demands' SubRates are all
// reused.
func TestSolverSteadyStateAllocationFree(t *testing.T) {
	f := smallFabric(t)
	rng := rand.New(rand.NewSource(43))
	var demands []*Demand
	for i := 0; i < 24; i++ {
		demands = append(demands, demand(t, f, rng.Intn(96), 96+rng.Intn(96), 3, rng))
	}
	s := NewSolver()
	if err := s.Solve(f, demands); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := s.Solve(f, demands); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("steady-state solve allocates %.1f objects/op, want 0", allocs)
	}
}

// A fresh Solver reserves every arena slice at its final size before
// building, so a cold solve costs the same few allocations on eight
// demands as on a GPCNeT-sized set, instead of one per doubling of each
// slice. The demands' SubRates belong to the caller and are sized by a
// first solve before counting.
func TestColdSolveAllocationsBounded(t *testing.T) {
	f := smallFabric(t)
	rng := rand.New(rand.NewSource(45))
	cold := func(n int) float64 {
		demands := make([]*Demand, 0, n)
		for len(demands) < n {
			src, dst := rng.Intn(f.NumEndpoints), rng.Intn(f.NumEndpoints)
			if src == dst {
				continue
			}
			d := demand(t, f, src, dst, rng.Intn(4), rng)
			if rng.Intn(3) == 0 {
				d.Cap = float64(1+rng.Intn(30)) * 1e9
			}
			demands = append(demands, d)
		}
		if err := NewSolver().Solve(f, demands); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(3, func() {
			if err := NewSolver().Solve(f, demands); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := cold(8), cold(30000)
	if small > 16 || large != small {
		t.Errorf("cold solve allocates %.0f objects on 8 demands and %.0f on 30000; want the same constant, at most 16",
			small, large)
	}
}

// subRatesSum asserts the max-min invariant that SubRates sum to Rate.
func subRatesSum(t *testing.T, d *Demand) {
	t.Helper()
	var sum float64
	for _, r := range d.SubRates {
		sum += r
	}
	if math.Abs(sum-d.Rate) > 1e-6*math.Max(1, d.Rate) {
		t.Errorf("SubRates sum %.6g != Rate %.6g for %d->%d", sum, d.Rate, d.Src, d.Dst)
	}
}

// Cap smaller than the fair share: the pseudo-link binds first and the
// demand gets exactly its cap.
func TestSolveCapBelowFairShare(t *testing.T) {
	f := smallFabric(t)
	rng := rand.New(rand.NewSource(44))
	capped := demand(t, f, 0, 9, 0, rng)
	capped.Cap = 1e8 // far below the ~17.5e9 endpoint share
	other := demand(t, f, 1, 9, 0, rng)
	if err := Solve(f, []*Demand{capped, other}); err != nil {
		t.Fatal(err)
	}
	if math.Abs(capped.Rate-1e8) > 1 {
		t.Errorf("capped rate = %.6g, want its cap 1e8", capped.Rate)
	}
	ej := float64(f.Cfg.LinkRate) * f.Cfg.EndpointEfficiency
	if math.Abs(other.Rate-(ej-1e8)) > 1 {
		t.Errorf("uncapped rate = %.6g, want remainder %.6g", other.Rate, ej-1e8)
	}
	subRatesSum(t, capped)
	subRatesSum(t, other)
}

// Cap exactly equal to the path's capacity: cap pseudo-link and real
// bottleneck bind at the same level; the demand saturates both.
func TestSolveCapEqualToPathCapacity(t *testing.T) {
	f := smallFabric(t)
	rng := rand.New(rand.NewSource(45))
	d := demand(t, f, 0, 1, 0, rng)
	ej := float64(f.Cfg.LinkRate) * f.Cfg.EndpointEfficiency
	d.Cap = ej
	if err := Solve(f, []*Demand{d}); err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.Rate-ej)/ej > 1e-9 {
		t.Errorf("rate = %.6g, want path capacity %.6g", d.Rate, ej)
	}
	subRatesSum(t, d)
}

// A single-path capped demand: one subflow, one pseudo-link carrying the
// whole cap.
func TestSolveSinglePathCappedDemand(t *testing.T) {
	f := smallFabric(t)
	rng := rand.New(rand.NewSource(46))
	d := demand(t, f, 0, 9, 0, rng)
	if len(d.Paths) != 1 {
		t.Fatalf("want a single minimal path, got %d", len(d.Paths))
	}
	d.Cap = 3e9
	if err := Solve(f, []*Demand{d}); err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.Rate-3e9) > 1 {
		t.Errorf("rate = %.6g, want cap 3e9", d.Rate)
	}
	if len(d.SubRates) != 1 || math.Abs(d.SubRates[0]-d.Rate) > 1e-6 {
		t.Errorf("single subflow should carry the whole rate: %v", d.SubRates)
	}
	subRatesSum(t, d)
}

// A demand whose paths share every link (duplicated path set): the shared
// links see both subflows and split the capacity between them, so the
// demand total equals the link capacity regardless of the duplication.
func TestSolveDuplicatePathsShareEveryLink(t *testing.T) {
	f := smallFabric(t)
	rng := rand.New(rand.NewSource(47))
	d := demand(t, f, 0, 9, 0, rng)
	d.Paths = [][]int{d.Paths[0], append([]int(nil), d.Paths[0]...)}
	if err := Solve(f, []*Demand{d}); err != nil {
		t.Fatal(err)
	}
	ej := float64(f.Cfg.LinkRate) * f.Cfg.EndpointEfficiency
	if math.Abs(d.Rate-ej)/ej > 1e-9 {
		t.Errorf("rate = %.6g, want full link capacity %.6g split over clones", d.Rate, ej)
	}
	if math.Abs(d.SubRates[0]-d.SubRates[1]) > 1e-6 {
		t.Errorf("clone subflows should split evenly: %v", d.SubRates)
	}
	subRatesSum(t, d)
}

// LinkLoad regression: pin exact utilisation values on a tiny fabric.
func TestLinkLoadPinnedValues(t *testing.T) {
	f := smallFabric(t)
	rng := rand.New(rand.NewSource(48))
	// Two same-switch demands into one destination endpoint: inject links
	// at half load each, the shared ejection link exactly full.
	d1 := demand(t, f, 0, 2, 0, rng)
	d2 := demand(t, f, 1, 2, 0, rng)
	if err := Solve(f, []*Demand{d1, d2}); err != nil {
		t.Fatal(err)
	}
	load := LinkLoad(f, []*Demand{d1, d2})
	wantLinks := map[int]float64{
		d1.Paths[0][0]: 0.5, // inject 0
		d2.Paths[0][0]: 0.5, // inject 1
		d1.Paths[0][1]: 1.0, // shared ejection into endpoint 2
	}
	if len(load) != len(wantLinks) {
		t.Fatalf("LinkLoad covers %d links, want %d: %v", len(load), len(wantLinks), load)
	}
	for lid, want := range wantLinks {
		got, ok := load[lid]
		if !ok {
			t.Fatalf("link %d missing from LinkLoad", lid)
		}
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("link %d load = %.9f, want %.9f", lid, got, want)
		}
	}
}

// LinkLoad must agree with a plain map-based accumulation on random
// solved demand sets (it now accumulates in a dense scratch slice).
func TestLinkLoadMatchesMapAccumulation(t *testing.T) {
	f := smallFabric(t)
	rng := rand.New(rand.NewSource(49))
	var demands []*Demand
	for i := 0; i < 30; i++ {
		src := rng.Intn(f.NumEndpoints)
		dst := rng.Intn(f.NumEndpoints)
		if src == dst {
			continue
		}
		demands = append(demands, demand(t, f, src, dst, 2, rng))
	}
	if err := Solve(f, demands); err != nil {
		t.Fatal(err)
	}
	want := make(map[int]float64)
	for _, d := range demands {
		for pi, p := range d.Paths {
			for _, lid := range p {
				want[lid] += d.SubRates[pi]
			}
		}
	}
	for lid := range want {
		want[lid] /= f.Links[lid].Cap
	}
	got := LinkLoad(f, demands)
	if len(got) != len(want) {
		t.Fatalf("LinkLoad covers %d links, want %d", len(got), len(want))
	}
	for lid, w := range want {
		if g := got[lid]; g != w {
			t.Errorf("link %d: got %.12g want %.12g", lid, g, w)
		}
	}
}
