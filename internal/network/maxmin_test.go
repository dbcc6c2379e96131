package network

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"frontiersim/internal/fabric"
	"frontiersim/internal/machine"
)

// LinkLoad reports post-solve utilisation of fabric links: a map from
// fabric link id to the fraction of capacity in use. Only links crossed
// by at least one demand appear. It re-solves the demands in a fresh
// arena (bit-identical to any earlier solve) and reads the arena's
// linkUse, the per-link sums GPCNeT's head-of-line test reads; the
// demands must solve.
func LinkLoad(f *fabric.Fabric, demands []*Demand) map[int]float64 {
	s := NewSolver()
	if err := s.Solve(f, demands); err != nil {
		panic(err)
	}
	used := s.linkUse()
	out := make(map[int]float64)
	for _, li := range s.subLinks {
		if int(li) < len(f.Links) {
			out[int(li)] = used[li] / s.linkCap[li]
		}
	}
	return out
}

func smallFabric(t *testing.T) *fabric.Fabric {
	t.Helper()
	f, err := machine.Scaled(6, 8, 4).NewFabric()
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func demand(t *testing.T, f *fabric.Fabric, src, dst, valiant int, rng *rand.Rand) *Demand {
	t.Helper()
	paths, err := adaptivePaths(f, src, dst, valiant, rng)
	if err != nil {
		t.Fatal(err)
	}
	return &Demand{Src: src, Dst: dst, Paths: paths}
}

// adaptivePaths routes one pair into fresh buffers and returns each
// route as its own slice, the shape a Demand carries.
func adaptivePaths(f *fabric.Fabric, src, dst, valiant int, rng *rand.Rand) ([][]int, error) {
	links, ends, err := f.AppendAdaptivePaths(nil, []int{0}, src, dst, valiant, rng)
	if err != nil {
		return nil, err
	}
	paths := make([][]int, len(ends)-1)
	for r := range paths {
		paths[r] = links[ends[r]:ends[r+1]:ends[r+1]]
	}
	return paths, nil
}

func TestSolveSingleFlow(t *testing.T) {
	f := smallFabric(t)
	rng := rand.New(rand.NewSource(1))
	// Same-switch pair: only endpoint links bind -> full endpoint rate.
	d := demand(t, f, 0, 1, 0, rng)
	if err := Solve(f, []*Demand{d}); err != nil {
		t.Fatal(err)
	}
	want := float64(f.Cfg.LinkRate) * f.Cfg.EndpointEfficiency
	if math.Abs(d.Rate-want)/want > 1e-9 {
		t.Errorf("single flow rate = %.3g, want %.3g (endpoint limit)", d.Rate, want)
	}
}

func TestSolveFairSharing(t *testing.T) {
	f := smallFabric(t)
	rng := rand.New(rand.NewSource(2))
	// Two flows into the same destination endpoint: the ejection link
	// must split evenly.
	d1 := demand(t, f, 0, 9, 0, rng)
	d2 := demand(t, f, 1, 9, 0, rng)
	if err := Solve(f, []*Demand{d1, d2}); err != nil {
		t.Fatal(err)
	}
	want := float64(f.Cfg.LinkRate) * f.Cfg.EndpointEfficiency / 2
	for _, d := range []*Demand{d1, d2} {
		if math.Abs(d.Rate-want)/want > 1e-9 {
			t.Errorf("flow %d->%d rate = %.3g, want %.3g", d.Src, d.Dst, d.Rate, want)
		}
	}
}

func TestSolveDemandCap(t *testing.T) {
	f := smallFabric(t)
	rng := rand.New(rand.NewSource(3))
	d := demand(t, f, 0, 9, 0, rng)
	d.Cap = 1e9
	if err := Solve(f, []*Demand{d}); err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.Rate-1e9)/1e9 > 1e-9 {
		t.Errorf("capped rate = %.3g, want 1e9", d.Rate)
	}
}

func TestCappedFlowLeavesCapacityToOthers(t *testing.T) {
	f := smallFabric(t)
	rng := rand.New(rand.NewSource(4))
	d1 := demand(t, f, 0, 9, 0, rng)
	d1.Cap = 2e9
	d2 := demand(t, f, 1, 9, 0, rng)
	if err := Solve(f, []*Demand{d1, d2}); err != nil {
		t.Fatal(err)
	}
	ej := float64(f.Cfg.LinkRate) * f.Cfg.EndpointEfficiency
	if math.Abs(d1.Rate-2e9) > 1 {
		t.Errorf("capped flow = %.3g, want 2e9", d1.Rate)
	}
	if math.Abs(d2.Rate-(ej-2e9)) > 1 {
		t.Errorf("uncapped flow = %.3g, want remainder %.3g", d2.Rate, ej-2e9)
	}
}

func TestMultipathBeatsSinglePath(t *testing.T) {
	f := smallFabric(t)
	rng := rand.New(rand.NewSource(5))
	// Saturate the direct global links between groups 0 and 1 with many
	// single-path (minimal only) flows, then check an adaptive flow
	// gets more via Valiant detours.
	var background []*Demand
	for i := 0; i < 16; i++ {
		background = append(background, demand(t, f, i, 32+i, 0, rng))
	}
	single := demand(t, f, 16, 48, 0, rng)
	multi := demand(t, f, 17, 49, 4, rng)
	all := append(append([]*Demand{}, background...), single, multi)
	if err := Solve(f, all); err != nil {
		t.Fatal(err)
	}
	if multi.Rate <= single.Rate {
		t.Errorf("adaptive flow %.3g should beat minimal-only %.3g under contention", multi.Rate, single.Rate)
	}
}

// Property: no link is oversubscribed and all rates are non-negative.
func TestNoOversubscriptionProperty(t *testing.T) {
	f := smallFabric(t)
	rng := rand.New(rand.NewSource(6))
	check := func(seed int64, nRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(nRaw)%24 + 2
		var demands []*Demand
		for i := 0; i < n; i++ {
			src := r.Intn(f.NumEndpoints)
			dst := r.Intn(f.NumEndpoints)
			if src == dst {
				continue
			}
			paths, err := adaptivePaths(f, src, dst, 3, rng)
			if err != nil {
				return false
			}
			d := &Demand{Src: src, Dst: dst, Paths: paths}
			if r.Intn(2) == 0 {
				d.Cap = float64(1+r.Intn(20)) * 1e9
			}
			demands = append(demands, d)
		}
		if len(demands) == 0 {
			return true
		}
		if err := Solve(f, demands); err != nil {
			return false
		}
		for _, d := range demands {
			if d.Rate < 0 {
				return false
			}
			if d.Cap > 0 && d.Rate > d.Cap*(1+1e-9) {
				return false
			}
		}
		for lid, u := range LinkLoad(f, demands) {
			if u > 1+1e-6 {
				_ = lid
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property (max-min): every subflow is bottlenecked — it crosses at least
// one link that is fully utilised. Otherwise its rate could grow, which
// would violate max-min optimality.
func TestEverySubflowBottleneckedProperty(t *testing.T) {
	f := smallFabric(t)
	rng := rand.New(rand.NewSource(7))
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
	load := LinkLoad(f, demands)
	for _, d := range demands {
		for pi, p := range d.Paths {
			bottlenecked := false
			for _, lid := range p {
				if load[lid] > 1-1e-6 {
					bottlenecked = true
					break
				}
			}
			if !bottlenecked {
				t.Fatalf("subflow %d of %d->%d (rate %.3g) has no saturated link", pi, d.Src, d.Dst, d.SubRates[pi])
			}
		}
	}
}

func TestSolveErrors(t *testing.T) {
	f := smallFabric(t)
	if err := Solve(f, []*Demand{{Src: 0, Dst: 1}}); err == nil {
		t.Error("demand without paths should error")
	}
}

func TestSolverDeterminism(t *testing.T) {
	f := smallFabric(t)
	run := func() []float64 {
		rng := rand.New(rand.NewSource(9))
		var demands []*Demand
		for i := 0; i < 20; i++ {
			demands = append(demands, demand(t, f, rng.Intn(96), 96+rng.Intn(96), 3, rng))
		}
		if err := Solve(f, demands); err != nil {
			t.Fatal(err)
		}
		rates := make([]float64, len(demands))
		for i, d := range demands {
			rates[i] = d.Rate
		}
		return rates
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic solve at %d: %v vs %v", i, a[i], b[i])
		}
	}
}
