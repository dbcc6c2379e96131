package network

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"frontiersim/internal/fabric"
	"frontiersim/internal/machine"
)

// randomDemands builds a reusable demand set spanning the fabric, with a
// mix of multi-path and capped demands, for the solver and cache tests.
func randomDemands(t *testing.T, f *fabric.Fabric, rng *rand.Rand, n int) []*Demand {
	t.Helper()
	var demands []*Demand
	for i := 0; i < n; i++ {
		src := rng.Intn(f.NumEndpoints)
		dst := rng.Intn(f.NumEndpoints)
		if src == dst {
			continue
		}
		d := demand(t, f, src, dst, rng.Intn(3), rng)
		if rng.Intn(4) == 0 {
			d.Cap = float64(1+rng.Intn(20)) * 1e9
		}
		demands = append(demands, d)
	}
	if len(demands) == 0 {
		t.Fatal("no demands generated")
	}
	return demands
}

// assertSameSolve compares the reused solver's demands against a cold
// oracle solve bit-for-bit, including the error path (where both sides
// must leave every demand zeroed).
func assertSameSolve(t *testing.T, round int, demands, ref []*Demand, err, refErr error) {
	t.Helper()
	if (err == nil) != (refErr == nil) {
		t.Fatalf("round %d: reused err %v, cold err %v", round, err, refErr)
	}
	if err != nil {
		for i, d := range demands {
			if d.Rate != 0 {
				t.Fatalf("round %d: demand %d rate %v after error, want 0", round, i, d.Rate)
			}
			for pi, r := range d.SubRates {
				if r != 0 {
					t.Fatalf("round %d: demand %d subrate %d = %v after error, want 0", round, i, pi, r)
				}
			}
		}
		return
	}
	for i := range demands {
		if demands[i].Rate != ref[i].Rate {
			t.Fatalf("round %d demand %d: reused rate %v != cold %v", round, i, demands[i].Rate, ref[i].Rate)
		}
		for pi := range demands[i].SubRates {
			if demands[i].SubRates[pi] != ref[i].SubRates[pi] {
				t.Fatalf("round %d demand %d path %d: reused %v != cold %v",
					round, i, pi, demands[i].SubRates[pi], ref[i].SubRates[pi])
			}
		}
	}
}

// A solver arena reused across a changing demand set — demands added,
// dropped and re-capped, with an occasional round that also carries a
// demand with no paths — matches a fresh arena bit-for-bit on every
// round, including the error path, where both must zero every demand.
func TestSolverMatchesReferenceDeltaSequences(t *testing.T) {
	f := smallFabric(t)
	rng := rand.New(rand.NewSource(50))
	demands := randomDemands(t, f, rng, 30)

	s := NewSolver()
	if err := s.Solve(f, demands); err != nil {
		t.Fatal(err)
	}

	for round := 0; round < 80; round++ {
		// Mutate the demand set: add demands, drop one, re-cap one, or
		// change nothing.
		switch op := rng.Intn(8); {
		case op < 2:
			demands = append(demands, randomDemands(t, f, rng, 1+rng.Intn(3))...)
		case op < 4 && len(demands) > 1:
			i := rng.Intn(len(demands))
			demands = append(demands[:i], demands[i+1:]...)
		case op < 6:
			d := demands[rng.Intn(len(demands))]
			if d.Cap > 0 && rng.Intn(2) == 0 {
				d.Cap = 0
			} else {
				d.Cap = float64(1+rng.Intn(20)) * 1e9
			}
		default:
			// no-op round
		}
		solved := demands
		if rng.Intn(8) == 0 {
			// This round only: a demand with no paths fails the solve.
			i := rng.Intn(len(demands) + 1)
			solved = append(append(append([]*Demand(nil), demands[:i]...), &Demand{Src: 0, Dst: 1}), demands[i:]...)
		}

		ref := cloneDemands(solved)
		refErr := NewSolver().Solve(f, ref)
		err := s.Solve(f, solved)
		assertSameSolve(t, round, solved, ref, err, refErr)
	}

	// A final clean solve shows the reused solver never drifted.
	ref := cloneDemands(demands)
	if err := NewSolver().Solve(f, ref); err != nil {
		t.Fatal(err)
	}
	if err := s.Solve(f, demands); err != nil {
		t.Fatal(err)
	}
	assertSameSolve(t, -1, demands, ref, nil, nil)
}

// Satellite regression: a Solve that errors mid-validation must leave
// every demand zeroed, not just the ones it reached. Previously demands
// after the failing one kept their rates from an earlier solve.
func TestSolveErrorZeroesAllDemands(t *testing.T) {
	f := smallFabric(t)
	rng := rand.New(rand.NewSource(54))
	demands := []*Demand{
		demand(t, f, 0, 9, 0, rng),
		demand(t, f, 1, 10, 0, rng),
		demand(t, f, 2, 11, 0, rng),
	}
	if err := Solve(f, demands); err != nil {
		t.Fatal(err)
	}
	for i, d := range demands {
		if d.Rate == 0 {
			t.Fatalf("demand %d unexpectedly zero before failure", i)
		}
	}
	// Strip the middle demand's paths: the solve must now fail and wipe
	// all three demands' rates, including the untouched neighbours.
	demands[1].Paths = nil
	if err := Solve(f, demands); err == nil {
		t.Fatal("solve of a demand with no paths should error")
	}
	for i, d := range demands {
		if d.Rate != 0 {
			t.Errorf("demand %d rate %v after failed solve, want 0", i, d.Rate)
		}
		for pi, r := range d.SubRates {
			if r != 0 {
				t.Errorf("demand %d subrate %d = %v after failed solve, want 0", i, pi, r)
			}
		}
	}
}

// DemandSignature must separate demand sets that differ in any solver
// input and agree on logically equal ones.
func TestDemandSignature(t *testing.T) {
	f := smallFabric(t)
	rng := rand.New(rand.NewSource(55))
	demands := randomDemands(t, f, rng, 10)
	sig := DemandSignature(demands)
	if DemandSignature(cloneDemands(demands)) != sig {
		t.Error("clones should sign identically")
	}
	capped := cloneDemands(demands)
	capped[3].Cap = demands[3].Cap + 1e9
	if DemandSignature(capped) == sig {
		t.Error("cap change should change the signature")
	}
	if DemandSignature(demands[:len(demands)-1]) == sig {
		t.Error("dropping a demand should change the signature")
	}
	swapped := cloneDemands(demands)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	if DemandSignature(swapped) == sig {
		t.Error("demand order is a solver input and must be signed")
	}
}

func TestPatternSignature(t *testing.T) {
	a := PatternSignature("census", 1, 2, 3)
	if PatternSignature("census", 1, 2, 3) != a {
		t.Error("equal tuples should sign identically")
	}
	if PatternSignature("census", 1, 2, 4) == a {
		t.Error("different tuples should differ")
	}
	if PatternSignature("other", 1, 2, 3) == a {
		t.Error("the tag must namespace the tuple")
	}
}

// Cross-instance hits are allowed only for lookups carrying a topology
// hash, which fully describes every fabric built from it; an
// instance-keyed lookup hits only on the fabric the entry was solved on.
func TestSolutionCacheCrossInstanceRule(t *testing.T) {
	spec := machine.Scaled(6, 8, 4)
	f1, err := spec.NewFabric()
	if err != nil {
		t.Fatal(err)
	}
	f2, err := spec.NewFabric()
	if err != nil {
		t.Fatal(err)
	}
	topo, err := machine.Hash(spec)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(57))
	var demands []*Demand
	for i := 0; i < 6; i++ {
		d := demand(t, f1, i, 20+i, 0, rng)
		demands = append(demands, d)
	}
	s := NewSolver()
	if err := s.Solve(f1, demands); err != nil {
		t.Fatal(err)
	}
	sig := DemandSignature(demands)

	c := NewSolutionCache(0)
	c.Store(f1, topo, sig, s.Solution())
	if _, ok := c.Lookup(f2, topo, sig); !ok {
		t.Fatal("virgin fabrics with the same topology hash should share entries")
	}
	if _, ok := c.Lookup(f2, "", sig); ok {
		t.Fatal("a topo-keyed entry must not answer an instance-keyed lookup")
	}
}

// Apply, and the arena's apply that GPCNeT's cached phases use, must
// refuse shape mismatches instead of writing a torn result.
func TestSolutionApplyShapeMismatch(t *testing.T) {
	f := smallFabric(t)
	rng := rand.New(rand.NewSource(58))
	demands := randomDemands(t, f, rng, 6)
	s := NewSolver()
	if err := s.Solve(f, demands); err != nil {
		t.Fatal(err)
	}
	sol := s.Solution()
	if !sol.Apply(demands) {
		t.Fatal("matching shape should apply")
	}
	if sol.Apply(demands[:len(demands)-1]) {
		t.Error("shorter demand set should be refused")
	}
	reshaped := cloneDemands(demands)
	reshaped[0].Paths = reshaped[0].Paths[:1]
	if len(demands[0].Paths) > 1 && sol.Apply(reshaped) {
		t.Error("per-demand path-count mismatch should be refused")
	}
	for name, set := range map[string][]*Demand{"shorter": demands[:len(demands)-1], "reshaped": reshaped} {
		if name == "reshaped" && len(demands[0].Paths) == 1 {
			continue
		}
		s.load(f, set)
		if s.apply(sol) {
			t.Errorf("arena: %s problem should be refused", name)
		}
	}
	s.load(f, demands)
	if !s.apply(sol) {
		t.Fatal("arena: matching shape should apply")
	}
}

// The LRU budget evicts oldest entries but always retains at least one.
func TestSolutionCacheEviction(t *testing.T) {
	f := smallFabric(t)
	rng := rand.New(rand.NewSource(59))
	a := randomDemands(t, f, rng, 6)
	b := randomDemands(t, f, rng, 6)
	s := NewSolver()
	if err := s.Solve(f, a); err != nil {
		t.Fatal(err)
	}
	sigA := DemandSignature(a)
	c := NewSolutionCache(1) // everything oversized: each store evicts the rest
	c.Store(f, "", sigA, s.Solution())
	if err := s.Solve(f, b); err != nil {
		t.Fatal(err)
	}
	sigB := DemandSignature(b)
	c.Store(f, "", sigB, s.Solution())
	if st := c.Stats(); st.Entries != 1 {
		t.Fatalf("entries = %d, want 1 (budget forces eviction, floor keeps one)", st.Entries)
	}
	if _, ok := c.Lookup(f, "", sigB); !ok {
		t.Error("most recent entry should survive")
	}
	if _, ok := c.Lookup(f, "", sigA); ok {
		t.Error("oldest entry should have been evicted")
	}
}

// A nil cache is a valid no-op dependency.
func TestSolutionCacheNil(t *testing.T) {
	var c *SolutionCache
	f := smallFabric(t)
	rng := rand.New(rand.NewSource(60))
	demands := randomDemands(t, f, rng, 4)
	if _, ok := c.Lookup(f, "", Signature{}); ok {
		t.Error("nil cache must never hit")
	}
	s := NewSolver()
	if err := s.Solve(f, demands); err != nil {
		t.Fatal(err)
	}
	if c.Store(f, "", Signature{}, s.Solution()) != nil {
		t.Error("nil cache store should return nil")
	}
	if st := c.Stats(); st != (SolutionCacheStats{}) {
		t.Errorf("nil cache stats = %+v, want zero", st)
	}
	if err := solveCached(f, demands, nil, ""); err != nil {
		t.Fatal(err)
	}
}

// solveCached solves demands through the arena's cached solve, the path
// GPCNeT's phases take, and copies the result back.
func solveCached(f *fabric.Fabric, demands []*Demand, solutions *SolutionCache, topo string) error {
	s := NewSolver()
	s.load(f, demands)
	if err := s.solveCached(solutions, topo); err != nil {
		zeroDemandRates(demands)
		return err
	}
	s.writeRates(demands)
	return nil
}

// A cache hit must reproduce the skipped solve bit-for-bit.
func TestSolveCachedBitIdentical(t *testing.T) {
	f := smallFabric(t)
	rng := rand.New(rand.NewSource(61))
	demands := randomDemands(t, f, rng, 12)
	ref := cloneDemands(demands)
	if err := Solve(f, ref); err != nil {
		t.Fatal(err)
	}
	c := NewSolutionCache(0)
	if err := solveCached(f, demands, c, ""); err != nil { // miss: solves and stores
		t.Fatal(err)
	}
	warm := cloneDemands(demands)
	if err := solveCached(f, warm, c, ""); err != nil { // hit: applies stored
		t.Fatal(err)
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want exactly one miss then one hit", st)
	}
	for i := range ref {
		if warm[i].Rate != ref[i].Rate {
			t.Fatalf("demand %d: cached rate %v != solved %v", i, warm[i].Rate, ref[i].Rate)
		}
		for pi := range ref[i].SubRates {
			if warm[i].SubRates[pi] != ref[i].SubRates[pi] {
				t.Fatalf("demand %d path %d: cached %v != solved %v", i, pi, warm[i].SubRates[pi], ref[i].SubRates[pi])
			}
		}
	}
}

// equalSamples fails the test unless got matches want sample for sample.
func equalSamples(t *testing.T, name string, got, want MpiGraphResult) {
	t.Helper()
	if len(got.Samples) != len(want.Samples) {
		t.Fatalf("%s: %d samples, want %d", name, len(got.Samples), len(want.Samples))
	}
	for i := range want.Samples {
		if got.Samples[i] != want.Samples[i] {
			t.Fatalf("%s sample %d: %v != %v", name, i, got.Samples[i], want.Samples[i])
		}
	}
}

// The census with a solution cache — cold and warm — must be
// byte-identical to the uncached census.
func TestMpiGraphCachedMatchesUncached(t *testing.T) {
	f := smallFabric(t)
	cfg := DefaultMpiGraphConfig()
	cfg.Shifts = 5
	base, err := RunMpiGraph(context.Background(), f, cfg, ParallelConfig{Jobs: 1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	c := NewSolutionCache(0)
	for pass, name := range []string{"cold", "warm"} {
		res, err := RunMpiGraph(context.Background(), f, cfg, ParallelConfig{Jobs: 1, Seed: 9, Solutions: c})
		if err != nil {
			t.Fatal(err)
		}
		equalSamples(t, name+" pass", res, base)
		if pass == 1 && c.Stats().Hits == 0 {
			t.Error("warm pass should have served shifts from the cache")
		}
	}
}

// With a topology key and several workers, a shared cache must not
// change a single sample either, and a warm pass must serve every
// shift from its pattern signature.
func TestMpiGraphParallelCachedMatchesUncached(t *testing.T) {
	f := smallFabric(t)
	cfg := DefaultMpiGraphConfig()
	cfg.Shifts = 6
	base, err := RunMpiGraph(context.Background(), f, cfg, ParallelConfig{Jobs: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	pcfg := ParallelConfig{Jobs: 4, Seed: 7, Solutions: NewSolutionCache(0), TopoKey: "test-topo"}
	for pass, name := range []string{"cold", "warm"} {
		res, err := RunMpiGraph(context.Background(), f, cfg, pcfg)
		if err != nil {
			t.Fatal(err)
		}
		equalSamples(t, name+" pass", res, base)
		if pass == 1 && pcfg.Solutions.Stats().Hits < uint64(cfg.Shifts) {
			t.Errorf("warm pass hits = %d, want >= %d (every shift)", pcfg.Solutions.Stats().Hits, cfg.Shifts)
		}
	}
}

// GPCNeT with a cache is byte-identical, and separate single-arm runs
// that differ only in congestion control share solved allocations: the
// solve itself is CC-independent.
func TestGPCNeTCachedMatchesUncachedAcrossCCArms(t *testing.T) {
	f := smallFabric(t)
	cfg := DefaultGPCNeTConfig()
	cfg.Nodes = 45
	cfg.LatencySamples = 200
	c := NewSolutionCache(0)
	for _, cc := range []bool{true, false} {
		base, err := RunGPCNeT(f, cfg, 21, []bool{cc}, nil, "")
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunGPCNeT(f, cfg, 21, []bool{cc}, c, "")
		if err != nil {
			t.Fatal(err)
		}
		if res[0] != base[0] {
			t.Fatalf("cc=%v: cached result differs from uncached:\n%+v\n%+v", cc, res, base)
		}
	}
	// The second arm's demand sets are identical to the first arm's
	// (same seed, CC not consulted until after the solve), so both of
	// its phases should have hit.
	if st := c.Stats(); st.Hits < 2 {
		t.Errorf("hits = %d, want >= 2 (CC=false arm reusing CC=true arm's solves)", st.Hits)
	}
}

// RunMpiGraph and RunGPCNeT return identical results with Solutions nil
// and non-nil, on a cold cache and a warm one, with both congestion
// control arms and the head-of-line derating they read from the solve:
// the benchmark's traced run attaches a cache, so what it measures must
// be what an uncached run computes.
func TestCensusSolutionsNilAndNonNilMatch(t *testing.T) {
	f := smallFabric(t)
	mcfg := DefaultMpiGraphConfig()
	mcfg.Shifts = 4
	gcfg := DefaultGPCNeTConfig()
	gcfg.Nodes = 45
	gcfg.PPN = 32
	gcfg.LatencySamples = 200
	arms := []bool{true, false}
	census, err := RunMpiGraph(context.Background(), f, mcfg, ParallelConfig{Jobs: 2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	gpcnet, err := RunGPCNeT(f, gcfg, 11, arms, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	c := NewSolutionCache(0)
	for _, pass := range []string{"cold", "warm"} {
		res, err := RunMpiGraph(context.Background(), f, mcfg, ParallelConfig{Jobs: 2, Seed: 11, Solutions: c})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, census) {
			t.Errorf("%s mpiGraph with a cache differs from the uncached census", pass)
		}
		got, err := RunGPCNeT(f, gcfg, 11, arms, c, "")
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, gpcnet) {
			t.Errorf("%s GPCNeT with a cache:\n got %+v\nwant %+v", pass, got, gpcnet)
		}
	}
	if st := c.Stats(); st.Hits < uint64(mcfg.Shifts)+2 {
		t.Errorf("hits = %d, want every shift and both GPCNeT phases served warm", st.Hits)
	}
}
