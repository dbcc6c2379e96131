package network

import (
	"context"
	"math/rand"
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

// problemLinks is the set of link ids appearing on any demand path.
func problemLinks(demands []*Demand) []int {
	seen := make(map[int]bool)
	var ids []int
	for _, d := range demands {
		for _, p := range d.Paths {
			for _, lid := range p {
				if !seen[lid] {
					seen[lid] = true
					ids = append(ids, lid)
				}
			}
		}
	}
	return ids
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

// A solver arena reused across an arbitrary FailLink / RestoreLink /
// FailSwitch sequence matches a fresh arena bit-for-bit on every round —
// including the "routed over down link" error path, where both must zero
// every demand.
func TestSolverMatchesReferenceDeltaSequences(t *testing.T) {
	f := smallFabric(t)
	rng := rand.New(rand.NewSource(50))
	demands := randomDemands(t, f, rng, 30)
	inProblem := problemLinks(demands)

	s := NewSolver()
	if err := s.Solve(f, demands); err != nil {
		t.Fatal(err)
	}

	downLinks := func() []int {
		var ids []int
		for i := range f.Links {
			if !f.Links[i].Up {
				ids = append(ids, i)
			}
		}
		return ids
	}

	for round := 0; round < 80; round++ {
		// Mutate the fabric: restore a down link, fail an in-problem or
		// random link, fail a whole switch, or change nothing.
		switch down := downLinks(); {
		case len(down) > 0 && rng.Intn(3) == 0:
			f.RestoreLink(down[rng.Intn(len(down))])
		case rng.Intn(8) == 0:
			f.FailSwitch(rng.Intn(f.NumSwitches))
		case rng.Intn(6) == 0:
			// no-op round
		case rng.Intn(2) == 0:
			if lid := inProblem[rng.Intn(len(inProblem))]; f.Links[lid].Up {
				f.FailLink(lid)
			}
		default:
			if lid := rng.Intn(len(f.Links)); f.Links[lid].Up {
				f.FailLink(lid)
			}
		}

		ref := cloneDemands(demands)
		refErr := NewSolver().Solve(f, ref)
		err := s.Solve(f, demands)
		assertSameSolve(t, round, demands, ref, err, refErr)
	}

	// Restore everything and check the reused solver heals.
	for _, lid := range downLinks() {
		f.RestoreLink(lid)
	}
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
	// Down the middle demand's first link: the solve must now fail and
	// wipe all three demands' rates, including the untouched neighbours.
	f.FailLink(demands[1].Paths[0][0])
	if err := Solve(f, demands); err == nil {
		t.Fatal("solve over a down link should error")
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

// The cache's core soundness property: a stored solution is never
// served after a FailLink/RestoreLink/FailSwitch epoch bump, even when
// the fabric ends up back in an equivalent state.
func TestSolutionCacheEpochInvalidation(t *testing.T) {
	f := smallFabric(t)
	rng := rand.New(rand.NewSource(56))
	demands := randomDemands(t, f, rng, 8)
	if err := Solve(f, demands); err != nil {
		t.Fatal(err)
	}
	sig := DemandSignature(demands)
	c := NewSolutionCache(0)
	c.Store(f, "", sig, demands)
	if _, ok := c.Lookup(f, "", sig); !ok {
		t.Fatal("same-state lookup should hit")
	}
	lid := demands[0].Paths[0][0]
	f.FailLink(lid)
	if _, ok := c.Lookup(f, "", sig); ok {
		t.Fatal("lookup after FailLink must miss")
	}
	f.RestoreLink(lid)
	if _, ok := c.Lookup(f, "", sig); ok {
		t.Fatal("RestoreLink bumps the epoch again; the old entry must stay dead")
	}
	f.FailSwitch(0)
	if _, ok := c.Lookup(f, "", sig); ok {
		t.Fatal("lookup after FailSwitch must miss")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 3 || st.Entries != 1 {
		t.Errorf("stats = %+v, want 1 hit, 3 misses, 1 entry", st)
	}
}

// Cross-instance hits are allowed only for virgin fabrics fully
// described by their topology hash: same topo key at epoch 0. At any
// later epoch two instances may have diverged, so only the instance the
// entry was solved on may hit.
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
	if err := Solve(f1, demands); err != nil {
		t.Fatal(err)
	}
	sig := DemandSignature(demands)

	c := NewSolutionCache(0)
	c.Store(f1, topo, sig, demands)
	if _, ok := c.Lookup(f2, topo, sig); !ok {
		t.Fatal("virgin fabrics with the same topology hash should share entries")
	}
	if _, ok := c.Lookup(f2, "", sig); ok {
		t.Fatal("a topo-keyed entry must not answer an instance-keyed lookup")
	}

	// Advance both instances to the same nonzero epoch through different
	// histories: the epoch number alone no longer proves equivalence.
	f1.FailLink(demands[0].Paths[0][0])
	f2.FailLink(demands[1].Paths[0][0])
	c.Store(f1, topo, sig, demands)
	if _, ok := c.Lookup(f1, topo, sig); !ok {
		t.Fatal("the solving instance itself should hit at any epoch")
	}
	if _, ok := c.Lookup(f2, topo, sig); ok {
		t.Fatal("epoch>0 entries must not cross fabric instances")
	}
}

// Apply must refuse shape mismatches instead of writing a torn result.
func TestSolutionApplyShapeMismatch(t *testing.T) {
	f := smallFabric(t)
	rng := rand.New(rand.NewSource(58))
	demands := randomDemands(t, f, rng, 6)
	if err := Solve(f, demands); err != nil {
		t.Fatal(err)
	}
	sol := newSolution(demands)
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
}

// The LRU budget evicts oldest entries but always retains at least one.
func TestSolutionCacheEviction(t *testing.T) {
	f := smallFabric(t)
	rng := rand.New(rand.NewSource(59))
	a := randomDemands(t, f, rng, 6)
	b := randomDemands(t, f, rng, 6)
	if err := Solve(f, a); err != nil {
		t.Fatal(err)
	}
	sigA := DemandSignature(a)
	c := NewSolutionCache(1) // everything oversized: each store evicts the rest
	c.Store(f, "", sigA, a)
	if err := Solve(f, b); err != nil {
		t.Fatal(err)
	}
	sigB := DemandSignature(b)
	c.Store(f, "", sigB, b)
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
	if c.Store(f, "", Signature{}, demands) != nil {
		t.Error("nil cache store should return nil")
	}
	if st := c.Stats(); st != (SolutionCacheStats{}) {
		t.Errorf("nil cache stats = %+v, want zero", st)
	}
	if err := solveCached(f, demands, nil, ""); err != nil {
		t.Fatal(err)
	}
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

// The census with a solution cache — cold and warm — must be
// byte-identical to the uncached census.
func TestMpiGraphCachedMatchesUncached(t *testing.T) {
	f := smallFabric(t)
	cfg := DefaultMpiGraphConfig()
	cfg.Shifts = 5
	base, err := RunMpiGraph(f, cfg, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	c := NewSolutionCache(0)
	for pass, name := range []string{"cold", "warm"} {
		res, err := RunMpiGraphWithCache(f, cfg, rand.New(rand.NewSource(9)), c, "")
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Samples) != len(base.Samples) {
			t.Fatalf("%s pass: %d samples, want %d", name, len(res.Samples), len(base.Samples))
		}
		for i := range base.Samples {
			if res.Samples[i] != base.Samples[i] {
				t.Fatalf("%s pass sample %d: %v != uncached %v", name, i, res.Samples[i], base.Samples[i])
			}
		}
		if pass == 1 && c.Stats().Hits == 0 {
			t.Error("warm pass should have served shifts from the cache")
		}
	}
}

// Parallel census: supplying Solutions (and a prebuilt path cache) must
// not change a single sample, across cold and warm cache states.
func TestMpiGraphParallelCachedMatchesUncached(t *testing.T) {
	f := smallFabric(t)
	cfg := DefaultMpiGraphConfig()
	cfg.Shifts = 6
	base, err := RunMpiGraphParallel(context.Background(), f, cfg, ParallelConfig{Jobs: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	pcfg := ParallelConfig{Jobs: 4, Seed: 7, Solutions: NewSolutionCache(0), TopoKey: "test-topo"}
	pcfg.Paths = NewMpiGraphPathCache(f, cfg, pcfg)
	for pass, name := range []string{"cold", "warm"} {
		res, err := RunMpiGraphParallel(context.Background(), f, cfg, pcfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Samples) != len(base.Samples) {
			t.Fatalf("%s pass: %d samples, want %d", name, len(res.Samples), len(base.Samples))
		}
		for i := range base.Samples {
			if res.Samples[i] != base.Samples[i] {
				t.Fatalf("%s pass sample %d: %v != uncached %v", name, i, res.Samples[i], base.Samples[i])
			}
		}
		if pass == 1 && pcfg.Solutions.Stats().Hits < uint64(cfg.Shifts) {
			t.Errorf("warm pass hits = %d, want >= %d (every shift)", pcfg.Solutions.Stats().Hits, cfg.Shifts)
		}
	}
	// A stale path cache (wrong seed) must be rejected, not silently used.
	stale := ParallelConfig{Jobs: 2, Seed: 7, Paths: NewMpiGraphPathCache(f, cfg, ParallelConfig{Seed: 8})}
	res, err := RunMpiGraphParallel(context.Background(), f, cfg, stale)
	if err != nil {
		t.Fatal(err)
	}
	for i := range base.Samples {
		if res.Samples[i] != base.Samples[i] {
			t.Fatalf("stale-cache sample %d: %v != %v (wrong-seed path cache was trusted)", i, res.Samples[i], base.Samples[i])
		}
	}
}

// GPCNeT with a cache is byte-identical, and ablation arms that differ
// only in the CongestionControl flag share solved allocations: the
// solve itself is CC-independent.
func TestGPCNeTCachedMatchesUncachedAcrossCCArms(t *testing.T) {
	f := smallFabric(t)
	cfg := DefaultGPCNeTConfig()
	cfg.Nodes = 45
	cfg.LatencySamples = 200
	c := NewSolutionCache(0)
	for _, cc := range []bool{true, false} {
		cfg.CongestionControl = cc
		base, err := RunGPCNeT(f, cfg, rand.New(rand.NewSource(21)))
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunGPCNeTWithCache(f, cfg, rand.New(rand.NewSource(21)), c, "")
		if err != nil {
			t.Fatal(err)
		}
		if res != base {
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
