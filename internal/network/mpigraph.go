package network

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"frontiersim/internal/fabric"
	"frontiersim/internal/harness"
	"frontiersim/internal/rng"
)

// MpiGraphConfig controls the mpiGraph census of Figure 6.
type MpiGraphConfig struct {
	// Nodes is the number of participating compute nodes (0 = all).
	Nodes int
	// RanksPerNode is the number of measuring ranks per node; Frontier
	// runs one rank per NIC (4), Summit one per node.
	RanksPerNode int
	// Shifts is how many shift permutations to sample out of the full
	// node count (mpiGraph proper runs them all; sampling keeps the
	// simulation tractable and the histogram converges quickly).
	Shifts int
	// ValiantPaths is the number of non-minimal paths adaptive routing
	// spreads each inter-group pair across.
	ValiantPaths int
	// MeasureJitter is the relative standard deviation of measurement
	// noise applied to each sample.
	MeasureJitter float64
}

// DefaultMpiGraphConfig returns the configuration used for Figure 6.
func DefaultMpiGraphConfig() MpiGraphConfig {
	return MpiGraphConfig{
		RanksPerNode:  4,
		Shifts:        8,
		ValiantPaths:  4,
		MeasureJitter: 0.02,
	}
}

// MpiGraphResult is the per-NIC receive-bandwidth census.
type MpiGraphResult struct {
	// Samples are per-pair receive bandwidths in bytes/s.
	Samples []float64
	Min     float64
	Max     float64
	Mean    float64
	Median  float64
}

// Histogram bins the samples into n equal-width bins over [0, max] and
// returns bin upper edges (bytes/s) and counts. An all-zero census
// (Max == 0) has no meaningful bin width, so it degenerates to a single
// zero-edge bin holding every sample rather than n bins of a fabricated
// 1 byte/s width.
func (r MpiGraphResult) Histogram(n int) (edges []float64, counts []int) {
	if len(r.Samples) == 0 || n < 1 {
		return nil, nil
	}
	if r.Max == 0 {
		return []float64{0}, []int{len(r.Samples)}
	}
	width := r.Max / float64(n)
	edges = make([]float64, n)
	counts = make([]int, n)
	for i := range edges {
		edges[i] = width * float64(i+1)
	}
	for _, s := range r.Samples {
		b := int(s / width)
		if b >= n {
			b = n - 1
		}
		counts[b]++
	}
	return edges, counts
}

// ParallelConfig tunes the census's parallel evaluation and caching.
type ParallelConfig struct {
	// Jobs bounds worker concurrency; <=0 means GOMAXPROCS.
	Jobs int
	// Seed is the root seed. Every per-shift stream derives from it via
	// SplitMix64 (see harness.DeriveSeed), so results are byte-identical
	// at any Jobs setting.
	Seed int64

	// Solutions, when non-nil, caches solved shifts across runs by
	// pattern signature, so a repeated run skips path building and
	// solving both; nil means no cache. Results are byte-identical with
	// or without it.
	Solutions *SolutionCache
	// TopoKey is the canonical topology address (machine.Hash) used in
	// Solutions keys; "" restricts hits to the exact fabric instance.
	TopoKey string
}

// RunMpiGraph measures pairwise bandwidth under shift permutations: for
// each sampled shift s, rank k of node i sends to rank k of node i+s,
// all pairs simultaneously, and each pair's allocated rate is one sample.
// This is mpiGraph's measurement structure and reproduces Figure 6: a
// tight distribution on a non-blocking fat tree, a wide one on the
// tapered dragonfly.
//
// Shifts are independent tasks on the harness worker pool. Each shift
// draws its adaptive paths from its own stream, derived from the path
// seed and the shift, and its measurement jitter from its task seed, so
// a run at Jobs=1 and a run at Jobs=N return identical results.
//
// That purity is also what makes whole shifts cacheable: a shift's
// demand set — and therefore its solved rates — is fully determined by
// (path seed, valiant fanout, nodes, ranks, shift) on a given fabric
// state, so with pcfg.Solutions set, a repeated shift is served straight
// from its pattern signature without building paths or touching the
// solver, and only the per-shift measurement jitter is re-drawn.
func RunMpiGraph(ctx context.Context, f *fabric.Fabric, cfg MpiGraphConfig, pcfg ParallelConfig) (MpiGraphResult, error) {
	nodes, ranks, shifts, err := cfg.resolve(f)
	if err != nil {
		return MpiGraphResult{}, err
	}
	order := sampleShifts(nodes, shifts, rng.New(pcfg.Seed))
	pathSeed := harness.DeriveSeed(pcfg.Seed, "mpigraph-paths")

	tasks := make([]harness.Task[[]float64], len(order))
	for ti, s := range order {
		tasks[ti] = harness.Task[[]float64]{
			ID: fmt.Sprintf("shift-%d", s),
			Run: func(_ context.Context, seed int64) ([]float64, error) {
				sig := PatternSignature("mpigraph-shift",
					uint64(pathSeed), uint64(cfg.ValiantPaths),
					uint64(nodes), uint64(ranks), uint64(s))
				r := rng.New(seed)
				if sol, ok := pcfg.Solutions.Lookup(f, pcfg.TopoKey, sig); ok {
					return sampleRates(sol.Rates, cfg.MeasureJitter, r), nil
				}
				sv := solverPool.Get().(*Solver)
				defer solverPool.Put(sv)
				paths := rng.New(rng.DeriveN(pathSeed, uint64(s)))
				if err := routeShift(sv, f, nodes, ranks, s, cfg.ValiantPaths, paths); err != nil {
					return nil, err
				}
				if err := sv.solve(); err != nil {
					return nil, err
				}
				rates := sv.demRate
				if pcfg.Solutions != nil {
					rates = pcfg.Solutions.Store(f, pcfg.TopoKey, sig, sv.Solution()).Rates
				}
				return sampleRates(rates, cfg.MeasureJitter, r), nil
			},
		}
	}
	results, err := harness.Run(ctx, harness.Config{Jobs: pcfg.Jobs, FailFast: true, RootSeed: pcfg.Seed}, tasks, nil)
	if err != nil {
		return MpiGraphResult{}, err
	}
	var result MpiGraphResult
	for _, r := range results {
		result.Samples = append(result.Samples, r.Value...)
	}
	return finishMpiGraph(result)
}

// sampleRates applies per-sample measurement jitter to the solved rates.
// Cache hits and misses both funnel through here, in demand order, so a
// cached shift draws exactly the jitter sequence a computed one would.
func sampleRates(rates []float64, jitter float64, r *rand.Rand) []float64 {
	samples := make([]float64, 0, len(rates))
	for _, rate := range rates {
		v := rate * (1 + jitter*r.NormFloat64())
		if v < 0 {
			v = 0
		}
		samples = append(samples, v)
	}
	return samples
}

// resolve validates cfg against the fabric and applies defaults.
func (cfg MpiGraphConfig) resolve(f *fabric.Fabric) (nodes, ranks, shifts int, err error) {
	nodes = cfg.Nodes
	if nodes == 0 {
		nodes = f.Cfg.ComputeNodes()
	}
	if nodes > f.Cfg.ComputeNodes() {
		return 0, 0, 0, fmt.Errorf("network: %d nodes exceeds fabric's %d", nodes, f.Cfg.ComputeNodes())
	}
	if nodes < 2 {
		return 0, 0, 0, fmt.Errorf("network: mpiGraph needs at least two nodes")
	}
	ranks = cfg.RanksPerNode
	if ranks < 1 || ranks > f.Cfg.NICsPerNode {
		ranks = f.Cfg.NICsPerNode
	}
	shifts = cfg.Shifts
	if shifts <= 0 || shifts >= nodes {
		shifts = nodes - 1
	}
	return nodes, ranks, shifts, nil
}

// sampleShifts draws the set of shift permutations to measure, in sorted
// order. Distinct shifts in [1, nodes): always include 1 (mostly
// intra-group on Frontier's packed numbering) and, when at least two
// shifts are asked for, the far shift nodes/2. Sorted iteration matters:
// map order would otherwise reshuffle later rng draws between runs,
// making the census nondeterministic even at a fixed seed.
func sampleShifts(nodes, shifts int, rng *rand.Rand) []int {
	chosen := map[int]bool{1: true}
	if shifts >= 2 {
		chosen[nodes/2] = true
	}
	for len(chosen) < shifts {
		chosen[1+rng.Intn(nodes-1)] = true
	}
	order := make([]int, 0, len(chosen))
	for s := range chosen {
		order = append(order, s)
	}
	sort.Ints(order)
	return order
}

// routeShift builds one shift's problem in s: rank k of node i sends to
// rank k of node i+shift, each pair routed over adaptive paths with
// valiant detours drawn from paths, straight into the solver arena.
func routeShift(s *Solver, f *fabric.Fabric, nodes, ranks, shift, valiant int, paths *rand.Rand) error {
	routes, routeLinks := routedBound(nodes*ranks, valiant)
	s.begin(f, nodes*ranks, routes, routeLinks, 0)
	for i := 0; i < nodes; i++ {
		j := (i + shift) % nodes
		if j == i {
			continue
		}
		for k := 0; k < ranks; k++ {
			if err := s.addRouted(f.NodeEndpoint(i, k), f.NodeEndpoint(j, k), 0, valiant, paths); err != nil {
				return err
			}
		}
	}
	return nil
}

// finishMpiGraph sorts the samples and fills the summary statistics.
func finishMpiGraph(result MpiGraphResult) (MpiGraphResult, error) {
	if len(result.Samples) == 0 {
		return MpiGraphResult{}, fmt.Errorf("network: no samples collected")
	}
	sort.Float64s(result.Samples)
	result.Min = result.Samples[0]
	result.Max = result.Samples[len(result.Samples)-1]
	result.Median = result.Samples[len(result.Samples)/2]
	var sum float64
	for _, v := range result.Samples {
		sum += v
	}
	result.Mean = sum / float64(len(result.Samples))
	return result, nil
}

// Spread reports the max/min ratio of the census — the paper's headline
// qualitative difference between the two fabrics (~2x on Summit's numbers
// vs ~6x on Frontier's).
func (r MpiGraphResult) Spread() float64 {
	if r.Min <= 0 {
		return math.Inf(1)
	}
	return r.Max / r.Min
}
