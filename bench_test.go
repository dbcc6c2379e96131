// Package frontiersim's root benchmark suite regenerates every table and
// figure of the paper's evaluation section, one testing.B benchmark per
// artifact, plus micro-benchmarks of the simulator's hot paths. Run with:
//
//	go test -bench=. -benchmem
//
// Each reproduction benchmark reports the paper-vs-measured rows once
// (via b.Log on the first iteration) and then times the full experiment,
// so `go test -bench` output doubles as a regeneration log.
package frontiersim

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"frontiersim/internal/core"
	"frontiersim/internal/experiments"
	"frontiersim/internal/fabric"
	"frontiersim/internal/gpu"
	"frontiersim/internal/job"
	"frontiersim/internal/llm"
	"frontiersim/internal/machine"
	"frontiersim/internal/memory"
	"frontiersim/internal/network"
	"frontiersim/internal/report"
	"frontiersim/internal/resilience"
	"frontiersim/internal/scheduler"
	"frontiersim/internal/sim"
	"frontiersim/internal/units"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	runner, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	opts := experiments.DefaultOptions()
	opts.Quick = testing.Short()
	var table *report.Table
	for i := 0; i < b.N; i++ {
		table, err = runner.Run(opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	var buf bytes.Buffer
	table.Render(&buf)
	b.Log("\n" + buf.String())
	if dev := table.MaxAbsDeviation(); dev > 0 {
		b.ReportMetric(dev*100, "max-deviation-%")
	}
}

// One benchmark per paper artifact.

func BenchmarkTable1ComputeSpecs(b *testing.B) { benchExperiment(b, "table1") }
func BenchmarkTable2IOSpecs(b *testing.B)      { benchExperiment(b, "table2") }
func BenchmarkTable3CPUStream(b *testing.B)    { benchExperiment(b, "table3") }
func BenchmarkFig3Gemm(b *testing.B)           { benchExperiment(b, "fig3") }
func BenchmarkTable4GPUStream(b *testing.B)    { benchExperiment(b, "table4") }
func BenchmarkFig4HostToDevice(b *testing.B)   { benchExperiment(b, "fig4") }
func BenchmarkFig5PeerBandwidth(b *testing.B)  { benchExperiment(b, "fig5") }
func BenchmarkFig6MpiGraph(b *testing.B)       { benchExperiment(b, "fig6") }
func BenchmarkTable5GPCNeT(b *testing.B)       { benchExperiment(b, "table5") }
func BenchmarkSec431NodeLocal(b *testing.B)    { benchExperiment(b, "sec431") }
func BenchmarkSec432Orion(b *testing.B)        { benchExperiment(b, "sec432") }
func BenchmarkTable6CAAR(b *testing.B)         { benchExperiment(b, "table6") }
func BenchmarkTable7ECP(b *testing.B)          { benchExperiment(b, "table7") }
func BenchmarkSec51Power(b *testing.B)         { benchExperiment(b, "sec51") }
func BenchmarkSec54Resiliency(b *testing.B)    { benchExperiment(b, "sec54") }

// Ablation benchmarks (DESIGN.md extensions).

func BenchmarkAblationTaper(b *testing.B)      { benchExperiment(b, "ablation-taper") }
func BenchmarkAblationNPS(b *testing.B)        { benchExperiment(b, "ablation-nps") }
func BenchmarkAblationRouting(b *testing.B)    { benchExperiment(b, "ablation-routing") }
func BenchmarkAblationCC(b *testing.B)         { benchExperiment(b, "ablation-cc") }
func BenchmarkAblationPlacement(b *testing.B)  { benchExperiment(b, "ablation-placement") }
func BenchmarkAblationCheckpoint(b *testing.B) { benchExperiment(b, "ablation-checkpoint") }

// Micro-benchmarks of the simulator's hot paths.

func BenchmarkDragonflyBuild(b *testing.B) {
	cfg, err := machine.Frontier().FabricConfig()
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := fabric.NewDragonfly(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCoreNewFrontier times exactly what frontier-bench's setup_s
// times: one full-scale system build, core.New on the canonical Frontier
// spec, at a new seed each time.
func BenchmarkCoreNewFrontier(b *testing.B) {
	spec := machine.Frontier()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.New(spec, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMinimalRoute(b *testing.B) {
	f, err := machine.Frontier().NewFabric()
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	n := f.Cfg.ComputeEndpoints()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src, dst := rng.Intn(n), rng.Intn(n)
		if src == dst {
			continue
		}
		if _, err := f.MinimalPath(src, dst, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMaxMinSolve(b *testing.B) {
	f, err := machine.Scaled(16, 16, 8).NewFabric()
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	nodes := f.Cfg.ComputeNodes()
	build := func() []*network.Demand {
		demands := make([]*network.Demand, 0, nodes)
		for i := 0; i < nodes; i++ {
			src := f.NodeEndpoints(i)[0]
			dst := f.NodeEndpoints((i + nodes/2) % nodes)[0]
			demands = append(demands, benchDemand(b, f, src, dst, rng))
		}
		return demands
	}
	demands := build()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := network.Solve(f, demands); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolverArenaReuse measures a dedicated Solver re-solving one
// demand set: the steady state of every experiment's inner loop. With the
// arena warm this is allocation-free (ns/solve and allocs/solve are the
// metrics the BENCH trajectory tracks for the water-filling core).
func BenchmarkSolverArenaReuse(b *testing.B) {
	f, err := machine.Scaled(16, 16, 8).NewFabric()
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	nodes := f.Cfg.ComputeNodes()
	demands := make([]*network.Demand, 0, nodes)
	for i := 0; i < nodes; i++ {
		src := f.NodeEndpoints(i)[0]
		dst := f.NodeEndpoints((i + nodes/2) % nodes)[0]
		demands = append(demands, benchDemand(b, f, src, dst, rng))
	}
	s := network.NewSolver()
	if err := s.Solve(f, demands); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Solve(f, demands); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStreamDerivation measures the cost of minting a named
// random stream from a kernel — the seeding tax the internal/rng
// package exists to kill. With the legacy lagged-Fibonacci source this
// was a 607-element warmup per stream; with SplitMix64-seeded
// xoshiro256++ it is a hash plus four words of state.
func BenchmarkStreamDerivation(b *testing.B) {
	k := sim.NewKernel(42)
	names := [...]string{"nic", "gpu", "hbm", "scheduler"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if k.Stream(names[i%len(names)]) == nil {
			b.Fatal("nil stream")
		}
	}
}

// BenchmarkFig6FullScale runs the full-machine mpiGraph census — 9,408
// nodes, 8 shift permutations, 4 ranks per node — through the parallel
// harness in its steady operating state: the campaign server's repeated
// what-ifs, where the solution cache serves each shift by pattern
// signature. The warm-up run before the timer is the cold first
// encounter; every timed iteration is the interactive-latency regime the
// incremental solver exists for.
// BenchmarkFig6FullScaleCold below keeps the uncached trajectory.
func BenchmarkFig6FullScale(b *testing.B) {
	if testing.Short() {
		b.Skip("full-scale census in -short mode")
	}
	f, err := machine.Frontier().NewFabric()
	if err != nil {
		b.Fatal(err)
	}
	cfg := network.DefaultMpiGraphConfig()
	cfg.Nodes = 9408
	pcfg := network.ParallelConfig{Seed: 1, Solutions: network.NewSolutionCache(0)}
	warm, err := network.RunMpiGraph(context.Background(), f, cfg, pcfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := network.RunMpiGraph(context.Background(), f, cfg, pcfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			if res.Min != warm.Min || res.Max != warm.Max || res.Mean != warm.Mean {
				b.Fatalf("cached census diverged from cold run: min %v vs %v, max %v vs %v",
					res.Min, warm.Min, res.Max, warm.Max)
			}
			b.Logf("full-scale census: %d samples, min %.2f GB/s, max %.2f GB/s, spread %.1fx",
				len(res.Samples), res.Min/1e9, res.Max/1e9, res.Spread())
		}
	}
}

// BenchmarkFig6FullScaleCold is the same census with cold caches every
// iteration — the first-encounter cost a fresh topology pays, and the
// number the pre-incremental solver was benchmarked at (~1.5s).
func BenchmarkFig6FullScaleCold(b *testing.B) {
	if testing.Short() {
		b.Skip("full-scale census in -short mode")
	}
	f, err := machine.Frontier().NewFabric()
	if err != nil {
		b.Fatal(err)
	}
	cfg := network.DefaultMpiGraphConfig()
	cfg.Nodes = 9408
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := network.RunMpiGraph(context.Background(), f, cfg,
			network.ParallelConfig{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("full-scale census: %d samples, min %.2f GB/s, max %.2f GB/s, spread %.1fx",
				len(res.Samples), res.Min/1e9, res.Max/1e9, res.Spread())
		}
	}
}

// benchSolverDemands builds the far-shift demand set the solver
// micro-benchmarks share.
func benchSolverDemands(b *testing.B, f *fabric.Fabric) []*network.Demand {
	b.Helper()
	rng := rand.New(rand.NewSource(2))
	nodes := f.Cfg.ComputeNodes()
	demands := make([]*network.Demand, 0, nodes)
	for i := 0; i < nodes; i++ {
		src := f.NodeEndpoints(i)[0]
		dst := f.NodeEndpoints((i + nodes/2) % nodes)[0]
		demands = append(demands, benchDemand(b, f, src, dst, rng))
	}
	return demands
}

// benchDemand routes src→dst over the minimal route and four Valiant
// detours, as the census does, into a demand of its own.
func benchDemand(b *testing.B, f *fabric.Fabric, src, dst int, rng *rand.Rand) *network.Demand {
	b.Helper()
	links, ends, err := f.AppendAdaptivePaths(nil, []int{0}, src, dst, 4, rng)
	if err != nil {
		b.Fatal(err)
	}
	d := &network.Demand{Src: src, Dst: dst, Paths: make([][]int, len(ends)-1)}
	for r := range d.Paths {
		d.Paths[r] = links[ends[r]:ends[r+1]:ends[r+1]]
	}
	return d
}

// fullScaleShiftDemands routes the census's far shift on Frontier: every
// NIC of node i sends to the same NIC of node i+nodes/2, the demands one
// Fig. 6 shift solves.
func fullScaleShiftDemands(b *testing.B, f *fabric.Fabric, rng *rand.Rand) []*network.Demand {
	b.Helper()
	nodes, nics := f.Cfg.ComputeNodes(), f.Cfg.NICsPerNode
	demands := make([]*network.Demand, 0, nodes*nics)
	for i := 0; i < nodes; i++ {
		for k := 0; k < nics; k++ {
			demands = append(demands, benchDemand(b, f, f.NodeEndpoint(i, k), f.NodeEndpoint((i+nodes/2)%nodes, k), rng))
		}
	}
	return demands
}

// BenchmarkAdaptivePathsFullScale measures path fill, the census's second
// layer: routing every pair of one full-machine far shift into reused
// buffers, as the census does.
func BenchmarkAdaptivePathsFullScale(b *testing.B) {
	if testing.Short() {
		b.Skip("full-scale path fill in -short mode")
	}
	f, err := machine.Frontier().NewFabric()
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	nodes, nics := f.Cfg.ComputeNodes(), f.Cfg.NICsPerNode
	var links, ends []int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for n := 0; n < nodes; n++ {
			for k := 0; k < nics; k++ {
				links, ends, err = f.AppendAdaptivePaths(links[:0], append(ends[:0], 0),
					f.NodeEndpoint(n, k), f.NodeEndpoint((n+nodes/2)%nodes, k), 4, rng)
				if err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// BenchmarkSolveColdFullScale measures the census's first layer as the
// census pays it: a fresh Solver per full-machine far-shift solve, since
// pooled arenas do not survive a GC. allocs/op is the arena's cold cost
// (the demands' SubRates are sized before the timer).
func BenchmarkSolveColdFullScale(b *testing.B) {
	if testing.Short() {
		b.Skip("full-scale solve in -short mode")
	}
	f, err := machine.Frontier().NewFabric()
	if err != nil {
		b.Fatal(err)
	}
	demands := fullScaleShiftDemands(b, f, rand.New(rand.NewSource(3)))
	if err := network.NewSolver().Solve(f, demands); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := network.NewSolver().Solve(f, demands); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolutionCache measures the per-solve overhead and payoff of
// the solution cache: "signature" is the SHA-256 demand-set hash every
// literal-keyed lookup pays, "hit" a full lookup-and-apply serving a
// stored allocation in place of the solve.
func BenchmarkSolutionCache(b *testing.B) {
	f, err := machine.Scaled(16, 16, 8).NewFabric()
	if err != nil {
		b.Fatal(err)
	}
	demands := benchSolverDemands(b, f)
	s := network.NewSolver()
	if err := s.Solve(f, demands); err != nil {
		b.Fatal(err)
	}
	cache := network.NewSolutionCache(0)
	sig := network.DemandSignature(demands)
	cache.Store(f, "", sig, s.Solution())
	b.Run("signature", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if network.DemandSignature(demands) != sig {
				b.Fatal("signature changed")
			}
		}
	})
	b.Run("hit", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sol, ok := cache.Lookup(f, "", sig)
			if !ok || !sol.Apply(demands) {
				b.Fatal("expected a cache hit")
			}
		}
	})
}

func BenchmarkAblationPPN(b *testing.B)    { benchExperiment(b, "ablation-ppn") }
func BenchmarkExtBurstBuffer(b *testing.B) { benchExperiment(b, "ext-burstbuffer") }
func BenchmarkExtSysmgmt(b *testing.B)     { benchExperiment(b, "ext-sysmgmt") }
func BenchmarkExtOperations(b *testing.B)  { benchExperiment(b, "ext-operations") }

// BenchmarkKernelSchedule measures the raw event-calendar cycle —
// schedule into a ~thousand-deep 4-ary heap, dispatch, recycle the arena
// slot — through the kernel's (Callback, arg) form. allocs/op is the
// steady-state allocation cost per event (the arena makes it ~0);
// events/sec is the headline number the BENCH trajectory tracks.
func BenchmarkKernelSchedule(b *testing.B) {
	k := sim.NewKernel(1)
	count := 0
	bump := func(any) { count++ }
	const depth = 1024
	// Warm the arena and heap to steady-state size.
	for i := 0; i < depth; i++ {
		k.At(sim.Time(i%64), bump, nil)
	}
	k.Run()
	start := k.Executed()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.At(k.Now()+sim.Time(i%64), bump, nil)
		if i%depth == depth-1 {
			k.Run()
		}
	}
	k.Run()
	b.StopTimer()
	b.ReportMetric(float64(k.Executed()-start)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkResiliencyYear injects a year of Frontier's Monte-Carlo
// failure trace (§5.4's component classes: tens of thousands of events)
// through resilience.InjectTrace, which keeps one failure on the
// calendar at a time, and dispatches it. It drives the production
// injector the workload uses, so its events/sec is the event kernel's
// gated throughput number beside BenchmarkKernelSchedule.
func BenchmarkResiliencyYear(b *testing.B) {
	m, err := machine.Frontier().ResilienceModel()
	if err != nil {
		b.Fatal(err)
	}
	const year = 365 * units.Day
	var events uint64
	interrupts := 0
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := sim.NewKernel(int64(i))
		rng := rand.New(rand.NewSource(int64(i)))
		resilience.InjectTrace(k, m.Simulate(year, rng), func(f resilience.Failure) {
			if f.Interrupting {
				interrupts++
			}
		})
		k.Run()
		events += k.Executed()
	}
	b.StopTimer()
	if interrupts == 0 {
		b.Fatal("a year on Frontier with no interrupts")
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
}

func BenchmarkSchedulerCycle(b *testing.B) {
	spec := machine.Frontier()
	f, err := spec.NewFabric()
	if err != nil {
		b.Fatal(err)
	}
	env, err := spec.JobEnv(f)
	if err != nil {
		b.Fatal(err)
	}
	k := sim.NewKernel(1)
	s := scheduler.New(k, env)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Submit(job.Blob("bench", 1024, 10), nil); err != nil {
			b.Fatal(err)
		}
		k.Run()
	}
}

func BenchmarkStreamModel(b *testing.B) {
	d := memory.TrentoDDR4()
	for i := 0; i < b.N; i++ {
		for _, kern := range memory.CPUStreamKernels {
			if memory.CPUStreamBandwidth(d, kern, i%2 == 0) <= 0 {
				b.Fatal("zero bandwidth")
			}
		}
	}
}

func BenchmarkGemmModel(b *testing.B) {
	g := gpu.NewMI250XGCD()
	for i := 0; i < b.N; i++ {
		if g.GemmAchieved(gpu.FP64, 8192) <= 0 {
			b.Fatal("zero rate")
		}
	}
}

func BenchmarkExtInventory(b *testing.B) { benchExperiment(b, "ext-inventory") }

func BenchmarkExtMiniapps(b *testing.B) { benchExperiment(b, "ext-miniapps") }

// benchRunAll times the whole registry through the harness at the given
// worker count. Quick mode keeps one iteration in CI range; the serial
// and parallel variants share seeds, so their tables are identical and
// the only difference is wall time.
func benchRunAll(b *testing.B, jobs int) {
	b.Helper()
	runners := experiments.Registry()
	opts := experiments.DefaultOptions()
	opts.Quick = true
	for i := 0; i < b.N; i++ {
		results, err := experiments.RunAll(context.Background(), runners, opts,
			experiments.RunConfig{Jobs: jobs}, nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(results) != len(runners) {
			b.Fatalf("got %d results, want %d", len(results), len(runners))
		}
	}
}

// BenchmarkRunAllSerial is the jobs=1 baseline for the parallel harness.
func BenchmarkRunAllSerial(b *testing.B) { benchRunAll(b, 1) }

// BenchmarkRunAllParallel runs the registry at GOMAXPROCS workers. On a
// 4+ core runner the wall time approaches the longest single experiment
// (expensive experiments dispatch first); the CI bench job records both
// trajectories per commit.
func BenchmarkRunAllParallel(b *testing.B) { benchRunAll(b, 0) }

// BenchmarkLLMTrainStep prices one LLM training step on a concrete
// placement: the Bind hot path every phase-structured submission pays
// (roofline compute, TP/PP/DP collectives on the real fabric, HBM-bound
// microbatching already folded into the program). Single-path and
// allocation-light, so ns/op is gated in benchjson compare mode.
func BenchmarkLLMTrainStep(b *testing.B) {
	spec := machine.Scaled(16, 16, 8)
	f, err := spec.NewFabric()
	if err != nil {
		b.Fatal(err)
	}
	env, err := spec.JobEnv(f)
	if err != nil {
		b.Fatal(err)
	}
	step, err := llm.AutoStep(llm.Frontier175B(), 128, spec.Node.DevicesPerNode, spec.NodeModel())
	if err != nil {
		b.Fatal(err)
	}
	prog := step.WithSteps(1, 0)
	placement := env.SpreadPlacement(prog.Nodes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bound, err := env.Bind(prog, placement)
		if err != nil {
			b.Fatal(err)
		}
		if bound.Total <= 0 {
			b.Fatal("free training step")
		}
	}
}

// BenchmarkCampaignWeek replays the phase-structured campaign through
// the scheduler: a week of program jobs in full mode, a day in -short.
// The campaign is a long deterministic event loop, so its ns/op is
// gated in benchjson compare mode alongside the kernel benchmarks.
func BenchmarkCampaignWeek(b *testing.B) { benchExperiment(b, "ext-campaign") }

// BenchmarkCampaignYear is the scale target the campaign engine's hot
// path is sized against: a simulated year on the full Frontier spec
// (a fortnight in -short), every job phase-structured, with the
// placement-signature pricing cache, the indexed scheduler, and paced
// failure injection all engaged. The run is deterministic end to
// end, so its ns/op is gated in benchjson compare mode; the rendered
// table reports the pricing-cache hit rate alongside the campaign rows.
func BenchmarkCampaignYear(b *testing.B) { benchExperiment(b, "ext-year") }
