package job_test

import (
	"sync"
	"testing"

	"frontiersim/internal/gpu"
	"frontiersim/internal/job"
	"frontiersim/internal/machine"
	"frontiersim/internal/units"
	"frontiersim/internal/workload"
)

// richProgram exercises every phase kind pricing touches: roofline
// compute, node-local and fabric-spanning collectives (contiguous and
// strided groups), point-to-point, halo, bulk I/O, and a checkpoint.
func richProgram(env *job.Env, nodes, iters int) *job.Program {
	ppn := env.Node.Devices
	ranks := nodes * ppn
	return &job.Program{
		Name: "rich", Class: "test", Nodes: nodes, PPN: ppn, Iterations: iters,
		Setup: []job.Phase{
			{Name: "read", Kind: job.IO, Read: 64 * units.GiB},
			{Name: "warm", Kind: job.Compute, Flops: 1e15, Bytes: 2 * units.GiB},
		},
		Loop: []job.Phase{
			{Name: "work", Kind: job.Compute, Flops: 5e14, Precision: gpu.FP32, Efficiency: 0.7},
			{Name: "tp", Kind: job.Collective, Op: job.AllGather, Payload: 64 * units.MiB, Group: job.Group{Size: ppn}},
			{Name: "dp", Kind: job.Collective, Op: job.Allreduce, Payload: 128 * units.MiB, Group: job.Group{Size: ranks / ppn, Stride: ppn}},
			{Name: "pipe", Kind: job.Collective, Op: job.SendRecv, Payload: 16 * units.MiB},
			{Name: "halo", Kind: job.Collective, Op: job.Halo, Payload: 4 * units.MiB},
			{Name: "ckpt", Kind: job.Checkpoint, Write: 256 * units.GiB},
		},
	}
}

func bindOrFatal(t *testing.T, env *job.Env, p *job.Program, nodes []int) *job.Bound {
	t.Helper()
	b, err := env.Bind(p, nodes)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func sameTimes(a, b []units.Seconds) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// A cache-served Bound must be bit-identical to a cold Bind — same
// per-phase times, same Total — including when the hit serves a
// different iteration count than the entry was stored with.
func TestPricingCacheBitIdentical(t *testing.T) {
	cold := testEnv(t)
	warm := testEnv(t)
	warm.Cache = job.NewPricingCache()
	warm.CacheKey = "test-machine"

	placements := [][]int{
		contiguous(4),
		warm.SpreadPlacement(4),
		{1, 2, 5, 9}, // spans groups unevenly
	}
	for _, iters := range []int{1, 7, 1000} {
		p := richProgram(cold, 4, iters)
		for _, nodes := range placements {
			want := bindOrFatal(t, cold, p, nodes)
			for pass := 0; pass < 2; pass++ { // miss then hit
				got := bindOrFatal(t, warm, p, nodes)
				if got.Total != want.Total {
					t.Fatalf("iters=%d pass=%d: Total %v != cold %v", iters, pass, got.Total, want.Total)
				}
				if !sameTimes(got.SetupTimes, want.SetupTimes) || !sameTimes(got.LoopTimes, want.LoopTimes) {
					t.Fatalf("iters=%d pass=%d: phase times diverge from cold bind", iters, pass)
				}
			}
		}
	}
	if hits, _ := warm.Cache.Stats(); hits == 0 {
		t.Error("no cache hits recorded across repeated binds")
	}
}

// Placements isomorphic under group relabeling share a signature; a
// different group interleaving (comm-group layout) does not, and
// placements spanning different group counts price differently.
func TestPlacementSignatureCanonicalization(t *testing.T) {
	env := testEnv(t) // Scaled(4,4,4): 16 nodes, 4 per group
	sig := func(nodes []int) string {
		s, ok := env.PlacementSignature(nodes)
		if !ok {
			t.Fatalf("signature rejected in-range placement %v", nodes)
		}
		return s
	}
	a := sig([]int{0, 1, 4}) // groups 0,0,1
	b := sig([]int{4, 5, 8}) // groups 1,1,2 — isomorphic to a
	c := sig([]int{0, 4, 5}) // groups 0,1,1 — same occupancy multiset, different layout
	if a != b {
		t.Error("isomorphic placements (relabeled groups) do not share a signature")
	}
	if a == c {
		t.Error("different group interleavings share a signature (occupancy multiset is not a sound key)")
	}
	// Non-monotone sequences: a group that recurs after another starts a
	// new run, and relabeling by first appearance still applies.
	d := sig([]int{0, 4, 1}) // groups 0,1,0
	e := sig([]int{4, 0, 5}) // groups 1,0,1 — relabels to 0,1,0
	if d == c {
		t.Error("group sequences [0,1,0] and [0,1,1] share a signature")
	}
	if d != e {
		t.Error("group sequences [0,1,0] and [1,0,1] (isomorphic) do not share a signature")
	}

	if s1, s2 := sig([]int{0, 1, 2}), sig([]int{0, 4, 8}); s1 == s2 {
		t.Error("packed and spanning placements share a signature")
	}
	if _, ok := env.PlacementSignature([]int{0, 1 << 20}); ok {
		t.Error("out-of-machine node accepted by the signature")
	}

	// The layout distinction is not pedantry: at a scale where the
	// global taper binds, packed vs spread placements of the same job
	// genuinely price differently — so they must not share a key.
	spec := machine.Scaled(8, 16, 8)
	f, err := spec.NewFabric()
	if err != nil {
		t.Fatal(err)
	}
	big, err := spec.JobEnv(f)
	if err != nil {
		t.Fatal(err)
	}
	p := &job.Program{Name: "wide", Nodes: 128, PPN: big.Node.Devices, Iterations: 5,
		Loop: []job.Phase{{Kind: job.Collective, Op: job.Allreduce, Payload: 128 * units.MiB}}}
	packed := bindOrFatal(t, big, p, contiguous(128))
	spread := bindOrFatal(t, big, p, big.SpreadPlacement(128))
	if packed.Total == spread.Total {
		t.Error("packed and spread 128-node placements priced identically; layout does not matter at this scale")
	}
	ps, _ := big.PlacementSignature(contiguous(128))
	ss, _ := big.PlacementSignature(big.SpreadPlacement(128))
	if ps == ss {
		t.Error("packed and spread 128-node placements share a signature")
	}
}

// The program signature covers pricing inputs only: comm-group strides
// change it, iteration counts and labels do not.
func TestProgramSignatureFields(t *testing.T) {
	env := testEnv(t)
	base := richProgram(env, 4, 10)
	if job.ProgramSignature(base) != job.ProgramSignature(richProgram(env, 4, 10)) {
		t.Error("identical programs hash differently")
	}
	iter := richProgram(env, 4, 999)
	if job.ProgramSignature(base) != job.ProgramSignature(iter) {
		t.Error("iteration count leaked into the program signature")
	}
	named := richProgram(env, 4, 10)
	named.Name, named.Class = "other", "other"
	if job.ProgramSignature(base) != job.ProgramSignature(named) {
		t.Error("name/class leaked into the program signature")
	}
	strided := richProgram(env, 4, 10)
	strided.Loop[2].Group.Stride = 1
	strided.Loop[2].Group.Size = env.Node.Devices
	if job.ProgramSignature(base) == job.ProgramSignature(strided) {
		t.Error("different comm-group strides share a program signature")
	}
	work := richProgram(env, 4, 10)
	work.Loop[0].Flops *= 2
	if job.ProgramSignature(base) == job.ProgramSignature(work) {
		t.Error("different phase work shares a program signature")
	}
	// A shared cache must never serve one blob the other's runtime.
	if job.ProgramSignature(job.Blob("b", 4, 100)) == job.ProgramSignature(job.Blob("b", 4, 200)) {
		t.Error("blobs of different durations share a program signature")
	}
	limited := richProgram(env, 4, 10)
	limited.Walltime = units.Hour
	if job.ProgramSignature(base) != job.ProgramSignature(limited) {
		t.Error("walltime leaked into the program signature")
	}
}

// A blob prices to exactly its duration on any placement, cold or
// served from the cache: no launch overhead, no placement effect.
func TestBindBlobIsExact(t *testing.T) {
	d := units.Seconds(1e4 / 3.0)
	for _, cache := range []*job.PricingCache{nil, job.NewPricingCache()} {
		env := testEnv(t)
		env.Cache = cache
		blob := job.Blob("blob", 8, d)
		for _, nodes := range [][]int{contiguous(8), env.SpreadPlacement(8)} {
			for pass := 0; pass < 2; pass++ { // with a cache, the second pass hits
				if b := bindOrFatal(t, env, blob, nodes); b.Total != d {
					t.Errorf("cache %v, nodes %v, pass %d: Total = %v, want %v", cache != nil, nodes, pass, b.Total, d)
				}
			}
		}
		if cache != nil {
			if hits, _ := cache.Stats(); hits != 2 {
				t.Errorf("cache hits = %d, want 2", hits)
			}
		}
		// A blob never builds a communicator, yet its placement is
		// still checked.
		bad := append(contiguous(7), 3)
		if _, err := env.Bind(blob, bad); err == nil {
			t.Errorf("cache %v: Bind accepted the repeated-node placement %v", cache != nil, bad)
		}
	}
}

// The cache counts hits and misses and keeps every entry; a nil cache
// is a valid always-miss cache; both stay safe under error paths.
func TestPricingCacheCountsAndNil(t *testing.T) {
	env := testEnv(t)
	env.Cache = job.NewPricingCache()
	p := richProgram(env, 3, 5)
	a, b := []int{0, 1, 2}, []int{0, 4, 8}
	bindOrFatal(t, env, p, a) // miss, stored
	bindOrFatal(t, env, p, b) // miss, stored
	if n := env.Cache.Len(); n != 2 {
		t.Fatalf("cache holds %d entries, want 2", n)
	}
	bindOrFatal(t, env, p, b) // hit
	bindOrFatal(t, env, p, a) // hit: nothing is ever evicted
	hits, misses := env.Cache.Stats()
	if hits != 2 || misses != 2 {
		t.Errorf("hits/misses = %d/%d, want 2/2", hits, misses)
	}
	if r := env.Cache.HitRate(); r != 0.5 {
		t.Errorf("HitRate = %v, want 0.5", r)
	}

	var nilCache *job.PricingCache
	if h, m := nilCache.Stats(); h != 0 || m != 0 {
		t.Error("nil cache reports activity")
	}
	if nilCache.HitRate() != 0 || nilCache.Len() != 0 {
		t.Error("nil cache reports state")
	}

	// An invalid placement must surface Bind's canonical error, cache
	// or no cache, and must not poison the cache.
	bad := []int{0, 1, 1 << 20}
	if _, err := env.Bind(p, bad); err == nil {
		t.Error("cached env accepted an out-of-machine placement")
	}
	plain := testEnv(t)
	if _, err := plain.Bind(p, bad); err == nil {
		t.Error("uncached env accepted an out-of-machine placement")
	}
}

// A placement that repeats a node is not a placement: it used to price
// its exchange as intra-node and, sharing a signature with the distinct
// placement [3,2], poison the cache for it. Bind rejects it with or
// without a cache, and the cache then serves [3,2] its cold price.
func TestRepeatedNodeDoesNotPoisonCache(t *testing.T) {
	cold := testEnv(t)
	warm := testEnv(t)
	warm.Cache = job.NewPricingCache()
	p := &job.Program{Name: "pair", Nodes: 2, PPN: 1, Iterations: 1,
		Loop: []job.Phase{{Kind: job.Collective, Op: job.SendRecv, Payload: units.MiB}}}
	for _, env := range []*job.Env{cold, warm} {
		if _, err := env.Bind(p, []int{3, 3}); err == nil {
			t.Fatalf("cache %v: Bind accepted the repeated placement [3 3]", env.Cache != nil)
		}
	}
	if _, ok := warm.PlacementSignature([]int{3, 3}); ok {
		t.Error("signature accepted a repeated node")
	}
	if _, ok := warm.PlacementSignature([]int{5, 2, 9, 2}); ok {
		t.Error("signature accepted a repeated node in an unsorted placement")
	}
	want := bindOrFatal(t, cold, p, []int{3, 2}).Total
	if got := bindOrFatal(t, warm, p, []int{3, 2}).Total; got != want {
		t.Errorf("cached [3 2] priced %v, cold %v", got, want)
	}
}

// With a cache, Estimate serves hits from the memoized nominal key
// without building a placement. Over every YearMix program shape it must
// equal the uncached Estimate bit for bit, count exactly one hit or miss
// per call, and agree with Bind on the spread placement through a twin
// cache that sees the same keys. Bind on the estimating cache must hit
// the spread entry and price any other placement cold.
func TestEstimateCachedMatchesUncached(t *testing.T) {
	spec := machine.Scaled(12, 16, 8)
	f, err := spec.NewFabric()
	if err != nil {
		t.Fatal(err)
	}
	env := func(cache *job.PricingCache) *job.Env {
		e, err := spec.JobEnv(f)
		if err != nil {
			t.Fatal(err)
		}
		e.Cache, e.CacheKey = cache, "scaled"
		return e
	}
	cold := env(nil)
	cached := env(job.NewPricingCache())
	twin := env(job.NewPricingCache())
	machineNodes := f.Cfg.ComputeNodes()
	programs := 0
	for _, class := range workload.YearMix(spec.Platform(), spec.NodeModel()) {
		if class.ProgramFor == nil {
			continue
		}
		for n := 1; n <= machineNodes; n *= 2 {
			for _, iters := range []int{1, 8, 64} {
				p, err := class.ProgramFor(n, iters)
				if err != nil || p.Nodes > machineNodes {
					continue
				}
				programs++
				want, err := cold.Estimate(p)
				if err != nil {
					t.Fatal(err)
				}
				for pass := 0; pass < 2; pass++ {
					h0, m0 := cached.Cache.Stats()
					got, err := cached.Estimate(p)
					if err != nil {
						t.Fatal(err)
					}
					if h1, m1 := cached.Cache.Stats(); h1+m1 != h0+m0+1 {
						t.Fatalf("%s n=%d: one Estimate moved hits/misses %d/%d -> %d/%d", p.Name, p.Nodes, h0, m0, h1, m1)
					}
					if got != want {
						t.Fatalf("%s n=%d iters=%d pass=%d: cached Estimate %v, uncached %v", p.Name, p.Nodes, iters, pass, got, want)
					}
					if bound := bindOrFatal(t, twin, p, twin.SpreadPlacement(p.Nodes)); bound.Total != want {
						t.Fatalf("%s n=%d iters=%d pass=%d: Bind on the spread placement %v, Estimate %v", p.Name, p.Nodes, iters, pass, bound.Total, want)
					}
				}
				// The entry Estimate stored is the spread placement's,
				// and no other placement's: Bind on the spread hits it,
				// a packed placement prices cold.
				h0, _ := cached.Cache.Stats()
				if bound := bindOrFatal(t, cached, p, cached.SpreadPlacement(p.Nodes)); bound.Total != want {
					t.Fatalf("%s n=%d: cached Bind on the spread placement %v, Estimate %v", p.Name, p.Nodes, bound.Total, want)
				}
				if h1, _ := cached.Cache.Stats(); h1 != h0+1 {
					t.Fatalf("%s n=%d: Bind on the spread placement missed the entry Estimate stored", p.Name, p.Nodes)
				}
				packed := contiguous(p.Nodes)
				if got, cold := bindOrFatal(t, cached, p, packed).Total, bindOrFatal(t, cold, p, packed).Total; got != cold {
					t.Fatalf("%s n=%d: cached Bind on a packed placement %v, cold %v", p.Name, p.Nodes, got, cold)
				}
				bindOrFatal(t, twin, p, twin.SpreadPlacement(p.Nodes))
				bindOrFatal(t, twin, p, packed)
			}
		}
	}
	if programs < 20 {
		t.Fatalf("only %d YearMix programs built", programs)
	}
	ch, cm := cached.Cache.Stats()
	th, tm := twin.Cache.Stats()
	if ch != th || cm != tm || ch == 0 {
		t.Errorf("Estimate cache hits/misses %d/%d, twin Bind cache %d/%d: the nominal key differs from the spread placement's", ch, cm, th, tm)
	}
}

// The cache is safe for concurrent binders and estimators (run under
// -race in CI).
func TestPricingCacheConcurrent(t *testing.T) {
	env := testEnv(t)
	env.Cache = job.NewPricingCache()
	p := richProgram(env, 3, 5)
	placements := [][]int{{0, 1, 2}, {0, 4, 8}, {0, 1, 4}, {4, 5, 8}}
	want := make([]units.Seconds, len(placements))
	coldEnv := testEnv(t)
	for i, nodes := range placements {
		want[i] = bindOrFatal(t, coldEnv, p, nodes).Total
	}
	estimate, err := coldEnv.Estimate(p)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				nodes := placements[i%len(placements)]
				b, err := env.Bind(p, nodes)
				if err != nil {
					t.Error(err)
					return
				}
				if b.Total != want[i%len(placements)] {
					t.Errorf("concurrent bind diverged on %v", nodes)
					return
				}
				if got, err := env.Estimate(p); err != nil || got != estimate {
					t.Errorf("concurrent estimate = %v, %v; want %v", got, err, estimate)
					return
				}
			}
		}()
	}
	wg.Wait()
}
