package job_test

import (
	"math"
	"testing"

	"frontiersim/internal/gpu"
	"frontiersim/internal/job"
	"frontiersim/internal/machine"
	"frontiersim/internal/sim"
	"frontiersim/internal/units"
)

// testEnv builds a small scaled-Frontier env: 4 groups of 4 switches of
// 4 endpoints, full storage plant.
func testEnv(t *testing.T) *job.Env {
	t.Helper()
	spec := machine.Scaled(4, 4, 4)
	f, err := spec.NewFabric()
	if err != nil {
		t.Fatal(err)
	}
	env, err := spec.JobEnv(f)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func contiguous(n int) []int {
	nodes := make([]int, n)
	for i := range nodes {
		nodes[i] = i
	}
	return nodes
}

// loopTime is the duration of one loop pass of b.
func loopTime(b *job.Bound) units.Seconds {
	var t units.Seconds
	for _, d := range b.LoopTimes {
		t += d
	}
	return t
}

// phaseEvents counts the phase instances executing p walks through.
func phaseEvents(p *job.Program) int { return len(p.Setup) + p.Iterations*len(p.Loop) }

func TestProgramValidate(t *testing.T) {
	good := &job.Program{
		Name: "ok", Nodes: 2, PPN: 8, Iterations: 3,
		Loop: []job.Phase{{Name: "c", Kind: job.Compute, Flops: 1e12}},
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid program rejected: %v", err)
	}
	if err := job.Blob("blob", 2, units.Hour).Validate(); err != nil {
		t.Fatalf("valid blob rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(p *job.Program)
	}{
		{"no name", func(p *job.Program) { p.Name = "" }},
		{"zero nodes", func(p *job.Program) { p.Nodes = 0 }},
		{"zero ppn", func(p *job.Program) { p.PPN = 0 }},
		{"no phases", func(p *job.Program) { p.Loop = nil }},
		{"loop without iterations", func(p *job.Program) { p.Iterations = 0 }},
		{"negative flops", func(p *job.Program) { p.Loop[0].Flops = -1 }},
		{"group does not divide", func(p *job.Program) {
			p.Loop[0] = job.Phase{Kind: job.Collective, Op: job.Allreduce, Group: job.Group{Size: 5}}
		}},
		{"strided group does not cover", func(p *job.Program) {
			p.Loop[0] = job.Phase{Kind: job.Collective, Op: job.Allreduce, Group: job.Group{Size: 4, Stride: 3}}
		}},
		{"negative io", func(p *job.Program) {
			p.Loop[0] = job.Phase{Kind: job.IO, Read: -1}
		}},
		{"fixed without duration", func(p *job.Program) {
			p.Loop[0] = job.Phase{Kind: job.Fixed}
		}},
		{"negative fixed duration", func(p *job.Program) {
			p.Loop[0] = job.Phase{Kind: job.Fixed, Seconds: -1}
		}},
		{"negative walltime", func(p *job.Program) { p.Walltime = -1 }},
	}
	for _, c := range cases {
		p := *good
		p.Loop = append([]job.Phase(nil), good.Loop...)
		c.mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: validated", c.name)
		}
	}
}

func TestBindPricesRoofline(t *testing.T) {
	env := testEnv(t)
	flops := float64(env.Node.FP64) // exactly one second dense
	p := &job.Program{
		Name: "roofline", Nodes: 2, PPN: env.Node.Devices, Iterations: 4,
		Setup: []job.Phase{{Name: "load", Kind: job.IO, Read: 1 * units.GiB}},
		Loop: []job.Phase{
			{Name: "fp64", Kind: job.Compute, Flops: flops, Precision: gpu.FP64},
			{Name: "stream", Kind: job.Compute, Bytes: units.Bytes(float64(env.Node.MemBW) / 2)},
		},
	}
	b, err := env.Bind(p, contiguous(2))
	if err != nil {
		t.Fatal(err)
	}
	if got := float64(b.LoopTimes[0]); math.Abs(got-1) > 1e-3 {
		t.Errorf("dense-second phase priced at %v", b.LoopTimes[0])
	}
	if got := float64(b.LoopTimes[1]); math.Abs(got-0.5) > 1e-3 {
		t.Errorf("half-bandwidth-second phase priced at %v", b.LoopTimes[1])
	}
	wantTotal := b.SetupTimes[0] + 4*loopTime(b)
	if b.Total != wantTotal {
		t.Errorf("Total = %v, want setup+4*loop = %v", b.Total, wantTotal)
	}
	// Efficiency derates the denominator.
	p.Loop[0].Efficiency = 0.5
	b2, err := env.Bind(p, contiguous(2))
	if err != nil {
		t.Fatal(err)
	}
	if b2.LoopTimes[0] <= b.LoopTimes[0] {
		t.Errorf("efficiency 0.5 did not slow the phase: %v vs %v", b2.LoopTimes[0], b.LoopTimes[0])
	}
}

// The point of the whole layer: the same program priced on a packed
// allocation vs a spread allocation yields different collective times.
// The job must claim enough of the machine that the global taper binds
// (small jobs are NIC-limited under either placement).
func TestBindPlacementSensitivity(t *testing.T) {
	spec := machine.Scaled(8, 8, 4)
	f, err := spec.NewFabric()
	if err != nil {
		t.Fatal(err)
	}
	env, err := spec.JobEnv(f)
	if err != nil {
		t.Fatal(err)
	}
	n := 48 // 75% of the 64-node machine
	p := &job.Program{
		Name: "a2a", Nodes: n, PPN: env.Node.Devices, Iterations: 1,
		Loop: []job.Phase{{Name: "x", Kind: job.Collective, Op: job.AllToAll, Payload: 16 * units.MiB}},
	}
	packed, err := env.Bind(p, contiguous(n))
	if err != nil {
		t.Fatal(err)
	}
	spread, err := env.Bind(p, env.SpreadPlacement(n))
	if err != nil {
		t.Fatal(err)
	}
	if packed.Total == spread.Total {
		t.Fatalf("packed and spread placements priced identically (%v): placement is invisible", packed.Total)
	}
}

// A collective on a node-local group (tensor-parallel shape) must be
// priced over xGMI, i.e. strictly cheaper than the same payload on a
// fabric-spanning group of the same size.
func TestNodeLocalGroupCheaper(t *testing.T) {
	env := testEnv(t)
	ppn := env.Node.Devices
	mk := func(g job.Group) units.Seconds {
		p := &job.Program{
			Name: "g", Nodes: ppn, PPN: ppn, Iterations: 1,
			Loop: []job.Phase{{Name: "ar", Kind: job.Collective, Op: job.Allreduce,
				Payload: 256 * units.MiB, Group: g}},
		}
		b, err := env.Bind(p, contiguous(ppn))
		if err != nil {
			t.Fatal(err)
		}
		return b.LoopTimes[0]
	}
	local := mk(job.Group{Size: ppn})                // ranks 0..ppn-1: one node
	strided := mk(job.Group{Size: ppn, Stride: ppn}) // one rank per node
	if local >= strided {
		t.Errorf("node-local allreduce (%v) not cheaper than fabric allreduce (%v)", local, strided)
	}
}

func TestExecAccounting(t *testing.T) {
	env := testEnv(t)
	k := sim.NewKernel(1)
	p := &job.Program{
		Name: "acct", Nodes: 2, PPN: env.Node.Devices, Iterations: 3,
		Setup: []job.Phase{{Name: "restore", Kind: job.IO, Read: 10 * units.GiB}},
		Loop: []job.Phase{
			{Name: "work", Kind: job.Compute, Flops: float64(env.Node.FP64) / 10},
			{Name: "sync", Kind: job.Collective, Op: job.Allreduce, Payload: 4 * units.MiB},
			{Name: "ckpt", Kind: job.Checkpoint, Write: 1 * units.GiB},
		},
	}
	b, err := env.Bind(p, contiguous(2))
	if err != nil {
		t.Fatal(err)
	}
	done := false
	x := (&job.Exec{Bound: b, K: k, OnDone: func() { done = true }}).Start()
	k.Run()
	if !done || !x.Done() {
		t.Fatal("program did not complete")
	}
	if k.Now() != b.Total {
		t.Errorf("completion at %v, bound total %v", k.Now(), b.Total)
	}
	if x.Checkpoints != 3 {
		t.Errorf("Checkpoints = %d, want 3", x.Checkpoints)
	}
	wantIO := b.SetupTimes[0]
	if x.TimeByKind[job.IO] != wantIO {
		t.Errorf("IO time %v, want %v", x.TimeByKind[job.IO], wantIO)
	}
	var sum units.Seconds
	for _, d := range x.TimeByKind {
		sum += d
	}
	if sum != b.Total {
		t.Errorf("TimeByKind sums to %v, total %v", sum, b.Total)
	}
	if x.LostWork() != 0 {
		t.Errorf("completed program reports lost work %v", x.LostWork())
	}
}

// An interrupt mid-phase strands exactly the work since the last
// completed checkpoint.
func TestExecStopLostWork(t *testing.T) {
	env := testEnv(t)
	k := sim.NewKernel(1)
	p := &job.Program{
		Name: "lost", Nodes: 1, PPN: env.Node.Devices, Iterations: 10,
		Loop: []job.Phase{
			{Name: "work", Kind: job.Compute, Flops: float64(env.Node.FP64)}, // ~1s
			{Name: "ckpt", Kind: job.Checkpoint, Write: 1 * units.MiB},
		},
	}
	b, err := env.Bind(p, contiguous(1))
	if err != nil {
		t.Fatal(err)
	}
	x := (&job.Exec{Bound: b, K: k}).Start()
	pass := loopTime(b)
	// Interrupt mid-way through the 4th pass: 3 checkpoints completed.
	cut := 3*pass + b.LoopTimes[0]/2
	k.RunUntil(cut)
	x.Stop()
	if x.Checkpoints != 3 {
		t.Fatalf("Checkpoints = %d, want 3", x.Checkpoints)
	}
	want := k.Now() - 3*pass
	if got := x.LostWork(); got != want {
		t.Errorf("LostWork = %v, want %v (since last checkpoint)", got, want)
	}
	// The stranded partial phase is not credited.
	if x.TimeByKind[job.Compute] != 3*b.LoopTimes[0] {
		t.Errorf("compute credit %v, want %v", x.TimeByKind[job.Compute], 3*b.LoopTimes[0])
	}
	k.Run() // draining the calendar must not resurrect the program
	if x.Done() {
		t.Error("stopped program reported done")
	}
}

func TestCoarsenConservesWork(t *testing.T) {
	p := &job.Program{
		Name: "c", Nodes: 1, PPN: 8, Iterations: 1000,
		Loop: []job.Phase{
			{Name: "w", Kind: job.Compute, Flops: 7, Bytes: 3},
			{Name: "h", Kind: job.Collective, Op: job.Halo, Payload: 11},
		},
	}
	c := job.Coarsen(p, 64)
	if c.Iterations != 16 { // ceil(1000/64)
		t.Errorf("Iterations = %d, want 16", c.Iterations)
	}
	if c.Loop[0].Flops != 7*64 || c.Loop[0].Bytes != 3*64 || c.Loop[1].Payload != 11*64 {
		t.Errorf("phase work not scaled by chunk: %+v", c.Loop)
	}
	if phaseEvents(c) >= phaseEvents(p) {
		t.Errorf("coarsening did not shrink events: %d vs %d", phaseEvents(c), phaseEvents(p))
	}
	if got := job.Coarsen(p, 1); got != p {
		t.Error("chunk < 2 must return the program unchanged")
	}
	if p.Loop[0].Flops != 7 {
		t.Error("Coarsen mutated the original program")
	}
}

func TestCheckpointed(t *testing.T) {
	p := &job.Program{
		Name: "k", Nodes: 1, PPN: 8, Iterations: 100,
		Loop: []job.Phase{{Name: "w", Kind: job.Compute, Flops: 1}},
	}
	c := job.Checkpointed(p, 5*units.GiB, 10)
	if len(c.Loop) != 10*len(p.Loop)+1 {
		t.Errorf("folded loop has %d phases, want %d", len(c.Loop), 10*len(p.Loop)+1)
	}
	last := c.Loop[len(c.Loop)-1]
	if last.Kind != job.Checkpoint || last.Write != 5*units.GiB {
		t.Errorf("last phase %+v is not the checkpoint", last)
	}
	if c.Iterations != 10 {
		t.Errorf("Iterations = %d, want 10", c.Iterations)
	}
	every := job.Checkpointed(p, 1, 1)
	if len(every.Loop) != 2 || every.Iterations != 100 {
		t.Errorf("interval 1 should append in place: %d phases, %d iterations", len(every.Loop), every.Iterations)
	}
}

func TestEstimateRejectsOversizedProgram(t *testing.T) {
	env := testEnv(t)
	p := &job.Program{
		Name: "big", Nodes: 1 << 20, PPN: 8, Iterations: 1,
		Loop: []job.Phase{{Name: "w", Kind: job.Compute, Flops: 1}},
	}
	if _, err := env.Estimate(p); err == nil {
		t.Error("estimate accepted a program larger than the machine")
	}
}
