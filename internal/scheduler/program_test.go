package scheduler

import (
	"math"
	"testing"

	"frontiersim/internal/job"
	"frontiersim/internal/machine"
	"frontiersim/internal/sim"
	"frontiersim/internal/units"
)

// testProgram is a small phase-structured job: per-pass compute plus an
// allreduce and a checkpoint.
func testProgram(env *job.Env, nodes, iters int) *job.Program {
	return &job.Program{
		Name: "prog", Class: "test", Nodes: nodes, PPN: env.Node.Devices,
		Iterations: iters,
		Loop: []job.Phase{
			{Name: "work", Kind: job.Compute, Flops: float64(env.Node.FP64) / 4},
			{Name: "sync", Kind: job.Collective, Op: job.Allreduce, Payload: 8 * units.MiB},
			{Name: "ckpt", Kind: job.Checkpoint, Write: 512 * units.MiB},
		},
	}
}

// near tolerates the float64 rounding of Start+Total-Start round trips.
func near(a, b units.Seconds) bool {
	return math.Abs(float64(a-b)) <= 1e-9*math.Max(1, math.Abs(float64(b)))
}

func TestProgramJobDerivesWalltime(t *testing.T) {
	k, _, s := testRig(t)
	p := testProgram(s.Env, 8, 20)
	est, err := s.Env.Estimate(p)
	if err != nil {
		t.Fatal(err)
	}
	j, err := s.Submit(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if j.Walltime != est*walltimeMargin {
		t.Errorf("Walltime = %v, want estimate %v x %.2f", j.Walltime, est, float64(walltimeMargin))
	}
	k.Run()
	if j.State != Completed {
		t.Fatalf("state = %v, want completed", j.State)
	}
	if j.Bound == nil {
		t.Fatal("completed program job has no Bound")
	}
	if got := j.End - j.Start; !near(got, j.Bound.Total) {
		t.Errorf("delivered %v != bound total %v", got, j.Bound.Total)
	}
	if j.End-j.Start > j.Walltime {
		t.Errorf("delivered %v exceeded requested %v without a timeout", j.End-j.Start, j.Walltime)
	}
	if j.Checkpoints != 20 {
		t.Errorf("Checkpoints = %d, want 20", j.Checkpoints)
	}
	if j.Class() != "test" {
		t.Errorf("Class = %q, want program class", j.Class())
	}
}

// A program job must interact with the queue exactly like a blob of its
// delivered runtime: same placement, same starts, same effect on the
// jobs around it.
func TestProgramVsBlobEquivalence(t *testing.T) {
	type shot struct {
		start, end units.Seconds
		alloc      []int
	}
	run := func(middle func(s *Scheduler) (*Job, error)) []shot {
		k, _, s := testRig(t)
		a, err := s.Submit(job.Blob("pre", 40, 300), nil) // hold most of the machine
		if err != nil {
			t.Fatal(err)
		}
		b, err := middle(s)
		if err != nil {
			t.Fatal(err)
		}
		c, err := s.Submit(job.Blob("post", 30, 100), nil) // must queue behind the middle job
		if err != nil {
			t.Fatal(err)
		}
		k.Run()
		var out []shot
		for _, j := range []*Job{a, b, c} {
			if j.State != Completed {
				t.Fatalf("%s: state %v", j.Name, j.State)
			}
			out = append(out, shot{j.Start, j.End, j.Alloc.AppendNodes(nil)})
		}
		return out
	}

	// Probe: learn the program's delivered runtime in this queue position.
	var delivered units.Seconds
	probe := run(func(s *Scheduler) (*Job, error) {
		return s.Submit(testProgram(s.Env, 30, 50), nil)
	})
	delivered = probe[1].end - probe[1].start

	blob := run(func(s *Scheduler) (*Job, error) {
		return s.Submit(job.Blob("prog-blob", 30, delivered), nil)
	})
	prog := run(func(s *Scheduler) (*Job, error) {
		return s.Submit(testProgram(s.Env, 30, 50), nil)
	})
	for i := range blob {
		if blob[i].start != prog[i].start || blob[i].end != prog[i].end {
			t.Errorf("job %d: blob ran %v..%v, program %v..%v", i,
				blob[i].start, blob[i].end, prog[i].start, prog[i].end)
		}
		if len(blob[i].alloc) != len(prog[i].alloc) {
			t.Fatalf("job %d: alloc sizes differ", i)
		}
		for n := range blob[i].alloc {
			if blob[i].alloc[n] != prog[i].alloc[n] {
				t.Errorf("job %d: allocations diverge at %d", i, n)
				break
			}
		}
	}
}

// A node failure mid-phase charges exactly the work since the last
// completed checkpoint.
func TestProgramInterruptLostWork(t *testing.T) {
	k, _, s := testRig(t)
	var final JobState
	j, err := s.Submit(testProgram(s.Env, 8, 50), func(j *Job) { final = j.State })
	if err != nil {
		t.Fatal(err)
	}
	if j.State != Running {
		t.Fatal("program should start immediately")
	}
	var pass units.Seconds // one loop pass
	for _, d := range j.Bound.LoopTimes {
		pass += d
	}
	// Kill a node mid-way through the compute phase of the 6th pass.
	cut := j.Start + 5*pass + j.Bound.LoopTimes[0]/2
	k.After(cut-k.Now(), func(any) { s.MarkUnhealthy(j.Alloc.Runs()[0].First) }, nil)
	k.RunUntil(cut + 1)
	if final != Failed {
		t.Fatalf("final state = %v, want failed", final)
	}
	if j.Checkpoints != 5 {
		t.Errorf("Checkpoints = %d, want 5", j.Checkpoints)
	}
	wantLost := cut - (j.Start + 5*pass)
	if !near(j.LostWork, wantLost) {
		t.Errorf("LostWork = %v, want %v (mid-phase, since last checkpoint)", j.LostWork, wantLost)
	}
	// A completed job, by contrast, loses nothing.
	k2, _, s2 := testRig(t)
	j2, err := s2.Submit(testProgram(s2.Env, 8, 5), nil)
	if err != nil {
		t.Fatal(err)
	}
	k2.Run()
	if j2.State != Completed || j2.LostWork != 0 {
		t.Errorf("completed job: state %v, lost work %v", j2.State, j2.LostWork)
	}
}

// A program whose bound runtime exceeds the requested walltime is killed
// at the walltime with state Timeout — mirroring a real scheduler's
// walltime kill, with the partial work accounted.
func TestProgramWalltimeTimeout(t *testing.T) {
	k, _, s := testRig(t)
	// Hold the whole machine so the program queues as pending — its
	// program is not yet bound.
	hold, err := s.Submit(job.Blob("hold", 48, 100), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Request a limit below any possible bound total: when the job
	// starts and is priced on its granted placement, the scheduler must
	// arm a walltime kill instead of a completion.
	p := testProgram(s.Env, 8, 50)
	p.Walltime = 1 * units.Millisecond
	var final JobState
	j, err := s.Submit(p, func(j *Job) { final = j.State })
	if err != nil {
		t.Fatal(err)
	}
	if j.State != Pending {
		t.Fatal("program should queue behind the hold job")
	}
	if j.Walltime != p.Walltime {
		t.Fatalf("Walltime = %v, want the requested %v", j.Walltime, p.Walltime)
	}
	k.Run()
	if hold.State != Completed {
		t.Fatalf("hold job state %v", hold.State)
	}
	if final != Timeout || j.State != Timeout {
		t.Fatalf("state = %v, want timeout", j.State)
	}
	if got := j.End - j.Start; !near(got, j.Walltime) {
		t.Errorf("killed at %v after start, want the %v walltime", got, j.Walltime)
	}
	if j.Bound == nil || j.Bound.Total <= j.Walltime {
		t.Error("timeout fired although the program fit its walltime")
	}
	if j.LostWork <= 0 {
		t.Error("timeout job charged no lost work")
	}
	// The killed job's nodes return to the pool.
	next, err := s.Submit(job.Blob("after", 48, 10), nil)
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
	if next.State != Completed {
		t.Errorf("machine not fully released after timeout: %v", next.State)
	}
}

func TestTimeoutStateString(t *testing.T) {
	if Timeout.String() != "timeout" {
		t.Errorf("Timeout.String() = %q", Timeout.String())
	}
}

// A program that cannot be priced on its granted nodes (here an I/O
// phase on a machine with no storage plant) is a launch failure: it
// ends Failed at its start time through an immediate event, its nodes
// return to the pool, and OnComplete runs once. The explicit Walltime
// skips the submit-time estimate, which would otherwise reject the
// program before it reached launch.
func TestLaunchFailureFailsAtStart(t *testing.T) {
	spec := machine.Scaled(6, 8, 4)
	spec.Storage = nil
	k := sim.NewKernel(1)
	s := newScheduler(t, k, spec)
	k.RunUntil(5) // a start time distinct from the zero value
	p := &job.Program{
		Name: "no-storage", Nodes: 8, PPN: 1, Walltime: 100,
		Setup: []job.Phase{{Name: "restore", Kind: job.IO, Read: units.GiB}},
	}
	completions := 0
	j, err := s.Submit(p, func(*Job) { completions++ })
	if err != nil {
		t.Fatal(err)
	}
	if j.State != Running || s.FreeNodes() != 40 {
		t.Fatalf("before the failure event: state %v, %d free nodes; want running, 40", j.State, s.FreeNodes())
	}
	k.Run()
	if j.State != Failed {
		t.Fatalf("state = %v, want failed", j.State)
	}
	if j.Start != 5 || j.End != j.Start {
		t.Errorf("start %v, end %v; want both 5", j.Start, j.End)
	}
	if s.FailedJobs != 1 || s.Finished != 1 {
		t.Errorf("FailedJobs = %d, Finished = %d; want 1, 1", s.FailedJobs, s.Finished)
	}
	if s.FreeNodes() != 48 {
		t.Errorf("free nodes = %d, want all 48 back", s.FreeNodes())
	}
	if completions != 1 {
		t.Errorf("OnComplete ran %d times, want 1", completions)
	}
	if j.Bound != nil {
		t.Error("a job that failed to bind has a Bound")
	}
}

// TestWalltimeKillTie pins the scheduler's outcome when a job's walltime
// kill lands exactly on one of its phase boundaries: boundary 0 has
// completed, a later boundary has not, a multi-phase program ending on
// the kill times out and a one-phase program completes. Each job starts
// at t0 on an empty machine, on node 0.
func TestWalltimeKillTie(t *testing.T) {
	const t0 = 1000
	below4 := units.Seconds(math.Nextafter(4, 0))
	fixed := func(d units.Seconds) job.Phase { return job.Phase{Name: "w", Kind: job.Fixed, Seconds: d} }
	ck := job.Phase{Name: "ckpt", Kind: job.Checkpoint, Write: 1 * units.GiB}
	_, _, s := testRig(t)
	priced, err := s.Env.Bind(&job.Program{Name: "ck", Nodes: 1, PPN: 1, Setup: []job.Phase{ck}}, s.Env.Fabric.SpreadPlacement(1))
	if err != nil {
		t.Fatal(err)
	}
	dc := priced.SetupTimes[0]
	cases := []struct {
		name            string
		setup, loop     []job.Phase
		walltime        units.Seconds
		state           JobState
		end             units.Seconds // the phase boundary the kill lands on
		ckpts           int
		lastCkptOrStart units.Seconds
	}{
		{"boundary 0 completes", []job.Phase{ck}, []job.Phase{fixed(1.5)},
			dc, Timeout, t0 + dc, 1, t0 + dc},
		{"a later boundary does not", []job.Phase{fixed(1.5), ck}, []job.Phase{fixed(1.5)},
			t0 + 1.5 + dc - t0, Timeout, t0 + 1.5 + dc, 0, t0},
		{"a multi-phase program ending on the kill times out", []job.Phase{fixed(1.5), fixed(2.5)}, nil,
			below4, Timeout, t0 + 4, 0, t0},
		{"a one-phase program ending on the kill completes", []job.Phase{fixed(4)}, nil,
			below4, Completed, t0 + 4, 0, t0 + 4},
	}
	for _, c := range cases {
		if t0+c.walltime != c.end {
			t.Fatalf("%s: kill at %v, not on the boundary %v", c.name, t0+c.walltime, c.end)
		}
		k := sim.NewKernel(1)
		s := newScheduler(t, k, machine.Scaled(6, 8, 4))
		k.RunUntil(t0)
		p := &job.Program{Name: "tie", Nodes: 1, PPN: 1, Setup: c.setup, Loop: c.loop, Walltime: c.walltime}
		if len(c.loop) > 0 {
			p.Iterations = 1
		}
		j, err := s.Submit(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		if j.Bound == nil || j.Alloc.Runs()[0].First != 0 || j.Bound.Total <= j.Walltime {
			t.Fatalf("%s: not started on node 0 with a kill armed", c.name)
		}
		k.Run()
		if j.State != c.state || j.End != c.end || j.Checkpoints != c.ckpts || j.LostWork != c.end-c.lastCkptOrStart {
			t.Errorf("%s: %v at %v, %d checkpoints, lost %v; want %v at %v, %d, %v",
				c.name, j.State, j.End, j.Checkpoints, j.LostWork, c.state, c.end, c.ckpts, c.end-c.lastCkptOrStart)
		}
	}
}
