package job_test

import (
	"math"
	"math/rand"
	"testing"

	"frontiersim/internal/job"
	"frontiersim/internal/sim"
	"frontiersim/internal/units"
)

// fixedBound binds a program of Fixed and Checkpoint phases at the given
// durations directly, without an Env: the executors read only the
// program's structure and the per-phase times.
func fixedBound(setup, loop []job.Phase, iterations int) *job.Bound {
	p := &job.Program{Name: "exec", Nodes: 1, PPN: 1, Setup: setup, Loop: loop, Iterations: iterations}
	b := &job.Bound{Prog: p}
	var setupSum, loopSum units.Seconds
	for _, ph := range setup {
		b.SetupTimes = append(b.SetupTimes, ph.Seconds)
		setupSum += ph.Seconds
	}
	for _, ph := range loop {
		b.LoopTimes = append(b.LoopTimes, ph.Seconds)
		loopSum += ph.Seconds
	}
	b.Total = setupSum + units.Seconds(iterations)*loopSum
	return b
}

func fixed(d units.Seconds) job.Phase { return job.Phase{Name: "w", Kind: job.Fixed, Seconds: d} }
func ckpt(d units.Seconds) job.Phase  { return job.Phase{Name: "c", Kind: job.Checkpoint, Seconds: d} }

// outcome is what a run leaves for the scheduler to read.
type outcome struct {
	completed   bool
	doneAt      units.Seconds
	checkpoints int
	lostWork    units.Seconds
}

// runReference runs b from t0 on the reference executor. With hasStop, a
// stop is armed at stop right after Start, the way the scheduler arms its
// walltime kill; the stop reads the lost work before abandoning the run,
// as the scheduler did.
func runReference(b *job.Bound, t0 units.Seconds, hasStop bool, stop units.Seconds) outcome {
	var o outcome
	k := sim.NewKernel(1)
	k.RunUntil(t0)
	x := &referenceExec{Bound: b, K: k}
	x.OnDone = func() { o.completed, o.doneAt = true, k.Now() }
	x.Start()
	if hasStop {
		k.At(stop, func(any) {
			o.lostWork = x.LostWork()
			x.Stop()
		}, nil)
	}
	k.Run()
	o.checkpoints = x.Checkpoints
	return o
}

// runExec runs b from t0 on Exec, with a stop armed as in runReference
// and announced to Exec as its Limit. It also returns the events the run
// dispatched.
func runExec(b *job.Bound, t0 units.Seconds, hasStop bool, stop units.Seconds) (outcome, uint64) {
	var o outcome
	k := sim.NewKernel(1)
	k.RunUntil(t0)
	x := &job.Exec{Bound: b, K: k}
	x.OnDone = func() { o.completed, o.doneAt = true, k.Now() }
	if hasStop {
		x.Limit = stop
	}
	x.Start()
	if hasStop {
		k.At(stop, func(any) { x.Stop() }, nil)
	}
	k.Run()
	o.checkpoints, o.lostWork = x.Checkpoints, x.LostWork
	return o, k.Executed()
}

// boundaries returns the instant of every phase boundary of b started at
// t0, in order; the last is the completion.
func boundaries(b *job.Bound, t0 units.Seconds) []units.Seconds {
	var out []units.Seconds
	t := t0
	for _, d := range b.SetupTimes {
		t += d
		out = append(out, t)
	}
	for range b.Prog.Iterations {
		for _, d := range b.LoopTimes {
			t += d
			out = append(out, t)
		}
	}
	return out
}

// FuzzExecMatchesReference holds the one-event executor to the
// per-boundary-event reference on random programs of Fixed and
// Checkpoint phases, stopped (or not) anywhere: exactly on a phase
// boundary, exactly on the completion, one ulp to either side of a
// boundary, or at an arbitrary instant. The two must agree bit for bit
// on whether OnDone fired and when, on Checkpoints and on LostWork.
func FuzzExecMatchesReference(f *testing.F) {
	f.Add(uint64(1), uint8(1), uint8(3), uint8(9), uint8(0), uint16(0))
	f.Add(uint64(2), uint8(0), uint8(2), uint8(199), uint8(1), uint16(77))
	f.Add(uint64(3), uint8(2), uint8(1), uint8(50), uint8(2), uint16(0))
	f.Add(uint64(4), uint8(1), uint8(0), uint8(0), uint8(3), uint16(40000))
	f.Add(uint64(5), uint8(3), uint8(4), uint8(20), uint8(4), uint16(5))
	f.Add(uint64(6), uint8(1), uint8(0), uint8(0), uint8(2), uint16(0))
	f.Add(uint64(7), uint8(1), uint8(2), uint8(3), uint8(1), uint16(0))
	durations := []units.Seconds{0.1, 0.2, 0.3, 1, 1.5, 7, 3600, 1e-3, 1e-7}
	starts := []units.Seconds{0, 0.1, 12345.678, 1e6 + 0.3, 365 * units.Day}
	f.Fuzz(func(t *testing.T, seed uint64, nSetup, nLoop, iters, mode uint8, at uint16) {
		rnd := rand.New(rand.NewSource(int64(seed)))
		phase := func() job.Phase {
			d := durations[rnd.Intn(len(durations))]
			if rnd.Intn(4) == 0 {
				d = units.Seconds(rnd.Float64()*10 + 1e-9)
			}
			if rnd.Intn(3) == 0 {
				return ckpt(d)
			}
			return fixed(d)
		}
		setup := make([]job.Phase, nSetup%4)
		loop := make([]job.Phase, nLoop%5)
		if len(setup)+len(loop) == 0 {
			loop = make([]job.Phase, 1)
		}
		for i := range setup {
			setup[i] = phase()
		}
		for i := range loop {
			loop[i] = phase()
		}
		b := fixedBound(setup, loop, 1+int(iters)%200)
		t0 := starts[rnd.Intn(len(starts))]
		bounds := boundaries(b, t0)
		end := bounds[len(bounds)-1]

		hasStop, stop := true, units.Seconds(0)
		switch mode % 5 {
		case 0:
			hasStop = false
		case 1:
			stop = bounds[int(at)%len(bounds)]
		case 2:
			stop = end
		case 3:
			stop = t0 + (end-t0)*units.Seconds(at)/math.MaxUint16
		case 4:
			stop = bounds[int(at>>1)%len(bounds)]
			if at&1 == 0 {
				stop = units.Seconds(math.Nextafter(float64(stop), math.Inf(1)))
			} else {
				stop = max(t0, units.Seconds(math.Nextafter(float64(stop), math.Inf(-1))))
			}
		}

		want := runReference(b, t0, hasStop, stop)
		got, events := runExec(b, t0, hasStop, stop)
		if got != want {
			t.Fatalf("start %v, stop %v (set %v), %d boundaries ending %v:\nExec      %+v\nreference %+v",
				t0, stop, hasStop, len(bounds), end, got, want)
		}
		limit := uint64(1)
		if hasStop {
			limit = 2
		}
		if events > limit {
			t.Fatalf("Exec run dispatched %d events, want at most %d", events, limit)
		}
	})
}

// TestExecArmsOneEvent: a run costs the calendar one event however many
// phases it has, and a stopped run leaves nothing on it.
func TestExecArmsOneEvent(t *testing.T) {
	b := fixedBound(nil, []job.Phase{fixed(0.5), fixed(0.25), ckpt(0.125)}, 1000)
	k := sim.NewKernel(1)
	done := false
	x := (&job.Exec{Bound: b, K: k, OnDone: func() { done = true }}).Start()
	k.Run()
	if !done || x.Checkpoints != 1000 {
		t.Fatalf("done %v, Checkpoints %d; want true, 1000", done, x.Checkpoints)
	}
	if k.Executed() != 1 {
		t.Errorf("a 1000-iteration, 3-phase run dispatched %d events, want 1", k.Executed())
	}

	k = sim.NewKernel(1)
	x = (&job.Exec{Bound: b, K: k, OnDone: func() { t.Error("stopped run completed") }}).Start()
	k.RunUntil(100.1) // 114 passes of 0.875 s, then 0.1 s into the 115th
	x.Stop()
	if k.Pending() != 0 {
		t.Errorf("stopped run left %d events pending", k.Pending())
	}
	if x.Checkpoints != 114 {
		t.Errorf("Checkpoints = %d, want 114", x.Checkpoints)
	}
	k.Run()
	if k.Executed() != 0 {
		t.Errorf("stopped run dispatched %d events", k.Executed())
	}
}

// TestWalltimeKillTieRule pins Exec's tie rule at the walltime-kill
// instant. Each case is launched the way the scheduler launches a job:
// Start at t0, then, when the bound total exceeds the walltime, a kill
// armed at t0+walltime. The reference executor and Exec must both give
// the case's outcome.
func TestWalltimeKillTieRule(t *testing.T) {
	const t0 = 1000
	below4 := units.Seconds(math.Nextafter(4, 0))
	if t0+below4 != t0+4 {
		t.Fatalf("%v + %v rounds to %v, not %v: the end-on-limit cases need a new walltime", t0, below4, t0+below4, t0+4)
	}
	cases := []struct {
		name     string
		b        *job.Bound
		walltime units.Seconds
		want     outcome
	}{
		{"boundary 0 completes at the kill",
			fixedBound([]job.Phase{ckpt(2.5)}, []job.Phase{fixed(1.5)}, 1), 2.5,
			outcome{checkpoints: 1, lostWork: 0}},
		{"a later boundary does not complete at the kill",
			fixedBound([]job.Phase{fixed(1.5), ckpt(1)}, []job.Phase{fixed(1.5)}, 1), 2.5,
			outcome{checkpoints: 0, lostWork: 2.5}},
		{"a multi-phase program ending on the limit times out",
			fixedBound([]job.Phase{fixed(1.5), ckpt(2.5)}, nil, 0), below4,
			outcome{checkpoints: 0, lostWork: 4}},
		{"a one-phase program ending on the limit completes",
			fixedBound(nil, []job.Phase{ckpt(4)}, 1), below4,
			outcome{completed: true, doneAt: t0 + 4, checkpoints: 1}},
	}
	for _, c := range cases {
		if c.b.Total <= c.walltime {
			t.Fatalf("%s: total %v does not exceed walltime %v, so no kill is armed", c.name, c.b.Total, c.walltime)
		}
		ref := runReference(c.b, t0, true, t0+c.walltime)
		got, _ := runExec(c.b, t0, true, t0+c.walltime)
		if ref != c.want {
			t.Errorf("%s: reference %+v, want %+v", c.name, ref, c.want)
		}
		if got != c.want {
			t.Errorf("%s: Exec %+v, want %+v", c.name, got, c.want)
		}
	}
}
