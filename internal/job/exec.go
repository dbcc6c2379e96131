package job

import (
	"frontiersim/internal/sim"
	"frontiersim/internal/units"
)

// Exec runs a bound program on the event kernel. Each phase boundary is
// a real simulation event: one event is outstanding at a time and the
// completion callback schedules the next phase, so a 10k-iteration
// program costs the calendar one slot, not one per phase instance. That
// also means an interrupt at any simulated instant lands *inside* a
// specific phase, which is what lets the resilience layer charge
// lost-work-since-last-checkpoint.
type Exec struct {
	Bound *Bound
	K     *sim.Kernel

	// OnDone fires when the last phase completes (nil for fire-and-forget).
	OnDone func()

	// TimeByKind accumulates completed simulated time per phase kind.
	TimeByKind [kinds]units.Seconds
	// Checkpoints counts completed checkpoint phases.
	Checkpoints int

	// lastCkpt is when the most recent checkpoint phase *completed* —
	// work since then is lost on interrupt. Before any checkpoint it is
	// the program start.
	lastCkpt units.Seconds
	// cursor walks phase instances: iter counts completed loop passes.
	inSetup bool
	idx     int
	iter    int
	done    bool
	stopped bool
	pending sim.Event
}

// execStep is the closure-free phase-boundary trampoline.
func execStep(arg any) { arg.(*Exec).step() }

// Start begins execution at the kernel's current time. It returns the
// Exec so callers can chain.
func (x *Exec) Start() *Exec {
	x.lastCkpt = x.K.Now()
	x.inSetup = len(x.Bound.Prog.Setup) > 0
	x.idx, x.iter = 0, 0
	x.schedule()
	return x
}

// current returns the in-flight phase and its bound duration, or false
// when the program has run out of phases.
func (x *Exec) current() (Phase, units.Seconds, bool) {
	p := x.Bound.Prog
	if x.inSetup {
		if x.idx < len(p.Setup) {
			return p.Setup[x.idx], x.Bound.SetupTimes[x.idx], true
		}
		return Phase{}, 0, false
	}
	if x.iter < p.Iterations && x.idx < len(p.Loop) {
		return p.Loop[x.idx], x.Bound.LoopTimes[x.idx], true
	}
	return Phase{}, 0, false
}

// schedule arms the boundary event for the current phase, or completes.
func (x *Exec) schedule() {
	if x.stopped || x.done {
		return
	}
	_, d, ok := x.current()
	if !ok {
		x.done = true
		if x.OnDone != nil {
			x.OnDone()
		}
		return
	}
	x.pending = x.K.AfterCall(d, execStep, x)
}

// step retires the completed phase and advances the cursor.
func (x *Exec) step() {
	if x.stopped || x.done {
		return
	}
	ph, d, _ := x.current()
	x.TimeByKind[ph.Kind] += d
	if ph.Kind == Checkpoint {
		x.Checkpoints++
		x.lastCkpt = x.K.Now()
	}
	x.idx++
	p := x.Bound.Prog
	if x.inSetup && x.idx >= len(p.Setup) {
		x.inSetup = false
		x.idx = 0
	} else if !x.inSetup && x.idx >= len(p.Loop) {
		x.idx = 0
		x.iter++
	}
	x.schedule()
}

// Done reports whether the program ran to completion.
func (x *Exec) Done() bool { return x.done }

// Stop cancels the in-flight phase boundary (interrupt or walltime
// kill). The partial phase is abandoned — its time is NOT credited to
// TimeByKind, matching a real job that dies mid-collective.
func (x *Exec) Stop() {
	if x.stopped || x.done {
		return
	}
	x.stopped = true
	x.pending.Cancel()
}

// LostWork returns the simulated time since the last completed
// checkpoint (or program start): the work an interrupt at the current
// kernel time destroys.
func (x *Exec) LostWork() units.Seconds {
	if x.done {
		return 0
	}
	return x.K.Now() - x.lastCkpt
}
