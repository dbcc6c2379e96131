package job_test

import (
	"frontiersim/internal/job"
	"frontiersim/internal/sim"
	"frontiersim/internal/units"
)

// referenceExec is the executor job.Exec replaced: one kernel event per
// phase boundary, each armed by the completion of the phase before it.
// It is the oracle FuzzExecMatchesReference and TestWalltimeKillTieRule
// hold Exec to, bit for bit.
type referenceExec struct {
	Bound *job.Bound
	K     *sim.Kernel

	// OnDone fires when the last phase completes (nil for fire-and-forget).
	OnDone func()
	// Checkpoints counts completed checkpoint phases.
	Checkpoints int

	// lastCkpt is when the most recent checkpoint phase completed; before
	// any checkpoint it is the program start.
	lastCkpt units.Seconds
	// The cursor walks phase instances: iter counts completed loop passes.
	inSetup bool
	idx     int
	iter    int
	done    bool
	stopped bool
	pending sim.Event
}

// referenceStep is the phase-boundary event callback; arg is the
// referenceExec.
func referenceStep(arg any) { arg.(*referenceExec).step() }

// Start begins execution at the kernel's current time.
func (x *referenceExec) Start() *referenceExec {
	x.lastCkpt = x.K.Now()
	x.inSetup = len(x.Bound.Prog.Setup) > 0
	x.idx, x.iter = 0, 0
	x.schedule()
	return x
}

// current returns the in-flight phase and its bound duration, or false
// when the program has run out of phases.
func (x *referenceExec) current() (job.Phase, units.Seconds, bool) {
	p := x.Bound.Prog
	if x.inSetup {
		if x.idx < len(p.Setup) {
			return p.Setup[x.idx], x.Bound.SetupTimes[x.idx], true
		}
		return job.Phase{}, 0, false
	}
	if x.iter < p.Iterations && x.idx < len(p.Loop) {
		return p.Loop[x.idx], x.Bound.LoopTimes[x.idx], true
	}
	return job.Phase{}, 0, false
}

// schedule arms the boundary event for the current phase, or completes.
func (x *referenceExec) schedule() {
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
	x.pending = x.K.After(d, referenceStep, x)
}

// step retires the completed phase and advances the cursor.
func (x *referenceExec) step() {
	if x.stopped || x.done {
		return
	}
	ph, _, _ := x.current()
	if ph.Kind == job.Checkpoint {
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

// Stop cancels the in-flight phase boundary (interrupt or walltime
// kill); the partial phase is abandoned.
func (x *referenceExec) Stop() {
	if x.stopped || x.done {
		return
	}
	x.stopped = true
	x.pending.Cancel()
}

// LostWork returns the simulated time since the last completed
// checkpoint (or program start) at the current kernel time.
func (x *referenceExec) LostWork() units.Seconds {
	if x.done {
		return 0
	}
	return x.K.Now() - x.lastCkpt
}
