package job

import (
	"frontiersim/internal/sim"
	"frontiersim/internal/units"
)

// Exec runs a bound program on the event kernel with one event per run.
// Start walks the bound phase times in program order (setup, then
// Iterations passes of the loop), adding each to a clock that begins at
// the kernel's current time, and arms one event at the instant the walk
// ends. Those are the additions a chain of one event per phase boundary
// would make, so the run completes at the same instant bit for bit, and
// a 10k-iteration program costs the calendar one event, not one per
// phase.
//
// Stop (an interrupt or a walltime kill) walks the same times up to the
// kernel's current time: the phase the stop lands in is abandoned, and
// Checkpoints and LostWork are settled from the boundaries before it.
//
// Tie rule. A stop at exactly a phase boundary is ordered as a chain of
// boundary events ordered it against a stop armed right after Start, as
// the scheduler's walltime kill is: boundary 0's event was armed before
// the stop and had run, and every later boundary's event was armed after
// it and had not. So at the kill instant boundary 0 has completed and a
// later boundary has not. A run whose computed end equals Limit times
// out if the program has more than one phase instance, and completes if
// it has exactly one (its end is boundary 0).
type Exec struct {
	Bound *Bound
	K     *sim.Kernel

	// OnDone fires when the last phase completes (nil for fire-and-forget).
	OnDone func()
	// Limit is the instant a walltime kill armed after Start will Stop
	// the run, or zero for none. A run that cannot end before it, under
	// the tie rule, arms no event.
	Limit units.Seconds

	// Checkpoints counts completed checkpoint phases, and LostWork is the
	// simulated time from the last completed checkpoint (or the program
	// start) to the stop: the work an interrupt destroyed. Both are
	// settled when the run completes or stops.
	Checkpoints int
	LostWork    units.Seconds

	start   units.Seconds
	ended   bool // completed or stopped
	pending sim.Event
}

// execDone is the completion event callback; arg is the Exec.
func execDone(arg any) {
	x := arg.(*Exec)
	x.ended = true
	p := x.Bound.Prog
	x.Checkpoints = checkpoints(p.Setup) + p.Iterations*checkpoints(p.Loop)
	if x.OnDone != nil {
		x.OnDone()
	}
}

// checkpoints counts the checkpoint phases in phases.
func checkpoints(phases []Phase) int {
	n := 0
	for _, ph := range phases {
		if ph.Kind == Checkpoint {
			n++
		}
	}
	return n
}

// Start begins execution at the kernel's current time. It returns the
// Exec so callers can chain.
func (x *Exec) Start() *Exec {
	b, p := x.Bound, x.Bound.Prog
	x.start = x.K.Now()
	end := x.start
	for _, d := range b.SetupTimes {
		end += d
	}
	for range p.Iterations {
		for _, d := range b.LoopTimes {
			end += d
		}
	}
	if x.Limit > 0 && (end > x.Limit || end == x.Limit && len(p.Setup)+p.Iterations*len(p.Loop) > 1) {
		return x
	}
	x.pending = x.K.At(end, execDone, x)
	return x
}

// Stop abandons the run at the kernel's current time and settles
// Checkpoints and LostWork. The phase in flight is not credited,
// matching a real job that dies mid-collective.
func (x *Exec) Stop() {
	if x.ended {
		return
	}
	x.ended = true
	x.pending.Cancel()
	b, p := x.Bound, x.Bound.Prog
	now := x.K.Now()
	t, ckpt, n := x.start, x.start, 0
	// reach advances the walk through phases until a boundary the stop
	// precedes, and reports whether every boundary in phases was reached.
	reach := func(phases []Phase, times []units.Seconds) bool {
		for i, d := range times {
			t += d
			if t > now || t == now && n > 0 {
				return false
			}
			n++
			if phases[i].Kind == Checkpoint {
				x.Checkpoints++
				ckpt = t
			}
		}
		return true
	}
	if reach(p.Setup, b.SetupTimes) {
		for range p.Iterations {
			if !reach(p.Loop, b.LoopTimes) {
				break
			}
		}
	}
	x.LostWork = now - ckpt
}
