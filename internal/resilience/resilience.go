// Package resilience models the challenge Frontier struggles with most
// (§5.4): with hundreds of thousands of high-power components, the
// machine's mean time to interrupt sits near the 2008 report's projected
// four-hour figure, led by memory (HBM uncorrectable errors) and power
// supplies. The model carries per-component-class MTBFs, computes the
// analytic system MTTI, Monte-Carlo-injects failures into a simulation,
// and derives optimal checkpoint intervals (Daly's formula) against it.
package resilience

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"frontiersim/internal/sim"
	"frontiersim/internal/units"
)

// ComponentClass is a population of identical components with an
// exponential failure model.
type ComponentClass struct {
	Name  string
	Count int
	// MTBF is per-component mean time between failures.
	MTBF units.Seconds
	// Interrupting reports whether a failure interrupts the running
	// job (uncorrectable); correctable events are logged only.
	Interrupting bool
}

// Rate is the class's aggregate failure rate (failures/second).
func (c ComponentClass) Rate() float64 {
	if c.MTBF <= 0 || c.Count <= 0 {
		return 0
	}
	return float64(c.Count) / float64(c.MTBF)
}

// Model is the machine-wide reliability model.
type Model struct {
	Classes []ComponentClass
}

// SystemMTTI is the analytic mean time between job-interrupting events
// across the whole machine.
func (m Model) SystemMTTI() units.Seconds {
	var rate float64
	for _, c := range m.Classes {
		if c.Interrupting {
			rate += c.Rate()
		}
	}
	if rate == 0 {
		return units.Seconds(math.Inf(1))
	}
	return units.Seconds(1 / rate)
}

// Contribution reports each class's share of the interrupt rate.
func (m Model) Contribution() map[string]float64 {
	total := 0.0
	for _, c := range m.Classes {
		if c.Interrupting {
			total += c.Rate()
		}
	}
	out := map[string]float64{}
	for _, c := range m.Classes {
		if c.Interrupting && total > 0 {
			out[c.Name] = c.Rate() / total
		}
	}
	return out
}

// Failure is one injected event.
type Failure struct {
	At           units.Seconds
	Class        string
	Component    int
	Interrupting bool
}

// ExpectedFailures is the analytic mean event count (all classes) over
// a horizon — the pre-sizing estimate for trace buffers.
func (m Model) ExpectedFailures(horizon units.Seconds) int {
	var rate float64
	for _, c := range m.Classes {
		rate += c.Rate()
	}
	return int(rate * float64(horizon))
}

// Simulate draws failures over the given horizon using exponential
// interarrivals per class, returning them in time order. Node-mapped
// consumers can take Component modulo the node count. The trace buffer
// is pre-sized to the analytic expectation, so a year-scale draw costs
// a couple of allocations instead of a growth cascade.
func (m Model) Simulate(horizon units.Seconds, rng *rand.Rand) []Failure {
	out := make([]Failure, 0, m.ExpectedFailures(horizon)+m.ExpectedFailures(horizon)/8+8)
	for _, c := range m.Classes {
		rate := c.Rate()
		if rate == 0 {
			continue
		}
		t := units.Seconds(rng.ExpFloat64() / rate)
		for t < horizon {
			out = append(out, Failure{
				At:           t,
				Class:        c.Name,
				Component:    rng.Intn(c.Count),
				Interrupting: c.Interrupting,
			})
			t += units.Seconds(rng.ExpFloat64() / rate)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// injector walks a simulated failure trace with exactly one outstanding
// calendar event: each firing schedules the next before handling the
// current, so same-time failures keep trace order and the event heap
// never holds more than one failure — a year of component failures
// would otherwise occupy tens of thousands of heap slots for the whole
// campaign. One cursor replaces a closure per failure.
type injector struct {
	k        *sim.Kernel
	failures []Failure
	next     int
	handle   func(Failure)
}

func injectNext(arg any) {
	in := arg.(*injector)
	f := in.failures[in.next]
	in.next++
	if in.next < len(in.failures) {
		in.k.At(in.failures[in.next].At, injectNext, in)
	}
	in.handle(f)
}

// InjectTrace feeds an already-simulated failure trace to the kernel,
// handling each failure at its time in trace order, and returns the
// number of failures scheduled.
func InjectTrace(k *sim.Kernel, failures []Failure, handle func(Failure)) int {
	if len(failures) == 0 {
		return 0
	}
	in := &injector{k: k, failures: failures, handle: handle}
	k.At(failures[0].At, injectNext, in)
	return len(failures)
}

// MeasuredMTTI estimates MTTI from a simulated trace.
func MeasuredMTTI(failures []Failure, horizon units.Seconds) units.Seconds {
	n := 0
	for _, f := range failures {
		if f.Interrupting {
			n++
		}
	}
	if n == 0 {
		return units.Seconds(math.Inf(1))
	}
	return horizon / units.Seconds(n)
}

// OptimalCheckpointInterval is Daly's first-order formula: the interval
// between checkpoints that minimises lost work, sqrt(2·δ·MTTI) for
// checkpoint cost δ.
func OptimalCheckpointInterval(checkpointCost, mtti units.Seconds) units.Seconds {
	if checkpointCost <= 0 || mtti <= 0 {
		return 0
	}
	return units.Seconds(math.Sqrt(2 * float64(checkpointCost) * float64(mtti)))
}

// CheckpointEfficiency is the fraction of wall time doing useful work for
// a job checkpointing every τ with cost δ under MTTI M: overheads are the
// checkpoint writes plus expected rework of τ/2 + restart per failure.
func CheckpointEfficiency(tau, delta, restart, mtti units.Seconds) float64 {
	if tau <= 0 || mtti <= 0 {
		return 0
	}
	overhead := float64(delta) / float64(tau)
	lost := (float64(tau)/2 + float64(restart)) / float64(mtti)
	e := 1 - overhead - lost
	if e < 0 {
		return 0
	}
	return e
}

// String summarises the model.
func (m Model) String() string {
	return fmt.Sprintf("reliability: %d classes, system MTTI %v", len(m.Classes), m.SystemMTTI())
}
