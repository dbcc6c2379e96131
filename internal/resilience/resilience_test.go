package resilience

import (
	"math"
	"math/rand"
	"testing"

	"frontiersim/internal/sim"
	"frontiersim/internal/units"
)

// §5.4: Frontier's MTTI is "not much better" than the 2008 report's
// projected four-hour target.
func TestSystemMTTI(t *testing.T) {
	m := Frontier()
	h := float64(m.SystemMTTI()) / 3600
	if h < 3.5 || h > 8 {
		t.Errorf("MTTI = %.1f h, want near the 4-hour projection", h)
	}
}

// The paper identifies memory and power supplies as leading contributors.
func TestLeadingContributors(t *testing.T) {
	c := Frontier().Contribution()
	if c["hbm-uncorrectable"] < 0.3 {
		t.Errorf("HBM share = %.2f, want dominant (>0.3)", c["hbm-uncorrectable"])
	}
	if c["power-supply"] < 0.15 {
		t.Errorf("PSU share = %.2f, want large (>0.15)", c["power-supply"])
	}
	if c["hbm-uncorrectable"]+c["power-supply"] < 0.55 {
		t.Error("memory + PSU should dominate the interrupt rate")
	}
	var sum float64
	for _, v := range c {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("contributions sum to %.3f, want 1", sum)
	}
}

func TestSimulateMatchesAnalytic(t *testing.T) {
	m := Frontier()
	horizon := 60 * units.Day
	failures := m.Simulate(horizon, rand.New(rand.NewSource(1)))
	if len(failures) == 0 {
		t.Fatal("60 days must produce failures")
	}
	// Time-ordered.
	for i := 1; i < len(failures); i++ {
		if failures[i].At < failures[i-1].At {
			t.Fatal("failures out of order")
		}
		if failures[i].At > horizon {
			t.Fatal("failure past horizon")
		}
	}
	measured := float64(MeasuredMTTI(failures, horizon))
	analytic := float64(m.SystemMTTI())
	if math.Abs(measured-analytic)/analytic > 0.25 {
		t.Errorf("measured MTTI %v vs analytic %v: >25%% apart", measured, analytic)
	}
}

func TestSimulateDeterministic(t *testing.T) {
	m := Frontier()
	a := m.Simulate(10*units.Day, rand.New(rand.NewSource(7)))
	b := m.Simulate(10*units.Day, rand.New(rand.NewSource(7)))
	if len(a) != len(b) {
		t.Fatal("same seed should give same trace")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("trace mismatch")
		}
	}
}

func TestInject(t *testing.T) {
	m := Frontier()
	k := sim.NewKernel(3)
	var seen []Failure
	n := InjectTrace(k, m.Simulate(5*units.Day, k.Stream("failures")), func(f Failure) { seen = append(seen, f) })
	k.Run()
	if len(seen) != n {
		t.Errorf("handled %d of %d failures", len(seen), n)
	}
	for i := 1; i < len(seen); i++ {
		if seen[i].At < seen[i-1].At {
			t.Error("injected failures out of order")
		}
	}
}

func TestOptimalCheckpointInterval(t *testing.T) {
	// A full-machine checkpoint of ~700 TiB takes ~180 s on Orion; with
	// a ~5.5 h MTTI Daly gives an interval around 45 min.
	tau := OptimalCheckpointInterval(180, Frontier().SystemMTTI())
	min := float64(tau) / 60
	if min < 25 || min > 70 {
		t.Errorf("optimal interval = %.0f min, want ~45", min)
	}
	if OptimalCheckpointInterval(0, 100) != 0 {
		t.Error("zero cost should give 0")
	}
}

func TestCheckpointEfficiency(t *testing.T) {
	mtti := Frontier().SystemMTTI()
	tau := OptimalCheckpointInterval(180, mtti)
	e := CheckpointEfficiency(tau, 180, 600, mtti)
	if e < 0.8 || e > 0.99 {
		t.Errorf("efficiency at optimum = %.3f, want high", e)
	}
	// The optimum should beat both much-shorter and much-longer
	// intervals.
	if CheckpointEfficiency(tau/20, 180, 600, mtti) >= e {
		t.Error("checkpointing 20x too often should hurt")
	}
	if CheckpointEfficiency(tau*20, 180, 600, mtti) >= e {
		t.Error("checkpointing 20x too rarely should hurt")
	}
	if CheckpointEfficiency(0, 180, 600, mtti) != 0 {
		t.Error("zero interval should give 0")
	}
}

func TestComponentClassEdges(t *testing.T) {
	if (ComponentClass{Count: 0, MTBF: 100}).Rate() != 0 {
		t.Error("zero count should give zero rate")
	}
	if (ComponentClass{Count: 5, MTBF: 0}).Rate() != 0 {
		t.Error("zero MTBF should give zero rate")
	}
	empty := Model{}
	if !math.IsInf(float64(empty.SystemMTTI()), 1) {
		t.Error("empty model should have infinite MTTI")
	}
	if Frontier().String() == "" {
		t.Error("empty String")
	}
}

// preloadTrace is the reference injector: it schedules every failure of
// the trace up front, one calendar event each, in trace order.
func preloadTrace(k *sim.Kernel, failures []Failure, handle func(Failure)) int {
	for _, f := range failures {
		k.At(f.At, func(arg any) { handle(arg.(Failure)) }, f)
	}
	return len(failures)
}

// Paced injection must deliver the same failures, at the same times, in
// the same order as pre-loading the whole trace — only the calendar
// residency differs.
func TestInjectPacedMatchesInjectTrace(t *testing.T) {
	m := Frontier()
	trace := m.Simulate(30*units.Day, rand.New(rand.NewSource(11)))
	run := func(inject func(*sim.Kernel, []Failure, func(Failure)) int) []Failure {
		k := sim.NewKernel(5)
		var seen []Failure
		withTimes := func(f Failure) {
			f.At = units.Seconds(k.Now()) // observed firing time
			seen = append(seen, f)
		}
		if n := inject(k, trace, withTimes); n != len(trace) {
			t.Fatalf("scheduled %d of %d failures", n, len(trace))
		}
		k.Run()
		return seen
	}
	upfront := run(preloadTrace)
	paced := run(InjectTrace)
	if len(upfront) != len(paced) {
		t.Fatalf("upfront handled %d, paced %d", len(upfront), len(paced))
	}
	for i := range upfront {
		if upfront[i] != paced[i] {
			t.Fatalf("failure %d diverges: upfront %+v, paced %+v", i, upfront[i], paced[i])
		}
	}
	if len(upfront) == 0 {
		t.Fatal("empty trace proves nothing")
	}
}

func TestExpectedFailures(t *testing.T) {
	m := Frontier()
	got := m.Simulate(60*units.Day, rand.New(rand.NewSource(3)))
	want := m.ExpectedFailures(60 * units.Day)
	if want == 0 {
		t.Fatal("expected count is zero")
	}
	ratio := float64(len(got)) / float64(want)
	if ratio < 0.8 || ratio > 1.2 {
		t.Errorf("simulated %d failures vs expected %d (ratio %.2f)", len(got), want, ratio)
	}
}
