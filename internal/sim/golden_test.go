package sim

// Golden dispatch-order equivalence: the arena + 4-ary heap kernel must
// replay a mixed schedule/cancel/sweep/RunUntil trace exactly like the
// frozen pre-arena kernel in legacy_test.go — same dispatch order, same
// Executed count, same clock at every checkpoint. The arena kernel
// replays each trace closure as the arg of its one (Callback, arg) form.

import (
	"fmt"
	"math/rand"
	"testing"
)

// goldenHandle and goldenCal abstract the two kernels just enough for
// one trace function to drive both.
type goldenHandle interface{ cancel() }

type goldenCal interface {
	at(t Time, fn func()) goldenHandle
	after(d Time, fn func()) goldenHandle
	run()
	runUntil(h Time)
	now() Time
	executed() uint64
	pending() int
}

type newCal struct{ k *Kernel }
type newHandle struct{ e Event }

func (h *newHandle) cancel() { h.e.Cancel() }

func (c *newCal) at(t Time, fn func()) goldenHandle    { return &newHandle{c.k.At(t, call, fn)} }
func (c *newCal) after(d Time, fn func()) goldenHandle { return &newHandle{c.k.After(d, call, fn)} }
func (c *newCal) run()                                 { c.k.Run() }
func (c *newCal) runUntil(h Time)                      { c.k.RunUntil(h) }
func (c *newCal) now() Time                            { return c.k.Now() }
func (c *newCal) executed() uint64                     { return c.k.Executed() }
func (c *newCal) pending() int                         { return c.k.Pending() }

type oldCal struct{ k *legacyKernel }
type oldHandle struct{ e *legacyEvent }

func (h *oldHandle) cancel() { h.e.Cancel() }

func (c *oldCal) at(t Time, fn func()) goldenHandle    { return &oldHandle{c.k.At(t, fn)} }
func (c *oldCal) after(d Time, fn func()) goldenHandle { return &oldHandle{c.k.After(d, fn)} }
func (c *oldCal) run()                                 { c.k.Run() }
func (c *oldCal) runUntil(h Time)                      { c.k.RunUntil(h) }
func (c *oldCal) now() Time                            { return c.k.Now() }
func (c *oldCal) executed() uint64                     { return c.k.Executed() }
func (c *oldCal) pending() int                         { return c.k.Pending() }

// every runs fn once per period p, starting one period from now, as a
// callback that reschedules itself through the calendar's after — the
// shape of HPCM's discovery sweep. stop cancels the pending tick; called
// from inside fn it also keeps the sweep from rescheduling.
func every(c goldenCal, p Time, fn func()) (stop func()) {
	var next goldenHandle
	stopped := false
	var tick func()
	tick = func() {
		fn()
		if !stopped {
			next = c.after(p, tick)
		}
	}
	next = c.after(p, tick)
	return func() {
		stopped = true
		next.cancel()
	}
}

// replayGoldenTrace drives a calendar through a deterministic but
// adversarial mix: clustered ties, nested scheduling from inside
// callbacks, cancellations of pending events (from outside the loop and
// from inside running callbacks), periodic sweeps (cancelled externally
// and by their own tick), and RunUntil horizons between load phases.
// Every dispatch and checkpoint is logged; two equivalent kernels must
// produce byte-identical logs. The per-replay rng only feeds the trace
// itself — both replays draw in dispatch order, so a dispatch divergence
// also surfaces as a log divergence.
func replayGoldenTrace(c goldenCal) []string {
	var log []string
	r := rand.New(rand.NewSource(20260805))
	handles := map[int]goldenHandle{}
	next := 0
	logf := func(format string, args ...any) { log = append(log, fmt.Sprintf(format, args...)) }

	var mk func(depth int) (int, func())
	mk = func(depth int) (int, func()) {
		id := next
		next++
		return id, func() {
			delete(handles, id) // running now: only pending events stay cancellable
			logf("run %d @%v", id, c.now())
			if depth < 3 {
				for j, n := 0, r.Intn(3); j < n; j++ {
					cid, fn := mk(depth + 1)
					handles[cid] = c.after(Time(r.Intn(40)), fn)
				}
			}
			if r.Intn(4) == 0 {
				victim := r.Intn(next)
				if h, ok := handles[victim]; ok {
					h.cancel()
					delete(handles, victim)
					logf("cancel %d @%v", victim, c.now())
				}
			}
		}
	}

	// Phase 1: spread of top-level events plus a pile-up of ties at t=7.
	for i := 0; i < 40; i++ {
		id, fn := mk(0)
		handles[id] = c.at(Time(r.Intn(100)), fn)
	}
	for i := 0; i < 10; i++ {
		id, fn := mk(0)
		handles[id] = c.at(7, fn)
	}
	ticks1, ticks2 := 0, 0
	stop1 := every(c, 9, func() { ticks1++; logf("tick1 @%v", c.now()) })
	stop2 := every(c, 13, func() { ticks2++; logf("tick2 @%v", c.now()) })

	c.runUntil(55)
	logf("cp1 now=%v exec=%d pend=%d", c.now(), c.executed(), c.pending())

	// Cancel a deterministic subset of still-pending events, and one
	// sweep, between horizons.
	for id := 0; id < next; id += 3 {
		if h, ok := handles[id]; ok {
			h.cancel()
			delete(handles, id)
		}
	}
	stop1()
	c.runUntil(90)
	logf("cp2 now=%v exec=%d pend=%d", c.now(), c.executed(), c.pending())

	// Phase 2: fresh load after the horizon, and a sweep that cancels
	// itself from inside its own tick.
	for i := 0; i < 20; i++ {
		id, fn := mk(0)
		handles[id] = c.after(Time(r.Intn(60)), fn)
	}
	ticks3 := 0
	var stop3 func()
	stop3 = every(c, 5, func() {
		ticks3++
		logf("tick3 @%v", c.now())
		if ticks3 == 4 {
			stop3()
		}
	})
	stop2()
	c.run()
	logf("cp3 now=%v exec=%d pend=%d ticks=%d/%d/%d",
		c.now(), c.executed(), c.pending(), ticks1, ticks2, ticks3)
	return log
}

func TestGoldenDispatchEquivalence(t *testing.T) {
	want := replayGoldenTrace(&oldCal{newLegacyKernel(1)})
	got := replayGoldenTrace(&newCal{NewKernel(1)})
	if len(got) != len(want) {
		t.Fatalf("%d log lines, legacy kernel produced %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("arena kernel diverges from legacy kernel at line %d:\n got %q\nwant %q",
				i, got[i], want[i])
		}
	}
}
