package sim

import (
	"sort"
	"testing"
	"testing/quick"
	"unsafe"
)

// call runs the closure passed as an event's arg, so tests can schedule
// closures through the kernel's one (Callback, arg) form.
func call(arg any) { arg.(func())() }

func TestEventOrdering(t *testing.T) {
	k := NewKernel(1)
	var got []int
	k.After(3, call, func() { got = append(got, 3) })
	k.After(1, call, func() { got = append(got, 1) })
	k.After(2, call, func() { got = append(got, 2) })
	k.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if k.Now() != 3 {
		t.Errorf("Now = %v, want 3", k.Now())
	}
}

func TestTieBreakFIFO(t *testing.T) {
	k := NewKernel(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.At(5, call, func() { got = append(got, i) })
	}
	k.Run()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("same-time events ran out of order: %v", got)
		}
	}
}

func TestCancellation(t *testing.T) {
	k := NewKernel(1)
	ran := false
	e := k.After(1, call, func() { ran = true })
	e.Cancel()
	k.Run()
	if ran {
		t.Error("cancelled event ran")
	}
	if !e.Cancelled() {
		t.Error("Cancelled() should be true")
	}
}

func TestRunUntil(t *testing.T) {
	k := NewKernel(1)
	var got []int
	k.At(1, call, func() { got = append(got, 1) })
	k.At(5, call, func() { got = append(got, 5) })
	k.RunUntil(3)
	if len(got) != 1 || got[0] != 1 {
		t.Errorf("got %v, want [1]", got)
	}
	if k.Now() != 3 {
		t.Errorf("Now = %v, want 3", k.Now())
	}
	if k.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", k.Pending())
	}
	k.Run()
	if len(got) != 2 || got[1] != 5 {
		t.Errorf("got %v, want [1 5]", got)
	}
}

func TestNestedScheduling(t *testing.T) {
	k := NewKernel(1)
	var times []Time
	k.After(1, call, func() {
		times = append(times, k.Now())
		k.After(1, call, func() {
			times = append(times, k.Now())
		})
	})
	k.Run()
	if len(times) != 2 || times[0] != 1 || times[1] != 2 {
		t.Errorf("times = %v, want [1 2]", times)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	k := NewKernel(1)
	k.At(5, call, func() {})
	k.Run()
	defer func() {
		if recover() == nil {
			t.Error("scheduling in the past should panic")
		}
	}()
	k.At(1, call, func() {})
}

func TestStreamDeterminism(t *testing.T) {
	a := NewKernel(42).Stream("nic")
	b := NewKernel(42).Stream("nic")
	for i := 0; i < 100; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("same seed + name should give identical streams")
		}
	}
	c := NewKernel(42).Stream("gpu")
	d := NewKernel(42).Stream("nic")
	same := true
	for i := 0; i < 10; i++ {
		if c.Int63() != d.Int63() {
			same = false
		}
	}
	if same {
		t.Error("different names should give different streams")
	}
}

// The stream a component receives must depend only on (kernel seed,
// name) — never on how many other streams were derived first.
// The legacy implementation drew stream seeds from a root rng, so
// deriving "nic" before "gpu" gave different streams than the reverse
// order; this pins the fix.
func TestStreamOrderIndependence(t *testing.T) {
	a := NewKernel(42)
	b := NewKernel(42)

	aNic := a.Stream("nic")
	aGpu := a.Stream("gpu")

	bGpu := b.Stream("gpu")
	bNic := b.Stream("nic")

	for i := 0; i < 100; i++ {
		if aNic.Int63() != bNic.Int63() {
			t.Fatal("nic stream depends on derivation order")
		}
		if aGpu.Int63() != bGpu.Int63() {
			t.Fatal("gpu stream depends on derivation order")
		}
	}
}

// Golden pins for a named derived stream. These values are part of the
// determinism contract — experiment tables archived in EXPERIMENTS.md
// depend on them — so a change here means every archived result
// regenerates. (The seed's own xoshiro stream is pinned by rng's
// TestGoldenRandStream.)
func TestStreamGoldenValues(t *testing.T) {
	wantNic := []int64{
		8635914421532523461, 2137825340898674213, 6472626866076401408,
		4842470746806945479, 7699485713326409196, 7995756465486872493,
		3033933978252657283, 215948509530988013,
	}
	nic := NewKernel(42).Stream("nic")
	for i, want := range wantNic {
		if got := nic.Int63(); got != want {
			t.Errorf("nic stream draw %d = %d, want %d", i, got, want)
		}
	}
}

// Property: any batch of events runs in nondecreasing time order.
func TestMonotonicDispatchProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		k := NewKernel(7)
		var ran []Time
		for _, d := range delays {
			k.After(Time(d), call, func() { ran = append(ran, k.Now()) })
		}
		k.Run()
		if len(ran) != len(delays) {
			return false
		}
		return sort.SliceIsSorted(ran, func(i, j int) bool { return ran[i] < ran[j] })
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCancelRemovesFromCalendarEagerly(t *testing.T) {
	k := NewKernel(1)
	e1 := k.After(1, call, func() {})
	e2 := k.After(2, call, func() {})
	e3 := k.After(3, call, func() {})
	if k.Pending() != 3 {
		t.Fatalf("Pending = %d, want 3", k.Pending())
	}
	e2.Cancel()
	if k.Pending() != 2 {
		t.Errorf("Pending after cancel = %d, want 2 (eager removal)", k.Pending())
	}
	// Double-cancel and cross-cancel are no-ops.
	e2.Cancel()
	if k.Pending() != 2 {
		t.Errorf("Pending after double cancel = %d, want 2", k.Pending())
	}
	e1.Cancel()
	e3.Cancel()
	if k.Pending() != 0 {
		t.Errorf("Pending after cancelling all = %d, want 0", k.Pending())
	}
	k.Run()
	if k.Executed() != 0 {
		t.Errorf("Executed = %d, want 0", k.Executed())
	}
}

// testSweep is a periodic sweep in the shape HPCM discovery uses: a
// package-level callback that reschedules itself through After, stopped
// by cancelling its pending tick.
type testSweep struct {
	k       *Kernel
	period  Time
	fn      func()
	stopped bool
	next    Event
}

func testSweepTick(arg any) {
	s := arg.(*testSweep)
	s.fn()
	if !s.stopped {
		s.next = s.k.After(s.period, testSweepTick, s)
	}
}

func startSweep(k *Kernel, period Time, fn func()) *testSweep {
	s := &testSweep{k: k, period: period, fn: fn}
	s.next = k.After(period, testSweepTick, s)
	return s
}

func (s *testSweep) stop() {
	s.stopped = true
	s.next.Cancel()
}

// A long-lived kernel whose periodic sweeps get cancelled must not
// accumulate cancelled garbage in the calendar.
func TestCancelledEverySweepsLeaveNoGarbage(t *testing.T) {
	k := NewKernel(1)
	for i := 0; i < 100; i++ {
		startSweep(k, 10, func() {}).stop()
	}
	if k.Pending() != 0 {
		t.Errorf("Pending = %d, want 0 after cancelling every sweep", k.Pending())
	}
	// Stopped between horizons: a sweep ticks three times under RunUntil,
	// is cancelled from outside, and leaves only the other work pending.
	ticks := 0
	outside := startSweep(k, 10, func() { ticks++ })
	k.At(100, call, func() {})
	k.RunUntil(35)
	outside.stop()
	if ticks != 3 || k.Pending() != 1 {
		t.Errorf("ticks = %d, Pending = %d after outside stop, want 3, 1", ticks, k.Pending())
	}
	k.Run()
	if ticks != 3 {
		t.Errorf("ticks = %d after draining, want 3", ticks)
	}
	// Cancelling mid-flight: run a sweep for a few ticks, cancel from
	// inside an event, and check the calendar drains completely.
	ticks = 0
	var self *testSweep
	self = startSweep(k, 5, func() {
		ticks++
		if ticks == 3 {
			self.stop()
		}
	})
	k.Run()
	if ticks != 3 {
		t.Errorf("ticks = %d, want 3", ticks)
	}
	if k.Pending() != 0 {
		t.Errorf("Pending = %d, want 0 after self-cancel", k.Pending())
	}
}

func TestCancelExecutedEventIsNoOp(t *testing.T) {
	k := NewKernel(1)
	e := k.After(1, call, func() {})
	k.After(2, call, func() {})
	k.Run()
	e.Cancel() // already executed: slot is freed, nothing to remove
	if k.Pending() != 0 {
		t.Errorf("Pending = %d, want 0", k.Pending())
	}
	if e.Cancelled() {
		t.Error("Cancel after execution must not report Cancelled")
	}
}

// Cancelling from inside a dispatching Run loop: a same-time event that
// has not yet been popped is removed and never runs; the currently
// executing event cancelling itself (already popped) is a no-op; and an
// event that already ran cannot be cancelled retroactively.
func TestCancelFromInsideDispatch(t *testing.T) {
	k := NewKernel(1)
	var ran []string
	var first, second, third Event
	first = k.At(5, call, func() {
		ran = append(ran, "first")
		first.Cancel()  // self: already popped and executing — no-op
		second.Cancel() // same-time sibling, still queued: must not run
	})
	second = k.At(5, call, func() { ran = append(ran, "second") })
	third = k.At(6, call, func() {
		ran = append(ran, "third")
		first.Cancel() // already executed — no-op
	})
	_ = third
	k.Run()
	if len(ran) != 2 || ran[0] != "first" || ran[1] != "third" {
		t.Fatalf("ran = %v, want [first third]", ran)
	}
	if k.Executed() != 2 {
		t.Errorf("Executed = %d, want 2", k.Executed())
	}
	if first.Cancelled() {
		t.Error("self-cancel of a running event must be a no-op")
	}
	if !second.Cancelled() {
		t.Error("queued same-time sibling should report Cancelled")
	}
}

// A stale handle whose arena slot has been recycled must go inert: its
// Cancel and Cancelled cannot touch the slot's new occupant. The free
// list is LIFO, so the slot vacated by a dispatched or cancelled event is
// exactly the one the next schedule reuses.
func TestStaleHandleAfterArenaRecycling(t *testing.T) {
	k := NewKernel(1)
	stale := k.After(1, call, func() {})
	k.Run() // dispatches; slot returns to the free list
	ran := false
	fresh := k.After(1, call, func() { ran = true }) // recycles the same slot
	if stale.Cancelled() {
		t.Error("stale handle reports Cancelled after recycling")
	}
	stale.Cancel() // must not cancel the new occupant
	if k.Pending() != 1 {
		t.Fatalf("Pending = %d after stale Cancel, want 1", k.Pending())
	}
	k.Run()
	if !ran {
		t.Fatal("stale Cancel killed the slot's new occupant")
	}
	if fresh.Cancelled() {
		t.Error("new occupant reports Cancelled")
	}

	// Same via the cancellation path: cancel, recycle, poke the stale
	// handle again.
	victim := k.After(1, call, func() {})
	victim.Cancel()
	if !victim.Cancelled() {
		t.Fatal("Cancelled should be true before the slot is recycled")
	}
	ran = false
	k.After(1, call, func() { ran = true }) // recycles victim's slot
	if victim.Cancelled() {
		t.Error("stale cancelled handle still reports Cancelled after recycling")
	}
	victim.Cancel()
	k.Run()
	if !ran {
		t.Fatal("stale Cancel killed the recycled occupant")
	}
}

// The zero Event is inert.
func TestZeroEventHandle(t *testing.T) {
	var e Event
	e.Cancel()
	if e.Cancelled() {
		t.Error("zero Event reports Cancelled")
	}
}

// RunUntil must not count cancelled events: only dispatched callbacks
// increment Executed, and the calendar holds nothing afterwards.
func TestRunUntilSkipsCancelledWithoutCounting(t *testing.T) {
	k := NewKernel(1)
	ran := 0
	var es []Event
	for i := 1; i <= 6; i++ {
		es = append(es, k.At(Time(i), call, func() { ran++ }))
	}
	es[1].Cancel()
	es[3].Cancel()
	es[5].Cancel()
	k.RunUntil(10)
	if ran != 3 {
		t.Errorf("ran = %d, want 3", ran)
	}
	if k.Executed() != 3 {
		t.Errorf("Executed = %d, want 3 (cancelled events must not count)", k.Executed())
	}
	if k.Pending() != 0 {
		t.Errorf("Pending = %d, want 0", k.Pending())
	}
}

// An Event handle is two words: the kernel pointer plus the packed
// (slot index, generation) pair.
func TestEventHandleSize(t *testing.T) {
	if got := unsafe.Sizeof(Event{}); got != 16 {
		t.Errorf("sizeof(Event) = %d bytes, want 16", got)
	}
}
