// Package sim provides the discrete-event simulation kernel used by every
// time-dependent subsystem model: a virtual clock, an event calendar and
// seeded random-number streams.
//
// The kernel is callback-based, with one scheduling form: At and After
// schedule a (Callback, arg) pair to run at a virtual time. Ties are broken
// by insertion order so that runs are deterministic for a fixed seed
// regardless of map iteration or goroutine scheduling — the simulator never
// runs model code on more than one goroutine.
//
// The event calendar is built for throughput: events live in a kernel-owned
// arena (a flat slab with a free list) rather than being heap-allocated one
// by one, the priority queue is an inlined 4-ary heap over arena indices
// (no interface boxing, fewer cache-missing levels than a binary heap), and
// the (Callback, arg) pair is stored inline in the slot, so producers such
// as a job run's completion, the failure injector and the arrival stream
// pay zero allocations per event in steady state. See DESIGN.md "Event calendar"
// for the layout and the generation-stamp safety argument.
package sim

import (
	"fmt"
	"math/rand"

	"frontiersim/internal/rng"
	"frontiersim/internal/units"
)

// Time is a virtual timestamp in seconds since the start of the simulation.
type Time = units.Seconds

// Callback is an event function: the kernel passes arg back at dispatch.
// Producers schedule a package-level Callback with a pointer to their own
// state as arg, which the slot stores inline, so nothing is allocated.
type Callback func(arg any)

// slot lifecycle states. A slot on the free list keeps its last state
// (executed or cancelled) until reallocation so that handles minted for
// the previous occupant can still answer Cancelled truthfully; the
// generation stamp is bumped at allocation, which is what invalidates
// stale handles.
const (
	slotPending uint8 = iota
	slotExecuted
	slotCancelled
)

// slot is one arena entry of the event calendar. The (at, seq) ordering
// key lives in the heap entry, not here, so heap comparisons never chase
// arena pointers.
type slot struct {
	cb    Callback
	arg   any
	gen   uint32 // generation stamp, bumped on (re)allocation
	state uint8
	hpos  int32 // index into Kernel.heap, -1 when not queued
}

// heapEntry is one calendar entry: the (at, seq) sort key inline plus the
// arena index of the slot. Keeping the key in the heap array makes sifts
// compare adjacent memory instead of two random arena slots.
type heapEntry struct {
	at  Time
	seq uint64
	idx int32
}

// Kernel is a discrete-event simulator instance.
type Kernel struct {
	now Time
	// arena is the event slab; free lists recycled slot indices (LIFO,
	// so hot slots stay cache-resident); heap is a 4-ary min-heap of
	// arena indices ordered by (at, seq).
	arena []slot
	free  []int32
	heap  []heapEntry

	seq  uint64
	seed int64

	// Executed counts events that have run; useful for tests and for
	// guarding against runaway simulations.
	executed uint64
}

// NewKernel returns a kernel whose random streams derive from seed.
func NewKernel(seed int64) *Kernel {
	return &Kernel{seed: seed}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Executed reports how many events have been dispatched so far.
func (k *Kernel) Executed() uint64 { return k.executed }

// Stream derives an independent, reproducible random stream for a named
// model component. Distinct names give distinct streams; the same name
// gives the same stream content for a fixed kernel seed. The derivation
// is a pure function of (kernel seed, name), so the stream a component
// receives does not depend on how many Stream calls preceded it.
func (k *Kernel) Stream(name string) *rand.Rand {
	return rng.New(rng.Derive(k.seed, name))
}

// Event is a generation-stamped handle to a scheduled event; it can be
// cancelled. Handles are small values — copy them freely. The zero Event
// is valid and refers to nothing: Cancel is a no-op and Cancelled reports
// false. Once the underlying arena slot has been recycled for a newer
// event, a stale handle goes inert the same way: its generation no longer
// matches, so Cancel and Cancelled cannot touch the new occupant.
type Event struct {
	k   *Kernel
	idx int32
	gen uint32
}

// Cancel prevents the event from running. The event is removed from the
// calendar immediately (each slot tracks its heap index, so removal is
// O(log n)) and its slot is returned to the arena's free list, which
// keeps Pending accurate and stops long-lived kernels from accumulating
// cancelled garbage — a periodic sweep whose pending tick is cancelled
// leaves nothing behind. Cancelling an already-executed,
// already-cancelled, or stale (recycled) event is a no-op.
func (e Event) Cancel() {
	if e.k == nil {
		return
	}
	s := &e.k.arena[e.idx]
	if s.gen != e.gen || s.state != slotPending {
		return
	}
	e.k.heapRemove(int(s.hpos))
	e.k.freeSlot(e.idx, slotCancelled)
}

// Cancelled reports whether Cancel was called. Once the slot has been
// recycled for a newer event a stale handle reports false: the calendar
// no longer remembers the old occupant.
func (e Event) Cancelled() bool {
	if e.k == nil {
		return false
	}
	s := &e.k.arena[e.idx]
	return s.gen == e.gen && s.state == slotCancelled
}

// At schedules cb(arg) at absolute virtual time t. It allocates a slot
// (recycling the free list before growing the slab), stamps a fresh
// generation, and pushes it on the calendar, so scheduling allocates
// nothing once the arena has grown to the calendar's peak size.
// Scheduling in the past panics: it is always a model bug.
func (k *Kernel) At(t Time, cb Callback, arg any) Event {
	if cb == nil {
		panic("sim: nil Callback")
	}
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, k.now))
	}
	var idx int32
	if n := len(k.free); n > 0 {
		idx = k.free[n-1]
		k.free = k.free[:n-1]
	} else {
		k.arena = append(k.arena, slot{})
		idx = int32(len(k.arena) - 1)
	}
	s := &k.arena[idx]
	s.gen++
	s.cb = cb
	s.arg = arg
	s.state = slotPending
	k.heapPush(heapEntry{at: t, seq: k.seq, idx: idx})
	k.seq++
	return Event{k: k, idx: idx, gen: s.gen}
}

// freeSlot returns a slot to the free list, dropping its callback
// references so the GC can reclaim captured state. The slot keeps the
// given terminal state (and its generation) until reallocation.
func (k *Kernel) freeSlot(idx int32, state uint8) {
	s := &k.arena[idx]
	s.cb = nil
	s.arg = nil
	s.state = state
	s.hpos = -1
	k.free = append(k.free, idx)
}

// After schedules cb(arg) delay seconds from now; see At.
func (k *Kernel) After(delay Time, cb Callback, arg any) Event {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	return k.At(k.now+delay, cb, arg)
}

// dispatch pops the earliest event off the calendar, advances the clock
// to its time, and runs it. The slot is freed before the callback runs
// so nested scheduling can recycle it immediately (the generation stamp
// keeps old handles inert). Every queued slot is pending: Cancel removes
// its event from the calendar eagerly.
func (k *Kernel) dispatch() {
	k.now = k.heap[0].at
	idx := k.popMin()
	k.executed++
	s := &k.arena[idx]
	cb, arg := s.cb, s.arg
	k.freeSlot(idx, slotExecuted)
	cb(arg)
}

// Run dispatches events until the calendar is empty.
func (k *Kernel) Run() {
	for len(k.heap) > 0 {
		k.dispatch()
	}
}

// RunUntil dispatches events with timestamps <= horizon, then advances the
// clock to horizon. Events scheduled beyond the horizon remain queued.
func (k *Kernel) RunUntil(horizon Time) {
	for len(k.heap) > 0 && k.heap[0].at <= horizon {
		k.dispatch()
	}
	if k.now < horizon {
		k.now = horizon
	}
}

// Pending reports the number of queued events. Cancelled events are
// removed from the calendar eagerly, so they never count.
func (k *Kernel) Pending() int { return len(k.heap) }

// less orders heap entries by (time, insertion sequence) — the
// determinism contract: same-time events dispatch in scheduling order.
func less(a, b heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// The calendar is a 4-ary min-heap of heapEntry values: children of i are
// 4i+1..4i+4. Compared with container/heap this removes the interface
// boxing and Less/Swap indirection, the wider fan-out halves the number
// of levels a sift traverses, and the inline sort keys keep comparisons
// inside the (mostly cache-resident) heap array; each slot tracks its
// heap position so Cancel can remove in O(log n).

func (k *Kernel) heapPush(e heapEntry) {
	k.heap = append(k.heap, e)
	k.arena[e.idx].hpos = int32(len(k.heap) - 1)
	k.siftUp(len(k.heap) - 1)
}

// popMin removes and returns the earliest slot index.
func (k *Kernel) popMin() int32 {
	idx := k.heap[0].idx
	n := len(k.heap) - 1
	last := k.heap[n]
	k.heap = k.heap[:n]
	if n > 0 {
		k.heap[0] = last
		k.arena[last.idx].hpos = 0
		k.siftDown(0)
	}
	k.arena[idx].hpos = -1
	return idx
}

// heapRemove removes the element at heap position i (Cancel's O(log n)
// path).
func (k *Kernel) heapRemove(i int) {
	n := len(k.heap) - 1
	moved := k.heap[n]
	k.arena[k.heap[i].idx].hpos = -1
	k.heap = k.heap[:n]
	if i == n {
		return
	}
	k.heap[i] = moved
	k.arena[moved.idx].hpos = int32(i)
	if !k.siftDown(i) {
		k.siftUp(i)
	}
}

func (k *Kernel) siftUp(i int) {
	e := k.heap[i]
	for i > 0 {
		p := (i - 1) / 4
		if !less(e, k.heap[p]) {
			break
		}
		k.heap[i] = k.heap[p]
		k.arena[k.heap[i].idx].hpos = int32(i)
		i = p
	}
	k.heap[i] = e
	k.arena[e.idx].hpos = int32(i)
}

// siftDown reports whether the element moved.
func (k *Kernel) siftDown(i int) bool {
	n := len(k.heap)
	e := k.heap[i]
	start := i
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if less(k.heap[c], k.heap[best]) {
				best = c
			}
		}
		if !less(k.heap[best], e) {
			break
		}
		k.heap[i] = k.heap[best]
		k.arena[k.heap[i].idx].hpos = int32(i)
		i = best
	}
	k.heap[i] = e
	k.arena[e.idx].hpos = int32(i)
	return i != start
}
