package sim

// This file is a verbatim copy of the pre-arena event calendar (the
// container/heap kernel that shipped up to PR 4), renamed legacy*. It
// exists only as the reference implementation for the golden
// dispatch-order equivalence test in golden_test.go: the arena + 4-ary
// heap kernel must replay any mixed schedule/cancel/sweep/RunUntil trace
// with the same dispatch order, the same Executed count, and the same
// clock. Do not "improve" this code — its value is that it is frozen.

import (
	"container/heap"
	"fmt"
	"math/rand"

	"frontiersim/internal/rng"
)

type legacyKernel struct {
	now     Time
	queue   legacyEventHeap
	seq     uint64
	seed    int64
	rng     *rand.Rand
	stopped bool

	executed uint64
}

func newLegacyKernel(seed int64) *legacyKernel {
	return &legacyKernel{seed: seed, rng: rng.New(seed)}
}

func (k *legacyKernel) Now() Time        { return k.now }
func (k *legacyKernel) Executed() uint64 { return k.executed }

type legacyEvent struct {
	at     Time
	seq    uint64
	fn     func()
	k      *legacyKernel
	index  int // heap index, -1 once popped or cancelled
	cancel bool
}

func (e *legacyEvent) Cancel() {
	if e.cancel {
		return
	}
	e.cancel = true
	if e.k != nil && e.index >= 0 {
		heap.Remove(&e.k.queue, e.index)
		e.index = -1
	}
}

func (e *legacyEvent) Cancelled() bool { return e.cancel }

func (e *legacyEvent) Time() Time { return e.at }

func (k *legacyKernel) At(t Time, fn func()) *legacyEvent {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, k.now))
	}
	e := &legacyEvent{at: t, seq: k.seq, fn: fn, k: k}
	k.seq++
	heap.Push(&k.queue, e)
	return e
}

func (k *legacyKernel) After(delay Time, fn func()) *legacyEvent {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	return k.At(k.now+delay, fn)
}

func (k *legacyKernel) Stop() { k.stopped = true }

func (k *legacyKernel) Run() {
	k.stopped = false
	for !k.stopped {
		e := k.pop()
		if e == nil {
			return
		}
		k.now = e.at
		k.executed++
		e.fn()
	}
}

func (k *legacyKernel) RunUntil(horizon Time) {
	k.stopped = false
	for !k.stopped {
		e := k.peek()
		if e == nil || e.at > horizon {
			break
		}
		heap.Pop(&k.queue)
		e.index = -1
		if e.cancel {
			continue
		}
		k.now = e.at
		k.executed++
		e.fn()
	}
	if k.now < horizon {
		k.now = horizon
	}
}

func (k *legacyKernel) Pending() int { return k.queue.Len() }

func (k *legacyKernel) pop() *legacyEvent {
	for k.queue.Len() > 0 {
		e := heap.Pop(&k.queue).(*legacyEvent)
		e.index = -1
		if !e.cancel {
			return e
		}
	}
	return nil
}

func (k *legacyKernel) peek() *legacyEvent {
	for k.queue.Len() > 0 {
		e := k.queue[0]
		if !e.cancel {
			return e
		}
		heap.Pop(&k.queue)
		e.index = -1
	}
	return nil
}

type legacyEventHeap []*legacyEvent

func (h legacyEventHeap) Len() int { return len(h) }
func (h legacyEventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h legacyEventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *legacyEventHeap) Push(x any) {
	e := x.(*legacyEvent)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *legacyEventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}
