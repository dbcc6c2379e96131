package harness

import (
	"context"
	"sync"
	"time"
)

// Pool is a long-lived bounded worker pool for single-job submissions —
// the campaign server's counterpart to the batch Run API. Jobs queue in
// submission order and at most Workers of them execute concurrently;
// each submission returns a Handle that reports progress events and the
// final result. The pool itself holds no randomness: callers derive
// seeds (DeriveSeed) before submitting, keeping results pure functions
// of their inputs.
type Pool struct {
	sem chan struct{}
}

// NewPool builds a pool executing at most workers jobs concurrently
// (workers <= 0 means 1).
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	return &Pool{sem: make(chan struct{}, workers)}
}

// Workers reports the pool's concurrency bound.
func (p *Pool) Workers() int { return cap(p.sem) }

// JobState is a job's lifecycle phase.
type JobState string

const (
	JobQueued  JobState = "queued"
	JobRunning JobState = "running"
	JobDone    JobState = "done"
	JobFailed  JobState = "failed"
)

// Finished reports whether the state is terminal.
func (s JobState) Finished() bool { return s == JobDone || s == JobFailed }

// ProgressEvent is one observed step of a job's life: the lifecycle
// transitions themselves plus any messages the job's Run function
// reports through the callback it is handed.
type ProgressEvent struct {
	Time    time.Time `json:"time"`
	State   JobState  `json:"state"`
	Message string    `json:"message,omitempty"`
}

// Handle tracks one submitted job. All methods are safe for concurrent
// use.
type Handle[T any] struct {
	id   string
	done chan struct{}

	mu     sync.Mutex
	wake   *sync.Cond // broadcast on every event append
	state  JobState
	events []ProgressEvent
	value  T
	err    error
	start  time.Time
	dur    time.Duration
}

// Submit queues fn on the pool and returns immediately with its handle.
// fn receives the submission context and a progress callback it may call
// to report intermediate stages; the callback is safe to call from any
// goroutine and becomes a no-op once the job has finished. If ctx is
// cancelled while the job is still queued, the job fails with ctx.Err()
// without running.
func Submit[T any](p *Pool, ctx context.Context, id string, fn func(ctx context.Context, progress func(string)) (T, error)) *Handle[T] {
	h := &Handle[T]{id: id, done: make(chan struct{}), state: JobQueued}
	h.wake = sync.NewCond(&h.mu)
	h.append(ProgressEvent{Time: time.Now(), State: JobQueued})
	go func() {
		select {
		case p.sem <- struct{}{}:
			defer func() { <-p.sem }()
		case <-ctx.Done():
			h.finish(*new(T), ctx.Err())
			return
		}
		h.mu.Lock()
		h.state = JobRunning
		h.start = time.Now()
		h.mu.Unlock()
		h.append(ProgressEvent{Time: time.Now(), State: JobRunning})
		v, err := fn(ctx, func(msg string) {
			h.append(ProgressEvent{Time: time.Now(), State: JobRunning, Message: msg})
		})
		h.finish(v, err)
	}()
	return h
}

// append records ev unless the job has already finished.
func (h *Handle[T]) append(ev ProgressEvent) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.state.Finished() {
		return
	}
	h.events = append(h.events, ev)
	h.wake.Broadcast()
}

func (h *Handle[T]) finish(v T, err error) {
	h.mu.Lock()
	h.value, h.err = v, err
	if !h.start.IsZero() {
		h.dur = time.Since(h.start)
	}
	if err != nil {
		h.state = JobFailed
	} else {
		h.state = JobDone
	}
	final := ProgressEvent{Time: time.Now(), State: h.state}
	if err != nil {
		final.Message = err.Error()
	}
	h.events = append(h.events, final)
	h.wake.Broadcast()
	h.mu.Unlock()
	close(h.done)
}

// ID returns the submission id.
func (h *Handle[T]) ID() string { return h.id }

// Done is closed when the job has finished (or failed, or was cancelled
// while queued).
func (h *Handle[T]) Done() <-chan struct{} { return h.done }

// State returns the job's current lifecycle phase.
func (h *Handle[T]) State() JobState {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.state
}

// Result blocks until the job finishes and returns its outcome.
func (h *Handle[T]) Result() (T, error) {
	<-h.done
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.value, h.err
}

// RunDuration returns how long the job's Run function has been running
// (zero while queued; final once done).
func (h *Handle[T]) RunDuration() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.state == JobRunning {
		return time.Since(h.start)
	}
	return h.dur
}

// Next is the streaming cursor: it blocks until events beyond cursor
// exist or the job has finished, then returns the new events, the
// advanced cursor, and whether the job is finished. A streaming consumer
// loops `evs, cur, fin := h.Next(cur)` from cur = 0 until fin; a
// finished job returns immediately, so late consumers still replay the
// full history.
func (h *Handle[T]) Next(cursor int) ([]ProgressEvent, int, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if cursor < 0 {
		cursor = 0
	}
	for cursor >= len(h.events) && !h.state.Finished() {
		h.wake.Wait()
	}
	evs := append([]ProgressEvent(nil), h.events[min(cursor, len(h.events)):]...)
	return evs, len(h.events), h.state.Finished()
}
