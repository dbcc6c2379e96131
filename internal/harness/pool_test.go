package harness

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// history returns every event of a finished job: its streaming cursor
// from 0, which does not block once the job is done.
func history[T any](t *testing.T, h *Handle[T]) []ProgressEvent {
	t.Helper()
	evs, _, fin := h.Next(0)
	if !fin {
		t.Fatal("history of a job that has not finished")
	}
	return evs
}

func TestPoolSubmitResult(t *testing.T) {
	p := NewPool(2)
	h := Submit(p, context.Background(), "job-1", func(_ context.Context, progress func(string)) (int, error) {
		progress("halfway")
		return 7, nil
	})
	v, err := h.Result()
	if err != nil || v != 7 {
		t.Fatalf("Result = %d, %v; want 7, nil", v, err)
	}
	if st := h.State(); st != JobDone {
		t.Fatalf("state = %v, want done", st)
	}
	var states []JobState
	var msgs []string
	for _, ev := range history(t, h) {
		states = append(states, ev.State)
		if ev.Message != "" {
			msgs = append(msgs, ev.Message)
		}
	}
	want := []JobState{JobQueued, JobRunning, JobRunning, JobDone}
	if len(states) != len(want) {
		t.Fatalf("events = %v, want states %v", history(t, h), want)
	}
	for i := range want {
		if states[i] != want[i] {
			t.Fatalf("event %d state = %v, want %v", i, states[i], want[i])
		}
	}
	if len(msgs) != 1 || msgs[0] != "halfway" {
		t.Fatalf("progress messages = %v, want [halfway]", msgs)
	}
}

func TestPoolError(t *testing.T) {
	p := NewPool(1)
	boom := errors.New("boom")
	h := Submit(p, context.Background(), "bad", func(context.Context, func(string)) (string, error) {
		return "", boom
	})
	if _, err := h.Result(); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if st := h.State(); st != JobFailed {
		t.Fatalf("state = %v, want failed", st)
	}
	evs := history(t, h)
	last := evs[len(evs)-1]
	if last.State != JobFailed || last.Message != "boom" {
		t.Fatalf("final event = %+v, want failed/boom", last)
	}
}

// TestPoolBound pins the concurrency bound: with 2 workers and 6 jobs
// that all block, at most 2 run at once.
func TestPoolBound(t *testing.T) {
	p := NewPool(2)
	var running, peak atomic.Int64
	release := make(chan struct{})
	var handles []*Handle[struct{}]
	for i := 0; i < 6; i++ {
		h := Submit(p, context.Background(), "job", func(context.Context, func(string)) (struct{}, error) {
			now := running.Add(1)
			for {
				old := peak.Load()
				if now <= old || peak.CompareAndSwap(old, now) {
					break
				}
			}
			<-release
			running.Add(-1)
			return struct{}{}, nil
		})
		handles = append(handles, h)
	}
	// Give the pool a moment to admit what it will admit, then release.
	time.Sleep(20 * time.Millisecond)
	close(release)
	for _, h := range handles {
		if _, err := h.Result(); err != nil {
			t.Fatal(err)
		}
	}
	if got := peak.Load(); got > 2 {
		t.Fatalf("peak concurrency %d, want <= 2", got)
	}
}

func TestPoolQueuedCancellation(t *testing.T) {
	p := NewPool(1)
	release := make(chan struct{})
	holding := make(chan struct{})
	blocker := Submit(p, context.Background(), "blocker", func(context.Context, func(string)) (struct{}, error) {
		close(holding)
		<-release
		return struct{}{}, nil
	})
	<-holding // the blocker owns the pool's only slot before we queue
	ctx, cancel := context.WithCancel(context.Background())
	queued := Submit(p, ctx, "queued", func(context.Context, func(string)) (struct{}, error) {
		t.Error("cancelled queued job must not run")
		return struct{}{}, nil
	})
	cancel()
	if _, err := queued.Result(); !errors.Is(err, context.Canceled) {
		t.Fatalf("queued err = %v, want context.Canceled", err)
	}
	close(release)
	if _, err := blocker.Result(); err != nil {
		t.Fatal(err)
	}
}

// TestPoolNextStreaming walks the event cursor like the SSE endpoint
// does: a late consumer replays history, a live one blocks for new
// events, and the stream terminates when the job finishes.
func TestPoolNextStreaming(t *testing.T) {
	p := NewPool(1)
	step := make(chan struct{})
	h := Submit(p, context.Background(), "streamer", func(_ context.Context, progress func(string)) (int, error) {
		progress("stage 1")
		<-step
		progress("stage 2")
		return 1, nil
	})

	var got []ProgressEvent
	cursor := 0
	// Drain until we see stage 1.
	for {
		evs, next, fin := h.Next(cursor)
		got = append(got, evs...)
		cursor = next
		if fin {
			t.Fatal("job finished before stage 2 was released")
		}
		if len(got) > 0 && got[len(got)-1].Message == "stage 1" {
			break
		}
	}
	close(step)
	for {
		evs, next, fin := h.Next(cursor)
		got = append(got, evs...)
		cursor = next
		if fin {
			break
		}
	}
	var msgs []string
	for _, ev := range got {
		if ev.Message != "" {
			msgs = append(msgs, ev.Message)
		}
	}
	if len(msgs) != 2 || msgs[0] != "stage 1" || msgs[1] != "stage 2" {
		t.Fatalf("streamed messages = %v, want [stage 1, stage 2]", msgs)
	}
	if got[len(got)-1].State != JobDone {
		t.Fatalf("last event = %+v, want done", got[len(got)-1])
	}

	// A consumer arriving after completion replays everything at once.
	evs, _, fin := h.Next(0)
	if !fin || len(evs) != len(got) {
		t.Fatalf("late replay: %d events (finished=%v), want %d", len(evs), fin, len(got))
	}
}

func TestPoolProgressAfterFinishIsNoop(t *testing.T) {
	p := NewPool(1)
	leak := make(chan func(string), 1)
	h := Submit(p, context.Background(), "leaky", func(_ context.Context, progress func(string)) (int, error) {
		leak <- progress
		return 0, nil
	})
	if _, err := h.Result(); err != nil {
		t.Fatal(err)
	}
	progress := <-leak
	before := len(history(t, h))
	progress("too late")
	if after := len(history(t, h)); after != before {
		t.Fatalf("progress after finish recorded an event (%d -> %d)", before, after)
	}
}
