package harness

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

func numberedTasks(n int) []Task[int] {
	tasks := make([]Task[int], n)
	for i := range tasks {
		i := i
		tasks[i] = Task[int]{
			ID: fmt.Sprintf("task%02d", i),
			Run: func(ctx context.Context, seed int64) (int, error) {
				return i * int(seed%97), nil
			},
		}
	}
	return tasks
}

// Results and emission order must match input order at any worker count,
// and the values must be identical across worker counts.
func TestOrderedDeterministicAcrossJobs(t *testing.T) {
	tasks := numberedTasks(20)
	var baseline []Result[int]
	for _, jobs := range []int{1, 2, 8, 32} {
		var emitted []string
		results, err := Run(context.Background(), Config{Jobs: jobs, RootSeed: 42}, tasks,
			func(r Result[int]) { emitted = append(emitted, r.ID) })
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		for i, r := range results {
			if r.Index != i || r.ID != tasks[i].ID {
				t.Fatalf("jobs=%d: result %d out of order: %+v", jobs, i, r)
			}
			if emitted[i] != tasks[i].ID {
				t.Fatalf("jobs=%d: emission %d out of order: %s", jobs, i, emitted[i])
			}
		}
		if baseline == nil {
			baseline = results
			continue
		}
		for i := range results {
			if results[i].Value != baseline[i].Value || results[i].Seed != baseline[i].Seed {
				t.Errorf("jobs=%d: task %s value/seed diverged from serial", jobs, results[i].ID)
			}
		}
	}
}

// Cost hints change dispatch order but never results or emission order.
func TestCostHintsPreserveOrder(t *testing.T) {
	tasks := numberedTasks(10)
	for i := range tasks {
		tasks[i].Cost = float64(10 - i)
	}
	var emitted []int
	results, err := Run(context.Background(), Config{Jobs: 4, RootSeed: 7}, tasks,
		func(r Result[int]) { emitted = append(emitted, r.Index) })
	if err != nil {
		t.Fatal(err)
	}
	for i := range results {
		if results[i].Index != i || emitted[i] != i {
			t.Fatalf("emission order broken at %d", i)
		}
	}
}

func TestCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	var ran atomic.Int32
	tasks := make([]Task[int], 16)
	for i := range tasks {
		i := i
		tasks[i] = Task[int]{
			ID: fmt.Sprintf("block%02d", i),
			Run: func(ctx context.Context, seed int64) (int, error) {
				ran.Add(1)
				if i == 0 {
					close(started)
				}
				<-ctx.Done()
				return 0, ctx.Err()
			},
		}
	}
	go func() {
		<-started
		cancel()
	}()
	results, err := Run(ctx, Config{Jobs: 2}, tasks, nil)
	if err == nil {
		t.Fatal("cancelled batch must report an error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := int(ran.Load()); got >= len(tasks) {
		t.Errorf("all %d tasks ran despite cancellation", got)
	}
	var skipped int
	for _, r := range results {
		if r.Skipped {
			skipped++
			if !errors.Is(r.Err, context.Canceled) {
				t.Errorf("%s skipped without context error", r.ID)
			}
		}
	}
	if skipped == 0 {
		t.Error("cancellation should skip undispatched tasks")
	}
}

func TestTimeout(t *testing.T) {
	tasks := []Task[int]{{
		ID: "sleeper",
		Run: func(ctx context.Context, seed int64) (int, error) {
			select {
			case <-ctx.Done():
				return 0, ctx.Err()
			case <-time.After(10 * time.Second):
				return 1, nil
			}
		},
	}}
	start := time.Now()
	_, err := Run(context.Background(), Config{Jobs: 1, Timeout: 20 * time.Millisecond}, tasks, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Error("timeout did not cut the batch short")
	}
}

func TestFailFastSkipsRemaining(t *testing.T) {
	boom := errors.New("boom")
	var ran atomic.Int32
	tasks := make([]Task[int], 12)
	for i := range tasks {
		i := i
		tasks[i] = Task[int]{
			ID:   fmt.Sprintf("t%02d", i),
			Cost: float64(len(tasks) - i), // keep dispatch in input order
			Run: func(ctx context.Context, seed int64) (int, error) {
				ran.Add(1)
				if i == 0 {
					return 0, boom
				}
				// Give the pool a moment to observe the cancellation.
				select {
				case <-ctx.Done():
				case <-time.After(50 * time.Millisecond):
				}
				return i, nil
			},
		}
	}
	results, err := Run(context.Background(), Config{Jobs: 1, FailFast: true}, tasks, nil)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if int(ran.Load()) >= len(tasks) {
		t.Error("fail-fast ran every task")
	}
	if !results[len(results)-1].Skipped {
		t.Error("tail task should be skipped after fail-fast")
	}
}

func TestCollectAllGathersErrors(t *testing.T) {
	e1, e2 := errors.New("first"), errors.New("second")
	tasks := []Task[int]{
		{ID: "a", Run: func(context.Context, int64) (int, error) { return 0, e1 }},
		{ID: "b", Run: func(context.Context, int64) (int, error) { return 1, nil }},
		{ID: "c", Run: func(context.Context, int64) (int, error) { return 0, e2 }},
	}
	results, err := Run(context.Background(), Config{Jobs: 2}, tasks, nil)
	if !errors.Is(err, e1) || !errors.Is(err, e2) {
		t.Fatalf("collect-all error %v should join both failures", err)
	}
	if results[1].Err != nil || results[1].Value != 1 {
		t.Error("healthy task damaged by sibling failures")
	}
}

func TestEmptyBatch(t *testing.T) {
	results, err := Run[int](context.Background(), Config{}, nil, nil)
	if err != nil || len(results) != 0 {
		t.Fatalf("empty batch: results=%v err=%v", results, err)
	}
}
