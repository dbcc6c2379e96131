// Package harness runs batches of independent tasks on a bounded worker
// pool without giving up determinism: every task draws its randomness
// from a seed derived solely from the root seed and the task id
// (SplitMix64, see DeriveSeed), so the results — and anything rendered
// from them — are byte-identical whether the batch runs on one worker or
// sixteen. The experiments registry, the frontier-sim CLI and the root
// bench suite all execute through it.
package harness

import (
	"context"
	"errors"
	"runtime"
	"sort"
	"sync"
	"time"
)

// Task is one independent unit of work. Run receives the batch context
// (honour it in long loops) and the task's derived seed.
type Task[T any] struct {
	ID  string
	Run func(ctx context.Context, seed int64) (T, error)
	// Cost is an optional relative wall-time hint. The pool dispatches
	// expensive tasks first (longest-processing-time order), which
	// tightens the parallel makespan; it never affects results or the
	// order results are emitted in.
	Cost float64
}

// Result is one task's outcome. Index is the task's position in the
// input slice; results are always returned (and emitted) in that order.
type Result[T any] struct {
	ID       string
	Index    int
	Value    T
	Err      error
	Seed     int64
	Duration time.Duration
	// Skipped marks tasks that never ran because the batch was
	// cancelled (context or fail-fast) before they were dispatched.
	Skipped bool
}

// Config tunes a batch run.
type Config struct {
	// Jobs bounds worker concurrency; <=0 means runtime.GOMAXPROCS(0).
	Jobs int
	// FailFast cancels the batch on the first task error. Remaining
	// tasks are reported as Skipped. When false, every task runs and
	// errors are collected.
	FailFast bool
	// Timeout bounds the whole batch; 0 means none.
	Timeout time.Duration
	// RootSeed is the seed every task seed is derived from.
	RootSeed int64
}

// Run executes tasks on a bounded pool and returns one Result per task,
// in input order. If emit is non-nil it is called once per task, also in
// input order, as soon as the task and all its predecessors have
// finished — so a consumer can stream ordered output while later tasks
// are still running.
//
// The returned error is nil only if every task ran and succeeded: in
// FailFast mode it is the first failure, otherwise it joins every task
// error (and the context error if the batch was cut short).
func Run[T any](ctx context.Context, cfg Config, tasks []Task[T], emit func(Result[T])) ([]Result[T], error) {
	jobs := cfg.Jobs
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	if jobs > len(tasks) {
		jobs = len(tasks)
	}
	if cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.Timeout)
		defer cancel()
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	results := make([]Result[T], len(tasks))
	done := make([]chan struct{}, len(tasks))
	for i := range done {
		done[i] = make(chan struct{})
	}

	// Dispatch in longest-first order so one expensive task at the tail
	// of the registry cannot serialise the whole batch.
	order := make([]int, len(tasks))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return tasks[order[a]].Cost > tasks[order[b]].Cost
	})

	var (
		firstErr error
		errOnce  sync.Once
		wg       sync.WaitGroup
	)
	next := make(chan int)
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				t := tasks[i]
				res := Result[T]{ID: t.ID, Index: i, Seed: DeriveSeed(cfg.RootSeed, t.ID)}
				if err := ctx.Err(); err != nil {
					res.Err = err
					res.Skipped = true
				} else {
					start := time.Now()
					res.Value, res.Err = t.Run(ctx, res.Seed)
					res.Duration = time.Since(start)
				}
				if res.Err != nil && !res.Skipped {
					errOnce.Do(func() {
						firstErr = res.Err
						if cfg.FailFast {
							cancel()
						}
					})
				}
				results[i] = res
				close(done[i])
			}
		}()
	}
	go func() {
		// Feed every index even after cancellation: workers mark
		// undispatched tasks Skipped, which keeps the done channels —
		// and therefore the ordered emitter — deadlock-free.
		for _, i := range order {
			next <- i
		}
		close(next)
	}()

	for i := range tasks {
		<-done[i]
		if emit != nil {
			emit(results[i])
		}
	}
	wg.Wait()

	if cfg.FailFast && firstErr != nil {
		return results, firstErr
	}
	var errs []error
	for _, r := range results {
		if r.Err != nil && !r.Skipped {
			errs = append(errs, r.Err)
		}
	}
	if err := ctx.Err(); err != nil {
		errs = append(errs, err)
	}
	return results, errors.Join(errs...)
}
