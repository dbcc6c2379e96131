package scheduler

import (
	"testing"

	"frontiersim/internal/job"
	"frontiersim/internal/machine"
	"frontiersim/internal/rng"
	"frontiersim/internal/sim"
	"frontiersim/internal/units"
)

// The index-tracked queue must behave exactly like the plain slice it
// replaced: pending jobs stay in submit order no matter how many are
// plucked out of the middle by backfill, cancels, or head starts. The
// reference model is the observable one — the submitted jobs that are
// still Pending, in submission order — so any reordering, duplication,
// or loss in the tombstone/compaction machinery shows up as a mismatch.
// Queue order feeds the workload layer's RNG-draw order, so this is
// also the draw-order regression test the determinism contract needs.
func TestQueueOrderMatchesReferenceModel(t *testing.T) {
	k := sim.NewKernel(7)
	s := newScheduler(t, k, machine.Scaled(6, 8, 4))
	r := rng.New(1234)

	var submitted []*Job
	check := func(when string) {
		t.Helper()
		var want []*Job
		for _, j := range submitted {
			if j.State == Pending {
				want = append(want, j)
			}
		}
		got := s.queue.snapshot()
		if len(got) != len(want) {
			t.Fatalf("%s: queue has %d jobs, reference %d", when, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: queue[%d] = job %d, reference job %d", when, i, got[i].ID, want[i].ID)
			}
		}
	}

	for step := 0; step < 2000; step++ {
		switch op := r.Intn(10); {
		case op < 6: // submit; big jobs pile up, small ones backfill
			n := 1 + r.Intn(48)
			wall := units.Seconds(1 + r.Intn(40))
			j, err := s.Submit(job.Blob("q", n, wall), nil)
			if err != nil {
				t.Fatal(err)
			}
			submitted = append(submitted, j)
		case op < 8: // cancel a random submitted job (any state)
			if len(submitted) > 0 {
				s.Cancel(submitted[r.Intn(len(submitted))])
			}
		case op == 8: // fail a node, then repair it
			node := r.Intn(48)
			s.MarkUnhealthy(node)
			s.MarkHealthy(node)
		default: // let time pass so jobs finish and the queue drains
			k.RunUntil(k.Now() + units.Seconds(1+r.Intn(5)))
		}
		check("after step")
	}
	k.Run()
	check("after drain")
	if got := s.queue.snapshot(); got != nil {
		t.Fatalf("drained scheduler still queues %d jobs", len(got))
	}
}

// Direct jobQueue edge cases the scheduler path may not hit every run:
// tombstone-heavy compaction, head advancement over runs of nils, and
// removing a job that is not queued.
func TestJobQueueCompaction(t *testing.T) {
	var q jobQueue
	mk := func(id int) *Job { return &Job{ID: id, qpos: -1} }

	// Fill, then remove from the middle until compaction must trigger.
	jobs := make([]*Job, 300)
	for i := range jobs {
		jobs[i] = mk(i)
		q.push(jobs[i])
	}
	for i := 0; i < 250; i++ {
		q.remove(jobs[i])
	}
	q.maybeCompact()
	if q.head != 0 || len(q.items) != q.live {
		t.Fatalf("compaction left head=%d len=%d live=%d", q.head, len(q.items), q.live)
	}
	want := 1
	for _, j := range q.snapshot() {
		if j.ID < want {
			t.Fatalf("compaction reordered: saw job %d after %d", j.ID, want)
		}
		want = j.ID
	}
	// qpos survives compaction: removal by pointer still works.
	survivor := q.first()
	q.remove(survivor)
	if survivor.qpos != -1 || q.items[0] != nil {
		t.Error("post-compaction removal by qpos failed")
	}

	// Removing an unqueued job is a no-op.
	stray := mk(999)
	before := q.len()
	q.remove(stray)
	if q.len() != before {
		t.Error("removing an unqueued job changed the queue")
	}

	// Draining through removeFirst resets the backing slice.
	for q.len() > 0 {
		q.removeFirst()
	}
	if len(q.items) != 0 || q.head != 0 {
		t.Errorf("drained queue kept items=%d head=%d", len(q.items), q.head)
	}
}

// snapshot returns the live jobs in queue order.
func (q *jobQueue) snapshot() []*Job {
	if q.live == 0 {
		return nil
	}
	out := make([]*Job, 0, q.live)
	for _, j := range q.items[q.head:] {
		if j != nil {
			out = append(out, j)
		}
	}
	return out
}
