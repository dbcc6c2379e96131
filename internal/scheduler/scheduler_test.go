package scheduler

import (
	"testing"
	"testing/quick"

	"frontiersim/internal/fabric"
	"frontiersim/internal/job"
	"frontiersim/internal/machine"
	"frontiersim/internal/sim"
	"frontiersim/internal/units"
)

// newScheduler builds a scheduler over spec's fabric, pricing jobs
// against spec's job env.
func newScheduler(tb testing.TB, k *sim.Kernel, spec machine.Spec) *Scheduler {
	tb.Helper()
	f, err := spec.NewFabric()
	if err != nil {
		tb.Fatal(err)
	}
	env, err := spec.JobEnv(f)
	if err != nil {
		tb.Fatal(err)
	}
	return New(k, env)
}

// testRig: 6 groups x 8 switches x 4 endpoints = 48 nodes, 8 per group.
func testRig(t *testing.T) (*sim.Kernel, *fabric.Fabric, *Scheduler) {
	t.Helper()
	k := sim.NewKernel(1)
	s := newScheduler(t, k, machine.Scaled(6, 8, 4))
	return k, s.Env.Fabric, s
}

func TestSmallJobPacksIntoOneGroup(t *testing.T) {
	k, f, s := testRig(t)
	j, err := s.Submit(job.Blob("small", 6, 100), nil)
	if err != nil {
		t.Fatal(err)
	}
	if j.State != Running {
		t.Fatalf("job state = %v, want running", j.State)
	}
	if got := j.GroupsSpanned(f); got != 1 {
		t.Errorf("small job spans %d groups, want 1 (packed)", got)
	}
	k.Run()
	if j.State != Completed {
		t.Errorf("state = %v, want completed", j.State)
	}
}

func TestLargeJobSpreadsAcrossGroups(t *testing.T) {
	_, f, s := testRig(t)
	j, err := s.Submit(job.Blob("big", 30, 100), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := j.GroupsSpanned(f); got < 5 {
		t.Errorf("large job spans %d groups, want spread over >=5", got)
	}
	// Spread should be even: no group should hold more than ceil share+1.
	counts := map[int]int{}
	for _, n := range j.Alloc {
		counts[f.EndpointGroup(f.NodeEndpoints(n)[0])]++
	}
	for g, c := range counts {
		if c > 6 {
			t.Errorf("group %d holds %d nodes of a 30-node job; want even spread", g, c)
		}
	}
}

func TestExclusiveAllocation(t *testing.T) {
	_, _, s := testRig(t)
	j1, _ := s.Submit(job.Blob("a", 30, 100), nil)
	j2, _ := s.Submit(job.Blob("b", 30, 100), nil)
	if j2.State == Running {
		t.Fatal("second 30-node job cannot run on 48 nodes concurrently")
	}
	seen := map[int]bool{}
	for _, n := range j1.Alloc {
		if seen[n] {
			t.Fatal("duplicate node in allocation")
		}
		seen[n] = true
	}
}

func TestFIFOCompletionStartsNext(t *testing.T) {
	k, _, s := testRig(t)
	j1, _ := s.Submit(job.Blob("a", 40, 50), nil)
	j2, _ := s.Submit(job.Blob("b", 40, 50), nil)
	k.Run()
	if j1.State != Completed || j2.State != Completed {
		t.Fatalf("states = %v, %v", j1.State, j2.State)
	}
	if j2.Start < j1.End {
		t.Error("j2 must start after j1 frees nodes")
	}
}

func TestBackfillDoesNotDelayHead(t *testing.T) {
	k, _, s := testRig(t)
	// j1 occupies 40 nodes until t=100. Head job j2 needs all 48 and
	// must wait. j3 needs 8 nodes for 50s: it fits now and ends before
	// j2's reservation, so EASY backfill should start it immediately.
	j1, _ := s.Submit(job.Blob("base", 40, 100), nil)
	j2, _ := s.Submit(job.Blob("head", 48, 100), nil)
	j3, _ := s.Submit(job.Blob("filler", 8, 50), nil)
	if j3.State != Running {
		t.Error("backfill should start the filler immediately")
	}
	// j4 would run past the reservation and needs nodes the head will
	// use; it must NOT start.
	j4, _ := s.Submit(job.Blob("blocker", 8, 500), nil)
	if j4.State == Running {
		t.Error("backfill must not delay the head job")
	}
	k.Run()
	if j2.Start != j1.End {
		t.Errorf("head started at %v, want %v (no delay)", j2.Start, j1.End)
	}
	_ = j2
}

func TestVNIUniqueness(t *testing.T) {
	_, _, s := testRig(t)
	var jobs []*Job
	for i := 0; i < 6; i++ {
		j, err := s.Submit(job.Blob("j", 8, 100), nil)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	seen := map[int]bool{}
	for _, j := range jobs {
		if j.State != Running {
			t.Fatalf("job %d not running", j.ID)
		}
		if seen[j.VNI] {
			t.Fatalf("VNI %d reused across concurrent jobs", j.VNI)
		}
		seen[j.VNI] = true
	}
}

func TestVNIReleasedAfterCompletion(t *testing.T) {
	k, _, s := testRig(t)
	for i := 0; i < 100; i++ {
		if _, err := s.Submit(job.Blob("j", 48, 10), nil); err != nil {
			t.Fatal(err)
		}
	}
	k.Run()
	if s.Finished != 100 {
		t.Errorf("finished = %d, want 100", s.Finished)
	}
}

func TestChecknodeGate(t *testing.T) {
	_, _, s := testRig(t)
	s.MarkUnhealthy(0)
	if s.down[0]&1 == 0 {
		t.Error("node 0 should fail checknode")
	}
	j, _ := s.Submit(job.Blob("j", 48, 100), nil)
	if j.State == Running {
		t.Error("48-node job cannot run with one node unhealthy")
	}
	// A 47-node job runs and avoids the sick node.
	j2, _ := s.Submit(job.Blob("j2", 47, 100), nil)
	if j2.State != Running {
		t.Fatal("47-node job should run")
	}
	for _, n := range j2.Alloc {
		if n == 0 {
			t.Error("allocation includes unhealthy node")
		}
	}
}

func TestNodeFailureKillsJob(t *testing.T) {
	k, _, s := testRig(t)
	var final JobState
	j, _ := s.Submit(job.Blob("victim", 8, 1000), func(j *Job) { final = j.State })
	if j.State != Running {
		t.Fatal("job should run")
	}
	k.After(10, func(any) { s.MarkUnhealthy(j.Alloc[0]) }, nil)
	k.RunUntil(20)
	if final != Failed {
		t.Errorf("final state = %v, want failed", final)
	}
	if s.FailedJobs != 1 {
		t.Errorf("failed count = %d, want 1", s.FailedJobs)
	}
	// A blob never checkpoints, so the failure strands all it ran.
	if want := 10 - j.Start; j.LostWork != want || j.Checkpoints != 0 {
		t.Errorf("lost work %v, checkpoints %d; want %v, 0", j.LostWork, j.Checkpoints, want)
	}
	// Node stays out of the pool until repaired.
	j2, _ := s.Submit(job.Blob("next", 48, 10), nil)
	if j2.State == Running {
		t.Error("full-machine job should wait for repair")
	}
	s.MarkHealthy(j.Alloc[0])
	if j2.State != Running {
		t.Error("repair should release the waiting job")
	}
}

func TestSubmitValidation(t *testing.T) {
	_, _, s := testRig(t)
	if _, err := s.Submit(job.Blob("bad", 0, 100), nil); err == nil {
		t.Error("0 nodes should error")
	}
	if _, err := s.Submit(job.Blob("bad", 1000, 100), nil); err == nil {
		t.Error("oversized job should error")
	}
	if _, err := s.Submit(job.Blob("bad", 1, 0), nil); err == nil {
		t.Error("zero walltime should error")
	}
}

func TestQueueAndRunningViews(t *testing.T) {
	_, _, s := testRig(t)
	s.Submit(job.Blob("a", 48, 100), nil)
	s.Submit(job.Blob("b", 48, 100), nil)
	if len(s.Running()) != 1 || len(s.queue.snapshot()) != 1 {
		t.Errorf("running=%d queued=%d, want 1/1", len(s.Running()), len(s.queue.snapshot()))
	}
}

// Property: node conservation — at any point, free + allocated == total,
// and no node is double-allocated.
func TestNodeConservationProperty(t *testing.T) {
	f := func(sizes []uint8) bool {
		k := sim.NewKernel(2)
		s := newScheduler(t, k, machine.Scaled(6, 8, 4))
		for _, raw := range sizes {
			n := int(raw)%48 + 1
			if _, err := s.Submit(job.Blob("p", n, units.Seconds(int(raw)%50+1)), nil); err != nil {
				return false
			}
		}
		ok := true
		check := func() {
			used := map[int]bool{}
			count := 0
			for _, j := range s.Running() {
				for _, n := range j.Alloc {
					if used[n] {
						ok = false
					}
					used[n] = true
					count++
				}
			}
			if count+s.freeHealthy != 48 {
				ok = false
			}
		}
		for i := 0; i < 20; i++ {
			k.RunUntil(k.Now() + 10)
			check()
		}
		k.Run()
		check()
		return ok && len(s.Running()) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestJobStateString(t *testing.T) {
	for _, st := range []JobState{Pending, Running, Completed, Failed, Timeout, JobState(9)} {
		if st.String() == "" {
			t.Errorf("empty state string for %d", int(st))
		}
	}
}
