package scheduler

import (
	"fmt"
	"math/bits"
	"slices"
	"testing"

	"frontiersim/internal/job"
	"frontiersim/internal/machine"
	"frontiersim/internal/rng"
	"frontiersim/internal/sim"
	"frontiersim/internal/units"
)

// auditIndex rebuilds the idle, down and free bitmaps and the per-group
// and global free counts from a per-node model — down as the test set
// it, busy as the running jobs' allocations say — and fails on any
// difference from the scheduler's word-granular bookkeeping. It also
// checks node conservation, that no node is in two running allocations,
// and that no running job holds a down node (MarkUnhealthy fails the
// holder at once).
func auditIndex(t *testing.T, s *Scheduler, down []bool, ctx string) {
	t.Helper()
	holder := make([]*Job, s.totalNodes)
	busy := 0
	for _, j := range s.Running() {
		for _, n := range j.Alloc {
			if holder[n] != nil {
				t.Fatalf("%s: node %d in jobs %d and %d", ctx, n, holder[n].ID, j.ID)
			}
			if down[n] {
				t.Fatalf("%s: running job %d holds down node %d", ctx, j.ID, n)
			}
			holder[n] = j
		}
		busy += len(j.Alloc)
	}
	words := len(s.idle)
	idle, downBits, free := make([]uint64, words), make([]uint64, words), make([]uint64, words)
	groupFree := make([]int, s.groups)
	freeHealthy := 0
	for n := 0; n < s.totalNodes; n++ {
		b := uint64(1) << (n & 63)
		if down[n] {
			downBits[n>>6] |= b
		}
		if holder[n] == nil {
			idle[n>>6] |= b
			if !down[n] {
				free[n>>6] |= b
				groupFree[n/s.nodesPerGroup]++
				freeHealthy++
			}
		}
	}
	for _, c := range []struct {
		name      string
		got, want []uint64
	}{{"idle", s.idle, idle}, {"down", s.down, downBits}, {"freeBits", s.freeBits, free}} {
		if !slices.Equal(c.got, c.want) {
			t.Fatalf("%s: %s = %x, model %x", ctx, c.name, c.got, c.want)
		}
	}
	if !slices.Equal(s.groupFree, groupFree) {
		t.Fatalf("%s: groupFree = %v, model %v", ctx, s.groupFree, groupFree)
	}
	if s.freeHealthy != freeHealthy {
		t.Fatalf("%s: freeHealthy = %d, model %d", ctx, s.freeHealthy, freeHealthy)
	}
	idleDown := 0
	for w := range s.idle {
		idleDown += bits.OnesCount64(s.idle[w] & s.down[w])
	}
	if s.freeHealthy+busy+idleDown != s.totalNodes {
		t.Fatalf("%s: %d idle healthy + %d busy + %d idle down != %d nodes",
			ctx, s.freeHealthy, busy, idleDown, s.totalNodes)
	}
}

// Random submit, advance, cancel, fail and repair sequences must keep
// every index structure equal to what the per-node model rebuilds. The
// 60-node groups of the middle shape are not a multiple of 64, so group
// edges fall mid-word; the others have groups inside one word and
// groups of two whole words.
func TestIndexAudit(t *testing.T) {
	for _, shape := range [][3]int{{6, 8, 4}, {5, 15, 16}, {3, 32, 16}} {
		k := sim.NewKernel(1)
		s := newScheduler(t, k, machine.Scaled(shape[0], shape[1], shape[2]))
		r := rng.New(int64(shape[1]*100 + shape[2]))
		down := make([]bool, s.totalNodes)
		var jobs []*Job
		for step := 0; step < 600; step++ {
			var op string
			switch r.Intn(7) {
			case 0, 1:
				n := 1 + r.Intn(s.nodesPerGroup)
				if r.Intn(3) == 0 {
					n = 1 + r.Intn(s.totalNodes)
				}
				j, err := s.Submit(job.Blob("audit", n, units.Seconds(1+r.Intn(40))), nil)
				if err != nil {
					t.Fatal(err)
				}
				jobs = append(jobs, j)
				op = fmt.Sprintf("submit %d nodes", n)
			case 2:
				k.RunUntil(k.Now() + units.Seconds(r.Intn(15)))
				op = "advance"
			case 3:
				if len(jobs) == 0 {
					continue
				}
				j := jobs[r.Intn(len(jobs))]
				s.Cancel(j)
				op = fmt.Sprintf("cancel job %d", j.ID)
			case 4:
				running := s.Running()
				if len(running) == 0 {
					continue
				}
				holder := running[r.Intn(len(running))]
				node := holder.Alloc[r.Intn(len(holder.Alloc))]
				failed := s.FailedJobs
				s.MarkUnhealthy(node)
				down[node] = true
				op = fmt.Sprintf("fail busy node %d", node)
				if holder.State != Failed || s.FailedJobs != failed+1 {
					t.Fatalf("%v step %d: %s: holder %d is %v, %d jobs failed (want 1)",
						shape, step, op, holder.ID, holder.State, s.FailedJobs-failed)
				}
				for _, j := range running {
					if j != holder && j.State != Running {
						t.Fatalf("%v step %d: %s: bystander job %d is %v", shape, step, op, j.ID, j.State)
					}
				}
			case 5:
				node := r.Intn(s.totalNodes)
				if s.idle[node>>6]&(1<<(node&63)) == 0 {
					continue
				}
				running, failed := s.Running(), s.FailedJobs
				s.MarkUnhealthy(node)
				down[node] = true
				op = fmt.Sprintf("fail idle node %d", node)
				if s.FailedJobs != failed {
					t.Fatalf("%v step %d: %s failed %d jobs", shape, step, op, s.FailedJobs-failed)
				}
				for _, j := range running {
					if j.State != Running {
						t.Fatalf("%v step %d: %s: job %d is %v", shape, step, op, j.ID, j.State)
					}
				}
			case 6:
				// Repair the next down node from a random start, so
				// repairs keep pace with failures.
				node := r.Intn(s.totalNodes)
				for i := 0; i < s.totalNodes && !down[node]; i++ {
					node = (node + 1) % s.totalNodes
				}
				s.MarkHealthy(node)
				down[node] = false
				op = fmt.Sprintf("repair node %d", node)
			}
			auditIndex(t, s, down, fmt.Sprintf("%v step %d (%s)", shape, step, op))
		}
		k.Run()
		auditIndex(t, s, down, fmt.Sprintf("%v drained", shape))
	}
}
