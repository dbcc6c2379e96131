// Package scheduler models Frontier's Slurm configuration (§3.4.2):
// exclusive whole-node allocation, a checknode health gate at boot and
// between jobs, a unique Slingshot VNI per job step for traffic
// isolation, EASY backfill, and topology-aware placement — small jobs
// pack tightly into one dragonfly group to minimise global hops, large
// jobs spread evenly across as many groups as possible to maximise the
// global links available to minimal routing.
//
// The hot paths are indexed for full-machine campaigns. Node state lives
// in 64-node bitmap words (idle, down, and their difference: free AND
// healthy) beside a per-group free-count table, so place() is
// near-O(groups) and start/finish commit or release an allocation with
// one mask per bitmap word and one count per group rather than a store
// per node. Failure attribution binary-searches the sorted allocations
// of the running jobs, and the pending queue is an index-tracked
// structure with tombstoned removal so backfill never pays the old O(n)
// slice deletes. All index structures are pure accelerators: placement
// decisions, queue order, and therefore every downstream RNG draw are
// bit-identical to the linear-scan implementation they replace.
package scheduler

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"frontiersim/internal/fabric"
	"frontiersim/internal/job"
	"frontiersim/internal/sim"
	"frontiersim/internal/units"
)

// JobState is the lifecycle state of a job.
type JobState int

// Job states.
const (
	Pending JobState = iota
	Running
	Completed
	Failed
	Cancelled
	// Timeout is a job killed at its requested walltime before its
	// program finished (a job.Blob requests exactly its runtime and
	// completes normally).
	Timeout
)

// String implements fmt.Stringer.
func (s JobState) String() string {
	switch s {
	case Pending:
		return "pending"
	case Running:
		return "running"
	case Completed:
		return "completed"
	case Failed:
		return "failed"
	case Cancelled:
		return "cancelled"
	case Timeout:
		return "timeout"
	}
	return fmt.Sprintf("JobState(%d)", int(s))
}

// Job is one batch job: a Program whose runtime is derived by binding it
// to the allocation the scheduler actually grants. Walltime is the
// *requested* limit — the program's own, or a quote from a nominal
// spread placement — and the delivered runtime emerges from the
// placement's collective performance.
type Job struct {
	ID       int
	Name     string
	Nodes    int
	Walltime units.Seconds
	Program  *job.Program

	State  JobState
	Submit units.Seconds
	Start  units.Seconds
	End    units.Seconds
	// Alloc is the exclusive node allocation.
	Alloc []int
	// VNI is the job step's Virtual Network Identifier.
	VNI int
	// OnComplete, if set, runs when the job finishes (any final state).
	OnComplete func(*Job)

	// Bound is the program priced on the granted allocation (set at
	// start).
	Bound *job.Bound
	// LostWork is the simulated time since the last completed checkpoint
	// at the moment the job failed — the work an interrupt destroyed.
	LostWork units.Seconds
	// Checkpoints is the count of checkpoint phases the job completed.
	Checkpoints int

	exec     *job.Exec
	endEvent sim.Event
	// qpos is the job's slot in the pending queue, -1 when not queued.
	qpos int
}

// Class returns the program's workload stratum label, or the job name
// when the program has none.
func (j *Job) Class() string {
	if j.Program.Class != "" {
		return j.Program.Class
	}
	return j.Name
}

// GroupsSpanned reports how many dragonfly groups the allocation touches.
func (j *Job) GroupsSpanned(f *fabric.Fabric) int { return f.GroupsSpanned(j.Alloc) }

// Scheduler is the system-level batch scheduler.
type Scheduler struct {
	K *sim.Kernel

	// Env prices every job: it quotes requested walltimes from a nominal
	// spread placement and re-prices each program on its granted
	// allocation.
	Env *job.Env

	// BackfillDepth bounds how many pending jobs one EASY backfill pass
	// examines behind the queue head; 0 scans the whole queue. Bounding
	// the scan is how real schedulers keep a deep queue cheap; it can
	// only *skip* backfill starts, never reorder them.
	BackfillDepth int

	nodesPerGroup int
	groups        int
	totalNodes    int

	// idle and down are per-node bitmaps: bit n of idle is set when no
	// job holds node n (healthy or not), bit n of down when node n fails
	// checknode.
	idle, down []uint64
	// freeBits is the scheduling index, idle &^ down. groupFree and
	// freeHealthy are its per-group and global popcounts.
	freeBits    []uint64
	groupFree   []int
	freeHealthy int

	queue     jobQueue
	running   map[int]*Job
	nextJobID int
	vni       *vniPool
	// Spread placement's reusable scratch: take holds per-group node
	// counts (all zero between calls), order the groups with free nodes
	// by (free desc, id asc), and bucket the counting-sort offsets indexed
	// by free count.
	take, order, bucket []int

	// Stats.
	Started, Finished, FailedJobs, HealthRejects int
}

// New builds a scheduler over the compute nodes of env's fabric, pricing
// jobs against env.
func New(k *sim.Kernel, env *job.Env) *Scheduler {
	f := env.Fabric
	total := f.Cfg.ComputeNodes()
	words := (total + 63) / 64
	s := &Scheduler{
		K:             k,
		Env:           env,
		nodesPerGroup: f.Cfg.NodesPerGroup(),
		groups:        f.Cfg.ComputeGroups,
		totalNodes:    total,
		idle:          make([]uint64, words),
		down:          make([]uint64, words),
		freeBits:      make([]uint64, words),
		groupFree:     make([]int, f.Cfg.ComputeGroups),
		freeHealthy:   total,
		running:       map[int]*Job{},
		nextJobID:     1,
		vni:           newVNIPool(1, 65535),
		take:          make([]int, f.Cfg.ComputeGroups),
		order:         make([]int, f.Cfg.ComputeGroups),
		bucket:        make([]int, f.Cfg.NodesPerGroup()+1),
	}
	for w := range s.idle {
		s.idle[w] = ^uint64(0)
		if tail := total - w*64; tail < 64 {
			s.idle[w] = 1<<tail - 1
		}
		s.freeBits[w] = s.idle[w]
	}
	for g := range s.groupFree {
		s.groupFree[g] = s.nodesPerGroup
	}
	return s
}

// setFree adds node to the scheduling index (it must be absent). It and
// clearFree serve the single-node health paths; start and finish move
// whole allocations a word at a time.
func (s *Scheduler) setFree(node int) {
	s.freeBits[node>>6] |= 1 << (node & 63)
	s.groupFree[node/s.nodesPerGroup]++
	s.freeHealthy++
}

// clearFree removes node from the scheduling index (it must be present).
func (s *Scheduler) clearFree(node int) {
	s.freeBits[node>>6] &^= 1 << (node & 63)
	s.groupFree[node/s.nodesPerGroup]--
	s.freeHealthy--
}

// eachWord calls fn once per bitmap word of each group a sorted
// allocation touches, with g the group, w the word and m the mask of the
// allocation's nodes in both. Groups are contiguous node ranges, so the
// loop tracks the group boundary instead of dividing per node.
// Allocations are strictly increasing, so when the last node of a
// (group, word) span is present the whole span is, and its mask is built
// without visiting its nodes.
func (s *Scheduler) eachWord(alloc []int, fn func(g, w int, m uint64)) {
	g, groupEnd := -1, 0
	for i := 0; i < len(alloc); {
		n := alloc[i]
		if n >= groupEnd {
			g = n / s.nodesPerGroup
			groupEnd = (g + 1) * s.nodesPerGroup
		}
		w := n >> 6
		limit := min((w+1)<<6, groupEnd)
		var m uint64
		if k := limit - n; i+k <= len(alloc) && alloc[i+k-1] == limit-1 {
			m = ^uint64(0) >> (64 - k) << (n & 63)
			i += k
		} else {
			for ; i < len(alloc) && alloc[i] < limit; i++ {
				m |= 1 << (alloc[i] & 63)
			}
		}
		fn(g, w, m)
	}
}

// FreeNodes returns the count of idle healthy nodes.
func (s *Scheduler) FreeNodes() int { return s.freeHealthy }

// MarkUnhealthy records a node as failing checknode; running jobs on it
// fail immediately (compute nodes are scheduled exclusively, so only one
// job can be affected).
func (s *Scheduler) MarkUnhealthy(node int) {
	if node < 0 || node >= s.totalNodes {
		return
	}
	w, b := node>>6, uint64(1)<<(node&63)
	if s.down[w]&b == 0 {
		s.down[w] |= b
		if s.idle[w]&b != 0 {
			s.clearFree(node)
		}
	}
	if s.idle[w]&b == 0 {
		if j := s.holder(node); j != nil {
			s.finish(j, Failed)
		}
	}
}

// holder returns the running job whose allocation contains node.
// Allocations are sorted and exclusive, so at most one job matches and
// the map's iteration order cannot change the answer.
func (s *Scheduler) holder(node int) *Job {
	for _, j := range s.running {
		if _, ok := slices.BinarySearch(j.Alloc, node); ok {
			return j
		}
	}
	return nil
}

// MarkHealthy returns a repaired node to service.
func (s *Scheduler) MarkHealthy(node int) {
	if node >= 0 && node < s.totalNodes {
		w, b := node>>6, uint64(1)<<(node&63)
		if s.down[w]&b != 0 {
			s.down[w] &^= b
			if s.idle[w]&b != 0 {
				s.setFree(node)
			}
		}
	}
	s.trySchedule()
}

// walltimeMargin is the slack a job that names no walltime requests
// over its nominal estimate, covering the spread between the quoted
// placement and the one actually granted (users pad their Slurm
// walltimes the same way).
const walltimeMargin = 1.25

// Submit enqueues a job and attempts to schedule. It returns the job so
// callers can watch its state. The requested walltime is p.Walltime;
// when that is zero it is derived from the program itself — priced on a
// nominal spread placement and padded by walltimeMargin. The delivered
// runtime is whatever the granted placement yields.
func (s *Scheduler) Submit(p *job.Program, onComplete func(*Job)) (*Job, error) {
	if p.Nodes < 1 || p.Nodes > s.totalNodes {
		return nil, fmt.Errorf("scheduler: job needs 1..%d nodes, got %d", s.totalNodes, p.Nodes)
	}
	wall := p.Walltime
	if wall == 0 {
		est, err := s.Env.Estimate(p)
		if err != nil {
			return nil, err
		}
		wall = est * walltimeMargin
	} else if err := p.Validate(); err != nil {
		return nil, err
	}
	j := &Job{
		ID:         s.nextJobID,
		Name:       p.Name,
		Nodes:      p.Nodes,
		Walltime:   wall,
		Program:    p,
		State:      Pending,
		Submit:     s.K.Now(),
		OnComplete: onComplete,
		qpos:       -1,
	}
	s.nextJobID++
	s.queue.push(j)
	s.trySchedule()
	return j, nil
}

// Cancel removes a pending job or kills a running one.
func (s *Scheduler) Cancel(j *Job) {
	switch j.State {
	case Pending:
		s.queue.remove(j)
		j.State = Cancelled
		if j.OnComplete != nil {
			j.OnComplete(j)
		}
	case Running:
		s.finish(j, Cancelled)
	}
}

// Running returns the currently running jobs.
func (s *Scheduler) Running() []*Job {
	out := make([]*Job, 0, len(s.running))
	for _, j := range s.running {
		out = append(out, j)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

// trySchedule starts the queue head if it fits, then EASY-backfills: a
// later job may jump ahead only if starting it now cannot delay the
// head's reservation.
func (s *Scheduler) trySchedule() {
	for s.queue.len() > 0 {
		if !s.start(s.queue.first()) {
			break
		}
		s.queue.removeFirst()
	}
	if s.queue.len() == 0 || s.freeHealthy == 0 {
		// An empty machine cannot backfill anything; skipping the scan
		// changes no decisions (no job fits), only the cost of making none.
		return
	}
	head := s.queue.first()
	resTime, nodesAtRes := s.reservation(head)
	scanned := 0
	for i := s.queue.head + 1; i < len(s.queue.items); i++ {
		j := s.queue.items[i]
		if j == nil {
			continue
		}
		if s.freeHealthy == 0 {
			break
		}
		scanned++
		if s.BackfillDepth > 0 && scanned > s.BackfillDepth {
			break
		}
		fitsNow := j.Nodes <= s.FreeNodes()
		noDelay := s.K.Now()+j.Walltime <= resTime || s.FreeNodes()-j.Nodes >= nodesAtRes
		if fitsNow && noDelay && s.start(j) {
			s.queue.removeAt(i)
		}
	}
	s.queue.maybeCompact()
}

// reservation estimates when the head job can start: walk running jobs by
// end time accumulating freed nodes.
func (s *Scheduler) reservation(head *Job) (units.Seconds, int) {
	free := s.FreeNodes()
	if free >= head.Nodes {
		return s.K.Now(), head.Nodes
	}
	ends := make([]*Job, 0, len(s.running))
	for _, j := range s.running {
		ends = append(ends, j)
	}
	sort.Slice(ends, func(i, k int) bool { return ends[i].End < ends[k].End })
	for _, j := range ends {
		free += len(j.Alloc)
		if free >= head.Nodes {
			return j.End, head.Nodes
		}
	}
	return s.K.Now() + head.Walltime, head.Nodes // unreachable in practice
}

// start attempts to place and launch a job; reports success.
func (s *Scheduler) start(j *Job) bool {
	alloc := s.place(j.Nodes)
	if alloc == nil {
		return false
	}
	vni, ok := s.vni.acquire()
	if !ok {
		return false
	}
	j.Alloc = alloc
	j.VNI = vni
	j.State = Running
	j.Start = s.K.Now()
	j.End = j.Start + j.Walltime
	// place only returns idle healthy nodes: each leaves idle and the
	// index, and down is untouched.
	s.eachWord(alloc, func(g, w int, m uint64) {
		s.idle[w] &^= m
		s.freeBits[w] &^= m
		s.groupFree[g] -= bits.OnesCount64(m)
	})
	s.freeHealthy -= len(alloc)
	s.running[j.ID] = j
	s.Started++
	s.launch(j)
	return true
}

// launch binds a job's program to its granted allocation and begins
// executing it on the event kernel. Completion is driven by the
// program's last phase boundary; the requested walltime survives only as
// a kill limit, exactly like Slurm's TIMEOUT.
func (s *Scheduler) launch(j *Job) {
	bound, err := s.Env.Bind(j.Program, j.Alloc)
	if err != nil {
		// A program that cannot be priced on real nodes is a launch
		// failure, not a scheduler crash. Failing via an immediate event
		// keeps finish() out of the trySchedule loop that called start.
		j.endEvent = s.K.After(0, func() { s.finish(j, Failed) })
		return
	}
	j.Bound = bound
	if bound.Total <= j.Walltime {
		j.End = j.Start + bound.Total
	}
	j.exec = (&job.Exec{Bound: bound, K: s.K, OnDone: func() { s.finish(j, Completed) }}).Start()
	if bound.Total > j.Walltime {
		j.endEvent = s.K.At(j.Start+j.Walltime, func() { s.finish(j, Timeout) })
	}
}

func (s *Scheduler) finish(j *Job, state JobState) {
	if j.State != Running {
		return
	}
	j.endEvent.Cancel()
	if j.exec != nil {
		// Interrupts and kills land mid-phase: charge the work since the
		// last completed checkpoint before abandoning the partial phase.
		if state != Completed {
			j.LostWork = j.exec.LostWork()
		}
		j.Checkpoints = j.exec.Checkpoints
		j.exec.Stop()
	}
	j.State = state
	j.End = s.K.Now()
	delete(s.running, j.ID)
	// checknode between jobs: down nodes stay out of the pool but are
	// still marked idle so repairs can return them.
	s.eachWord(j.Alloc, func(g, w int, m uint64) {
		s.idle[w] |= m
		back := m &^ s.down[w]
		s.freeBits[w] |= back
		c := bits.OnesCount64(back)
		s.groupFree[g] += c
		s.freeHealthy += c
	})
	s.vni.release(j.VNI)
	s.Finished++
	if state == Failed {
		s.FailedJobs++
	}
	if j.OnComplete != nil {
		j.OnComplete(j)
	}
	s.trySchedule()
}

// place chooses nodes for a job of size n, in ascending node order, or
// nil if it cannot fit now. It only reads the scheduling index; start()
// commits the allocation.
func (s *Scheduler) place(n int) []int {
	if n <= s.nodesPerGroup {
		// Pack: best-fit group (smallest free count that fits) to keep
		// large contiguous blocks available.
		best := -1
		for g := 0; g < s.groups; g++ {
			f := s.groupFree[g]
			if f >= n && (best == -1 || f < s.groupFree[best]) {
				best = g
			}
		}
		if best >= 0 {
			return s.appendFromGroup(make([]int, 0, n), best, n)
		}
		// No single group fits; fall through to spreading.
	}
	if s.freeHealthy < n {
		return nil
	}
	// Spread: take from the groups with the most free nodes so the job
	// touches as many groups as evenly as possible. First pass: an equal
	// share per group, in (free desc, id asc) order.
	order := s.groupsByFree()
	share := (n + len(order) - 1) / len(order)
	remaining := n
	for _, g := range order {
		if remaining == 0 {
			break
		}
		t := min(share, s.groupFree[g], remaining)
		s.take[g] = t
		remaining -= t
	}
	// Second pass: the rest goes to the lowest free nodes not yet taken.
	// Each group gives its lowest free nodes and groups are contiguous
	// node ranges, so those are the next free nodes of each group in
	// ascending group order. freeHealthy >= n keeps g inside the machine.
	for g := 0; remaining > 0; g++ {
		t := min(s.groupFree[g]-s.take[g], remaining)
		s.take[g] += t
		remaining -= t
	}
	// Collecting groups in id order yields the allocation already sorted.
	alloc := make([]int, 0, n)
	for g, t := range s.take {
		if t > 0 {
			alloc = s.appendFromGroup(alloc, g, t)
			s.take[g] = 0
		}
	}
	return alloc
}

// groupsByFree returns the groups with free nodes ordered by free count
// descending, then id ascending. Free counts are at most nodesPerGroup,
// so a stable counting sort does it in O(groups + nodesPerGroup).
func (s *Scheduler) groupsByFree() []int {
	clear(s.bucket)
	for _, f := range s.groupFree {
		s.bucket[f]++
	}
	// bucket[f] becomes the first slot for free count f.
	pos := 0
	for f := s.nodesPerGroup; f > 0; f-- {
		c := s.bucket[f]
		s.bucket[f] = pos
		pos += c
	}
	order := s.order[:pos]
	for g, f := range s.groupFree {
		if f > 0 {
			order[s.bucket[f]] = g
			s.bucket[f]++
		}
	}
	return order
}

// appendFromGroup appends the lowest n free healthy nodes of group g to
// dst in ascending node order. It walks the free bitmap a word at a
// time, takes a full word as a run of 64 nodes, and peels set bits
// lowest first only from partial words.
func (s *Scheduler) appendFromGroup(dst []int, g, n int) []int {
	start := g * s.nodesPerGroup
	end := min(start+s.nodesPerGroup, s.totalNodes)
	for base := start &^ 63; base < end && n > 0; base += 64 {
		w := s.freeBits[base>>6]
		if base < start {
			w &^= 1<<(start-base) - 1
		}
		if end-base < 64 {
			w &= 1<<(end-base) - 1
		}
		if w == ^uint64(0) && n >= 64 {
			for i := range 64 {
				dst = append(dst, base+i)
			}
			n -= 64
			continue
		}
		for ; w != 0 && n > 0; n-- {
			dst = append(dst, base+bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
	return dst
}

// jobQueue is the pending queue: FIFO order with O(1) removal anywhere.
// Removed slots become nil tombstones (each job tracks its slot in
// qpos); the slice compacts in place once tombstones dominate, so a
// year-long campaign never pays the old O(n) delete per backfill start.
type jobQueue struct {
	items []*Job
	head  int // index of the first live entry (all earlier slots are nil)
	live  int
}

func (q *jobQueue) len() int { return q.live }

func (q *jobQueue) push(j *Job) {
	j.qpos = len(q.items)
	q.items = append(q.items, j)
	q.live++
}

// first returns the oldest pending job; the queue must be non-empty.
func (q *jobQueue) first() *Job { return q.items[q.head] }

func (q *jobQueue) removeFirst() { q.removeAt(q.head) }

func (q *jobQueue) removeAt(i int) {
	q.items[i].qpos = -1
	q.items[i] = nil
	q.live--
	if i == q.head {
		q.advanceHead()
	}
}

func (q *jobQueue) remove(j *Job) {
	if j.qpos >= 0 && j.qpos < len(q.items) && q.items[j.qpos] == j {
		q.removeAt(j.qpos)
	}
}

func (q *jobQueue) advanceHead() {
	for q.head < len(q.items) && q.items[q.head] == nil {
		q.head++
	}
	if q.live == 0 {
		q.items = q.items[:0]
		q.head = 0
	}
}

// maybeCompact squeezes tombstones out once they outnumber live entries
// by a margin, preserving order and re-indexing qpos.
func (q *jobQueue) maybeCompact() {
	if len(q.items)-q.live <= q.live+64 {
		return
	}
	w := 0
	for _, j := range q.items {
		if j != nil {
			j.qpos = w
			q.items[w] = j
			w++
		}
	}
	q.items = q.items[:w]
	q.head = 0
}

// vniPool hands out unique Virtual Network Identifiers.
type vniPool struct {
	next, lo, hi int
	inUse        map[int]bool
}

func newVNIPool(lo, hi int) *vniPool {
	return &vniPool{next: lo, lo: lo, hi: hi, inUse: map[int]bool{}}
}

func (p *vniPool) acquire() (int, bool) {
	for scanned := 0; scanned <= p.hi-p.lo; scanned++ {
		v := p.next
		p.next++
		if p.next > p.hi {
			p.next = p.lo
		}
		if !p.inUse[v] {
			p.inUse[v] = true
			return v, true
		}
	}
	return 0, false
}

func (p *vniPool) release(v int) { delete(p.inUse, v) }
