package campaign

import (
	"fmt"
	"sync"
	"time"

	"frontiersim/internal/campaign/cache"
)

// jobState is a job's lifecycle phase.
type jobState string

const (
	jobQueued  jobState = "queued"
	jobRunning jobState = "running"
	jobDone    jobState = "done"
	jobFailed  jobState = "failed"
)

func (s jobState) finished() bool { return s == jobDone || s == jobFailed }

// progressEvent is one observed step of a job's life: a lifecycle
// transition or a message the compute path reports.
type progressEvent struct {
	Time    time.Time `json:"time"`
	State   jobState  `json:"state"`
	Message string    `json:"message,omitempty"`
}

// job is one asynchronous submission tracked by the store. It stays
// queued until its first progress report: the compute path reports once
// it holds a simulation slot, and run reports the cache outcome of a hit
// or coalesced request once the result is in hand. All methods are safe
// for concurrent use.
type job struct {
	ID         string
	Experiment string
	Machine    string
	Seed       int64
	Quick      bool
	Key        cache.Key
	Created    time.Time

	mu      sync.Mutex
	wake    *sync.Cond // broadcast on every event append
	state   jobState
	events  []progressEvent
	start   time.Time
	dur     time.Duration
	result  []byte
	outcome cache.Outcome
	err     error
}

func newJob(id string, res resolved) *job {
	now := time.Now()
	j := &job{
		ID: id, Experiment: res.exp, Machine: res.spec.Name,
		Seed: res.seed, Quick: res.quick, Key: res.key, Created: now,
		state:  jobQueued,
		events: []progressEvent{{Time: now, State: jobQueued}},
	}
	j.wake = sync.NewCond(&j.mu)
	return j
}

// run computes the job's result, handing compute the job's progress
// callback, and records the outcome.
func (j *job) run(compute func(progress func(string)) ([]byte, cache.Outcome, error)) {
	b, outcome, err := compute(j.progress)
	if err == nil {
		j.progress("cache " + string(outcome))
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.result, j.outcome, j.err = b, outcome, err
	if !j.start.IsZero() {
		j.dur = time.Since(j.start)
	}
	final := progressEvent{Time: time.Now(), State: jobDone}
	if err != nil {
		final.State, final.Message = jobFailed, err.Error()
	}
	j.state = final.State
	j.events = append(j.events, final)
	j.wake.Broadcast()
}

// progress records msg, moving a queued job to running first; it is a
// no-op once the job has finished.
func (j *job) progress(msg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	now := time.Now()
	switch {
	case j.state.finished():
		return
	case j.state == jobQueued:
		j.state, j.start = jobRunning, now
		j.events = append(j.events, progressEvent{Time: now, State: jobRunning})
	}
	j.events = append(j.events, progressEvent{Time: now, State: jobRunning, Message: msg})
	j.wake.Broadcast()
}

func (j *job) finished() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state.finished()
}

// next is the streaming cursor: it blocks until events beyond cursor
// exist or the job has finished, then returns the new events, the
// advanced cursor, and whether the job is finished. A finished job
// returns at once, so a late subscriber replays the full history.
func (j *job) next(cursor int) ([]progressEvent, int, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for cursor >= len(j.events) && !j.state.finished() {
		j.wake.Wait()
	}
	evs := append([]progressEvent(nil), j.events[min(cursor, len(j.events)):]...)
	return evs, len(j.events), j.state.finished()
}

// jobView is the JSON shape of a job's current state.
type jobView struct {
	ID         string        `json:"id"`
	Experiment string        `json:"experiment"`
	Machine    string        `json:"machine"`
	Seed       int64         `json:"seed"`
	Quick      bool          `json:"quick"`
	Key        cache.Key     `json:"key"`
	Created    time.Time     `json:"created"`
	State      jobState      `json:"state"`
	Cache      cache.Outcome `json:"cache,omitempty"`
	DurationMS float64       `json:"durationMs,omitempty"`
	Error      string        `json:"error,omitempty"`
	Result     string        `json:"result,omitempty"`
}

func (j *job) view(includeResult bool) jobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := jobView{
		ID: j.ID, Experiment: j.Experiment, Machine: j.Machine,
		Seed: j.Seed, Quick: j.Quick, Key: j.Key, Created: j.Created,
		State: j.state,
	}
	d := j.dur
	if j.state == jobRunning {
		d = time.Since(j.start)
	}
	if d > 0 {
		v.DurationMS = float64(d) / float64(time.Millisecond)
	}
	switch {
	case j.state == jobFailed:
		v.Error = j.err.Error()
	case j.state == jobDone:
		v.Cache = j.outcome
		if includeResult {
			v.Result = string(j.result)
		}
	}
	return v
}

// maxFinishedJobs bounds how many finished jobs, with their result
// bytes, the store keeps for GET /v1/jobs/{id}. Older finished jobs are
// evicted and 404; their results stay in the result cache, so
// resubmitting the same request is a cache hit.
const maxFinishedJobs = 1024

// jobStore is the in-memory registry of submissions, newest last. It
// keeps every queued or running job and at most maxFinished finished
// ones, evicting the oldest finished job first.
type jobStore struct {
	mu          sync.Mutex
	seq         int
	maxFinished int
	byID        map[string]*job
	all         []*job
}

func newJobStore(maxFinished int) *jobStore {
	return &jobStore{maxFinished: maxFinished, byID: make(map[string]*job)}
}

// nextID mints a monotonically increasing job id.
func (s *jobStore) nextID() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	return fmt.Sprintf("job-%06d", s.seq)
}

// add registers a job and evicts the oldest finished jobs beyond the
// bound. The store only grows here, so between submissions it holds at
// most maxFinished finished jobs plus those unfinished at the last add.
func (s *jobStore) add(j *job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.byID[j.ID] = j
	s.all = append(s.all, j)
	excess := -s.maxFinished
	for _, j := range s.all {
		if j.finished() {
			excess++
		}
	}
	if excess <= 0 {
		return
	}
	kept := s.all[:0]
	for _, j := range s.all {
		if excess > 0 && j.finished() {
			delete(s.byID, j.ID)
			excess--
			continue
		}
		kept = append(kept, j)
	}
	clear(s.all[len(kept):])
	s.all = kept
}

func (s *jobStore) get(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.byID[id]
	return j, ok
}

func (s *jobStore) list() []*job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*job(nil), s.all...)
}
