package campaign

import (
	"fmt"
	"sync"
	"time"

	"frontiersim/internal/campaign/cache"
	"frontiersim/internal/harness"
)

// jobOutput is what an async job resolves to: the result bytes plus how
// the cache satisfied them.
type jobOutput struct {
	bytes   []byte
	outcome cache.Outcome
}

// job is one asynchronous submission tracked by the store.
type job struct {
	ID         string    `json:"id"`
	Experiment string    `json:"experiment"`
	Machine    string    `json:"machine"`
	Seed       int64     `json:"seed"`
	Quick      bool      `json:"quick"`
	Key        cache.Key `json:"key"`
	Created    time.Time `json:"created"`

	handle *harness.Handle[jobOutput]
}

// jobView is the JSON shape of a job's current state.
type jobView struct {
	ID         string           `json:"id"`
	Experiment string           `json:"experiment"`
	Machine    string           `json:"machine"`
	Seed       int64            `json:"seed"`
	Quick      bool             `json:"quick"`
	Key        cache.Key        `json:"key"`
	Created    time.Time        `json:"created"`
	State      harness.JobState `json:"state"`
	Cache      cache.Outcome    `json:"cache,omitempty"`
	DurationMS float64          `json:"durationMs,omitempty"`
	Error      string           `json:"error,omitempty"`
	Result     string           `json:"result,omitempty"`
}

func (j *job) view(includeResult bool) jobView {
	v := jobView{
		ID: j.ID, Experiment: j.Experiment, Machine: j.Machine,
		Seed: j.Seed, Quick: j.Quick, Key: j.Key, Created: j.Created,
		State: j.handle.State(),
	}
	if d := j.handle.RunDuration(); d > 0 {
		v.DurationMS = float64(d) / float64(time.Millisecond)
	}
	if v.State.Finished() {
		out, err := j.handle.Result()
		if err != nil {
			v.Error = err.Error()
		} else {
			v.Cache = out.outcome
			if includeResult {
				v.Result = string(out.bytes)
			}
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
		if j.handle.State().Finished() {
			excess++
		}
	}
	if excess <= 0 {
		return
	}
	kept := s.all[:0]
	for _, j := range s.all {
		if excess > 0 && j.handle.State().Finished() {
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
