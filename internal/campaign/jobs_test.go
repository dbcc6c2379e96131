package campaign

import (
	"encoding/json"
	"errors"
	"net/http"
	"slices"
	"strings"
	"testing"

	"frontiersim/internal/campaign/cache"
)

// wait blocks until j has finished and returns its full event history.
func wait(j *job) []progressEvent {
	cursor, finished := 0, false
	for !finished {
		_, cursor, finished = j.next(cursor)
	}
	evs, _, _ := j.next(0)
	return evs
}

// states lists the lifecycle phase of each event.
func states(evs []progressEvent) []jobState {
	var out []jobState
	for _, ev := range evs {
		out = append(out, ev.State)
	}
	return out
}

// A job is queued until its first progress report, running until its
// compute returns, then done with the result, the cache outcome and a
// run duration.
func TestJobLifecycle(t *testing.T) {
	j := newJob("job-1", resolved{exp: "table2"})
	if v := j.view(false); v.State != jobQueued || v.DurationMS != 0 {
		t.Fatalf("new job view = %+v, want queued with no duration", v)
	}
	reported, release := make(chan struct{}), make(chan struct{})
	go j.run(func(progress func(string)) ([]byte, cache.Outcome, error) {
		progress("simulating")
		close(reported)
		<-release
		return []byte("table"), cache.Miss, nil
	})
	<-reported
	if st := j.view(false).State; st != jobRunning {
		t.Fatalf("state after first progress = %v, want running", st)
	}
	close(release)
	evs := wait(j)
	want := []jobState{jobQueued, jobRunning, jobRunning, jobRunning, jobDone}
	if got := states(evs); !slices.Equal(got, want) {
		t.Fatalf("event states = %v, want %v", got, want)
	}
	var msgs []string
	for _, ev := range evs {
		if ev.Message != "" {
			msgs = append(msgs, ev.Message)
		}
	}
	if want := []string{"simulating", "cache miss"}; !slices.Equal(msgs, want) {
		t.Fatalf("messages = %v, want %v", msgs, want)
	}
	v := j.view(true)
	if v.State != jobDone || v.Cache != cache.Miss || v.Result != "table" || v.Error != "" || v.DurationMS <= 0 {
		t.Fatalf("finished view = %+v, want done/miss/table with a duration", v)
	}
	if v := j.view(false); v.Result != "" {
		t.Fatalf("view without result carries %q", v.Result)
	}
}

// A failing job reports failed with its error, in its view and its
// final event, and carries no cache outcome.
func TestJobFailure(t *testing.T) {
	j := newJob("bad", resolved{})
	j.run(func(progress func(string)) ([]byte, cache.Outcome, error) {
		progress("simulating")
		return nil, cache.Miss, errors.New("boom")
	})
	evs := wait(j)
	if last := evs[len(evs)-1]; last.State != jobFailed || last.Message != "boom" {
		t.Fatalf("final event = %+v, want failed/boom", last)
	}
	if v := j.view(true); v.State != jobFailed || v.Error != "boom" || v.Cache != "" || v.Result != "" {
		t.Fatalf("view = %+v, want failed with error boom only", v)
	}
}

// The event cursor works like the SSE endpoint uses it: a live
// subscriber blocks for new events, the stream ends when the job does,
// and a subscriber arriving after completion replays the full history.
func TestJobEventsReplay(t *testing.T) {
	j := newJob("streamer", resolved{})
	step := make(chan struct{})
	go j.run(func(progress func(string)) ([]byte, cache.Outcome, error) {
		progress("stage 1")
		<-step
		progress("stage 2")
		return nil, cache.Miss, nil
	})
	var live []progressEvent
	cursor := 0
	for len(live) == 0 || live[len(live)-1].Message != "stage 1" {
		evs, next, finished := j.next(cursor)
		if finished {
			t.Fatal("job finished before stage 2 was released")
		}
		live, cursor = append(live, evs...), next
	}
	close(step)
	for finished := false; !finished; {
		var evs []progressEvent
		evs, cursor, finished = j.next(cursor)
		live = append(live, evs...)
	}
	if last := live[len(live)-1]; last.State != jobDone {
		t.Fatalf("last streamed event = %+v, want done", last)
	}
	late, _, finished := j.next(0)
	if !finished || !slices.Equal(late, live) {
		t.Fatalf("late replay (finished=%v) = %v, want the live stream %v", finished, late, live)
	}
}

// Progress reported after the job finished records nothing.
func TestJobProgressAfterFinishIsNoop(t *testing.T) {
	j := newJob("leaky", resolved{})
	var leaked func(string)
	j.run(func(progress func(string)) ([]byte, cache.Outcome, error) {
		leaked = progress
		return nil, cache.Hit, nil
	})
	before := len(wait(j))
	leaked("too late")
	if after := len(wait(j)); after != before {
		t.Fatalf("progress after finish recorded an event (%d -> %d)", before, after)
	}
}

// The job store keeps every queued and running job and at most its bound
// of finished ones, evicting the oldest finished job first.
func TestJobStoreEvictsOldestFinished(t *testing.T) {
	finishedJob := func(id string) *job {
		j := newJob(id, resolved{})
		j.run(func(func(string)) ([]byte, cache.Outcome, error) { return []byte(id), cache.Miss, nil })
		return j
	}
	running := newJob("running", resolved{})
	running.progress("simulating")

	s := newJobStore(2)
	s.add(running)
	s.add(newJob("queued", resolved{}))
	for _, id := range []string{"a", "b", "c", "d"} {
		s.add(finishedJob(id))
	}
	var ids []string
	for _, j := range s.list() {
		ids = append(ids, j.ID)
	}
	if want := []string{"running", "queued", "c", "d"}; !slices.Equal(ids, want) {
		t.Fatalf("store holds %v, want %v", ids, want)
	}
	for _, id := range []string{"a", "b"} {
		if _, ok := s.get(id); ok {
			t.Errorf("evicted job %s still resolves", id)
		}
	}
	for _, id := range []string{"running", "queued", "c", "d"} {
		if _, ok := s.get(id); !ok {
			t.Errorf("kept job %s does not resolve", id)
		}
	}
}

// GET /v1/jobs/{id} for an evicted job is a 404.
func TestEvictedJobIs404(t *testing.T) {
	srv, ts := newTestServer(t)
	srv.jobs = newJobStore(1)
	var ids []string
	for i := 0; i < 3; i++ {
		resp := post(t, ts.URL+"/v1/jobs", `{"experiment":"table2","quick":true}`)
		var submitted struct {
			ID string `json:"id"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&submitted); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		j, ok := srv.jobs.get(submitted.ID)
		if !ok {
			t.Fatalf("job %s not registered", submitted.ID)
		}
		wait(j)
		ids = append(ids, submitted.ID)
	}
	// The third submission found at least two finished jobs, so the
	// first is gone; the newest is never the one evicted.
	for _, c := range []struct {
		id   string
		want int
	}{{ids[0], http.StatusNotFound}, {ids[2], http.StatusOK}} {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + c.id)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("GET %s: %d, want %d", c.id, resp.StatusCode, c.want)
		}
	}
}

// A panic in a job's compute, on the job's own goroutine, fails the job
// with the panic as its error instead of killing the process.
func TestJobRunRecoversPanic(t *testing.T) {
	j := newJob("job-9", resolved{exp: "table2"})
	go j.run(func(progress func(string)) ([]byte, cache.Outcome, error) {
		progress("simulating")
		panic("compute exploded")
	})
	evs := wait(j)
	last := evs[len(evs)-1]
	if last.State != jobFailed || !strings.Contains(last.Message, "compute exploded") {
		t.Fatalf("final event = %+v, want failed naming the panic", last)
	}
}
