package campaign

import (
	"context"
	"encoding/json"
	"net/http"
	"slices"
	"testing"

	"frontiersim/internal/harness"
)

// The job store keeps every queued and running job and at most its bound
// of finished ones, evicting the oldest finished job first.
func TestJobStoreEvictsOldestFinished(t *testing.T) {
	// One worker for jobs that never finish during the test (one running,
	// one queued behind it), one for jobs that finish at once.
	stuck, fast := harness.NewPool(1), harness.NewPool(1)
	release := make(chan struct{})
	defer close(release)
	submit := func(pool *harness.Pool, id string, finish bool) *job {
		j := &job{ID: id}
		j.handle = harness.Submit(pool, context.Background(), id,
			func(context.Context, func(string)) (jobOutput, error) {
				if !finish {
					<-release
				}
				return jobOutput{bytes: []byte(id)}, nil
			})
		if finish {
			<-j.handle.Done()
		}
		return j
	}

	s := newJobStore(2)
	s.add(submit(stuck, "running", false))
	s.add(submit(stuck, "queued", false))
	for _, id := range []string{"a", "b", "c", "d"} {
		s.add(submit(fast, id, true))
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
		<-j.handle.Done()
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
