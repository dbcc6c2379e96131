package campaign

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"frontiersim/internal/experiments"
	"frontiersim/internal/machine"
)

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(Config{Jobs: 2, CodeVersion: "test"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func post(t *testing.T, url string, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func readAll(t *testing.T, r io.Reader) []byte {
	t.Helper()
	b, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRunTwiceIsCacheHit is the acceptance criterion in miniature: two
// identical submissions cost one simulation and return byte-identical
// bodies, the second marked as a cache hit.
func TestRunTwiceIsCacheHit(t *testing.T) {
	srv, ts := newTestServer(t)
	req := `{"experiment":"table2","machine":"frontier","seed":42,"quick":true}`

	r1 := post(t, ts.URL+"/v1/run", req)
	body1 := readAll(t, r1.Body)
	r1.Body.Close()
	if r1.StatusCode != http.StatusOK {
		t.Fatalf("first run: %d %s", r1.StatusCode, body1)
	}
	if got := r1.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("first run X-Cache = %q, want miss", got)
	}

	r2 := post(t, ts.URL+"/v1/run", req)
	body2 := readAll(t, r2.Body)
	r2.Body.Close()
	if got := r2.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("second run X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatal("identical submissions returned different bodies")
	}
	if r1.Header.Get("X-Result-Key") != r2.Header.Get("X-Result-Key") {
		t.Fatal("identical submissions got different result keys")
	}
	if s := srv.cache.Stats(); s.Misses != 1 || s.Hits != 1 {
		t.Fatalf("cache stats = %+v, want 1 miss + 1 hit", s)
	}

	// The body is exactly what the CLI would print for the same root
	// seed: the server derives the per-experiment seed the same way.
	spec := machine.Frontier()
	want, err := experiments.Capture("table2", experiments.Options{Quick: true, Seed: 42, Machine: &spec}, false)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body1, want) {
		t.Fatal("server body differs from direct Capture output")
	}
}

func TestRunDistinguishesSeeds(t *testing.T) {
	_, ts := newTestServer(t)
	get := func(seed int) *http.Response {
		return post(t, ts.URL+"/v1/run", fmt.Sprintf(`{"experiment":"sec54","seed":%d,"quick":true}`, seed))
	}
	r1 := get(1)
	defer r1.Body.Close()
	r2 := get(2)
	defer r2.Body.Close()
	if r1.Header.Get("X-Result-Key") == r2.Header.Get("X-Result-Key") {
		t.Fatal("different seeds produced the same result key")
	}
	if r2.Header.Get("X-Cache") != "miss" {
		t.Fatalf("different seed X-Cache = %q, want miss", r2.Header.Get("X-Cache"))
	}
}

func TestRunRejectsBadRequests(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct {
		name, body, wantErr string
	}{
		{"unknown experiment", `{"experiment":"fig99"}`, "unknown id"},
		{"missing experiment", `{"machine":"frontier"}`, "needs an experiment"},
		{"unknown machine", `{"experiment":"table2","machine":"roadrunner"}`, "unknown machine"},
		{"both machine and spec", `{"experiment":"table2","machine":"frontier","spec":{"name":"x"}}`, "pick one"},
		{"unknown request field", `{"experiment":"table2","turbo":true}`, "turbo"},
		{"invalid inline spec", `{"experiment":"table2","spec":{"name":"x","topology":{"kind":"mobius"}}}`, "mobius"},
	}
	for _, c := range cases {
		resp := post(t, ts.URL+"/v1/run", c.body)
		body := readAll(t, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", c.name, resp.StatusCode)
		}
		if !strings.Contains(string(body), c.wantErr) {
			t.Errorf("%s: body %q, want containing %q", c.name, body, c.wantErr)
		}
	}
	// A well-formed request whose machine cannot run the experiment is
	// the client's fault too, but only the simulation finds out: 422.
	// Asking twice shows the error was not cached as a result.
	unrunnable := []struct {
		name, body, wantErr string
	}{
		{"no resilience model", `{"experiment":"sec54","machine":"summit","seed":3,"quick":true}`, "no resilience parameters"},
		{"no scheduler", `{"experiment":"ext-year","machine":"summit","quick":true}`, "has no scheduler"},
		{"no storage plant", `{"experiment":"table2","machine":"titan","quick":true}`, "no storage parameters"},
		{"no scheduler for a campaign", `{"experiment":"ext-campaign","machine":"titan","quick":true}`, "has no scheduler"},
		{"no node model for table1", `{"experiment":"table1","machine":"summit","quick":true}`, "no Bard Peak node model"},
		{"no node model for table3", `{"experiment":"table3","machine":"summit","quick":true}`, "no Bard Peak node model"},
		{"no dragonfly to taper", `{"experiment":"ablation-taper","machine":"summit","quick":true}`, "not a dragonfly"},
		{"no dragonfly groups to place in", `{"experiment":"ablation-placement","machine":"summit","quick":true}`, "not a dragonfly"},
	}
	for _, c := range unrunnable {
		for try := 0; try < 2; try++ {
			resp := post(t, ts.URL+"/v1/run", c.body)
			body := readAll(t, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusUnprocessableEntity {
				t.Errorf("%s (try %d): status %d, want 422", c.name, try, resp.StatusCode)
			}
			if !strings.Contains(string(body), c.wantErr) {
				t.Errorf("%s (try %d): body %q, want containing %q", c.name, try, body, c.wantErr)
			}
		}
	}
	// GPCNeT clamps its 9,400 nodes to a smaller fabric instead.
	resp := post(t, ts.URL+"/v1/run", `{"experiment":"ablation-cc","machine":"summit","quick":true}`)
	body := readAll(t, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "CC off") {
		t.Errorf("ablation-cc on summit: status %d, body %q; want 200 with the table", resp.StatusCode, body)
	}
}

func TestAsyncJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t)
	resp := post(t, ts.URL+"/v1/jobs", `{"experiment":"table2","quick":true}`)
	var submitted struct {
		ID    string `json:"id"`
		State string `json:"state"`
		Key   string `json:"key"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&submitted); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || submitted.ID == "" || submitted.Key == "" {
		t.Fatalf("submit: %d %+v", resp.StatusCode, submitted)
	}

	// The events stream terminates when the job does and carries the
	// cache outcome in its progress messages.
	evResp, err := http.Get(ts.URL + "/v1/jobs/" + submitted.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer evResp.Body.Close()
	var lines []string
	sc := bufio.NewScanner(evResp.Body)
	for sc.Scan() {
		if line := sc.Text(); strings.HasPrefix(line, "data: ") {
			lines = append(lines, strings.TrimPrefix(line, "data: "))
		}
	}
	if len(lines) < 3 {
		t.Fatalf("event stream had %d events, want >= 3 (queued, running, done): %v", len(lines), lines)
	}
	var last struct {
		State string `json:"state"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if last.State != "done" {
		t.Fatalf("final event state = %q, want done", last.State)
	}

	// The job view now carries the result.
	jResp, err := http.Get(ts.URL + "/v1/jobs/" + submitted.ID)
	if err != nil {
		t.Fatal(err)
	}
	var view struct {
		State  string `json:"state"`
		Cache  string `json:"cache"`
		Result string `json:"result"`
	}
	if err := json.NewDecoder(jResp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	jResp.Body.Close()
	if view.State != "done" || view.Result == "" {
		t.Fatalf("job view = %+v, want done with a result", view)
	}
	if view.Cache != "miss" && view.Cache != "hit" && view.Cache != "coalesced" {
		t.Fatalf("job cache outcome = %q", view.Cache)
	}

	// Unknown job ids 404.
	nf, err := http.Get(ts.URL + "/v1/jobs/job-999999")
	if err != nil {
		t.Fatal(err)
	}
	nf.Body.Close()
	if nf.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: %d, want 404", nf.StatusCode)
	}
}

// TestSweep fans table1 across three node-count variants: three
// distinct machines must produce three distinct results, and repeating
// the sweep must be all cache hits.
func TestSweep(t *testing.T) {
	srv, ts := newTestServer(t)
	req := `{"experiment":"table1","quick":true,"sweep":"computeGroups: 60..74 step 7"}`

	var sweepResp struct {
		Count           int            `json:"count"`
		DistinctResults int            `json:"distinctResults"`
		Variants        []SweepVariant `json:"variants"`
	}
	resp := post(t, ts.URL+"/v1/sweep", req)
	body := readAll(t, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: %d %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &sweepResp); err != nil {
		t.Fatal(err)
	}
	if sweepResp.Count != 3 || len(sweepResp.Variants) != 3 {
		t.Fatalf("sweep returned %d variants, want 3: %s", sweepResp.Count, body)
	}
	if sweepResp.DistinctResults != 3 {
		t.Fatalf("sweep distinctResults = %d, want 3", sweepResp.DistinctResults)
	}
	keys := map[string]bool{}
	for i, v := range sweepResp.Variants {
		if v.Error != "" {
			t.Fatalf("variant %d (%v): %s", i, v.Value, v.Error)
		}
		if v.Result == "" || v.ResultSHA256 == "" {
			t.Fatalf("variant %d missing result", i)
		}
		keys[string(v.Key)] = true
	}
	if len(keys) != 3 {
		t.Fatalf("sweep produced %d distinct keys, want 3", len(keys))
	}

	// Second identical sweep: all three served from cache.
	resp2 := post(t, ts.URL+"/v1/sweep", req)
	body2 := readAll(t, resp2.Body)
	resp2.Body.Close()
	if err := json.Unmarshal(body2, &sweepResp); err != nil {
		t.Fatal(err)
	}
	for i, v := range sweepResp.Variants {
		if v.Cache != "hit" {
			t.Fatalf("repeat sweep variant %d cache = %q, want hit", i, v.Cache)
		}
	}
	if s := srv.cache.Stats(); s.Misses != 3 || s.Hits != 3 {
		t.Fatalf("cache stats after two sweeps = %+v, want 3 misses + 3 hits", s)
	}
}

func TestSweepPerVariantErrors(t *testing.T) {
	_, ts := newTestServer(t)
	// linkRate 0 fails Validate for that variant only; the other value
	// is fine.
	req := `{"experiment":"table2","quick":true,"vary":{"field":"linkRate","from":0,"to":2.5e10,"step":2.5e10}}`
	resp := post(t, ts.URL+"/v1/sweep", req)
	body := readAll(t, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: %d %s", resp.StatusCode, body)
	}
	var sweepResp struct {
		Variants []SweepVariant `json:"variants"`
	}
	if err := json.Unmarshal(body, &sweepResp); err != nil {
		t.Fatal(err)
	}
	if len(sweepResp.Variants) != 2 {
		t.Fatalf("got %d variants, want 2", len(sweepResp.Variants))
	}
	if sweepResp.Variants[0].Error == "" || !strings.Contains(sweepResp.Variants[0].Error, "link rate") {
		t.Fatalf("variant 0 error = %q, want link-rate validation failure", sweepResp.Variants[0].Error)
	}
	if sweepResp.Variants[1].Error != "" || sweepResp.Variants[1].Result == "" {
		t.Fatalf("variant 1 = %+v, want a clean result", sweepResp.Variants[1])
	}
}

func TestSweepCap(t *testing.T) {
	srv, err := New(Config{Jobs: 1, CodeVersion: "test", MaxSweepVariants: 4})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp := post(t, ts.URL+"/v1/sweep", `{"experiment":"table2","sweep":"linkRate: 1..100 step 1"}`)
	body := readAll(t, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "cap") {
		t.Fatalf("oversized sweep: %d %s, want 400 with cap error", resp.StatusCode, body)
	}
}

func TestInfoEndpoints(t *testing.T) {
	_, ts := newTestServer(t)
	for _, path := range []string{"/healthz", "/v1/experiments", "/v1/machines", "/v1/fields", "/v1/stats", "/v1/jobs"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body := readAll(t, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: %d %s", path, resp.StatusCode, body)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/fields?machine=frontier")
	if err != nil {
		t.Fatal(err)
	}
	var fields struct {
		Machine string   `json:"machine"`
		Fields  []string `json:"fields"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&fields); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	found := false
	for _, f := range fields.Fields {
		if f == "topology.linkRate" {
			found = true
		}
	}
	if !found {
		t.Fatalf("fields = %v, want topology.linkRate present", fields.Fields)
	}
}

// TestConcurrentIdenticalRuns pins the singleflight property end to
// end: a burst of identical HTTP submissions costs exactly one
// simulation.
func TestConcurrentIdenticalRuns(t *testing.T) {
	srv, ts := newTestServer(t)
	const n = 8
	req := `{"experiment":"sec54","seed":7,"quick":true}`
	bodies := make([][]byte, n)
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(req))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			bodies[i], err = io.ReadAll(resp.Body)
			if err == nil && resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("status %d: %s", resp.StatusCode, bodies[i])
			}
			errs <- err
		}(i)
	}
	deadline := time.After(60 * time.Second)
	for i := 0; i < n; i++ {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatal(err)
			}
		case <-deadline:
			t.Fatal("timed out waiting for concurrent runs")
		}
	}
	for i := 1; i < n; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("concurrent identical submissions diverged at %d", i)
		}
	}
	if s := srv.cache.Stats(); s.Misses != 1 {
		t.Fatalf("cache stats = %+v, want exactly 1 miss for %d identical submissions", s, n)
	}
}

// Request bodies are capped at maxBodyBytes: an oversized post to any
// decoding endpoint is refused with 413 and the usual JSON error instead
// of being buffered.
func TestOversizedBodyRejected(t *testing.T) {
	_, ts := newTestServer(t)
	body := `{"experiment":"table2","machine":"` + strings.Repeat("x", 2<<20) + `"}`
	for _, path := range []string{"/v1/run", "/v1/jobs", "/v1/sweep"} {
		resp := post(t, ts.URL+path, body)
		var got struct {
			Error string `json:"error"`
		}
		err := json.NewDecoder(resp.Body).Decode(&got)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s: status %d, want 413", path, resp.StatusCode)
		}
		if err != nil || !strings.Contains(got.Error, "too large") {
			t.Errorf("POST %s: error body %+v (decode err %v), want a JSON \"too large\" error", path, got, err)
		}
	}
}

// submitJob posts an async job and returns its id.
func submitJob(t *testing.T, c *http.Client, url, body string) string {
	t.Helper()
	resp, err := c.Post(url+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var submitted struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&submitted); err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit %s: status %d, decode err %v", body, resp.StatusCode, err)
	}
	return submitted.ID
}

// awaitJobState polls a job until it reaches state, failing the test if
// that takes past the deadline.
func awaitJobState(t *testing.T, c *http.Client, url, id, state string, deadline time.Time) {
	t.Helper()
	for {
		resp, err := c.Get(url + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var v struct {
			State string `json:"state"`
			Error string `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if v.State == state {
			return
		}
		if v.State == "failed" || time.Now().After(deadline) {
			t.Fatalf("job %s is %s (%s), want %s", id, v.State, v.Error, state)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// A sync run of a request whose async duplicate is queued behind a long
// job coalesces onto that duplicate, and all three finish. Only a
// simulating leader holds a slot, so no request can wait for a slot held
// by a request that is waiting on it.
func TestSyncRunBehindQueuedDuplicate(t *testing.T) {
	srv, err := New(Config{Jobs: 1, CodeVersion: "test"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	// A wedged handler would block Close forever: leave the server open
	// when the test failed rather than hang the package.
	t.Cleanup(func() {
		if !t.Failed() {
			ts.Close()
		}
	})
	c := &http.Client{Timeout: 60 * time.Second}
	deadline := time.Now().Add(60 * time.Second)

	long := submitJob(t, c, ts.URL, `{"experiment":"ablation-ppn","quick":true}`)
	awaitJobState(t, c, ts.URL, long, "running", deadline)
	req := `{"experiment":"table1","seed":7,"quick":true}`
	queued := submitJob(t, c, ts.URL, req)

	resp, err := c.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(req))
	if err != nil {
		t.Fatalf("sync run behind a queued duplicate: %v", err)
	}
	body := readAll(t, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sync run: %d %s", resp.StatusCode, body)
	}
	for _, id := range []string{long, queued} {
		awaitJobState(t, c, ts.URL, id, "done", deadline)
	}
}

// Config.Jobs bounds every simulation the server runs: a sweep beside
// an async job never has more than Jobs captures in flight.
func TestJobsBoundsEveryCapture(t *testing.T) {
	const jobs = 2
	srv, err := New(Config{Jobs: jobs, CodeVersion: "test"})
	if err != nil {
		t.Fatal(err)
	}
	var inFlight, peak atomic.Int64
	release := make(chan struct{})
	var releaseOnce sync.Once
	free := func() { releaseOnce.Do(func() { close(release) }) }
	srv.capture = func(id string, o experiments.Options, _ bool) ([]byte, error) {
		n := inFlight.Add(1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		<-release
		inFlight.Add(-1)
		return []byte(fmt.Sprintf("%s seed %d", id, o.Seed)), nil
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(free) // runs first: Close waits for blocked captures
	c := &http.Client{Timeout: 30 * time.Second}
	awaitInFlight := func(n int64) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); inFlight.Load() < n; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%d captures in flight, want %d", inFlight.Load(), n)
			}
		}
	}

	id := submitJob(t, c, ts.URL, `{"experiment":"table2","quick":true}`)
	awaitInFlight(1)
	type sweepResult struct {
		status int
		body   []byte
		err    error
	}
	swept := make(chan sweepResult, 1)
	go func() {
		resp, err := c.Post(ts.URL+"/v1/sweep", "application/json",
			strings.NewReader(`{"experiment":"table1","quick":true,"sweep":"computeGroups: 60..74 step 7"}`))
		if err != nil {
			swept <- sweepResult{err: err}
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		swept <- sweepResult{resp.StatusCode, b, err}
	}()
	awaitInFlight(jobs)
	// Give any capture beyond the bound time to start before releasing.
	time.Sleep(100 * time.Millisecond)
	free()

	r := <-swept
	if r.err != nil || r.status != http.StatusOK {
		t.Fatalf("sweep: %d %s (%v)", r.status, r.body, r.err)
	}
	var sw struct {
		Variants []SweepVariant `json:"variants"`
	}
	if err := json.Unmarshal(r.body, &sw); err != nil {
		t.Fatal(err)
	}
	for _, v := range sw.Variants {
		if v.Error != "" || v.Cache != "miss" {
			t.Fatalf("variant %v: cache %q, error %q; want a clean miss", v.Value, v.Cache, v.Error)
		}
	}
	awaitJobState(t, c, ts.URL, id, "done", time.Now().Add(10*time.Second))
	if got := peak.Load(); got > jobs {
		t.Fatalf("%d captures ran at once, want at most Jobs = %d", got, jobs)
	}
}

// A simulation that panics is contained: the synchronous request gets a
// 500 and the async job fails, neither result is cached, an identical
// second request gets its answer, and the server stays up.
func TestPanickingCaptureIsContained(t *testing.T) {
	srv, ts := newTestServer(t)
	var calls sync.Map // per seed: the first capture panics
	srv.capture = func(id string, o experiments.Options, _ bool) ([]byte, error) {
		if _, seen := calls.LoadOrStore(o.Seed, true); !seen {
			panic("capture exploded")
		}
		return []byte(fmt.Sprintf("%s seed %d", id, o.Seed)), nil
	}
	c := &http.Client{Timeout: 30 * time.Second}
	run := `{"experiment":"table2","quick":true,"seed":1}`
	for i, want := range []int{http.StatusInternalServerError, http.StatusOK} {
		resp := post(t, ts.URL+"/v1/run", run)
		body := readAll(t, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("run %d: %d %s, want %d", i, resp.StatusCode, body, want)
		}
		if i == 0 && !strings.Contains(string(body), "capture exploded") {
			t.Errorf("run 0 body %s does not name the panic", body)
		}
	}

	job := `{"experiment":"table2","quick":true,"seed":2}`
	id := submitJob(t, c, ts.URL, job)
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		j, ok := srv.jobs.get(id)
		if ok && j.finished() {
			if j.err == nil {
				t.Fatal("job whose capture panicked finished without an error")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job whose capture panicked never finished")
		}
	}
	awaitJobState(t, c, ts.URL, submitJob(t, c, ts.URL, job), "done", time.Now().Add(10*time.Second))
	if s := srv.cache.Stats(); s.Entries != 2 {
		t.Errorf("cache holds %d entries, want the 2 successful results", s.Entries)
	}
}
