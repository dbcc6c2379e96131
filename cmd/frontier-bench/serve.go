package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"frontiersim/internal/campaign"
	"frontiersim/internal/machine"
	"frontiersim/internal/units"
)

// The serve workload: two users share one frontier-serve. Connection 1
// repeats questions already answered (result-cache hits); connection 2
// asks fresh what-ifs (misses that simulate). Both are open loops, timed
// from when each request was due.
var (
	// hotIDs are the repeat asks, filled once at set-up (quick, seed 42).
	hotIDs = []string{"fig6", "table5", "ext-year", "ext-llm", "table1", "ext-operations", "ablation-routing", "table6"}
	// whatIfIDs are the fresh asks, each with a seed never asked before.
	whatIfIDs = []string{"fig6", "table5", "ablation-routing", "ext-year", "ext-operations", "ext-campaign", "ext-llm", "table1", "table6", "sec54"}
)

const (
	hitRate    = 40.0 // repeat asks per second
	whatIfRate = 3.0  // fresh what-ifs per second, rounded up to whole rounds of whatIfIDs
	pollEvery  = 10 * time.Millisecond
	hotSeed    = 42
	// setupStarts is how many times a run starts a server and fills its
	// hot set; setup_s is their median and the last one takes the traffic.
	setupStarts = 5
	// drainLimit bounds how long after the last due what-if the run waits
	// for outstanding jobs before counting them as failed.
	drainLimit = 60 * time.Second
	// requestIDHeader carries the load generator's request id, so a traced
	// run's client and server spans of one request share it.
	requestIDHeader = "X-Bench-Request"
)

// jobRequest is the body of POST /v1/run and POST /v1/jobs.
type jobRequest struct {
	Machine    string          `json:"machine,omitempty"`
	Spec       json.RawMessage `json:"spec,omitempty"`
	Experiment string          `json:"experiment"`
	Seed       int64           `json:"seed"`
	Quick      bool            `json:"quick"`
}

func hotBody(i int) []byte {
	b, _ := json.Marshal(jobRequest{Machine: "frontier", Experiment: hotIDs[i], Seed: hotSeed, Quick: true})
	return b
}

// ask is one scheduled request.
type ask struct {
	due  time.Duration // offset from the start of traffic
	hot  int           // repeat asks: index into hotIDs
	exp  string        // what-ifs: experiment id
	body []byte        // what-ifs: request body
}

type schedule struct{ hits, whatIfs []ask }

// poisson returns n arrival offsets in [0, d): a Poisson process
// conditioned on its count, i.e. n sorted uniform draws. Fixing the count
// gives every seed the same load while the gaps stay Poisson-like.
func poisson(rng *rand.Rand, n int, d time.Duration) []time.Duration {
	at := make([]time.Duration, n)
	for i := range at {
		at[i] = time.Duration(rng.Int63n(int64(d)))
	}
	slices.Sort(at)
	return at
}

// newSchedule draws a run's traffic from its seed. Repeat asks arrive as a
// Poisson process. What-ifs are paced evenly instead: each simulates for
// ~0.2 s on a 2-worker pool, so Poisson bursts queued them and moved their
// median turnaround 30% between runs, against 10% paced. They cycle
// through whatIfIDs in shuffled rounds, so every experiment is asked
// equally often, and every fourth carries an inline Frontier spec with a
// scaled link rate.
func newSchedule(seed int64, seconds float64) (schedule, error) {
	rng := rand.New(rand.NewSource(seed))
	d := time.Duration(seconds * float64(time.Second))
	var s schedule
	for _, at := range poisson(rng, int(math.Round(hitRate*seconds)), d) {
		s.hits = append(s.hits, ask{due: at, hot: rng.Intn(len(hotIDs))})
	}
	rounds := int(math.Ceil(whatIfRate * seconds / float64(len(whatIfIDs))))
	var kinds []string
	for r := 0; r < rounds; r++ {
		for _, i := range rng.Perm(len(whatIfIDs)) {
			kinds = append(kinds, whatIfIDs[i])
		}
	}
	seen := map[int64]bool{hotSeed: true}
	for i, kind := range kinds {
		at := time.Duration(int64(i) * int64(d) / int64(len(kinds)))
		req := jobRequest{Machine: "frontier", Experiment: kind, Quick: true}
		req.Seed = rng.Int63n(1 << 31)
		for seen[req.Seed] {
			req.Seed = rng.Int63n(1 << 31)
		}
		seen[req.Seed] = true
		if i%4 == 3 {
			spec := machine.Frontier()
			spec.Topology.LinkRate *= units.BytesPerSecond(0.5 + rng.Float64())
			b, err := machine.Dump(spec)
			if err != nil {
				return s, err
			}
			req.Machine, req.Spec = "", b
		}
		body, err := json.Marshal(req)
		if err != nil {
			return s, err
		}
		s.whatIfs = append(s.whatIfs, ask{due: at, exp: req.Experiment, body: body})
	}
	return s, nil
}

// client is one connection to the server.
type client struct {
	base string
	hc   *http.Client
}

func newConns(base string) [2]*client {
	var cs [2]*client
	for i := range cs {
		cs[i] = &client{base: base, hc: &http.Client{
			Timeout:   2 * time.Minute,
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		}}
	}
	return cs
}

func closeConns(cs [2]*client) {
	for _, c := range cs {
		c.hc.CloseIdleConnections()
	}
}

func (c *client) do(ctx context.Context, method, path, id string, body []byte) (int, http.Header, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	req.Header.Set(requestIDHeader, id)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, b, err
}

// fill asks every hot key once over both connections; each must be a miss.
// It returns the bodies and one error (or nil) per key, indexed like hotIDs.
func fill(ctx context.Context, conns [2]*client) ([][]byte, []error) {
	bodies := make([][]byte, len(hotIDs))
	errs := make([]error, len(hotIDs))
	var wg sync.WaitGroup
	for ci, c := range conns {
		wg.Add(1)
		go func(ci int, c *client) {
			defer wg.Done()
			for i := ci; i < len(hotIDs); i += len(conns) {
				status, hdr, b, err := c.do(ctx, http.MethodPost, "/v1/run", "fill-"+strconv.Itoa(i), hotBody(i))
				switch {
				case err != nil:
					errs[i] = fmt.Errorf("fill %s: %w", hotIDs[i], err)
				case status != http.StatusOK:
					errs[i] = fmt.Errorf("fill %s: status %d: %s", hotIDs[i], status, b)
				case hdr.Get("X-Cache") != "miss":
					errs[i] = fmt.Errorf("fill %s: X-Cache %q, want miss", hotIDs[i], hdr.Get("X-Cache"))
				}
				bodies[i] = b
			}
		}(ci, c)
	}
	wg.Wait()
	return bodies, errs
}

// sameBody fails a fill whose bytes differ from the reference fill's.
func sameBody(i int, got, want []byte) error {
	if !bytes.Equal(got, want) {
		return fmt.Errorf("fill %s: body differs from the first server's", hotIDs[i])
	}
	return nil
}

// traffic is what one run of the schedule measured; latencies are seconds
// from when each request was due.
type traffic struct {
	hitLat, missLat, lag []float64
	errs                 []error              // one per request, nil when it passed its checks
	jobDur               map[string][]float64 // server-side run seconds of each what-if, by experiment
	makespan             float64              // first due to last answer
}

func sleepUntil(ctx context.Context, t time.Time) error {
	d := time.Until(t)
	if d <= 0 {
		return ctx.Err()
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// drive plays the schedule: repeat asks on connection 1, what-ifs on
// connection 2. hot holds the fill bodies every hit must reproduce.
func drive(ctx context.Context, conns [2]*client, s schedule, hot [][]byte, tr *tracer) traffic {
	t0 := time.Now()
	var hits, whatIfs traffic
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); hits = conns[0].repeatAsks(ctx, t0, s.hits, hot, tr) }()
	go func() { defer wg.Done(); whatIfs = conns[1].freshAsks(ctx, t0, s.whatIfs, tr) }()
	wg.Wait()
	whatIfs.hitLat = hits.hitLat
	whatIfs.lag = append(whatIfs.lag, hits.lag...)
	whatIfs.errs = append(whatIfs.errs, hits.errs...)
	whatIfs.makespan = max(whatIfs.makespan, hits.makespan)
	return whatIfs
}

func (c *client) repeatAsks(ctx context.Context, t0 time.Time, asks []ask, hot [][]byte, tr *tracer) traffic {
	var t traffic
	for i, a := range asks {
		due := t0.Add(a.due)
		if err := sleepUntil(ctx, due); err != nil {
			t.errs = append(t.errs, err)
			return t
		}
		sent := time.Now()
		id := "hit-" + strconv.Itoa(i)
		status, hdr, body, err := c.do(ctx, http.MethodPost, "/v1/run", id, hotBody(a.hot))
		end := time.Now()
		tr.add("client hit", hotIDs[a.hot], due, end, map[string]any{"id": id})
		switch {
		case err != nil:
		case status != http.StatusOK:
			err = fmt.Errorf("%s: status %d", id, status)
		case hdr.Get("X-Cache") != "hit":
			err = fmt.Errorf("%s: X-Cache %q, want hit", id, hdr.Get("X-Cache"))
		case !bytes.Equal(body, hot[a.hot]):
			err = fmt.Errorf("%s: body differs from the fill of %s", id, hotIDs[a.hot])
		default:
			t.hitLat = append(t.hitLat, end.Sub(due).Seconds())
		}
		t.errs = append(t.errs, err)
		t.lag = append(t.lag, sent.Sub(due).Seconds())
		t.makespan = end.Sub(t0).Seconds()
	}
	return t
}

// jobView is the part of GET /v1/jobs/{id} the load generator reads.
type jobView struct {
	ID         string  `json:"id"`
	State      string  `json:"state"`
	Cache      string  `json:"cache"`
	DurationMS float64 `json:"durationMs"`
	Error      string  `json:"error"`
	Result     string  `json:"result"`
}

// freshAsks submits what-ifs as they fall due and, between submissions,
// polls each outstanding job every pollEvery until it is done. One
// goroutine drives it all, so it uses one connection.
func (c *client) freshAsks(ctx context.Context, t0 time.Time, asks []ask, tr *tracer) traffic {
	t := traffic{jobDur: map[string][]float64{}}
	type pending struct {
		ask  ask
		id   string // request id
		job  string // server job id
		next time.Time
	}
	var out []*pending
	next := 0
	var deadline time.Time
	if len(asks) > 0 {
		deadline = t0.Add(asks[len(asks)-1].due + drainLimit)
	}
	for next < len(asks) || len(out) > 0 {
		if ctx.Err() != nil || time.Now().After(deadline) {
			for range out {
				t.errs = append(t.errs, fmt.Errorf("what-if not done %v after its due time", drainLimit))
			}
			for range asks[next:] {
				t.errs = append(t.errs, errors.New("what-if never submitted"))
			}
			return t
		}
		// The earlier of the next submission and the next poll goes first.
		poll := -1
		for i, p := range out {
			if poll < 0 || p.next.Before(out[poll].next) {
				poll = i
			}
		}
		submit := next < len(asks) && (poll < 0 || !out[poll].next.Before(t0.Add(asks[next].due)))
		if submit {
			a := asks[next]
			next++
			due := t0.Add(a.due)
			if sleepUntil(ctx, due) != nil {
				continue
			}
			id := "whatif-" + strconv.Itoa(next)
			t.lag = append(t.lag, time.Since(due).Seconds())
			status, _, body, err := c.do(ctx, http.MethodPost, "/v1/jobs", id, a.body)
			var v jobView
			if err == nil && status != http.StatusAccepted {
				err = fmt.Errorf("%s: submit status %d: %s", id, status, body)
			}
			if err == nil {
				err = json.Unmarshal(body, &v)
			}
			if err != nil {
				t.errs = append(t.errs, err)
				continue
			}
			out = append(out, &pending{ask: a, id: id, job: v.ID, next: time.Now().Add(pollEvery)})
			continue
		}
		p := out[poll]
		if sleepUntil(ctx, p.next) != nil {
			continue
		}
		status, _, body, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+p.job, p.id, nil)
		end := time.Now()
		var v jobView
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("%s: poll status %d", p.id, status)
		}
		if err == nil {
			err = json.Unmarshal(body, &v)
		}
		switch {
		case err == nil && v.State != "done" && v.State != "failed":
			p.next = end.Add(pollEvery)
			continue
		case err != nil:
		case v.State == "failed":
			err = fmt.Errorf("%s (%s): job failed: %s", p.id, p.ask.exp, v.Error)
		case v.Cache != "miss" || v.Result == "":
			err = fmt.Errorf("%s (%s): cache %q with %d result bytes, want a computed miss", p.id, p.ask.exp, v.Cache, len(v.Result))
		default:
			due := t0.Add(p.ask.due)
			t.missLat = append(t.missLat, end.Sub(due).Seconds())
			t.jobDur[p.ask.exp] = append(t.jobDur[p.ask.exp], v.DurationMS/1000)
			t.makespan = end.Sub(t0).Seconds()
			tr.add("client what-if", p.ask.exp, due, end, map[string]any{"id": p.id, "job": p.job})
		}
		t.errs = append(t.errs, err)
		out = append(out[:poll], out[poll+1:]...)
	}
	return t
}

// cacheStats is the result-cache section of GET /v1/stats.
type cacheStats struct {
	Hits      int   `json:"hits"`
	Misses    int   `json:"misses"`
	Coalesced int   `json:"coalesced"`
	Bytes     int64 `json:"bytes"`
}

// checkStats reads the server's result-cache counters and checks they
// account for exactly the requests sent: every repeat ask a hit, every
// fill and what-if a miss.
func checkStats(ctx context.Context, c *client, s schedule) (cacheStats, error) {
	status, _, body, err := c.do(ctx, http.MethodGet, "/v1/stats", "stats", nil)
	if err != nil {
		return cacheStats{}, err
	}
	var v struct {
		Cache cacheStats `json:"cache"`
	}
	if status != http.StatusOK {
		return v.Cache, fmt.Errorf("stats: status %d", status)
	}
	if err := json.Unmarshal(body, &v); err != nil {
		return v.Cache, fmt.Errorf("stats: %w", err)
	}
	want := cacheStats{Hits: len(s.hits), Misses: len(hotIDs) + len(s.whatIfs), Bytes: v.Cache.Bytes}
	if v.Cache != want {
		return v.Cache, fmt.Errorf("stats: cache hits/misses/coalesced %d/%d/%d, want %d/%d/0",
			v.Cache.Hits, v.Cache.Misses, v.Cache.Coalesced, want.Hits, want.Misses)
	}
	return v.Cache, nil
}

// serverProc is a running frontier-serve process.
type serverProc struct {
	cmd  *exec.Cmd
	url  string
	done chan struct{} // closed when its stderr reaches EOF
	// Written by the stderr reader; read only after done is closed.
	live meanLive
	last string
}

// startServer execs frontier-serve on a free port and returns once
// /healthz answers 200.
func startServer(ctx context.Context, bin string, jobs int) (*serverProc, error) {
	cmd := exec.CommandContext(ctx, bin, "-addr", "127.0.0.1:0", "-jobs", strconv.Itoa(jobs))
	cmd.Env = append(os.Environ(), "GODEBUG=gctrace=1")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("frontier-serve: %w", err)
	}
	p := &serverProc{cmd: cmd, done: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(p.done)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if p.live.add(line) {
				continue
			}
			if _, rest, ok := strings.Cut(line, "listening on http://"); ok {
				a, _, _ := strings.Cut(rest, " ")
				select {
				case addr <- a:
				default:
				}
			}
			p.last = line
		}
	}()
	select {
	case a := <-addr:
		p.url = "http://" + a
	case <-p.done:
		cmd.Wait()
		return nil, fmt.Errorf("frontier-serve exited before listening: %s", p.last)
	case <-time.After(30 * time.Second):
		p.stop()
		return nil, errors.New("frontier-serve did not listen within 30s")
	}
	hc := &http.Client{Timeout: time.Second}
	for start := time.Now(); ; {
		resp, err := hc.Get(p.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				hc.CloseIdleConnections()
				return p, nil
			}
		}
		if time.Since(start) > 30*time.Second || ctx.Err() != nil {
			p.stop()
			return nil, fmt.Errorf("frontier-serve: /healthz not ready: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop shuts the server down gracefully (SIGINT), as a user would, and
// returns its whole-life CPU seconds and mean live heap.
func (p *serverProc) stop() (cpu, liveMB float64, err error) {
	p.cmd.Process.Signal(os.Interrupt)
	select {
	case <-p.done:
	case <-time.After(20 * time.Second):
		p.cmd.Process.Kill()
		<-p.done
	}
	err = p.cmd.Wait()
	if ps := p.cmd.ProcessState; ps != nil {
		cpu = (ps.UserTime() + ps.SystemTime()).Seconds()
	}
	if err != nil {
		err = fmt.Errorf("frontier-serve shutdown: %w: %s", err, p.last)
	}
	return cpu, p.live.mb(), err
}

// measureServe is the untraced serve run: setupStarts server starts, each
// filling the hot set, then the schedule's traffic against the last one.
func measureServe(ctx context.Context, e env, o *outcome) error {
	s, err := newSchedule(e.seed, e.seconds)
	if err != nil {
		return err
	}
	var setup []float64
	var ref [][]byte
	var p *serverProc
	for i := 0; i < setupStarts; i++ {
		if p != nil {
			_, _, err := p.stop()
			o.op(err)
		}
		start := time.Now()
		if p, err = startServer(ctx, e.serve, e.nproc); err != nil {
			return err
		}
		conns := newConns(p.url)
		bodies, errs := fill(ctx, conns)
		setup = append(setup, time.Since(start).Seconds())
		closeConns(conns)
		if ref == nil {
			ref = bodies
		}
		for k := range errs {
			o.opChecks(errs[k], sameBody(k, bodies[k], ref[k]))
		}
	}
	conns := newConns(p.url)
	t := drive(ctx, conns, s, ref, nil)
	_, statsErr := checkStats(ctx, conns[0], s)
	closeConns(conns)
	cpu, liveMB, stopErr := p.stop()
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, err := range t.errs {
		o.op(err)
	}
	o.op(statsErr)
	o.op(stopErr)

	o.set("setup_s", median(setup), len(setup))
	o.set("wall_s", median(t.missLat), len(t.missLat))
	o.set("cpu_s", cpu, 1)
	o.set("live_heap_mb", liveMB, 1)
	all := append(append([]float64(nil), t.hitLat...), t.missLat...)
	o.set("latency_p50_ms", 1000*median(all), len(all))
	noteLatencies(o, t)
	return nil
}

// noteLatencies records the client-side diagnostics: each request class at
// its median and at the highest percentile with ten samples beyond it.
func noteLatencies(o *outcome, t traffic) {
	tail := func(name string, xs []float64, scale float64, unit string) {
		o.note(name+"_p50_"+unit, scale*median(xs), len(xs))
		if pm := tailPerMille(len(xs)); pm > 500 {
			p := strconv.FormatFloat(float64(pm)/10, 'f', -1, 64)
			o.note(name+"_p"+p+"_"+unit, scale*quantile(xs, float64(pm)/1000), len(xs))
		}
	}
	tail("hit", t.hitLat, 1000, "ms")
	tail("miss", t.missLat, 1, "s")
	tail("lag", t.lag, 1000, "ms")
}

// inProcServer is the campaign server the traced run hosts itself, built
// as frontier-serve builds it, with every request timed.
type inProcServer struct {
	hs   *http.Server
	url  string
	done chan error
}

func startInProcess(tr *tracer, jobs int) (*inProcServer, error) {
	srv, err := campaign.New(campaign.Config{Jobs: jobs, CacheBytes: 256 << 20})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &inProcServer{
		hs:   &http.Server{Handler: tr.wrap(srv.Handler()), ReadHeaderTimeout: 10 * time.Second},
		url:  "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

func (s *inProcServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serveErr := <-s.done; !errors.Is(serveErr, http.ErrServerClosed) {
		err = errors.Join(err, serveErr)
	}
	return err
}

// tracedServe is the per-layer serve run: frontier-serve fills the hot set
// untraced as the reference, then an in-process server under the profiler
// fills it again (its bodies must match) and takes the schedule's traffic.
func tracedServe(ctx context.Context, e env, o *outcome, tr *tracer) (windowStats, error) {
	s, err := newSchedule(e.seed, e.seconds)
	if err != nil {
		return windowStats{}, err
	}
	start := time.Now()
	p, err := startServer(ctx, e.serve, e.nproc)
	if err != nil {
		return windowStats{}, err
	}
	conns := newConns(p.url)
	ref, errs := fill(ctx, conns)
	untraced := time.Since(start).Seconds()
	closeConns(conns)
	_, _, stopErr := p.stop()
	o.op(stopErr)
	for _, err := range errs {
		o.op(err)
	}

	win, err := openWindow(e.profile)
	if err != nil {
		return windowStats{}, err
	}
	start = time.Now()
	srv, err := startInProcess(tr, e.nproc)
	if err != nil {
		win.close(ctx)
		return windowStats{}, err
	}
	conns = newConns(srv.url)
	bodies, errs := fill(ctx, conns)
	traced := time.Since(start).Seconds()
	for k := range errs {
		o.opChecks(errs[k], sameBody(k, bodies[k], ref[k]))
	}
	t := drive(ctx, conns, s, ref, tr)
	cache, statsErr := checkStats(ctx, conns[0], s)
	closeConns(conns)
	stopErr = srv.stop()
	stats, err := win.close(ctx)
	if err != nil {
		return stats, err
	}
	if err := ctx.Err(); err != nil {
		return stats, err
	}
	for _, err := range t.errs {
		o.op(err)
	}
	o.op(statsErr)
	o.op(stopErr)
	o.op(stats.foldCoverage())

	stats.layerMetrics(o, 1)
	o.set("campaign.result_hits", float64(cache.Hits), 1)
	o.set("campaign.result_misses", float64(cache.Misses), 1)
	o.set("campaign.result_coalesced", float64(cache.Coalesced), 1)
	o.set("campaign.result_mb", float64(cache.Bytes)/(1<<20), 1)
	tr.mu.Lock()
	o.set("campaign.hit_handler_p50_ms", 1000*median(tr.hitHandler), len(tr.hitHandler))
	tr.mu.Unlock()
	o.set("loadgen.lag_p99_ms", 1000*quantile(t.lag, 0.99), len(t.lag))
	o.set("trace.overhead_frac", traced/untraced-1, 1)
	work, longest, n := 0.0, 0.0, 0
	for _, id := range expIDs {
		if d := t.jobDur[id]; len(d) > 0 {
			o.set("exp."+id+"_s", median(d), len(d))
		}
	}
	for _, ds := range t.jobDur {
		for _, d := range ds {
			work += d
			longest = max(longest, d)
			n++
		}
	}
	o.set("harness.makespan_s", t.makespan, 1)
	o.set("harness.work_s", work, n)
	o.set("harness.critical_s", longest, n)
	o.set("harness.idle_frac", 1-work/(t.makespan*float64(e.nproc)), 1)
	noteLatencies(o, t)
	return stats, nil
}
