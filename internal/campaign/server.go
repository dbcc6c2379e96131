// Package campaign turns frontier-sim into shared infrastructure: a
// long-running HTTP/JSON service that accepts (machine spec | built-in
// name, seed, experiment) jobs, runs at most Config.Jobs simulations at
// once, and memoizes every result in a content-addressed cache. Because
// PRs 1–5 made each result a pure function of (canonical spec JSON, root
// seed, experiment id, code version), N users submitting the same what-if
// question cost one simulation — concurrent duplicates coalesce onto a
// single in-flight run, later duplicates are cache hits with
// byte-identical bodies. The sweep endpoint fans a range of spec
// variants through the same bounded compute path for campaign-style
// studies.
package campaign

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"frontiersim/internal/campaign/cache"
	"frontiersim/internal/experiments"
	"frontiersim/internal/harness"
	"frontiersim/internal/machine"
)

// Config sizes a server.
type Config struct {
	// Jobs bounds concurrently running simulations (<=0 means 1).
	Jobs int
	// CacheBytes is the in-memory result budget (<=0 means unbounded).
	CacheBytes int64
	// CacheDir, when set, persists results on disk across restarts.
	CacheDir string
	// CodeVersion overrides the cache key's code-version component
	// (tests pin it; "" means CodeVersion()).
	CodeVersion string
	// MaxSweepVariants caps one sweep's fan-out (<=0 means 256).
	MaxSweepVariants int
}

// Server is the campaign service. Build with New, serve Handler.
type Server struct {
	// slots holds one token per running simulation; its capacity is
	// Config.Jobs.
	slots   chan struct{}
	cache   *cache.Cache
	jobs    *jobStore
	version string
	maxVars int
	started time.Time
	// capture runs one simulation; tests swap it for a fake.
	capture func(id string, o experiments.Options, markdown bool) ([]byte, error)
}

// New builds a server.
func New(cfg Config) (*Server, error) {
	c, err := cache.New(cfg.CacheBytes, cfg.CacheDir)
	if err != nil {
		return nil, err
	}
	version := cfg.CodeVersion
	if version == "" {
		version = CodeVersion()
	}
	maxVars := cfg.MaxSweepVariants
	if maxVars <= 0 {
		maxVars = 256
	}
	return &Server{
		slots:   make(chan struct{}, max(cfg.Jobs, 1)),
		cache:   c,
		jobs:    newJobStore(maxFinishedJobs),
		version: version,
		maxVars: maxVars,
		started: time.Now(),
		capture: experiments.Capture,
	}, nil
}

// Handler returns the HTTP API:
//
//	GET  /healthz              liveness
//	GET  /v1/experiments       experiment registry
//	GET  /v1/machines          built-in machine specs
//	GET  /v1/fields?machine=   sweepable numeric spec fields
//	GET  /v1/stats             cache and job counters
//	POST /v1/run               synchronous run; body = result bytes,
//	                           X-Cache: miss|hit|coalesced, X-Result-Key
//	POST /v1/jobs              asynchronous submit → job id
//	GET  /v1/jobs              job list
//	GET  /v1/jobs/{id}         job state + result
//	GET  /v1/jobs/{id}/events  progress stream (SSE)
//	POST /v1/sweep             fan a numeric-field range of spec variants
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /v1/experiments", s.handleExperiments)
	mux.HandleFunc("GET /v1/machines", s.handleMachines)
	mux.HandleFunc("GET /v1/fields", s.handleFields)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("POST /v1/run", s.handleRun)
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	return mux
}

// JobRequest is one simulation ask. Machine names a built-in spec; Spec
// carries an inline what-if spec instead (strict JSON, validated) —
// exactly the canonical-spec + root-seed + experiment-id tuple the
// result is a pure function of.
type JobRequest struct {
	Machine    string          `json:"machine,omitempty"`
	Spec       json.RawMessage `json:"spec,omitempty"`
	Experiment string          `json:"experiment"`
	Seed       *int64          `json:"seed,omitempty"` // default 42
	Quick      bool            `json:"quick,omitempty"`
	Markdown   bool            `json:"markdown,omitempty"`
}

// resolved is a JobRequest with the spec materialized and the cache key
// derived.
type resolved struct {
	spec     machine.Spec
	seed     int64
	exp      string
	quick    bool
	markdown bool
	key      cache.Key
}

func (s *Server) resolve(req JobRequest) (resolved, error) {
	var r resolved
	if req.Experiment == "" {
		return r, fmt.Errorf("request needs an experiment id (GET /v1/experiments lists them)")
	}
	if _, err := experiments.ByID(req.Experiment); err != nil {
		return r, err
	}
	r.exp = req.Experiment
	switch {
	case len(req.Spec) > 0 && req.Machine != "":
		return r, fmt.Errorf("request has both machine %q and an inline spec; pick one", req.Machine)
	case len(req.Spec) > 0:
		spec, err := machine.Decode(req.Spec)
		if err != nil {
			return r, fmt.Errorf("inline spec: %w", err)
		}
		r.spec = spec
	case req.Machine != "":
		spec, err := machine.ByName(req.Machine)
		if err != nil {
			return r, err
		}
		r.spec = spec
	default:
		r.spec = machine.Frontier()
	}
	r.seed = experiments.DefaultOptions().Seed
	if req.Seed != nil {
		r.seed = *req.Seed
	}
	r.quick = req.Quick
	r.markdown = req.Markdown
	return s.onSpec(r, r.spec)
}

// onSpec returns r with its machine replaced by spec and its key derived
// from spec's canonical JSON.
func (s *Server) onSpec(r resolved, spec machine.Spec) (resolved, error) {
	specJSON, err := machine.Dump(spec)
	if err != nil {
		return r, err
	}
	r.spec = spec
	r.key = cache.ResultKey(cache.KeyInputs{
		SpecJSON:    specJSON,
		Seed:        r.seed,
		Experiment:  r.exp,
		Quick:       r.quick,
		Markdown:    r.markdown,
		CodeVersion: s.version,
	})
	return r, nil
}

// options builds the experiment options for a resolved request.
func (r resolved) options() experiments.Options {
	spec := r.spec
	return experiments.Options{Quick: r.quick, Seed: r.seed, Machine: &spec}
}

// result is the one compute path /v1/run, /v1/jobs and every sweep
// variant share. Repeats are served from memory or disk and identical
// concurrent requests coalesce onto one in-flight leader; only that
// leader, once it actually simulates, holds one of the Config.Jobs
// slots. A hit or a coalesced waiter never holds a slot, so no waiter
// can keep its leader from running, and all endpoints together never
// run more than Jobs simulations. The computation is deliberately not
// tied to an HTTP request: once a simulation starts, a disconnecting
// client must not kill the result every coalesced waiter — and the
// cache — is counting on.
func (s *Server) result(res resolved, progress func(string)) ([]byte, cache.Outcome, error) {
	return s.cache.GetOrCompute(res.key, func() ([]byte, error) {
		s.slots <- struct{}{}
		defer func() { <-s.slots }()
		if progress != nil {
			progress("simulating " + res.exp + " on " + res.spec.Name)
		}
		return s.capture(res.exp, res.options(), res.markdown)
	})
}

func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	type exp struct {
		ID          string  `json:"id"`
		Description string  `json:"description"`
		Cost        float64 `json:"cost"`
	}
	var list []exp
	for _, e := range experiments.Registry() {
		list = append(list, exp{e.ID, e.Description, e.Cost})
	}
	writeJSON(w, http.StatusOK, list)
}

func (s *Server) handleMachines(w http.ResponseWriter, r *http.Request) {
	type mach struct {
		Name  string `json:"name"`
		Year  int    `json:"year"`
		Nodes int    `json:"nodes"`
	}
	var list []mach
	for _, name := range machine.Names() {
		spec, err := machine.ByName(name)
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		list = append(list, mach{spec.Name, spec.Year, spec.Nodes()})
	}
	writeJSON(w, http.StatusOK, list)
}

func (s *Server) handleFields(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("machine")
	if name == "" {
		name = "frontier"
	}
	spec, err := machine.ByName(name)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	fields, err := SpecNumericFields(spec)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"machine": spec.Name, "fields": fields})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	jobs := s.jobs.list()
	counts := map[jobState]int{}
	for _, j := range jobs {
		counts[j.view(false).State]++
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"cache":         s.cache.Stats(),
		"jobs":          counts,
		"jobsTotal":     len(jobs),
		"workers":       cap(s.slots),
		"codeVersion":   s.version,
		"uptimeSeconds": time.Since(s.started).Seconds(),
	})
}

// handleRun is the synchronous path: the response body is exactly the
// result bytes (a rendered table), so two identical submissions get
// byte-identical bodies; X-Cache reports miss, hit, or coalesced and
// X-Result-Key the content address.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	res, err := s.resolve(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	b, outcome, err := s.result(res, nil)
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, machine.ErrNotInSpec) {
			// The machine cannot run the experiment: the request's
			// fault, not the server's.
			status = http.StatusUnprocessableEntity
		}
		writeError(w, status, err)
		return
	}
	w.Header().Set("Content-Type", contentType(res.markdown))
	w.Header().Set("X-Cache", string(outcome))
	w.Header().Set("X-Result-Key", string(res.key))
	w.Write(b)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	res, err := s.resolve(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	j := newJob(s.jobs.nextID(), res)
	go j.run(func(progress func(string)) ([]byte, cache.Outcome, error) {
		return s.result(res, progress)
	})
	s.jobs.add(j)
	w.Header().Set("Location", "/v1/jobs/"+j.ID)
	writeJSON(w, http.StatusAccepted, j.view(false))
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	jobs := s.jobs.list()
	views := make([]jobView, len(jobs))
	for i, j := range jobs {
		views[i] = j.view(false)
	}
	writeJSON(w, http.StatusOK, views)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, j.view(true))
}

// handleJobEvents streams a job's progress as server-sent events and
// closes when the job finishes; late subscribers replay the history.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no job %q", r.PathValue("id")))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	flusher, _ := w.(http.Flusher)
	cursor := 0
	for {
		evs, next, finished := j.next(cursor)
		cursor = next
		for _, ev := range evs {
			b, err := json.Marshal(ev)
			if err != nil {
				return
			}
			if _, err := fmt.Fprintf(w, "data: %s\n\n", b); err != nil {
				return
			}
		}
		if flusher != nil {
			flusher.Flush()
		}
		if finished {
			return
		}
	}
}

// SweepRequest fans one experiment across a numeric-field range.
type SweepRequest struct {
	JobRequest
	// Sweep is the DSL form ("linkRate: 100..200 step 25"); Vary the
	// structured form. Exactly one must be set.
	Sweep string `json:"sweep,omitempty"`
	Vary  *Sweep `json:"vary,omitempty"`
}

// SweepVariant is one point of the range.
type SweepVariant struct {
	Value        float64       `json:"value"`
	Key          cache.Key     `json:"key,omitempty"`
	Cache        cache.Outcome `json:"cache,omitempty"`
	Error        string        `json:"error,omitempty"`
	ResultSHA256 string        `json:"resultSha256,omitempty"`
	Result       string        `json:"result,omitempty"`
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	var sw Sweep
	switch {
	case req.Sweep != "" && req.Vary != nil:
		writeError(w, http.StatusBadRequest, fmt.Errorf("request has both sweep DSL and vary; pick one"))
		return
	case req.Sweep != "":
		var err error
		if sw, err = ParseSweep(req.Sweep); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
	case req.Vary != nil:
		sw = *req.Vary
		if err := sw.check(); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
	default:
		writeError(w, http.StatusBadRequest, fmt.Errorf(`sweep request needs "sweep" (DSL) or "vary"`))
		return
	}
	base, err := s.resolve(req.JobRequest)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	values := sw.Values()
	if len(values) > s.maxVars {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("sweep %s: %d variants exceeds the per-request cap of %d", sw.Field, len(values), s.maxVars))
		return
	}

	// Fan the variants out as one batch, each through the shared
	// compute path, so they count against the same Jobs bound as every
	// other simulation. Per-variant failures (Validate rejecting a zero
	// link rate, a fractional value in an integer field) land in that
	// variant's entry instead of failing the sweep; identical variants
	// across sweeps still share cache entries because each one keys on
	// its own canonical spec.
	variants := make([]SweepVariant, len(values))
	tasks := make([]harness.Task[struct{}], len(values))
	for i, v := range values {
		i, v := i, v
		variants[i].Value = v
		tasks[i] = harness.Task[struct{}]{
			ID: fmt.Sprintf("%s=%v", sw.Field, v),
			Run: func(context.Context, int64) (struct{}, error) {
				variants[i] = s.sweepVariant(base, sw, v)
				return struct{}{}, nil
			},
		}
	}
	if _, err := harness.Run(r.Context(), harness.Config{Jobs: cap(s.slots), RootSeed: base.seed}, tasks, nil); err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	distinct := map[string]bool{}
	for _, v := range variants {
		if v.ResultSHA256 != "" {
			distinct[v.ResultSHA256] = true
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"experiment":      base.exp,
		"field":           sw.Field,
		"seed":            base.seed,
		"variants":        variants,
		"count":           len(variants),
		"distinctResults": len(distinct),
	})
}

// sweepVariant materializes and runs one point of a sweep over the
// resolved base request.
func (s *Server) sweepVariant(base resolved, sw Sweep, v float64) SweepVariant {
	out := SweepVariant{Value: v}
	fail := func(err error) SweepVariant {
		out.Error = err.Error()
		return out
	}
	spec, err := sw.Apply(base.spec, v)
	if err != nil {
		return fail(err)
	}
	res, err := s.onSpec(base, spec)
	if err != nil {
		return fail(err)
	}
	b, outcome, err := s.result(res, nil)
	if err != nil {
		return fail(err)
	}
	out.Key = res.key
	out.Cache = outcome
	out.ResultSHA256 = sha256Hex(b)
	out.Result = string(b)
	return out
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func contentType(markdown bool) string {
	if markdown {
		return "text/markdown; charset=utf-8"
	}
	return "text/plain; charset=utf-8"
}

// maxBodyBytes caps a request body. The largest inline spec, Frontier's,
// is about 4 KB, so 1 MiB admits any real request while keeping a careless
// or hostile client from making the server buffer an unbounded body.
const maxBodyBytes = 1 << 20

// decodeJSON strictly decodes a request body of at most maxBodyBytes into
// v. On failure it writes the error response — 413 for an oversized body,
// 400 for anything else — and reports false.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := decodeStrict(http.MaxBytesReader(w, r.Body, maxBodyBytes), v); err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, fmt.Errorf("request body: %w", err))
		return false
	}
	return true
}

// decodeStrict decodes one JSON value, rejecting unknown fields.
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
