// Package campaign turns frontier-sim into shared infrastructure: a
// long-running HTTP/JSON service that accepts (machine spec | built-in
// name, seed, experiment) jobs, runs them on the harness pool, and
// memoizes every result in a content-addressed cache. Because PRs 1–5
// made each result a pure function of (canonical spec JSON, root seed,
// experiment id, code version), N users submitting the same what-if
// question cost one simulation — concurrent duplicates coalesce onto a
// single in-flight run, later duplicates are cache hits with
// byte-identical bodies. The sweep endpoint fans a range of spec
// variants across the pool for campaign-style studies.
package campaign

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"frontiersim/internal/campaign/cache"
	"frontiersim/internal/experiments"
	"frontiersim/internal/harness"
	"frontiersim/internal/machine"
	"frontiersim/internal/network"
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
	// SolutionCacheBytes bounds the shared max-min solver solution cache
	// threaded through every simulation this server runs (<=0 means the
	// network package's 256 MiB default). Unlike the result cache, which
	// deduplicates whole jobs, the solution cache deduplicates individual
	// solves inside them — sweep variants and repeated what-ifs that share
	// a topology and traffic matrix skip straight to stored allocations.
	// Reuse is bit-exact, so it never changes result bytes or cache keys.
	SolutionCacheBytes int64
	// PricingEntries sizes the per-simulation placement-signature pricing
	// cache the campaign experiments attach to their job environment:
	// 0 = unbounded (the default), > 0 caps the LRU, < 0 disables it.
	// Cache hits reproduce cold pricing bit-for-bit, so every campaign
	// statistic is identical at any setting and the knob stays out of the
	// result-cache key. The one informational surface it can move is the
	// reported hit-rate row (a bounded LRU may evict and re-miss), so
	// servers sharing a persistent cache directory should agree on this
	// setting.
	PricingEntries int
}

// Server is the campaign service. Build with New, serve Handler.
type Server struct {
	pool      *harness.Pool
	cache     *cache.Cache
	solutions *network.SolutionCache
	jobs      *jobStore
	version   string
	maxVars   int
	pricing   int
	started   time.Time
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
		pool:      harness.NewPool(cfg.Jobs),
		cache:     c,
		solutions: network.NewSolutionCache(cfg.SolutionCacheBytes),
		jobs:      newJobStore(),
		version:   version,
		maxVars:   maxVars,
		pricing:   cfg.PricingEntries,
		started:   time.Now(),
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
//	POST /v1/sweep             fan a numeric-field range across the pool
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
	// solutions is the server-wide solver cache, carried along for
	// options() but excluded from key: a hit applies bit-exact stored
	// allocations, so including it would only fragment the cache.
	solutions *network.SolutionCache
	// pricing is the server's pricing-cache sizing, excluded from key for
	// the same reason: hits are bit-identical, results never depend on it.
	pricing int
	key     cache.Key
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
		dec := json.NewDecoder(bytes.NewReader(req.Spec))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&r.spec); err != nil {
			return r, fmt.Errorf("inline spec: %w", err)
		}
		if err := r.spec.Validate(); err != nil {
			return r, err
		}
	case req.Machine != "":
		spec, err := machine.ByName(req.Machine)
		if err != nil {
			return r, err
		}
		r.spec = spec
	default:
		r.spec = machine.Frontier()
	}
	specJSON, err := machine.Dump(r.spec)
	if err != nil {
		return r, err
	}
	r.seed = experiments.DefaultOptions().Seed
	if req.Seed != nil {
		r.seed = *req.Seed
	}
	r.quick = req.Quick
	r.markdown = req.Markdown
	r.solutions = s.solutions
	r.pricing = s.pricing
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
	return experiments.Options{Quick: r.quick, Seed: r.seed, Machine: &spec,
		Solutions: r.solutions, PricingEntries: r.pricing}
}

// runCached is the one compute path every endpoint shares: at most one
// simulation per key is ever in flight (identical concurrent requests
// coalesce), repeats are served from memory or disk, and the simulation
// itself runs on the bounded pool so a burst of distinct requests
// queues instead of oversubscribing the host. The submission context is
// deliberately not the HTTP request's: once a simulation starts, a
// disconnecting client must not kill the result every coalesced waiter
// — and the cache — is counting on.
func (s *Server) runCached(res resolved, progress func(string)) ([]byte, cache.Outcome, error) {
	return s.cache.GetOrCompute(res.key, func() ([]byte, error) {
		if progress != nil {
			progress("simulating " + res.exp + " on " + res.spec.Name)
		}
		h := harness.Submit(s.pool, context.Background(), res.exp,
			func(_ context.Context, _ func(string)) ([]byte, error) {
				return experiments.Capture(res.exp, res.options(), res.markdown)
			})
		return h.Result()
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
	counts := map[harness.JobState]int{}
	for _, j := range jobs {
		counts[j.handle.State()]++
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"cache":     s.cache.Stats(),
		"jobs":      counts,
		"jobsTotal": len(jobs),
		"workers":   s.pool.Workers(),
		// The solver solution cache shared across every simulation: hits
		// here are individual max-min solves served from stored
		// allocations (sweep variants and repeated what-ifs sharing a
		// topology), one level below the whole-result cache above.
		"solver":        s.solutions.Stats(),
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
	b, outcome, err := s.runCached(res, nil)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
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
	j := &job{
		ID:         s.jobs.nextID(),
		Experiment: res.exp,
		Machine:    res.spec.Name,
		Seed:       res.seed,
		Quick:      res.quick,
		Key:        res.key,
		Created:    time.Now(),
	}
	// The async job wraps the same cached compute path; its own pool
	// slot is what bounds concurrency, so runCached's inner Submit would
	// deadlock a full pool waiting on itself — call the cache directly.
	j.handle = harness.Submit(s.pool, context.Background(), j.ID,
		func(_ context.Context, progress func(string)) (jobOutput, error) {
			b, outcome, err := s.cache.GetOrCompute(res.key, func() ([]byte, error) {
				progress("simulating " + res.exp + " on " + res.spec.Name)
				return experiments.Capture(res.exp, res.options(), res.markdown)
			})
			if err != nil {
				return jobOutput{}, err
			}
			progress("cache " + string(outcome))
			return jobOutput{bytes: b, outcome: outcome}, nil
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
		evs, next, finished := j.handle.Next(cursor)
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

	// Fan the variants across the pool as one batch. Per-variant
	// failures (Validate rejecting a zero link rate, a fractional value
	// in an integer field) land in that variant's slot instead of
	// failing the sweep; identical variants across sweeps still share
	// cache entries because each one keys on its own canonical spec.
	variants := make([]SweepVariant, len(values))
	tasks := make([]harness.Task[struct{}], len(values))
	for i, v := range values {
		i, v := i, v
		variants[i].Value = v
		tasks[i] = harness.Task[struct{}]{
			ID: fmt.Sprintf("%s=%v", sw.Field, v),
			Run: func(context.Context, int64) (struct{}, error) {
				variants[i] = s.sweepVariant(req.JobRequest, sw, v)
				return struct{}{}, nil
			},
		}
	}
	if _, err := harness.Run(r.Context(), harness.Config{Jobs: s.pool.Workers(), RootSeed: base.seed}, tasks, nil); err != nil {
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

// sweepVariant materializes and runs one point of a sweep.
func (s *Server) sweepVariant(base JobRequest, sw Sweep, v float64) SweepVariant {
	out := SweepVariant{Value: v}
	fail := func(err error) SweepVariant {
		out.Error = err.Error()
		return out
	}
	baseRes, err := s.resolve(base)
	if err != nil {
		return fail(err)
	}
	spec, err := sw.Apply(baseRes.spec, v)
	if err != nil {
		return fail(err)
	}
	vreq := base
	vreq.Machine = ""
	if vreq.Spec, err = machine.Dump(spec); err != nil {
		return fail(err)
	}
	res, err := s.resolve(vreq)
	if err != nil {
		return fail(err)
	}
	b, outcome, err := s.cache.GetOrCompute(res.key, func() ([]byte, error) {
		return experiments.Capture(res.exp, res.options(), res.markdown)
	})
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
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
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
