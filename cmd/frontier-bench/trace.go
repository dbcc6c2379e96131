package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sync"
	"syscall"
	"time"
)

// chromeEvent is one Chrome trace event ("X" = complete span, "M" = lane
// name); the file opens in Perfetto or chrome://tracing.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// tracer keeps a traced run's spans in memory until the run ends. Spans
// are recorded by the benchmark around its calls into the simulator; a nil
// tracer records nothing, which is how untraced runs use the same code.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	events []chromeEvent
	lanes  map[string][]time.Time // per category: when each lane's last span ends
	cats   []string

	hitHandler []float64 // server-side seconds of each request the cache hit
}

func newTracer() *tracer { return &tracer{t0: time.Now(), lanes: map[string][]time.Time{}} }

// add records one span. Overlapping spans of a category go to separate
// lanes so the viewer draws them side by side.
func (t *tracer) add(cat, name string, start, end time.Time, args map[string]any) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	ci := -1
	for i, c := range t.cats {
		if c == cat {
			ci = i
		}
	}
	if ci < 0 {
		ci = len(t.cats)
		t.cats = append(t.cats, cat)
	}
	lanes := t.lanes[cat]
	lane := len(lanes)
	for i, busyUntil := range lanes {
		if !busyUntil.After(start) {
			lane = i
			break
		}
	}
	if lane == len(lanes) {
		lanes = append(lanes, end)
		t.events = append(t.events, chromeEvent{Name: "thread_name", Ph: "M", PID: 1, TID: ci*100 + lane,
			Args: map[string]any{"name": fmt.Sprintf("%s %d", cat, lane)}})
	} else {
		lanes[lane] = end
	}
	t.lanes[cat] = lanes
	t.events = append(t.events, chromeEvent{
		Name: name, Cat: cat, Ph: "X", PID: 1, TID: ci*100 + lane,
		TS:   float64(start.Sub(t.t0).Nanoseconds()) / 1e3,
		Dur:  float64(end.Sub(start).Nanoseconds()) / 1e3,
		Args: args,
	})
}

// wrap times every request the handler serves: one "server" span per
// request, carrying the client's request id and the cache outcome.
func (t *tracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		outcome := w.Header().Get("X-Cache")
		t.add("server", r.Method+" "+r.URL.Path, start, end,
			map[string]any{"id": r.Header.Get(requestIDHeader), "cache": outcome})
		if outcome == "hit" {
			t.mu.Lock()
			t.hitHandler = append(t.hitHandler, end.Sub(start).Seconds())
			t.mu.Unlock()
		}
	})
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(map[string]any{"traceEvents": t.events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// window is the profiled part of a traced run: a CPU profile written to
// a file, plus the process and runtime counters at its start.
type window struct {
	prof  *os.File
	start time.Time
	cpu0  float64
	mem0  runtime.MemStats
	gc0   float64
}

// windowStats is what a closed window measured.
type windowStats struct {
	wall, processCPU float64
	fold             map[string]float64 // CPU seconds per layer
	folded           float64            // their sum
	gcCPU            float64            // runtime/metrics' estimate of GC CPU
	gcCycles         uint32
	allocMB, pauseMS float64
	rssPeakMB        float64
}

func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

func gcCPU() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// openWindow starts the CPU profiler, writing to path.
func openWindow(path string) (*window, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w := &window{prof: f}
	runtime.ReadMemStats(&w.mem0)
	w.gc0 = gcCPU()
	w.cpu0 = processCPU()
	w.start = time.Now()
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return w, nil
}

// close stops the profiler and folds the profile into layers.
func (w *window) close(ctx context.Context) (windowStats, error) {
	pprof.StopCPUProfile()
	s := windowStats{wall: time.Since(w.start).Seconds(), processCPU: processCPU() - w.cpu0}
	s.gcCPU = gcCPU() - w.gc0
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	s.gcCycles = m.NumGC - w.mem0.NumGC
	s.allocMB = float64(m.TotalAlloc-w.mem0.TotalAlloc) / (1 << 20)
	s.pauseMS = float64(m.PauseTotalNs-w.mem0.PauseTotalNs) / 1e6
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.rssPeakMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	if err := w.prof.Close(); err != nil {
		return s, err
	}
	fold, err := foldProfile(ctx, w.prof.Name())
	if err != nil {
		return s, err
	}
	s.fold = fold
	for _, v := range fold {
		s.folded += v
	}
	return s, nil
}

// foldCoverage checks that the profile accounts for the process's CPU:
// a fold that misses more than a tenth of it cannot be trusted.
func (s windowStats) foldCoverage() error {
	if s.processCPU <= 0 {
		return fmt.Errorf("trace: no process CPU measured")
	}
	if r := s.folded / s.processCPU; r < 0.9 || r > 1.1 {
		return fmt.Errorf("trace: folded CPU %.2fs is %.0f%% of process CPU %.2fs (want within 10%%)",
			s.folded, 100*r, s.processCPU)
	}
	return nil
}

// layerMetrics adds the window's per-layer CPU and GC counters to o,
// divided by reps so batch numbers are per invocation, like cpu_s.
func (s windowStats) layerMetrics(o *outcome, reps int) {
	per := 1 / float64(max(reps, 1))
	for _, l := range layers {
		v := s.fold[l]
		if l == "gc" {
			v = s.gcCPU
		}
		o.set(l+".cpu_s", v*per, reps)
	}
	o.set("gc.cycles", float64(s.gcCycles)*per, reps)
	o.set("gc.alloc_mb", s.allocMB*per, reps)
	o.set("gc.pause_ms", s.pauseMS*per, reps)
	o.set("gc.rss_peak_mb", s.rssPeakMB, 1)
	o.note("trace.process_cpu_s", s.processCPU*per, reps)
	o.note("trace.folded_cpu_s", s.folded*per, reps)
}

// writeArtifacts saves a traced run's Chrome trace and layer table under
// dir, beside the CPU profile.
func writeArtifacts(dir string, tr *tracer, s windowStats, o *outcome) error {
	if err := tr.write(filepath.Join(dir, "trace.json")); err != nil {
		return err
	}
	values := map[string]float64{}
	for _, m := range append(append([]measure(nil), o.metrics...), o.extra...) {
		values[m.name] = finite(m.value)
	}
	b, err := json.MarshalIndent(map[string]any{
		"workload":      o.workload,
		"fold_cpu_s":    s.fold,
		"process_cpu_s": s.processCPU,
		"metrics":       values,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "layers.json"), append(b, '\n'), 0o644)
}
