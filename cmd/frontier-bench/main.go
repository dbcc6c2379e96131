// Command frontier-bench is the simulator's benchmark: one command that
// builds frontier-sim and frontier-serve from source, drives a workload
// through them from outside, checks every output, and prints each metric
// with its unit.
//
// Usage (from the repository root; bench.sh builds this module first):
//
//	bash cmd/frontier-bench/bench.sh --workload census --seed 42 --seconds 20
//	bash cmd/frontier-bench/bench.sh --workload serve --trace 1     # per-layer run
//	bash cmd/frontier-bench/bench.sh -compare parent.jsonl change.jsonl
//
// Workloads are census, campaign, quick-verify and serve (see README.md);
// "all" runs the four in turn. Each run prints "workload metric value unit
// n=samples" lines, then one JSON object on the last line of standard
// output. A failed output check makes the command exit 1.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// env is what every workload run needs.
type env struct {
	root       string // repository root
	sim, serve string // the binaries under test
	seed       int64
	seconds    float64
	nproc      int    // load and server concurrency: at most the host's CPUs
	profile    string // where a traced run writes its CPU profile
}

// workload is one set of inputs the benchmark runs. measure is the
// untraced run behind the end-to-end metrics; traced is the profiled run
// behind the per-layer ones.
type workload struct {
	name    string
	measure func(context.Context, env, *outcome) error
	traced  func(context.Context, env, *outcome, *tracer) (windowStats, error)
}

var (
	census      = batch{ids: []string{"fig6", "table5", "ablation-routing", "ablation-cc", "ablation-ppn"}, jobs: 1}
	campaignRun = batch{ids: []string{"ext-year", "ext-operations", "ext-campaign", "ext-llm"}, jobs: 1}
	quickVerify = batch{quick: true}
)

var workloads = []workload{
	{"census", census.measure, census.traced},
	{"campaign", campaignRun.measure, campaignRun.traced},
	{"quick-verify", quickVerify.measure, quickVerify.traced},
	{"serve", measureServe, tracedServe},
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "all", "census, campaign, quick-verify, serve, or all")
	seed := flag.Int64("seed", 42, "seed the workload's inputs are drawn from (42 also checks output against EXPERIMENTS.md)")
	seconds := flag.Float64("seconds", 20, "how long one run measures (BENCHMARK.json's run_seconds)")
	trace := flag.Int("trace", 0, "0 = end-to-end metrics; 1 = a traced run reporting per-layer metrics")
	traceDir := flag.String("trace-dir", "", "where a traced run writes <workload>/trace.json, cpu.pprof and layers.json (default .bench_build/trace)")
	out := flag.String("out", "", "append one JSON record per workload run to this file (input for -compare)")
	compare := flag.Bool("compare", false, "compare two files of -out records: -compare PARENT CHANGE")
	flag.Parse()

	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "frontier-bench:", err)
		return 1
	}
	if *compare {
		return runCompare(os.Stdout, root, flag.Args())
	}
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		return 2
	}
	selected := workloads
	if *name != "all" {
		selected = nil
		for _, w := range workloads {
			if w.name == *name {
				selected = []workload{w}
			}
		}
		if selected == nil {
			fmt.Fprintf(os.Stderr, "frontier-bench: unknown workload %q\n", *name)
			return 2
		}
	}
	if *traceDir == "" {
		*traceDir = filepath.Join(root, ".bench_build", "trace")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	bin, err := build(ctx, root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "frontier-bench:", err)
		return 1
	}
	defer os.RemoveAll(bin)
	e := env{
		root: root, seed: *seed, seconds: *seconds, nproc: runtime.NumCPU(),
		sim: filepath.Join(bin, "frontier-sim"), serve: filepath.Join(bin, "frontier-serve"),
	}

	var outs []*outcome
	for _, w := range selected {
		o := &outcome{workload: w.name}
		if err := runWorkload(ctx, w, e, *trace == 1, *traceDir, o); err != nil {
			fmt.Fprintf(os.Stderr, "frontier-bench: %s: %v\n", w.name, err)
			return 1
		}
		o.print(os.Stdout)
		for _, f := range o.failures {
			fmt.Fprintf(os.Stderr, "frontier-bench: %s: FAIL %s\n", w.name, f)
		}
		if *out != "" {
			if err := appendRecord(*out, o.record(*seed, *seconds, *trace == 1)); err != nil {
				fmt.Fprintln(os.Stderr, "frontier-bench:", err)
				return 1
			}
		}
		outs = append(outs, o)
	}
	r := resultOf(outs)
	os.Stdout.Write(marshalLine(r))
	if !r.Correct {
		return 1
	}
	return 0
}

func runWorkload(ctx context.Context, w workload, e env, trace bool, traceDir string, o *outcome) error {
	if !trace {
		err := w.measure(ctx, e, o)
		o.complete(endToEnd)
		return err
	}
	dir := filepath.Join(traceDir, w.name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	e.profile = filepath.Join(dir, "cpu.pprof")
	tr := newTracer()
	stats, err := w.traced(ctx, e, o, tr)
	if err != nil {
		return err
	}
	o.complete(perLayer())
	return writeArtifacts(dir, tr, stats, o)
}

// build compiles frontier-sim and frontier-serve from the repository's
// source into a fresh directory under .bench_build. Build time is printed
// but not measured.
func build(ctx context.Context, root string) (string, error) {
	base := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(base, "bin-")
	if err != nil {
		return "", err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", dir+string(filepath.Separator),
		"./cmd/frontier-sim", "./cmd/frontier-serve")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	start := time.Now()
	if err := cmd.Run(); err != nil {
		os.RemoveAll(dir)
		return "", fmt.Errorf("building the simulator: %w", err)
	}
	fmt.Fprintf(os.Stderr, "frontier-bench: built frontier-sim and frontier-serve in %.1fs (not measured)\n",
		time.Since(start).Seconds())
	return dir, nil
}

// findRoot walks up from the working directory to the frontiersim module.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil {
			if first, _, _ := strings.Cut(string(b), "\n"); strings.TrimSpace(first) == "module frontiersim" {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no frontiersim module (go.mod) at or above the working directory")
		}
		dir = parent
	}
}

func appendRecord(path string, r record) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(marshalLine(r)); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
