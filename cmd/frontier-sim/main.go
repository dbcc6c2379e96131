// Command frontier-sim runs the paper-reproduction experiments: every
// table and figure in the evaluation section of "Frontier: Exploring
// Exascale" (SC '23) has an experiment id, and each run prints a
// paper-vs-measured table.
//
// Experiments execute on a parallel worker pool (-jobs). Each experiment
// draws its randomness from a seed derived from (-seed, experiment id),
// so table output is byte-identical at any -jobs setting.
//
// Usage:
//
//	frontier-sim list                 # show all experiment ids
//	frontier-sim machines             # list built-in machine specs
//	frontier-sim run <id> [...]       # run one or more experiments
//	frontier-sim run all              # run everything, in paper order
//	frontier-sim -markdown run all    # emit markdown (EXPERIMENTS.md body)
//	frontier-sim -quick run all       # reduced sampling for smoke tests
//	frontier-sim -jobs=1 run all      # serial (same output as -jobs=8)
//	frontier-sim -machine spec.json run fig6   # what-if machine under test
//	frontier-sim -dump-spec frontier  # emit a built-in spec as JSON
//	frontier-sim verify               # check reproduction envelopes
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"time"

	"frontiersim/internal/experiments"
	"frontiersim/internal/machine"
	"frontiersim/internal/profiling"
)

// main delegates to run so that deferred cleanup (profile flushing,
// signal-handler teardown) runs on every exit path; os.Exit would skip it.
func main() { os.Exit(run()) }

func run() int {
	markdown := flag.Bool("markdown", false, "emit markdown tables")
	quick := flag.Bool("quick", false, "reduced sampling (smoke test)")
	seed := flag.Int64("seed", 42, "root random seed (per-experiment seeds are derived from it)")
	jobs := flag.Int("jobs", runtime.GOMAXPROCS(0), "max experiments run concurrently (1 = serial)")
	timeout := flag.Duration("timeout", 0, "abort the whole run after this duration (0 = none)")
	keepGoing := flag.Bool("keepgoing", false, "run every experiment even after a failure")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	mutexprofile := flag.String("mutexprofile", "", "write a contended-mutex profile to this file on exit")
	blockprofile := flag.String("blockprofile", "", "write a goroutine-blocking profile to this file on exit (worker-pool waits show here)")
	machineArg := flag.String("machine", "", "machine under test: a built-in name or a JSON spec file (default: frontier)")
	dumpSpec := flag.String("dump-spec", "", "print a machine spec as JSON and exit (a built-in name or a spec file)")
	flag.Usage = usage
	flag.Parse()

	if *dumpSpec != "" {
		spec, err := machine.Resolve(*dumpSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "frontier-sim:", err)
			return 1
		}
		b, err := machine.Dump(spec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "frontier-sim:", err)
			return 1
		}
		os.Stdout.Write(b)
		return 0
	}

	args := flag.Args()
	if len(args) == 0 {
		usage()
		return 2
	}

	stopProf, err := profiling.StartConfig(profiling.Config{
		CPU: *cpuprofile, Mem: *memprofile, Mutex: *mutexprofile, Block: *blockprofile,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "frontier-sim:", err)
		return 1
	}
	defer stopProf()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// No solver solution cache: every experiment derives its own seed, so
	// an invocation never solves the same traffic twice (ablation-cc's
	// two arms already share one solve per GPCNeT phase), and a cache
	// would only hold every solved shift's rates until exit. Each
	// campaign experiment attaches its own unbounded pricing cache.
	opts := experiments.Options{Quick: *quick, Seed: *seed}
	if *machineArg != "" {
		spec, err := machine.Resolve(*machineArg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "frontier-sim:", err)
			return 1
		}
		opts.Machine = &spec
	}
	cfg := experiments.RunConfig{Jobs: *jobs, Timeout: *timeout, FailFast: !*keepGoing}

	switch args[0] {
	case "verify":
		// Verify always collects every check so the report is complete.
		cfg.FailFast = false
		start := time.Now()
		results := experiments.VerifyContext(ctx, opts, cfg)
		var slowest experiments.VerifyResult
		for _, r := range results {
			fmt.Println(r)
			if r.Duration > slowest.Duration {
				slowest = r
			}
		}
		fmt.Fprintf(os.Stderr, "[verified %d experiments in %v wall, slowest %s at %v]\n",
			len(results), time.Since(start).Round(time.Millisecond),
			slowest.ID, slowest.Duration.Round(time.Millisecond))
		if !experiments.AllPass(results) {
			fmt.Fprintln(os.Stderr, "frontier-sim: reproduction check FAILED")
			return 1
		}
		fmt.Println("all experiments within their reproduction envelopes")
	case "list":
		for _, r := range experiments.Registry() {
			fmt.Printf("%-20s %s\n", r.ID, r.Description)
		}
	case "machines":
		for _, name := range machine.Names() {
			s, err := machine.ByName(name)
			if err != nil {
				fmt.Fprintln(os.Stderr, "frontier-sim:", err)
				return 1
			}
			fmt.Printf("%-10s %d  %6d nodes  %s\n", s.Name, s.Year, s.Nodes(), s.Topology.FabricName)
		}
	case "run":
		if len(args) < 2 {
			fmt.Fprintln(os.Stderr, "frontier-sim: run needs experiment ids or 'all'")
			return 2
		}
		var runners []experiments.Runner
		if args[1] == "all" {
			runners = experiments.Registry()
		} else {
			for _, id := range args[1:] {
				r, err := experiments.ByID(id)
				if err != nil {
					fmt.Fprintln(os.Stderr, "frontier-sim:", err)
					return 1
				}
				runners = append(runners, r)
			}
		}
		start := time.Now()
		results, err := experiments.RunAll(ctx, runners, opts, cfg, func(r experiments.RunResult) {
			switch {
			case r.Skipped:
				fmt.Fprintf(os.Stderr, "[%s skipped: %v]\n", r.ID, r.Err)
			case r.Err != nil:
				fmt.Fprintf(os.Stderr, "frontier-sim: %s: %v\n", r.ID, r.Err)
			case *markdown:
				r.Table.Markdown(os.Stdout)
				fmt.Fprintf(os.Stderr, "[%s completed in %v]\n", r.ID, r.Duration.Round(time.Millisecond))
			default:
				r.Table.Render(os.Stdout)
				fmt.Fprintf(os.Stderr, "[%s completed in %v]\n", r.ID, r.Duration.Round(time.Millisecond))
			}
		})
		if len(runners) > 1 {
			var work time.Duration
			var longest experiments.RunResult
			for _, r := range results {
				work += r.Duration
				if r.Duration > longest.Duration {
					longest = r
				}
			}
			fmt.Fprintf(os.Stderr, "[%d experiments in %v wall (%v serial work, longest %s at %v, jobs=%d)]\n",
				len(results), time.Since(start).Round(time.Millisecond), work.Round(time.Millisecond),
				longest.ID, longest.Duration.Round(time.Millisecond), *jobs)
		}
		if err != nil {
			return 1
		}
	default:
		fmt.Fprintf(os.Stderr, "frontier-sim: unknown command %q\n", args[0])
		usage()
		return 2
	}
	return 0
}

func usage() {
	fmt.Fprintf(os.Stderr, `frontier-sim reproduces the evaluation of the Frontier SC'23 paper.

usage:
  frontier-sim [flags] list
  frontier-sim [flags] machines
  frontier-sim [flags] run <id>... | all
  frontier-sim [flags] verify
  frontier-sim -dump-spec <name|file.json>

flags:
`)
	flag.PrintDefaults()
}
