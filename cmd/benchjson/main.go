// Command benchjson converts `go test -bench` output on stdin into a
// JSON document on stdout, so CI can archive each commit's benchmark
// numbers as a BENCH_<sha>.json artifact and the perf trajectory of the
// simulator stays diffable across the repo's history.
//
// Usage:
//
//	go test -bench=. -benchtime=1x -benchmem -run='^$' . | benchjson -sha=$GITHUB_SHA > BENCH_$GITHUB_SHA.json
//
// Compare mode diffs two archived reports and flags allocation
// regressions, so the CI bench job can warn when a commit quietly gives
// back the B/op and allocs/op wins the perf trajectory records:
//
//	benchjson -compare BENCH_old.json BENCH_new.json
//
// Every benchmark present in both reports is printed with its ns/op,
// B/op and allocs/op deltas; a B/op or allocs/op increase beyond
// -threshold (default 20%) is flagged as a REGRESSION line and the exit
// status is 3. ns/op is normally reported but not flagged — wall time on
// shared CI runners is too noisy to gate on — except for the event
// kernel and solver benchmarks (BenchmarkKernel*,
// BenchmarkResiliencyYear, BenchmarkFig6FullScale*,
// BenchmarkSolutionCache*, BenchmarkLLMTrainStep, BenchmarkCampaign*):
// those are the event-calendar and solver hot paths whose throughput the
// perf trajectory exists to protect, and their inner loops are long
// enough that a >threshold ns/op increase is signal, not noise. The
// kernel family and BenchmarkResiliencyYear (the production failure
// injector driving the kernel) additionally gate their events/sec
// column: a >threshold throughput decrease there fails the comparison
// even when ns/op moved for benign reasons (iteration-shape changes).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	Name       string  `json:"name"`
	Procs      int     `json:"procs,omitempty"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	// BytesPerOp and AllocsPerOp carry -benchmem's B/op and allocs/op
	// columns, so allocation regressions (and arena wins) are visible in
	// the archived perf trajectory alongside wall time.
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	// EventsPerSec promotes the kernel benchmarks' "events/sec"
	// ReportMetric to a first-class column: it is the event-engine
	// throughput number the perf trajectory tracks, and scripts
	// shouldn't have to dig through Metrics for it. The raw entry stays
	// in Metrics too, so older tooling keeps working.
	EventsPerSec float64            `json:"events_per_sec,omitempty"`
	Metrics      map[string]float64 `json:"metrics,omitempty"`
}

// eventsPerSec reads the throughput column, falling back to the Metrics
// map for reports archived before the field existed.
func (b Benchmark) eventsPerSec() float64 {
	if b.EventsPerSec != 0 {
		return b.EventsPerSec
	}
	return b.Metrics["events/sec"]
}

// Report is the archived document.
type Report struct {
	SHA        string      `json:"sha,omitempty"`
	GoOS       string      `json:"goos,omitempty"`
	GoArch     string      `json:"goarch,omitempty"`
	Package    string      `json:"pkg,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	sha := flag.String("sha", "", "commit sha recorded in the report")
	compare := flag.Bool("compare", false, "compare two reports: benchjson -compare old.json new.json")
	threshold := flag.Float64("threshold", 0.20, "relative B/op or allocs/op increase flagged as a regression in compare mode")
	flag.Parse()

	if *compare {
		os.Exit(runCompare(flag.Args(), *threshold))
	}

	rep := Report{SHA: *sha}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.GoOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			rep.GoArch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			rep.Package = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			if b, ok := parseLine(line); ok {
				rep.Benchmarks = append(rep.Benchmarks, b)
			}
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// runCompare diffs two archived reports. Benchmarks are matched by name
// (sub-benchmarks keep their full slash-separated path); ones present in
// only one report are listed but not flagged, since renames and new
// benchmarks are routine. Returns 0 when clean, 2 on usage or read
// errors, 3 when at least one regression exceeds the threshold.
func runCompare(paths []string, threshold float64) int {
	if len(paths) != 2 {
		fmt.Fprintln(os.Stderr, "benchjson: -compare needs exactly two report files: old.json new.json")
		return 2
	}
	old, err := loadReport(paths[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 2
	}
	cur, err := loadReport(paths[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 2
	}
	prev := make(map[string]Benchmark, len(old.Benchmarks))
	for _, b := range old.Benchmarks {
		prev[b.Name] = b
	}
	fmt.Printf("comparing %s (%s) -> %s (%s), regression threshold +%.0f%%\n",
		paths[0], orDash(old.SHA), paths[1], orDash(cur.SHA), threshold*100)
	var compared, regressions int
	for _, nb := range cur.Benchmarks {
		ob, ok := prev[nb.Name]
		if !ok {
			fmt.Printf("  %-40s new benchmark\n", nb.Name)
			continue
		}
		delete(prev, nb.Name)
		compared++
		fmt.Printf("  %-40s ns/op %s   B/op %s   allocs/op %s\n", nb.Name,
			delta(ob.NsPerOp, nb.NsPerOp),
			delta(ob.BytesPerOp, nb.BytesPerOp),
			delta(ob.AllocsPerOp, nb.AllocsPerOp))
		if oe, ne := ob.eventsPerSec(), nb.eventsPerSec(); oe != 0 || ne != 0 {
			fmt.Printf("  %-40s events/sec %s\n", "", delta(oe, ne))
			// Gated for the event-engine families only: a >threshold
			// throughput DROP on the kernel/transport benchmarks is the
			// regression the perf trajectory exists to catch. Elsewhere it
			// stays report-only — throughput on shared runners moves with
			// the machine.
			if epsGated(nb.Name) && oe > 0 && ne < oe*(1-threshold) {
				fmt.Printf("REGRESSION: %s events/sec %.0f -> %.0f (%.1f%%) exceeds -%.0f%%\n",
					nb.Name, oe, ne, (ne/oe-1)*100, threshold*100)
				regressions++
			}
		}
		check := func(metric string, o, n float64) {
			if o > 0 && n > o*(1+threshold) {
				fmt.Printf("REGRESSION: %s %s %.0f -> %.0f (+%.1f%%) exceeds +%.0f%%\n",
					nb.Name, metric, o, n, (n/o-1)*100, threshold*100)
				regressions++
			}
		}
		check("B/op", ob.BytesPerOp, nb.BytesPerOp)
		check("allocs/op", ob.AllocsPerOp, nb.AllocsPerOp)
		if nsGated(nb.Name) {
			check("ns/op", ob.NsPerOp, nb.NsPerOp)
		}
	}
	for _, b := range old.Benchmarks {
		if _, unmatched := prev[b.Name]; unmatched {
			fmt.Printf("  %-40s removed (was in %s)\n", b.Name, paths[0])
		}
	}
	fmt.Printf("%d benchmarks compared, %d regressions\n", compared, regressions)
	if regressions > 0 {
		return 3
	}
	return 0
}

// nsGated reports whether a benchmark's ns/op is gated in compare mode.
// Two families are stable enough to gate on wall time: the
// event-calendar hot path (the kernel benchmarks and
// BenchmarkResiliencyYear, which drives the kernel through the
// production failure injector), and the max-min solver (the full-scale
// census; one cold full-scale solve each of an uncapped far shift and of
// GPCNeT's capped 32-PPN congested phase, so that both of the freeze
// loop's queues are covered; and the solution-cache micro-benchmarks) —
// long, single-path inner loops where a >threshold ns/op increase is a
// real solver regression, not runner noise. Names are matched after the
// -procs suffix has been stripped by parseLine; sub-benchmarks keep
// their slash-separated path, so the prefixes cover
// BenchmarkSolutionCache/hit and friends. The phase-structured job layer
// adds more: the LLM train-step Bind pricing micro-benchmark and the
// campaign replays (BenchmarkCampaignWeek and the year-at-scale
// BenchmarkCampaignYear), all deterministic single-path loops over the
// job/env hot path.
func nsGated(name string) bool {
	return strings.HasPrefix(name, "BenchmarkKernel") ||
		name == "BenchmarkResiliencyYear" ||
		strings.HasPrefix(name, "BenchmarkFig6FullScale") ||
		name == "BenchmarkSolveColdFullScale" ||
		name == "BenchmarkGPCNeTSolveFullScale" ||
		strings.HasPrefix(name, "BenchmarkSolutionCache") ||
		strings.HasPrefix(name, "BenchmarkLLMTrainStep") ||
		strings.HasPrefix(name, "BenchmarkCampaign")
}

// epsGated reports whether a benchmark's events/sec throughput is gated
// (on decrease) in compare mode: the kernel family and
// BenchmarkResiliencyYear run long enough inner loops that a >threshold
// throughput drop is an event-engine regression, not runner noise. ns/op
// gating catches the same families from the per-iteration side;
// events/sec additionally covers sub-benchmarks whose iteration shape
// changed.
func epsGated(name string) bool {
	return strings.HasPrefix(name, "BenchmarkKernel") ||
		name == "BenchmarkResiliencyYear"
}

func loadReport(path string) (Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Report{}, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return Report{}, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

// delta renders "old -> new (+x%)"; a zero old value has no meaningful
// ratio, so just the raw values are shown.
func delta(o, n float64) string {
	if o == 0 {
		return fmt.Sprintf("%.0f -> %.0f", o, n)
	}
	return fmt.Sprintf("%.0f -> %.0f (%+.1f%%)", o, n, (n/o-1)*100)
}

// parseLine parses one result line of the standard bench output format:
//
//	BenchmarkName-8  	  123	  456789 ns/op	  12.3 extra/metric
func parseLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 3 {
		return Benchmark{}, false
	}
	var b Benchmark
	b.Name = fields[0]
	if i := strings.LastIndex(b.Name, "-"); i > 0 {
		if procs, err := strconv.Atoi(b.Name[i+1:]); err == nil {
			b.Procs = procs
			b.Name = b.Name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b.Iterations = iters
	// The remainder is value-unit pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		unit := fields[i+1]
		if unit == "ns/op" {
			b.NsPerOp = v
			continue
		}
		if unit == "B/op" {
			b.BytesPerOp = v
			continue
		}
		if unit == "allocs/op" {
			b.AllocsPerOp = v
			continue
		}
		if unit == "events/sec" {
			b.EventsPerSec = v // and recorded in Metrics below, for old readers
		}
		if b.Metrics == nil {
			b.Metrics = make(map[string]float64)
		}
		b.Metrics[unit] = v
	}
	return b, true
}
