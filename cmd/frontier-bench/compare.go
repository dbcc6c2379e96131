package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

// benchmarkFile is the part of BENCHMARK.json -compare reads: each
// end-to-end metric's direction and the bound it may worsen by.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// minPairs is the fewest runs per side a verdict other than unresolved
// needs.
const minPairs = 10

// comparison is one metric on one workload across paired runs.
type comparison struct {
	parent, change [3]float64 // q1, median, q3
	won            float64    // share of pairs the change read better in; ties count for neither
	verdict        string
}

// compareMetric judges paired runs of the parent and the change (pair i
// is parent[i] and change[i], run back to back). The change
//   - regressed when its median is worse than the parent's by more than bound;
//   - improved when it wins at least 9 in 10 pairs and its median moved by
//     more than the distance between the parent's quartiles;
//   - is unresolved with fewer than minPairs pairs, or when the parent's
//     own spread is wider than bound, unless every change run reads better
//     than every parent run;
//   - is no change otherwise.
func compareMetric(parent, change []float64, bound float64, lowerBetter bool) comparison {
	n := min(len(parent), len(change))
	parent, change = parent[:n], change[:n]
	better := func(a, b float64) bool { // a reads better than b
		if lowerBetter {
			return a < b
		}
		return a > b
	}
	c := comparison{
		parent: [3]float64{quantile(parent, 0.25), median(parent), quantile(parent, 0.75)},
		change: [3]float64{quantile(change, 0.25), median(change), quantile(change, 0.75)},
	}
	if n == 0 {
		c.verdict = "unresolved"
		return c
	}
	wins := 0
	allBetter := true
	for i := range parent {
		if better(change[i], parent[i]) {
			wins++
		}
		for _, p := range parent {
			allBetter = allBetter && better(change[i], p)
		}
	}
	c.won = float64(wins) / float64(n)
	mp, mc := c.parent[1], c.change[1]
	worse := (mc - mp) / mp
	if !lowerBetter {
		worse = -worse
	}
	spread := c.parent[2] - c.parent[0]
	switch {
	case n < minPairs:
		c.verdict = "unresolved"
	case worse > bound:
		c.verdict = "regressed"
	case c.won >= 0.9 && better(mc, mp) && math.Abs(mc-mp) > spread:
		c.verdict = "improved"
	case spread/math.Abs(mp) > bound && !allBetter:
		c.verdict = "unresolved"
	default:
		c.verdict = "no change"
	}
	return c
}

// failedMore says why the change's runs of a workload fail more than the
// parent's, or returns "" if they do not. A change run fails more when a
// check failed in it or it failed more operations than its paired parent
// run. Its timings then do not count: a run whose outputs are wrong, or
// whose failed operations were dropped from the medians, can read faster.
func failedMore(parent, change []record) string {
	for i, c := range change {
		if !c.Correct || c.Failed > parent[i].Failed {
			return fmt.Sprintf("change run %d (seed %d) failed %d of %d operations, its parent run %d",
				i+1, c.Seed, c.Failed, c.Attempted, parent[i].Failed)
		}
	}
	return ""
}

func readRecords(path string) (map[string][]record, []string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	byWorkload := map[string][]record{}
	var order []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for line := 1; sc.Scan(); line++ {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if r.Trace {
			continue
		}
		if _, ok := byWorkload[r.Workload]; !ok {
			order = append(order, r.Workload)
		}
		byWorkload[r.Workload] = append(byWorkload[r.Workload], r)
	}
	return byWorkload, order, sc.Err()
}

// runCompare prints a verdict for every workload and end-to-end metric of
// two files of -out records, parent first. It exits 3 if any regressed.
func runCompare(w io.Writer, root string, files []string) int {
	if len(files) != 2 {
		fmt.Fprintln(os.Stderr, "frontier-bench: -compare needs two record files: PARENT CHANGE")
		return 2
	}
	var spec benchmarkFile
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err == nil {
		err = json.Unmarshal(b, &spec)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "frontier-bench: BENCHMARK.json:", err)
		return 1
	}
	parent, order, err := readRecords(files[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "frontier-bench:", err)
		return 1
	}
	change, _, err := readRecords(files[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "frontier-bench:", err)
		return 1
	}
	code := 0
	fmt.Fprintf(w, "%-12s %-15s %5s  %-30s  %-30s  %5s  %s\n", "workload", "metric", "pairs",
		"parent q1/median/q3", "change q1/median/q3", "won", "verdict")
	for _, wl := range order {
		pr, cr := parent[wl], change[wl]
		n := min(len(pr), len(cr))
		failed := failedMore(pr[:n], cr[:n])
		if failed != "" {
			fmt.Fprintf(w, "%-12s %s: every metric regressed\n", wl, failed)
		}
		for _, m := range spec.EndToEnd {
			values := func(rs []record) []float64 {
				var xs []float64
				for _, r := range rs[:n] {
					xs = append(xs, r.Metrics[m.Name].Value)
				}
				return xs
			}
			c := compareMetric(values(pr), values(cr), m.Bound, m.Better == "lower")
			if failed != "" {
				c.verdict = "regressed"
			}
			fmt.Fprintf(w, "%-12s %-15s %5d  %-30s  %-30s  %4.0f%%  %s\n", wl, m.Name, n,
				fmt.Sprintf("%.4g/%.4g/%.4g", c.parent[0], c.parent[1], c.parent[2]),
				fmt.Sprintf("%.4g/%.4g/%.4g", c.change[0], c.change[1], c.change[2]),
				100*c.won, c.verdict)
			if c.verdict == "regressed" {
				code = 3
			}
		}
	}
	return code
}
