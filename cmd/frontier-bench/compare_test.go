package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runs returns n values around base with a fixed relative jitter pattern.
func runs(n int, base, jitter float64) []float64 {
	pattern := []float64{-1, 0.5, -0.25, 1, 0, -0.5, 0.75, 0.25, -0.75, 0.1, -0.1, 0.6}
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = base * (1 + jitter*pattern[i%len(pattern)])
	}
	return xs
}

func TestCompareVerdicts(t *testing.T) {
	for _, c := range []struct {
		name           string
		parent, change []float64
		lowerBetter    bool
		want           string
	}{
		{"faster by far more than the spread", runs(10, 4, 0.02), runs(10, 3, 0.02), true, "improved"},
		{"higher throughput", runs(10, 100, 0.02), runs(10, 130, 0.02), false, "improved"},
		{"slower beyond the bound", runs(10, 4, 0.02), runs(10, 4.6, 0.02), true, "regressed"},
		{"within the noise", runs(10, 4, 0.02), runs(10, 4.02, 0.02), true, "no change"},
		{"slower but within the bound", runs(10, 4, 0.02), runs(10, 4.2, 0.02), true, "no change"},
		{"too few pairs", runs(9, 4, 0.02), runs(9, 3, 0.02), true, "unresolved"},
		{"parent spread wider than the bound", runs(10, 4, 0.3), runs(10, 3.9, 0.3), true, "unresolved"},
	} {
		got := compareMetric(c.parent, c.change, 0.1, c.lowerBetter)
		if got.verdict != c.want {
			t.Errorf("%s: verdict %s (won %.0f%%, parent %v, change %v), want %s",
				c.name, got.verdict, 100*got.won, got.parent, got.change, c.want)
		}
	}
}

func TestCompareWideSpreadButClearlyBetter(t *testing.T) {
	// Every change run beats every parent run: not unresolved even though
	// the parent's spread exceeds the bound.
	parent := []float64{10, 11, 12, 13, 14, 15, 16, 17, 18, 19}
	change := []float64{5, 5.5, 6, 6.5, 7, 7.5, 8, 8.5, 9, 9.5}
	if got := compareMetric(parent, change, 0.1, true); got.verdict != "improved" {
		t.Errorf("verdict %s, want improved", got.verdict)
	}
	if got := compareMetric(parent, change[:0], 0.1, true); got.verdict != "unresolved" {
		t.Errorf("no pairs: verdict %s, want unresolved", got.verdict)
	}
}

// TestCompareFailedRunsRegress: a change that reads faster but failed an
// operation the parent passed has regressed, not improved.
func TestCompareFailedRunsRegress(t *testing.T) {
	root := t.TempDir()
	spec := `{"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}]}`
	if err := os.WriteFile(filepath.Join(root, "BENCHMARK.json"), []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	write := func(name string, walls []float64, failAt int) string {
		var b []byte
		for i, v := range walls {
			r := record{Workload: "census", Seed: int64(i + 1), result: result{Correct: true, Attempted: 4,
				Metrics: map[string]jsonMetric{"wall_s": {v, "s"}}}}
			if i == failAt {
				r.Correct, r.Failed = false, 1
			}
			b = append(b, marshalLine(r)...)
		}
		path := filepath.Join(root, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	parent := write("parent.jsonl", runs(10, 4, 0.02), -1)
	for _, c := range []struct {
		failAt  int
		code    int
		verdict string
	}{{-1, 0, "improved"}, {3, 3, "regressed"}} {
		change := write("change.jsonl", runs(10, 3, 0.02), c.failAt)
		var out strings.Builder
		code := runCompare(&out, root, []string{parent, change})
		last := strings.Fields(strings.TrimSpace(out.String()))
		if code != c.code || last[len(last)-1] != c.verdict {
			t.Errorf("change failing run %d: exit %d, output\n%s\nwant exit %d and verdict %s", c.failAt, code, out.String(), c.code, c.verdict)
		}
	}
}
