package main

import (
	"math"
	"testing"
)

func TestQuantileMatchesPythonExclusiveMethod(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	for _, c := range []struct{ p, want float64 }{{0.25, 2.75}, {0.5, 5.5}, {0.75, 8.25}} {
		if got := quantile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 = %v, want 2", got)
	}
	if got := median([]float64{4}); got != 4 {
		t.Errorf("median of one = %v, want 4", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
	if xs[0] != 10 {
		t.Error("quantile sorted its input in place")
	}
}

func TestTailPerMilleKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{0, 0}, {19, 0}, {20, 500}, {39, 500}, {40, 750}, {99, 750}, {100, 900},
		{199, 900}, {200, 950}, {999, 950}, {1000, 990}, {9999, 990}, {10000, 999},
	} {
		if got := tailPerMille(c.n); got != c.want {
			t.Errorf("tailPerMille(%d) = %d, want %d", c.n, got, c.want)
		}
		if pm := tailPerMille(c.n); pm > 0 && c.n*(1000-pm) < 10*1000 {
			t.Errorf("n=%d: p%d leaves fewer than ten samples beyond it", c.n, pm)
		}
	}
}

func TestMeanLiveMBReadsGCTrace(t *testing.T) {
	stderr := `frontier-serve: listening on http://127.0.0.1:4000 (jobs=2)
gc 1 @0.010s 1%: 0.012+0.50+0.004 ms clock, 0.024+0.1/0.4/0.1+0.008 ms cpu, 4->4->1 MB, 4 MB goal, 0 MB stacks, 0 MB globals, 2 P
gc 2 @0.300s 3%: 0.018+2.1+0.004 ms clock, 0.036+0.5/1.9/0.8+0.008 ms cpu, 180->182->95 MB, 190 MB goal, 0 MB stacks, 0 MB globals, 2 P
[fig6 completed in 1.2s]
gc 3 @0.900s 3%: 0.018+2.1+0.004 ms clock, 0.036+0.5/1.9/0.8+0.008 ms cpu, 200->201->60 MB, 210 MB goal, 0 MB stacks, 0 MB globals, 2 P (forced)
`
	if got := meanLiveMB(stderr); got != 52 {
		t.Errorf("meanLiveMB = %v, want 52 (the mean of the live heaps 1, 95 and 60)", got)
	}
	if got := meanLiveMB("no collections\n"); got != 0 {
		t.Errorf("meanLiveMB without gc lines = %v, want 0", got)
	}
	if got := lastMessage(stderr); got != "[fig6 completed in 1.2s]" {
		t.Errorf("lastMessage = %q, want the last non-gctrace line", got)
	}
}
