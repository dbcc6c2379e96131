package workload

import (
	"reflect"
	"testing"

	"frontiersim/internal/core"
	"frontiersim/internal/machine"
	"frontiersim/internal/units"
)

func campaignSystem(t *testing.T) *core.System {
	t.Helper()
	// 12 groups x 16 switches x 8 endpoints = 384 nodes.
	sys, err := core.New(machine.Scaled(12, 16, 8), 3)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestCampaignRuns(t *testing.T) {
	sys := campaignSystem(t)
	cfg := DefaultConfig()
	cfg.Duration = 2 * units.Day
	cfg.MeanInterarrival = 10 * units.Minute
	cfg.InjectFailures = false
	stats, err := Run(sys, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Submitted < 100 {
		t.Errorf("submitted = %d, want a steady stream over 2 days", stats.Submitted)
	}
	if stats.Completed == 0 {
		t.Error("no jobs completed")
	}
	if stats.Failed != 0 {
		t.Errorf("failed = %d, want 0 without failure injection", stats.Failed)
	}
	if stats.Utilization <= 0 || stats.Utilization > 1.0+1e-9 {
		t.Errorf("utilization = %.3f, want (0,1]", stats.Utilization)
	}
	if stats.Submitted != stats.Completed+stats.Failed+stats.Unfinished {
		t.Error("job accounting does not balance")
	}
	if stats.String() == "" {
		t.Error("empty String")
	}
	// All four classes should appear over ~290 submissions.
	for _, class := range []string{"debug", "midsize", "capability", "hero"} {
		if stats.ByClass[class] == 0 {
			t.Errorf("class %q never submitted", class)
		}
	}
}

func TestCampaignWithFailures(t *testing.T) {
	sys := campaignSystem(t)
	cfg := DefaultConfig()
	cfg.Duration = 3 * units.Day
	cfg.MeanInterarrival = 10 * units.Minute
	stats, err := Run(sys, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	// The full-machine reliability model fires every ~5.5h; over 3 days
	// that is ~13 interrupting failures.
	if stats.NodeFailures < 5 || stats.NodeFailures > 30 {
		t.Errorf("node failures = %d, want ~13 over 3 days", stats.NodeFailures)
	}
	if stats.MeasuredMTTI <= 0 {
		t.Error("measured MTTI missing")
	}
	// Some failures land on busy nodes and kill jobs.
	if stats.JobInterrupts == 0 {
		t.Error("expected at least one job interrupt on a busy machine")
	}
	if stats.JobInterrupts != stats.Failed {
		t.Errorf("interrupts %d != failed %d", stats.JobInterrupts, stats.Failed)
	}
}

func TestUtilizationRespondsToLoad(t *testing.T) {
	light := DefaultConfig()
	light.Duration = 1 * units.Day
	light.MeanInterarrival = 2 * units.Hour
	light.InjectFailures = false
	sysL := campaignSystem(t)
	statsL, err := Run(sysL, light, 3)
	if err != nil {
		t.Fatal(err)
	}
	heavy := light
	heavy.MeanInterarrival = 2 * units.Minute
	sysH := campaignSystem(t)
	statsH, err := Run(sysH, heavy, 3)
	if err != nil {
		t.Fatal(err)
	}
	if statsH.Utilization <= statsL.Utilization {
		t.Errorf("heavy load utilization %.3f should exceed light %.3f",
			statsH.Utilization, statsL.Utilization)
	}
	if statsH.AvgWait <= statsL.AvgWait {
		t.Errorf("heavy load wait %v should exceed light %v", statsH.AvgWait, statsL.AvgWait)
	}
}

// The same seed reproduces a whole campaign — arrivals from their
// derived stream, the failure trace fed through the paced injector, and
// every statistic downstream of them.
func TestCampaignDeterminism(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Duration = 2 * units.Day
	cfg.MeanInterarrival = 10 * units.Minute
	a, err := Run(campaignSystem(t), cfg, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(campaignSystem(t), cfg, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed should reproduce:\na: %+v\nb: %+v", a, b)
	}
	if a.Submitted == 0 || a.NodeFailures == 0 {
		t.Fatalf("campaign exercised too little: %v", a)
	}
}

func TestConfigValidation(t *testing.T) {
	sys := campaignSystem(t)
	if _, err := Run(sys, Config{Duration: 0}, 1); err == nil {
		t.Error("zero duration should error")
	}
	bad := DefaultConfig()
	bad.Mix = []JobClass{{Name: "broken", MinFrac: 0.5, MaxFrac: 0.1, Weight: 1}}
	if _, err := Run(sys, bad, 1); err == nil {
		t.Error("inverted fractions should error")
	}
}

// Percentile slowdowns are exact nearest-rank quantiles over every
// finished job, consistent with the mean the class already reports.
func TestTailSlowdowns(t *testing.T) {
	sys := campaignSystem(t)
	cfg := DefaultConfig()
	cfg.Duration = 2 * units.Day
	cfg.MeanInterarrival = 5 * units.Minute
	stats, err := Run(sys, cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.TailSlowdownByClass) == 0 {
		t.Fatal("no tail slowdowns recorded")
	}
	total := 0
	for class, q := range stats.TailSlowdownByClass {
		if q.Samples <= 0 {
			t.Errorf("%s: no samples", class)
		}
		total += q.Samples
		if q.P50 < 1 || q.P95 < q.P50 || q.P99 < q.P95 {
			t.Errorf("%s: quantiles not ordered: p50=%.2f p95=%.2f p99=%.2f", class, q.P50, q.P95, q.P99)
		}
		mean := stats.SlowdownByClass[class]
		if mean <= 0 {
			t.Errorf("%s: tail quantiles without a mean", class)
		}
		if q.P50 > mean*10+10 {
			t.Errorf("%s: p50 %.2f wildly above mean %.2f", class, q.P50, mean)
		}
	}
	finished := stats.Completed + stats.Failed + stats.Timeouts
	if total != finished {
		t.Errorf("quantile samples %d != finished jobs %d (not reservoir-free?)", total, finished)
	}
}

func TestQuantileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		q    float64
		want float64
	}{{0.50, 5}, {0.95, 10}, {0.99, 10}, {0.10, 1}, {1.0, 10}}
	for _, c := range cases {
		if got := quantile(s, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile([]float64{3.5}, 0.99); got != 3.5 {
		t.Errorf("single-sample quantile = %v", got)
	}
}
