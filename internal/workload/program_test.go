package workload

import (
	"reflect"
	"testing"

	"frontiersim/internal/job"
	"frontiersim/internal/machine"
	"frontiersim/internal/units"
)

// Regression for the interarrival/repair validation: a zero mean makes
// the submission process fire unboundedly at t=0, and a negative repair
// time schedules events in the past — both must be rejected up front.
func TestConfigRejectsDegenerateRates(t *testing.T) {
	sys := campaignSystem(t)
	cfg := DefaultConfig()
	cfg.MeanInterarrival = 0
	if _, err := Run(sys, cfg, 1); err == nil {
		t.Error("zero mean interarrival should error")
	}
	cfg = DefaultConfig()
	cfg.MeanInterarrival = -units.Minute
	if _, err := Run(sys, cfg, 1); err == nil {
		t.Error("negative mean interarrival should error")
	}
	cfg = DefaultConfig()
	cfg.RepairTime = -units.Hour
	if _, err := Run(sys, cfg, 1); err == nil {
		t.Error("negative repair time should error")
	}
	cfg = DefaultConfig()
	cfg.RepairTime = 0 // instant repair is legal
	cfg.Duration = 6 * units.Hour
	if _, err := Run(sys, cfg, 1); err != nil {
		t.Errorf("zero repair time rejected: %v", err)
	}
}

// A program-mix campaign: every class phase-structured, runtimes derived
// from placement, delivered/requested and per-class slowdowns populated.
func TestProgramMixCampaign(t *testing.T) {
	sys := campaignSystem(t)
	spec := machine.Scaled(12, 16, 8)
	cfg := DefaultConfig()
	cfg.Duration = 2 * units.Day
	cfg.MeanInterarrival = 10 * units.Minute
	cfg.Mix = ProgramMix(spec.Platform(), spec.NodeModel())
	stats, err := Run(sys, cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Submitted < 100 {
		t.Fatalf("submitted = %d, want a steady stream", stats.Submitted)
	}
	if stats.Completed == 0 {
		t.Fatal("no program jobs completed")
	}
	if stats.Requested <= 0 || stats.Delivered <= 0 {
		t.Errorf("requested/delivered not populated: %v / %v", stats.Requested, stats.Delivered)
	}
	// The walltime margin quotes 1.25x a spread estimate, so in aggregate
	// delivered should undercut requested.
	if stats.Delivered >= stats.Requested {
		t.Errorf("delivered %v >= requested %v: margin accounting inverted", stats.Delivered, stats.Requested)
	}
	if len(stats.SlowdownByClass) == 0 {
		t.Error("no per-class slowdowns recorded")
	}
	for class, s := range stats.SlowdownByClass {
		if s < 1 {
			t.Errorf("class %s slowdown %.2f < 1", class, s)
		}
	}
	if stats.Submitted != stats.Completed+stats.Failed+stats.Timeouts+stats.Unfinished {
		t.Error("job accounting does not balance with timeouts")
	}
}

// The same seed reproduces a program-mix campaign exactly.
func TestProgramMixDeterminism(t *testing.T) {
	run := func() Stats {
		sys := campaignSystem(t)
		spec := machine.Scaled(12, 16, 8)
		cfg := DefaultConfig()
		cfg.Duration = 1 * units.Day
		cfg.MeanInterarrival = 15 * units.Minute
		cfg.Mix = ProgramMix(spec.Platform(), spec.NodeModel())
		stats, err := Run(sys, cfg, 11)
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	a, b := run(), run()
	if a.Submitted != b.Submitted || a.Completed != b.Completed || a.Timeouts != b.Timeouts ||
		a.Delivered != b.Delivered || a.Checkpoints != b.Checkpoints || a.LostWork != b.LostWork {
		t.Errorf("same seed diverged:\n%+v\n%+v", a, b)
	}
}

// Program and blob submissions consume identical RNG draw sequences
// (pick, size, one exponential, interarrival), so a program mix with
// LeadershipMix's weights submits the exact same class sequence a blob
// campaign does — the guarantee that keeps pre-existing blob campaigns
// byte-identical when program classes exist in the codebase.
func TestProgramClassDoesNotShiftBlobDraws(t *testing.T) {
	run := func(mix []JobClass) Stats {
		sys := campaignSystem(t)
		cfg := DefaultConfig()
		cfg.Duration = 1 * units.Day
		cfg.InjectFailures = false
		cfg.Mix = mix
		stats, err := Run(sys, cfg, 5)
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	spec := machine.Scaled(12, 16, 8)
	blob := run(LeadershipMix())
	prog := run(ProgramMix(spec.Platform(), spec.NodeModel()))
	if blob.Submitted != prog.Submitted {
		t.Errorf("draw sequences diverged: %d vs %d submissions", blob.Submitted, prog.Submitted)
	}
	for class, n := range blob.ByClass {
		if prog.ByClass[class] != n {
			t.Errorf("class %s: blob mix %d vs program mix %d submissions", class, n, prog.ByClass[class])
		}
	}
}

// Attaching a pricing cache to the scheduler's environment must be
// invisible: every stat — delivered walltimes, slowdown quantiles,
// utilization — flows through Bind totals, so this DeepEqual pins the
// cache's bit-identity contract at the campaign level. YearMix gives
// the cache real repeats to serve.
func TestCampaignPricingCacheInvisible(t *testing.T) {
	run := func(cache *job.PricingCache) Stats {
		sys := campaignSystem(t)
		sys.Scheduler.Env.Cache = cache
		spec := machine.Scaled(12, 16, 8)
		cfg := DefaultConfig()
		cfg.Duration = 2 * units.Day
		cfg.MeanInterarrival = 10 * units.Minute
		cfg.Mix = YearMix(spec.Platform(), spec.NodeModel())
		stats, err := Run(sys, cfg, 7)
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	cache := job.NewPricingCache()
	cached := run(cache)
	uncached := run(nil)
	if !reflect.DeepEqual(cached, uncached) {
		t.Errorf("pricing cache changed campaign stats:\ncached:   %+v\nuncached: %+v", cached, uncached)
	}
	hits, misses := cache.Stats()
	if hits == 0 {
		t.Errorf("year-mix campaign never hit the cache (hits=%d misses=%d)", hits, misses)
	}
}

// YearMix must consume the exact draw sequence ProgramMix does —
// quantization happens after the draws — so the submitted class
// sequence and failure trace match a ProgramMix campaign's exactly.
func TestYearMixDoesNotShiftDraws(t *testing.T) {
	spec := machine.Scaled(12, 16, 8)
	run := func(mix []JobClass) Stats {
		sys := campaignSystem(t)
		cfg := DefaultConfig()
		cfg.Duration = 1 * units.Day
		cfg.Mix = mix
		stats, err := Run(sys, cfg, 5)
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	prog := run(ProgramMix(spec.Platform(), spec.NodeModel()))
	year := run(YearMix(spec.Platform(), spec.NodeModel()))
	if prog.Submitted != year.Submitted || prog.NodeFailures != year.NodeFailures {
		t.Errorf("year mix shifted the draw sequence: %d/%d submitted, %d/%d failures",
			prog.Submitted, year.Submitted, prog.NodeFailures, year.NodeFailures)
	}
	if !reflect.DeepEqual(prog.ByClass, year.ByClass) {
		t.Errorf("class sequence diverged: %v vs %v", prog.ByClass, year.ByClass)
	}
}
