package experiments

import (
	"fmt"

	"frontiersim/internal/report"
	"frontiersim/internal/units"
	"frontiersim/internal/workload"
)

// ExtYear runs a full simulated year of operations on the full 9,472-node
// Frontier spec with every job phase-structured — the scale target the
// campaign engine's hot-path work exists for. It shares the always-on,
// per-run placement-signature pricing cache with ext-campaign, the only
// other campaign that attaches one (YearMix quantizes jobs onto a few
// dozen distinct programs, so repeat placements price as cache hits).
// Every campaign shares the rest of what carries it: the scheduler's
// indexed free lists, interarrival gaps from their own derived stream,
// and failure injection that keeps one trace entry on the calendar at a
// time. Cache hits are bit-exact, so the table is byte-identical across
// -jobs settings and the pricing cache hit rate itself is
// deterministic. ExtYear alone bounds the EASY backfill scan to 64
// pending jobs: that is a scheduling policy, not a speed knob, and it
// changes which jobs start. Quick mode shortens the year to a fortnight
// on the same machine.
func ExtYear(o Options) (*report.Table, error) {
	spec := o.machine()
	sys, err := bardPeakSystem("scheduler", spec, o.Seed)
	if err != nil {
		return nil, err
	}
	cache := o.pricingCache(sys, spec)
	cfg := workload.DefaultConfig()
	cfg.Mix = workload.YearMix(spec.Platform(), spec.NodeModel())
	cfg.Duration = 365 * units.Day
	cfg.MeanInterarrival = 30 * units.Minute
	cfg.BackfillDepth = 64
	if o.Quick {
		cfg.Duration = 14 * units.Day
	}
	stats, err := workload.Run(sys, cfg, o.Seed)
	if err != nil {
		return nil, err
	}
	t := &report.Table{ID: "ext-year", Title: "A year of operations, every job phase-structured"}
	t.AddInfo("machine / window", fmt.Sprintf("%d nodes / %v", sys.Fabric.Cfg.ComputeNodes(), cfg.Duration),
		"full Frontier spec, year-scale campaign")
	t.AddInfo("jobs submitted", fmt.Sprintf("%d", stats.Submitted),
		fmt.Sprintf("debug %d, midsize %d, capability %d, hero %d",
			stats.ByClass["debug"], stats.ByClass["midsize"], stats.ByClass["capability"], stats.ByClass["hero"]))
	t.AddInfo("completed / failed / timeout", fmt.Sprintf("%d / %d / %d",
		stats.Completed, stats.Failed, stats.Timeouts),
		fmt.Sprintf("%d still queued or running at the horizon", stats.Unfinished))
	t.AddInfo("machine utilization", fmt.Sprintf("%.1f%%", stats.Utilization*100),
		fmt.Sprintf("avg wait %v, max %v", stats.AvgWait, stats.MaxWait))
	if stats.Requested > 0 {
		t.Add("delivered vs requested walltime", "<= 1.0 (margin 1.25x)",
			fmt.Sprintf("%.2f (%v of %v)", float64(stats.Delivered)/float64(stats.Requested),
				stats.Delivered, stats.Requested),
			1.0, float64(stats.Delivered)/float64(stats.Requested),
			"programs re-priced on their granted placement")
	}
	t.AddInfo("node failures / job interrupts", fmt.Sprintf("%d / %d", stats.NodeFailures, stats.JobInterrupts),
		fmt.Sprintf("measured MTTI %v, paced injection", stats.MeasuredMTTI))
	t.AddInfo("checkpoints / lost work", fmt.Sprintf("%d / %v", stats.Checkpoints, stats.LostWork),
		"hero jobs checkpoint once per coarsened pass")
	addSlowdownRows(t, stats)
	if cache != nil {
		hits, misses := cache.Stats()
		t.AddInfo("pricing cache", fmt.Sprintf("%.1f%% hit rate (%d hits / %d misses, %d entries)",
			cache.HitRate()*100, hits, misses, cache.Len()),
			"placement-signature memoization of program pricing; hits are bit-identical")
	}
	return t, nil
}

// addSlowdownRows appends per-class mean and exact p50/p95/p99 bounded
// slowdowns in the program-class order the campaign tables use.
func addSlowdownRows(t *report.Table, stats workload.Stats) {
	for _, class := range []string{"stencil", "Cholla", "GESTS", "llm-train"} {
		q, ok := stats.TailSlowdownByClass[class]
		if !ok {
			continue
		}
		t.AddInfo(fmt.Sprintf("slowdown tail: %s", class),
			fmt.Sprintf("p50 %.1fx, p95 %.1fx, p99 %.1fx", q.P50, q.P95, q.P99),
			fmt.Sprintf("exact quantiles over %d finished jobs (mean %.1fx)",
				q.Samples, stats.SlowdownByClass[class]))
	}
}
