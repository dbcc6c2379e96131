package experiments

import (
	"fmt"

	"frontiersim/internal/job"
	"frontiersim/internal/llm"
	"frontiersim/internal/machine"
	"frontiersim/internal/report"
	"frontiersim/internal/scheduler"
	"frontiersim/internal/units"
	"frontiersim/internal/workload"
)

// ExtLLM runs phase-structured LLM training steps through the real
// scheduler at increasing node counts and reports delivered tokens/sec:
// the job-program layer's first client. Each point submits a GPT-175B
// training program (TP/PP/DP collectives sized from the model's GEMM
// shards, microbatch bounded by HBM), lets the scheduler place it, and
// measures the runtime that emerges from the placement — so machine
// what-ifs (halving linkRate, taper changes) degrade the
// collective-bound points and leave compute-bound ones alone.
func ExtLLM(o Options) (*report.Table, error) {
	sys, err := bardPeakSystem("scheduler", o.machine(), o.Seed)
	if err != nil {
		return nil, err
	}
	t := &report.Table{ID: "ext-llm", Title: "LLM training at scale: tokens/sec vs node count"}
	nodeModel := o.machine().NodeModel()
	steps := 50
	counts := []int{64, 256, 1024, 4096}
	if o.Quick {
		steps = 10
		counts = []int{64, 256, 1024}
	}
	total := sys.Fabric.Cfg.ComputeNodes()
	// Two regimes: the throughput sweep amortizes the gradient sync over
	// a deep batch (compute-bound, the production shape); the comm-bound
	// sweep runs data-parallel-only with a shallow batch, so the DP
	// allreduce crosses the fabric un-amortized and taper/link what-ifs
	// bite hard.
	sweeps := []struct {
		label string
		step  func(n int) (*llm.Step, error)
	}{
		{"175b", func(n int) (*llm.Step, error) {
			return llm.AutoStep(llm.Frontier175B(), n, nodeModel.Devices, nodeModel)
		}},
		{"22b comm-bound", func(n int) (*llm.Step, error) {
			par := llm.Parallelism{TP: nodeModel.Devices, PP: 1, DP: n}
			return llm.TrainStep(llm.Config{
				Model: llm.Frontier22B(), Par: par, PPN: nodeModel.Devices,
				GlobalBatch: 4 * par.DP, Node: nodeModel,
			})
		}},
	}
	for _, sw := range sweeps {
		var baseTok, baseNodes float64
		for _, n := range counts {
			row := fmt.Sprintf("%s, %d nodes", sw.label, n)
			if n > total {
				t.AddInfo(row, "skipped", fmt.Sprintf("machine has %d nodes", total))
				continue
			}
			step, err := sw.step(n)
			if err != nil {
				t.AddInfo(row, "infeasible", err.Error())
				continue
			}
			prog := step.WithSteps(steps, 0)
			j, err := sys.Scheduler.Submit(prog, nil)
			if err != nil {
				return nil, err
			}
			sys.Kernel.Run()
			if j.State != scheduler.Completed {
				t.AddInfo(row, j.State.String(),
					fmt.Sprintf("requested %v, program needs %v", j.Walltime, j.Bound.Total))
				continue
			}
			run := j.End - j.Start
			tok := step.TokensPerStep * float64(steps) / float64(run)
			collFrac := collectiveShare(j.Bound)
			note := fmt.Sprintf("%s: pipe eff %.2f, collectives %.0f%% of step",
				prog.Name, step.PipelineEff, collFrac*100)
			if baseTok == 0 {
				baseTok, baseNodes = tok, float64(n)
				t.AddInfo(row, fmt.Sprintf("%.3g tokens/s, step %v", tok, run/units.Seconds(steps)), note)
				continue
			}
			scaling := (tok / baseTok) / (float64(n) / baseNodes)
			t.Add(row, "linear scaling 1.0x",
				fmt.Sprintf("%.3g tokens/s, step %v, %.0f%% scaling eff",
					tok, run/units.Seconds(steps), scaling*100),
				1.0, scaling, note)
		}
	}
	return t, nil
}

// collectiveShare is the fraction of one priced loop pass spent in
// collective phases.
func collectiveShare(b *job.Bound) float64 {
	var coll, tot units.Seconds
	for i, d := range b.LoopTimes {
		tot += d
		if b.Prog.Loop[i].Kind == job.Collective {
			coll += d
		}
	}
	if tot == 0 {
		return 0
	}
	return float64(coll) / float64(tot)
}

// ExtCampaign runs a simulated week of operations in which every job is
// phase-structured — stencil debug jobs, hydro and spectral proxies in
// the middle strata, LLM training as the hero class — on a scaled
// Frontier, so runtimes emerge from placement instead of being drawn and
// the campaign reports delivered-vs-requested walltime, per-class
// slowdown, and checkpoint/lost-work accounting. A -machine override is
// honoured as given (full Frontier works but prices many more programs).
func ExtCampaign(o Options) (*report.Table, error) {
	spec := o.machine()
	if o.Machine == nil {
		spec = machine.Scaled(8, 16, 8)
	}
	sys, err := bardPeakSystem("scheduler", spec, o.Seed)
	if err != nil {
		return nil, err
	}
	cache := o.pricingCache(sys, spec)
	cfg := workload.DefaultConfig()
	cfg.Mix = workload.ProgramMix(spec.Platform(), spec.NodeModel())
	cfg.MeanInterarrival = 10 * units.Minute
	if o.Quick {
		cfg.Duration = 1 * units.Day
	}
	stats, err := workload.Run(sys, cfg, o.Seed)
	if err != nil {
		return nil, err
	}
	t := &report.Table{ID: "ext-campaign", Title: "A phase-structured campaign week"}
	t.AddInfo("machine / window", fmt.Sprintf("%d nodes / %v", sys.Fabric.Cfg.ComputeNodes(), cfg.Duration),
		"every job a phase-structured program")
	t.AddInfo("jobs submitted", fmt.Sprintf("%d", stats.Submitted),
		fmt.Sprintf("debug %d, midsize %d, capability %d, hero %d",
			stats.ByClass["debug"], stats.ByClass["midsize"], stats.ByClass["capability"], stats.ByClass["hero"]))
	t.AddInfo("completed / failed / timeout", fmt.Sprintf("%d / %d / %d",
		stats.Completed, stats.Failed, stats.Timeouts), "timeouts hit their requested walltime mid-program")
	t.AddInfo("machine utilization", fmt.Sprintf("%.1f%%", stats.Utilization*100), "")
	if stats.Requested > 0 {
		t.Add("delivered vs requested walltime", "<= 1.0 (margin 1.25x)",
			fmt.Sprintf("%.2f (%v of %v)", float64(stats.Delivered)/float64(stats.Requested),
				stats.Delivered, stats.Requested),
			1.0, float64(stats.Delivered)/float64(stats.Requested),
			"programs re-priced on their granted placement")
	}
	for _, class := range []string{"stencil", "Cholla", "GESTS", "llm-train"} {
		if s, ok := stats.SlowdownByClass[class]; ok {
			t.AddInfo(fmt.Sprintf("slowdown: %s", class), fmt.Sprintf("%.1fx", s),
				"mean bounded slowdown (wait+run over run)")
		}
	}
	t.AddInfo("checkpoints / lost work", fmt.Sprintf("%d / %v", stats.Checkpoints, stats.LostWork),
		fmt.Sprintf("%d jobs interrupted mid-phase", stats.JobInterrupts))
	addSlowdownRows(t, stats)
	if cache != nil {
		hits, misses := cache.Stats()
		t.AddInfo("pricing cache", fmt.Sprintf("%.1f%% hit rate (%d hits / %d misses, %d entries)",
			cache.HitRate()*100, hits, misses, cache.Len()),
			"placement-signature memoization of program pricing; hits are bit-identical")
	}
	return t, nil
}
