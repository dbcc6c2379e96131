// Package workload drives the simulated machine the way OLCF operates
// the real one: a synthetic leadership-class job mix (INCITE-style
// capability jobs, mid-size campaigns, debug jobs) arrives at the Slurm
// model over simulated days while the reliability model injects
// component failures, nodes cycle through checknode and repair, and the
// campaign statistics — utilization, wait times, interrupt counts — come
// out the other side.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"frontiersim/internal/rng"

	"frontiersim/internal/apps"
	"frontiersim/internal/core"
	"frontiersim/internal/job"
	"frontiersim/internal/llm"
	"frontiersim/internal/miniapps"
	"frontiersim/internal/resilience"
	"frontiersim/internal/scheduler"
	"frontiersim/internal/units"
)

// JobClass is one stratum of the synthetic mix.
type JobClass struct {
	Name string
	// MinFrac and MaxFrac bound the job size as a fraction of the
	// machine.
	MinFrac, MaxFrac float64
	// MeanWalltime is the exponential-mean requested walltime
	// (duration-blob classes) or the nominal walltime one iteration
	// scales against (program classes).
	MeanWalltime units.Seconds
	// Weight is the class's share of submissions.
	Weight float64
	// ProgramFor, when set, makes this a phase-structured class: each
	// submission builds a program for the drawn node count and iteration
	// count, and the scheduler derives the walltime from the program
	// itself instead of the drawn duration.
	ProgramFor func(nodes, iterations int) (*job.Program, error)
	// MeanIterations is the exponential-mean loop count for program
	// submissions (1 if zero).
	MeanIterations float64
}

// LeadershipMix returns a mix shaped like a leadership facility's:
// mostly small/debug submissions by count, with capability jobs taking
// most of the node-hours — OLCF allocations favour jobs over 20% of the
// machine.
func LeadershipMix() []JobClass {
	return []JobClass{
		{Name: "debug", MinFrac: 0.001, MaxFrac: 0.01, MeanWalltime: 30 * units.Minute, Weight: 0.40},
		{Name: "midsize", MinFrac: 0.01, MaxFrac: 0.10, MeanWalltime: 2 * units.Hour, Weight: 0.35},
		{Name: "capability", MinFrac: 0.20, MaxFrac: 0.50, MeanWalltime: 4 * units.Hour, Weight: 0.20},
		{Name: "hero", MinFrac: 0.90, MaxFrac: 1.00, MeanWalltime: 6 * units.Hour, Weight: 0.05},
	}
}

// ProgramMix returns a phase-structured leadership mix on platform p:
// the same size fractions and weights as LeadershipMix, but every
// submission builds a real application program — stencil miniapps for
// debug jobs, spectral and hydro proxies for the mid strata, LLM
// training for hero jobs — so runtimes emerge from placement instead of
// being drawn. Programs are coarsened to about 64 loop passes, so even
// million-step jobs are priced and walked as a bounded number of phases.
func ProgramMix(p *apps.Platform, node job.NodeModel) []JobClass {
	coarse := func(prog *job.Program, err error) (*job.Program, error) {
		if err != nil {
			return nil, err
		}
		return job.Coarsen(prog, prog.Iterations/64), nil
	}
	return []JobClass{
		// Stencil timesteps run ~100 µs each, so debug jobs draw millions
		// of them (mean ~15 simulated minutes); the rate-calibrated
		// proxies step at ~1 s, so their means are hour-scale step counts.
		{Name: "debug", MinFrac: 0.001, MaxFrac: 0.01, Weight: 0.40, MeanIterations: 5e6,
			ProgramFor: func(nodes, iters int) (*job.Program, error) {
				return coarse(miniapps.Heat3DProgram(512, nodes, p.DevicesPerNode, iters))
			}},
		{Name: "midsize", MinFrac: 0.01, MaxFrac: 0.10, Weight: 0.35, MeanIterations: 7200,
			ProgramFor: func(nodes, iters int) (*job.Program, error) {
				return coarse(apps.BuildProgram("Cholla", p, nodes, iters))
			}},
		{Name: "capability", MinFrac: 0.20, MaxFrac: 0.50, Weight: 0.20, MeanIterations: 3600,
			ProgramFor: func(nodes, iters int) (*job.Program, error) {
				return coarse(apps.BuildProgram("GESTS", p, nodes, iters))
			}},
		{Name: "hero", MinFrac: 0.90, MaxFrac: 1.00, Weight: 0.05, MeanIterations: 5000,
			ProgramFor: func(nodes, iters int) (*job.Program, error) {
				// Training wants decomposition-friendly shapes: shrink to
				// the largest node count AutoParallelism accepts, then
				// checkpoint once per coarsened pass (~iters/64 steps).
				for ; nodes >= 1; nodes-- {
					step, err := llm.AutoStep(llm.Frontier22B(), nodes, p.DevicesPerNode, node)
					if err != nil {
						continue
					}
					prog := step.WithSteps(iters, 0)
					prog = job.Coarsen(prog, prog.Iterations/64)
					return job.Checkpointed(prog, step.CheckpointBytes, 1), nil
				}
				return nil, fmt.Errorf("workload: no feasible LLM decomposition")
			}},
	}
}

// Config controls a campaign.
type Config struct {
	// Duration is the simulated operations window.
	Duration units.Seconds
	// MeanInterarrival is the exponential mean between submissions.
	MeanInterarrival units.Seconds
	// Mix is the job-class mix (LeadershipMix if nil).
	Mix []JobClass
	// InjectFailures turns on the reliability model.
	InjectFailures bool
	// RepairTime is how long a failed node stays out of service.
	RepairTime units.Seconds
	// BackfillDepth, when > 0, bounds the scheduler's EASY backfill scan
	// per pass. It is scheduling policy, not a speed knob: a bounded scan
	// starts fewer jobs out of order, so it changes campaign results.
	BackfillDepth int
}

// DefaultConfig returns a week of operations with failures on.
func DefaultConfig() Config {
	return Config{
		Duration:         7 * units.Day,
		MeanInterarrival: 4 * units.Minute,
		InjectFailures:   true,
		RepairTime:       4 * units.Hour,
	}
}

// Stats summarises a campaign.
type Stats struct {
	Submitted, Completed, Failed, Unfinished int
	// Timeouts counts program jobs killed at their requested walltime
	// before their phases finished.
	Timeouts int
	// Utilization is allocated node-time over available node-time.
	Utilization float64
	// AvgWait and MaxWait are queue waits of started jobs.
	AvgWait, MaxWait units.Seconds
	// NodeFailures counts interrupting component failures mapped to
	// nodes; JobInterrupts counts jobs they killed.
	NodeFailures  int
	JobInterrupts int
	// MeasuredMTTI is the observed interrupt spacing.
	MeasuredMTTI units.Seconds
	// ByClass counts submissions per class.
	ByClass map[string]int
	// Requested and Delivered sum the requested and delivered walltimes
	// of finished jobs: for duration blobs they match by construction,
	// for program jobs the gap is the placement/estimate spread.
	Requested, Delivered units.Seconds
	// SlowdownByClass is the mean bounded slowdown — (wait + run) over
	// max(run, 1 min) — of finished jobs per class.
	SlowdownByClass map[string]float64
	// TailSlowdownByClass holds exact p50/p95/p99 bounded-slowdown
	// quantiles per class: every finished job's slowdown is kept and
	// sorted at campaign end (no reservoir, no approximation).
	TailSlowdownByClass map[string]SlowdownQuantiles
	// LostWork sums the work-since-last-checkpoint that interrupts
	// destroyed; Checkpoints counts completed checkpoint phases.
	LostWork    units.Seconds
	Checkpoints int
}

// SlowdownQuantiles are nearest-rank bounded-slowdown percentiles over
// one class's finished jobs.
type SlowdownQuantiles struct {
	P50, P95, P99 float64
	Samples       int
}

// quantile returns the nearest-rank q-quantile of an ascending-sorted
// non-empty sample set: the ceil(q·n)-th smallest value.
func quantile(sorted []float64, q float64) float64 {
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// campaign is one Run's state, shared by the submission and
// failure-handling steps: one allocation carries what used to be a
// closure per arrival event plus a wrapper closure per submitted job.
type campaign struct {
	sys         *core.System
	cfg         Config
	mix         []JobClass
	totalWeight float64
	total       int
	rng         *rand.Rand
	// arrivals supplies the interarrival gaps, one draw per submission,
	// from a stream derived from the campaign seed, so the arrival
	// process is independent of how many draws each job shape consumes.
	arrivals *rand.Rand
	// onDoneFn is the one completion callback every submitted job shares.
	onDoneFn func(*scheduler.Job)

	stats           Stats
	usedNodeSeconds float64
	waitSum         units.Seconds
	started         int
	slowSum         map[string]float64
	slowCount       map[string]int
	slowSamples     map[string][]float64

	firstInterrupt, lastInterrupt units.Seconds
	// repairs is the pre-sized pool of repair events for the failure
	// trace; nextRepair is its cursor.
	repairs    []repairEvent
	nextRepair int
}

// repairEvent returns one failed node to service after RepairTime.
type repairEvent struct {
	c    *campaign
	node int
}

func doRepair(arg any) {
	r := arg.(*repairEvent)
	r.c.sys.Scheduler.MarkHealthy(r.node)
}

func (c *campaign) pick() JobClass {
	r := c.rng.Float64() * c.totalWeight
	for _, cl := range c.mix {
		if r -= cl.Weight; r <= 0 {
			return cl
		}
	}
	return c.mix[len(c.mix)-1]
}

// campaignSubmit is the submission process: one arrival event, one next
// arrival scheduled, zero per-event closures. Each submission draws a
// class pick, a size fraction and one exponential from the shared
// stream, and its interarrival gap from the arrival stream.
func campaignSubmit(arg any) {
	c := arg.(*campaign)
	if c.sys.Kernel.Now() >= c.cfg.Duration {
		return
	}
	cl := c.pick()
	frac := cl.MinFrac + c.rng.Float64()*(cl.MaxFrac-cl.MinFrac)
	nodes := int(frac * float64(c.total))
	if nodes < 1 {
		nodes = 1
	}
	// Both class shapes consume exactly one exponential draw here, so
	// adding program classes to a mix never shifts the sequence a
	// blob-only campaign sees.
	draw := c.rng.ExpFloat64()
	var p *job.Program
	var err error
	if cl.ProgramFor != nil {
		meanIters := cl.MeanIterations
		if meanIters <= 0 {
			meanIters = 1
		}
		p, err = cl.ProgramFor(nodes, 1+int(draw*meanIters))
	} else {
		wall := units.Seconds(draw * float64(cl.MeanWalltime))
		if wall < units.Minute {
			wall = units.Minute
		}
		p = job.Blob(cl.Name, nodes, wall)
	}
	if err == nil {
		_, err = c.sys.Scheduler.Submit(p, c.onDoneFn)
	}
	if err == nil {
		c.stats.Submitted++
		c.stats.ByClass[cl.Name]++
	}
	gap := units.Seconds(c.arrivals.ExpFloat64() * float64(c.cfg.MeanInterarrival))
	c.sys.Kernel.After(gap, campaignSubmit, c)
}

// onDone records a finished job: wait (started jobs only), state
// counters, delivered-vs-requested, slowdown sample, node-seconds.
func (c *campaign) onDone(j *scheduler.Job) {
	finished := j.State == scheduler.Completed || j.State == scheduler.Failed || j.State == scheduler.Timeout
	if finished {
		wait := j.Start - j.Submit
		c.waitSum += wait
		c.started++
		if wait > c.stats.MaxWait {
			c.stats.MaxWait = wait
		}
	}
	switch j.State {
	case scheduler.Completed:
		c.stats.Completed++
	case scheduler.Failed:
		c.stats.Failed++
		c.stats.JobInterrupts++
	case scheduler.Timeout:
		c.stats.Timeouts++
	}
	if finished {
		c.stats.Requested += j.Walltime
		c.stats.Delivered += j.End - j.Start
		c.stats.LostWork += j.LostWork
		c.stats.Checkpoints += j.Checkpoints
		run := j.End - j.Start
		if run < units.Minute {
			run = units.Minute
		}
		slow := float64(j.End-j.Submit) / float64(run)
		c.slowSum[j.Class()] += slow
		c.slowCount[j.Class()]++
		c.slowSamples[j.Class()] = append(c.slowSamples[j.Class()], slow)
	}
	c.usedNodeSeconds += float64(j.Nodes) * float64(j.End-j.Start)
}

// handleFailure maps an interrupting component failure onto a node:
// checknode pulls it, a pooled repair event returns it.
func (c *campaign) handleFailure(f resilience.Failure) {
	if !f.Interrupting {
		return
	}
	c.stats.NodeFailures++
	now := c.sys.Kernel.Now()
	if c.firstInterrupt == 0 {
		c.firstInterrupt = now
	}
	c.lastInterrupt = now
	node := f.Component % c.total
	c.sys.Scheduler.MarkUnhealthy(node)
	r := &c.repairs[c.nextRepair]
	c.nextRepair++
	r.node = node
	c.sys.Kernel.After(c.cfg.RepairTime, doRepair, r)
}

// Run executes a campaign on the system. The system's kernel is consumed
// (run to the configured horizon).
func Run(sys *core.System, cfg Config, seed int64) (Stats, error) {
	if cfg.Duration <= 0 {
		return Stats{}, fmt.Errorf("workload: duration must be positive")
	}
	if cfg.MeanInterarrival <= 0 {
		// A zero mean makes every interarrival gap zero: the submission
		// process fires unboundedly at t=0 and the campaign never
		// advances.
		return Stats{}, fmt.Errorf("workload: mean interarrival must be positive (got %v)", cfg.MeanInterarrival)
	}
	if cfg.RepairTime < 0 {
		return Stats{}, fmt.Errorf("workload: repair time must not be negative (got %v)", cfg.RepairTime)
	}
	mix := cfg.Mix
	if mix == nil {
		mix = LeadershipMix()
	}
	var totalWeight float64
	for _, c := range mix {
		if c.MinFrac <= 0 || c.MaxFrac > 1 || c.MinFrac > c.MaxFrac || c.Weight <= 0 {
			return Stats{}, fmt.Errorf("workload: invalid class %q", c.Name)
		}
		totalWeight += c.Weight
	}
	if cfg.BackfillDepth > 0 {
		sys.Scheduler.BackfillDepth = cfg.BackfillDepth
	}
	c := &campaign{
		sys:         sys,
		cfg:         cfg,
		mix:         mix,
		totalWeight: totalWeight,
		total:       sys.Fabric.Cfg.ComputeNodes(),
		rng:         rng.New(seed),
		arrivals:    rng.New(rng.Derive(seed, "workload/arrivals")),
		slowSum:     map[string]float64{},
		slowCount:   map[string]int{},
		slowSamples: map[string][]float64{},
	}
	c.stats = Stats{ByClass: map[string]int{}, SlowdownByClass: map[string]float64{}, TailSlowdownByClass: map[string]SlowdownQuantiles{}}
	c.onDoneFn = c.onDone

	sys.Kernel.At(0, campaignSubmit, c)

	// Failure injection: the whole trace is drawn up front, fed to the
	// calendar one outstanding event at a time, and the repair pool is
	// pre-sized to the trace's interrupting count.
	if cfg.InjectFailures {
		trace := sys.Reliability.Simulate(cfg.Duration, c.rng)
		interrupting := 0
		for _, f := range trace {
			if f.Interrupting {
				interrupting++
			}
		}
		c.repairs = make([]repairEvent, interrupting)
		for i := range c.repairs {
			c.repairs[i].c = c
		}
		resilience.InjectTrace(sys.Kernel, trace, c.handleFailure)
	}

	sys.Kernel.RunUntil(cfg.Duration)
	stats := &c.stats
	if stats.NodeFailures > 1 {
		stats.MeasuredMTTI = (c.lastInterrupt - c.firstInterrupt) / units.Seconds(stats.NodeFailures-1)
	}
	// Credit still-running jobs for the node-time they have consumed.
	for _, j := range sys.Scheduler.Running() {
		c.usedNodeSeconds += float64(j.Nodes) * float64(sys.Kernel.Now()-j.Start)
	}
	stats.Unfinished = stats.Submitted - stats.Completed - stats.Failed - stats.Timeouts
	stats.Utilization = c.usedNodeSeconds / (float64(c.total) * float64(cfg.Duration))
	if c.started > 0 {
		stats.AvgWait = c.waitSum / units.Seconds(c.started)
	}
	for class, sum := range c.slowSum {
		stats.SlowdownByClass[class] = sum / float64(c.slowCount[class])
	}
	for class, samples := range c.slowSamples {
		sort.Float64s(samples)
		stats.TailSlowdownByClass[class] = SlowdownQuantiles{
			P50:     quantile(samples, 0.50),
			P95:     quantile(samples, 0.95),
			P99:     quantile(samples, 0.99),
			Samples: len(samples),
		}
	}
	return c.stats, nil
}

// String summarises the stats.
func (s Stats) String() string {
	return fmt.Sprintf("workload: %d submitted, %d completed, %d failed, %d unfinished; util %.1f%%, avg wait %v, %d node failures",
		s.Submitted, s.Completed, s.Failed, s.Unfinished, s.Utilization*100, s.AvgWait, s.NodeFailures)
}
