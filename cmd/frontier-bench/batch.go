package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"

	"frontiersim/internal/core"
	"frontiersim/internal/experiments"
	"frontiersim/internal/machine"
	"frontiersim/internal/network"
	"frontiersim/internal/report"
)

// batch is a workload whose operation is one frontier-sim invocation.
type batch struct {
	ids   []string // experiments to run; nil runs verify instead
	quick bool
	jobs  int // concurrent experiments; 0 means nproc
}

// minReps is the fewest timed invocations a run makes, however short
// --seconds is.
const minReps = 3

// setupBuilds is about how many full-scale system builds setup_s is the
// median of. They are spread through the run, a few before each timed
// invocation: on a shared host one build's time moves by half from one
// minute to the next, and ten builds taken together at the start of a run
// moved their median by a third between two sets of runs.
const setupBuilds = 50

func (b batch) workers(e env) int {
	if b.jobs > 0 {
		return b.jobs
	}
	return e.nproc
}

func (b batch) args(e env) []string {
	a := []string{"-seed", strconv.FormatInt(e.seed, 10), "-jobs", strconv.Itoa(b.workers(e))}
	if b.quick {
		a = append(a, "-quick")
	}
	if b.ids == nil {
		return append(a, "verify")
	}
	return append(append(a, "-markdown", "run"), b.ids...)
}

// failure is the error an invocation counts as. Away from the pinned seed,
// a verify that ran every experiment but found some outside their
// envelopes exits 1 and still did its work.
func (b batch) failure(e env, inv invocation) error {
	if inv.err != nil && b.ids == nil && e.seed != pinnedSeed && envelopeFailsOnly(inv.out) {
		return nil
	}
	return inv.err
}

// normalize drops what may differ between two correct invocations.
func (b batch) normalize(out []byte) []byte {
	if b.ids == nil {
		return normalizeVerify(out)
	}
	return out
}

// invocation is one finished frontier-sim process.
type invocation struct {
	out       []byte
	wall, cpu float64 // seconds
	liveMB    float64 // mean live heap over its collections
	err       error
}

func invoke(ctx context.Context, bin string, args []string) invocation {
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Env = append(os.Environ(), "GODEBUG=gctrace=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err := cmd.Run()
	inv := invocation{out: stdout.Bytes(), wall: time.Since(start).Seconds(), liveMB: meanLiveMB(stderr.String())}
	if cmd.ProcessState != nil {
		inv.cpu = (cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()).Seconds()
	}
	if err != nil {
		inv.err = fmt.Errorf("%s %s: %w: %s", filepath.Base(bin), strings.Join(args, " "), err, lastMessage(stderr.String()))
	}
	return inv
}

// lastMessage is the last stderr line that is not gctrace output.
func lastMessage(stderr string) string {
	lines := strings.Split(strings.TrimSpace(stderr), "\n")
	for i := len(lines) - 1; i >= 0; i-- {
		if _, ok := gcLiveMB(lines[i]); !ok {
			return lines[i]
		}
	}
	return ""
}

// coreSetup appends the times of n full-scale system builds, the set-up
// every full-scale experiment pays before it simulates anything. Build i
// of a run uses seed+i.
func coreSetup(times []float64, seed int64, n int) ([]float64, error) {
	spec := machine.Frontier()
	for i := 0; i < n; i++ {
		runtime.GC()
		start := time.Now()
		if _, err := core.New(spec, seed+int64(len(times))); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	return times, nil
}

// pinnedSeed is where the repository pins the simulator's results:
// EXPERIMENTS.md records `-markdown run all` at it, and CI's verify checks
// every reproduction envelope at it. At other seeds an experiment may miss
// its envelope (quick sec54 did at 4 of 20 seeds tried), which is a result
// of the model, not a failure of the run.
const pinnedSeed = 42

// checkRecorded compares markdown output at the pinned seed with
// EXPERIMENTS.md.
func (b batch) checkRecorded(e env, out []byte) error {
	if b.ids == nil || e.seed != pinnedSeed {
		return nil
	}
	doc, err := os.ReadFile(filepath.Join(e.root, "EXPERIMENTS.md"))
	if err != nil {
		return err
	}
	if missing := missingSections(string(out), string(doc)); len(missing) > 0 {
		return fmt.Errorf("sections differ from EXPERIMENTS.md: %s", strings.Join(missing, ", "))
	}
	return nil
}

// measure is the untraced run: a warm-up invocation, then timed ones until
// they add up to e.seconds, each of whose output must match the warm-up's.
// Set-up builds run before every timed invocation.
func (b batch) measure(ctx context.Context, e env, o *outcome) error {
	warm := invoke(ctx, e.sim, b.args(e))
	if err := ctx.Err(); err != nil {
		return err
	}
	o.opChecks(b.failure(e, warm), b.checkRecorded(e, warm.out))
	ref := b.normalize(warm.out)
	reps := max(minReps, math.Floor(e.seconds/warm.wall))
	perRep := max(1, int(math.Ceil(setupBuilds/reps)))

	var setup, walls, cpus, lives []float64
	var err error
	spent, last := 0.0, 0.0
	for n := 1; n <= minReps || spent+last <= e.seconds; n++ {
		if setup, err = coreSetup(setup, e.seed, perRep); err != nil {
			return err
		}
		inv := invoke(ctx, e.sim, b.args(e))
		if err := ctx.Err(); err != nil {
			return err
		}
		last = inv.wall
		spent += inv.wall
		failed := b.failure(e, inv)
		var differs error
		if failed == nil && !bytes.Equal(b.normalize(inv.out), ref) {
			differs = fmt.Errorf("rep %d: output differs from the warm-up's", n)
		}
		o.opChecks(failed, differs)
		if failed == nil && differs == nil {
			walls = append(walls, inv.wall)
			cpus = append(cpus, inv.cpu)
			lives = append(lives, inv.liveMB)
		}
	}
	o.set("setup_s", median(setup), len(setup))
	o.set("wall_s", median(walls), len(walls))
	o.set("cpu_s", median(cpus), len(cpus))
	o.set("live_heap_mb", median(lives), len(lives))
	o.set("latency_p50_ms", 1000*median(walls), len(walls))
	return nil
}

// runners resolves the workload's experiments, each wrapped to record a
// span around its run.
func (b batch) runners(tr *tracer) ([]experiments.Runner, error) {
	rs := experiments.Registry()
	if b.ids != nil {
		rs = nil
		for _, id := range b.ids {
			r, err := experiments.ByID(id)
			if err != nil {
				return nil, err
			}
			rs = append(rs, r)
		}
	}
	for i := range rs {
		id, run := rs[i].ID, rs[i].Run
		rs[i].Run = func(o experiments.Options) (*report.Table, error) {
			start := time.Now()
			t, err := run(o)
			tr.add("experiment", id, start, time.Now(), nil)
			return t, err
		}
	}
	return rs, nil
}

// render prints results as the CLI invocation would.
func (b batch) render(results []experiments.RunResult) []byte {
	if b.ids == nil {
		return verifyLines(results)
	}
	var buf bytes.Buffer
	for _, r := range results {
		if r.Err == nil && !r.Skipped {
			r.Table.Markdown(&buf)
		}
	}
	return buf.Bytes()
}

// checkEnvelopes fails, at the pinned seed, any table outside its
// reproduction envelope.
func checkEnvelopes(e env, results []experiments.RunResult) error {
	if e.seed != pinnedSeed {
		return nil
	}
	envs := experiments.Envelopes()
	var bad []string
	for _, r := range results {
		if r.Table != nil && !withinEnvelope(r.Table, envs[r.ID]) {
			bad = append(bad, fmt.Sprintf("%s (%.1f%% > %.0f%%)", r.ID, 100*r.Table.MaxAbsDeviation(), 100*envs[r.ID]))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("outside reproduction envelope: %s", strings.Join(bad, ", "))
	}
	return nil
}

var (
	hitsMisses = regexp.MustCompile(`(\d+) hits / (\d+) misses`)
	lastNumber = regexp.MustCompile(`(\d+)\D*$`)
)

// yearCounts reads the scheduler and pricing counters ext-year reports.
func yearCounts(results []experiments.RunResult, o *outcome) {
	for _, r := range results {
		if r.ID != "ext-year" || r.Table == nil {
			continue
		}
		for _, row := range r.Table.Rows {
			switch row.Name {
			case "jobs submitted":
				if m := lastNumber.FindStringSubmatch(row.Measured); m != nil {
					v, _ := strconv.ParseFloat(m[1], 64)
					o.set("workload.jobs", v, 1)
				}
			case "node failures / job interrupts":
				if m := lastNumber.FindStringSubmatch(row.Measured); m != nil {
					v, _ := strconv.ParseFloat(m[1], 64)
					o.set("workload.interrupts", v, 1)
				}
			case "pricing cache":
				if m := hitsMisses.FindStringSubmatch(row.Measured); m != nil {
					h, _ := strconv.ParseFloat(m[1], 64)
					s, _ := strconv.ParseFloat(m[2], 64)
					o.set("job.pricing_hits", h, 1)
					o.set("job.pricing_misses", s, 1)
				}
			}
		}
	}
}

// traced is the per-layer run: one untraced invocation as the reference,
// then the same work in process, under the CPU profiler, for e.seconds.
// Its output must equal the reference's and its tables stay within their
// envelopes.
func (b batch) traced(ctx context.Context, e env, o *outcome, tr *tracer) (windowStats, error) {
	ref := invoke(ctx, e.sim, b.args(e))
	if err := ctx.Err(); err != nil {
		return windowStats{}, err
	}
	o.opChecks(b.failure(e, ref))
	want := b.normalize(ref.out)
	runners, err := b.runners(tr)
	if err != nil {
		return windowStats{}, err
	}

	win, err := openWindow(e.profile)
	if err != nil {
		return windowStats{}, err
	}
	var walls, work, critical, idle []float64
	durs := map[string][]float64{}
	start := time.Now()
	for n := 1; n == 1 || time.Since(start).Seconds()+walls[len(walls)-1] <= e.seconds; n++ {
		solutions := network.NewSolutionCache(0)
		opts := experiments.Options{Quick: b.quick, Seed: e.seed, Solutions: solutions}
		cfg := experiments.RunConfig{Jobs: b.workers(e), FailFast: b.ids != nil}
		repStart := time.Now()
		results, err := experiments.RunAll(ctx, runners, opts, cfg, nil)
		repEnd := time.Now()
		tr.add("rep", fmt.Sprintf("rep %d", n), repStart, repEnd, nil)
		if ctx.Err() != nil {
			win.close(ctx)
			return windowStats{}, ctx.Err()
		}
		var differs error
		if got := b.normalize(b.render(results)); !bytes.Equal(got, want) {
			differs = fmt.Errorf("rep %d: in-process output differs from frontier-sim's", n)
		}
		o.opChecks(err, differs, checkEnvelopes(e, results))

		wall := repEnd.Sub(repStart).Seconds()
		sum, longest := 0.0, 0.0
		for _, r := range results {
			d := r.Duration.Seconds()
			durs[r.ID] = append(durs[r.ID], d)
			sum += d
			longest = max(longest, d)
		}
		walls = append(walls, wall)
		work = append(work, sum)
		critical = append(critical, longest)
		idle = append(idle, 1-sum/(wall*float64(b.workers(e))))
		if n == 1 {
			st := solutions.Stats()
			o.set("network.solution_hits", float64(st.Hits), 1)
			o.set("network.solution_misses", float64(st.Misses), 1)
			yearCounts(results, o)
		}
	}
	stats, err := win.close(ctx)
	if err != nil {
		return stats, err
	}
	o.op(stats.foldCoverage())

	reps := len(walls)
	stats.layerMetrics(o, reps)
	o.set("harness.makespan_s", median(walls), reps)
	o.set("harness.work_s", median(work), reps)
	o.set("harness.critical_s", median(critical), reps)
	o.set("harness.idle_frac", median(idle), reps)
	for _, id := range expIDs {
		if d := durs[id]; len(d) > 0 {
			o.set("exp."+id+"_s", median(d), len(d))
		}
	}
	o.set("trace.overhead_frac", median(walls)/ref.wall-1, reps)
	return stats, nil
}
