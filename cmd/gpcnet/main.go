// Command gpcnet runs the GPCNeT-style congestion benchmark of Table 5
// on the simulated Slingshot fabric: 80% of the nodes run adversarial
// congestors while 20% measure latency, bandwidth and allreduce.
//
// Usage:
//
//	gpcnet [-nodes N] [-ppn P] [-cc=false] [-trials T] [-jobs J]
//	       [-cpuprofile cpu.out] [-memprofile mem.out]
//
// With -trials > 1 the repetitions run concurrently on the harness
// worker pool, one derived rng stream per trial; the first trial's table
// is printed plus per-trial impact factors. A single trial draws from
// -seed directly. Results are byte-identical at any -jobs setting for a
// fixed seed.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"frontiersim/internal/fabric"
	"frontiersim/internal/harness"
	"frontiersim/internal/machine"
	"frontiersim/internal/network"
	"frontiersim/internal/profiling"
)

func main() { os.Exit(run()) }

func run() int {
	nodes := flag.Int("nodes", 9400, "participating nodes")
	ppn := flag.Int("ppn", 8, "processes per node")
	cc := flag.Bool("cc", true, "hardware congestion control enabled")
	seed := flag.Int64("seed", 1, "random seed")
	trials := flag.Int("trials", 1, "independent benchmark repetitions")
	jobs := flag.Int("jobs", 0, "concurrent trial workers (0 = GOMAXPROCS)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	mutexprofile := flag.String("mutexprofile", "", "write a contended-mutex profile to this file on exit")
	blockprofile := flag.String("blockprofile", "", "write a goroutine-blocking profile to this file on exit")
	flag.Parse()

	stopProf, err := profiling.StartConfig(profiling.Config{
		CPU: *cpuprofile, Mem: *memprofile, Mutex: *mutexprofile, Block: *blockprofile,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "gpcnet:", err)
		return 1
	}
	defer stopProf()

	f, err := machine.Frontier().NewFabric()
	if err != nil {
		fmt.Fprintln(os.Stderr, "gpcnet:", err)
		return 1
	}
	cfg := network.DefaultGPCNeTConfig()
	cfg.Nodes = *nodes
	cfg.PPN = *ppn
	all, err := runTrials(f, cfg, *cc, *trials, *jobs, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gpcnet:", err)
		return 1
	}
	res := all[0]
	fmt.Printf("GPCNeT on %d nodes, %d PPN, congestion control %v\n\n", *nodes, *ppn, *cc)
	fmt.Printf("%-32s %10s %10s\n", "test", "isolated", "congested")
	row := func(name, iso, con string) { fmt.Printf("%-32s %10s %10s\n", name, iso, con) }
	us := func(s float64) string { return fmt.Sprintf("%.1fus", s*1e6) }
	mib := func(b float64) string { return fmt.Sprintf("%.0f", b/(1<<20)) }
	i, c := res.Isolated, res.Congested
	row("RR two-sided lat avg", us(float64(i.Latency.Average)), us(float64(c.Latency.Average)))
	row("RR two-sided lat 99%", us(float64(i.Latency.P99)), us(float64(c.Latency.P99)))
	row("RR BW+Sync avg (MiB/s/rank)", mib(float64(i.Bandwidth.Average)), mib(float64(c.Bandwidth.Average)))
	row("RR BW+Sync 99% (MiB/s/rank)", mib(float64(i.Bandwidth.P99)), mib(float64(c.Bandwidth.P99)))
	row("Multiple allreduce avg", us(float64(i.Allreduce.Average)), us(float64(c.Allreduce.Average)))
	row("Multiple allreduce 99%", us(float64(i.Allreduce.P99)), us(float64(c.Allreduce.P99)))
	fmt.Printf("\nimpact factors: bandwidth %.2fx, latency %.2fx, allreduce %.2fx\n",
		res.BandwidthImpact, res.LatencyImpact, res.AllreduceImpact)
	if len(all) > 1 {
		var bw, lat, ar float64
		fmt.Printf("\nper-trial impact factors (%d trials):\n", len(all))
		for i, r := range all {
			fmt.Printf("  trial %d: bandwidth %.2fx, latency %.2fx, allreduce %.2fx\n",
				i, r.BandwidthImpact, r.LatencyImpact, r.AllreduceImpact)
			bw += r.BandwidthImpact
			lat += r.LatencyImpact
			ar += r.AllreduceImpact
		}
		n := float64(len(all))
		fmt.Printf("  mean:    bandwidth %.2fx, latency %.2fx, allreduce %.2fx\n", bw/n, lat/n, ar/n)
	}
	return 0
}

// runTrials runs trials independent repetitions of the benchmark and
// returns them in trial order. Several trials fan out on the harness
// pool, each drawing from its own stream derived from seed; the fabric
// is shared read-only across workers. cc says whether hardware
// congestion control is on.
func runTrials(f *fabric.Fabric, cfg network.GPCNeTConfig, cc bool, trials, jobs int, seed int64) ([]network.GPCNeTResult, error) {
	if trials < 1 {
		return nil, fmt.Errorf("need at least one trial, got %d", trials)
	}
	if trials == 1 {
		return network.RunGPCNeT(f, cfg, seed, []bool{cc}, nil, "")
	}
	tasks := make([]harness.Task[network.GPCNeTResult], trials)
	for i := range tasks {
		tasks[i] = harness.Task[network.GPCNeTResult]{
			ID: fmt.Sprintf("trial-%d", i),
			Run: func(_ context.Context, seed int64) (network.GPCNeTResult, error) {
				res, err := network.RunGPCNeT(f, cfg, seed, []bool{cc}, nil, "")
				if err != nil {
					return network.GPCNeTResult{}, err
				}
				return res[0], nil
			},
		}
	}
	results, err := harness.Run(context.Background(), harness.Config{Jobs: jobs, FailFast: true, RootSeed: seed}, tasks, nil)
	if err != nil {
		return nil, err
	}
	out := make([]network.GPCNeTResult, len(results))
	for i, r := range results {
		out[i] = r.Value
	}
	return out, nil
}
