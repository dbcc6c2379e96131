// Command mpigraph runs the mpiGraph-style pairwise bandwidth census of
// Figure 6 on a simulated fabric and prints the receive-bandwidth
// histogram.
//
// Usage:
//
//	mpigraph -fabric frontier|summit [-nodes N] [-shifts S] [-bins B] [-jobs J]
//	         [-cpuprofile cpu.out] [-memprofile mem.out]
//
// Shifts are evaluated concurrently on a bounded worker pool, each with
// its own derived path and jitter streams; the census is byte-identical
// at any -jobs setting for a fixed seed.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"frontiersim/internal/fabric"
	"frontiersim/internal/machine"
	"frontiersim/internal/network"
	"frontiersim/internal/profiling"
)

func main() { os.Exit(run()) }

func run() int {
	fab := flag.String("fabric", "frontier", "fabric: frontier (dragonfly) or summit (fat tree)")
	nodes := flag.Int("nodes", 0, "participating nodes (0 = all)")
	shifts := flag.Int("shifts", 8, "shift permutations to sample")
	bins := flag.Int("bins", 20, "histogram bins")
	seed := flag.Int64("seed", 1, "random seed")
	jobs := flag.Int("jobs", 0, "concurrent shift workers (0 = GOMAXPROCS)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	mutexprofile := flag.String("mutexprofile", "", "write a contended-mutex profile to this file on exit")
	blockprofile := flag.String("blockprofile", "", "write a goroutine-blocking profile to this file on exit")
	flag.Parse()

	stop, err := profiling.StartConfig(profiling.Config{
		CPU: *cpuprofile, Mem: *memprofile, Mutex: *mutexprofile, Block: *blockprofile,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "mpigraph:", err)
		return 1
	}
	defer stop()

	var f *fabric.Fabric
	cfg := network.DefaultMpiGraphConfig()
	switch *fab {
	case "frontier":
		f, err = machine.Frontier().NewFabric()
	case "summit":
		f, err = machine.Summit().NewFabric()
		cfg.RanksPerNode = 1
	default:
		fmt.Fprintf(os.Stderr, "mpigraph: unknown fabric %q\n", *fab)
		return 2
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mpigraph:", err)
		return 1
	}
	cfg.Nodes = *nodes
	cfg.Shifts = *shifts
	res, err := network.RunMpiGraph(context.Background(), f, cfg,
		network.ParallelConfig{Jobs: *jobs, Seed: *seed})
	if err != nil {
		fmt.Fprintln(os.Stderr, "mpigraph:", err)
		return 1
	}
	fmt.Printf("%s: %d samples\n", f, len(res.Samples))
	fmt.Printf("min %.2f GB/s  median %.2f  mean %.2f  max %.2f  spread %.1fx\n\n",
		res.Min/1e9, res.Median/1e9, res.Mean/1e9, res.Max/1e9, res.Spread())
	edges, counts := res.Histogram(*bins)
	maxCount := 1
	for _, c := range counts {
		if c > maxCount {
			maxCount = c
		}
	}
	for i := range edges {
		bar := strings.Repeat("#", counts[i]*60/maxCount)
		fmt.Printf("<= %6.2f GB/s %8d %s\n", edges[i]/1e9, counts[i], bar)
	}
	return 0
}
