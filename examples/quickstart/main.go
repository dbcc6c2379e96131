// Quickstart: build the simulated Frontier system, inspect its Table-1
// aggregates, run the node-level micro-benchmarks (STREAM, CoralGemm,
// xGMI transfers), and push a job through the Slurm model.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"frontiersim/internal/core"
	"frontiersim/internal/gpu"
	"frontiersim/internal/job"
	"frontiersim/internal/machine"
	"frontiersim/internal/node"
	"frontiersim/internal/units"
)

func main() {
	sys, err := core.New(machine.Frontier(), 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(sys)
	fmt.Println(sys.Node)
	fmt.Println()

	// Table 1 aggregates, derived from the composed models.
	sp := sys.ComputeSpecs()
	fmt.Printf("nodes            %d\n", sp.Nodes)
	fmt.Printf("FP64 vector peak %v (DGEMM-achievable %v)\n", sp.FP64VectorPeak, sp.FP64DGEMM)
	fmt.Printf("DDR4             %v @ %v\n", sp.DDRCapacity, sp.DDRBandwidth)
	fmt.Printf("HBM2e            %v @ %v\n", sp.HBMCapacity, sp.HBMBandwidth)
	fmt.Printf("injection/node   %v, global %v\n\n", sp.InjectionPerNode, sp.GlobalBandwidth)

	// CPU STREAM (Table 3): temporal stores lose to non-temporal ones.
	fmt.Println("CPU STREAM, 7.6 GB arrays (temporal stores):")
	for _, r := range sys.Node.CPU.Stream(7.6*units.GB, true) {
		fmt.Println("  " + r.String())
	}

	// One GCD's dense GEMM rates (Figure 3).
	fmt.Println("\nCoralGemm on one GCD:")
	for _, row := range sys.Node.GCDs[0].Figure3() {
		fmt.Println("  " + row.String())
	}

	// Intra-node transfers (Figure 5).
	fmt.Println("\nGCD0 -> GCD1 (intra-OAM, 4 xGMI links):")
	for _, m := range []node.TransferMethod{node.CUKernel, node.SDMA} {
		bw, err := sys.Node.PeerBandwidth(m, 0, 1, 256*units.MiB)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-9s %v\n", m, bw)
	}

	// A GEMM-heavy job through the scheduler.
	fmt.Println("\nsubmitting a 256-node job...")
	j, err := sys.Scheduler.Submit(job.Blob("dgemm-sweep", 256, units.Hour), nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  job %d: %d nodes across %d dragonfly groups, VNI %d\n",
		j.ID, j.Nodes, j.Alloc.GroupsSpanned(), j.VNI)
	gemmTime := sys.Node.GCDs[0].GemmTime(gpu.FP64, 16384)
	fmt.Printf("  one 16384^3 DGEMM per GCD: %v at %v\n",
		gemmTime, sys.Node.GCDs[0].GemmAchieved(gpu.FP64, 16384))
	sys.Kernel.Run()
	fmt.Printf("  job finished: state=%v, wall %v\n", j.State, j.End-j.Start)
}
