// Operations: simulate a week of running Frontier the way OLCF does —
// a leadership job mix through the Slurm model, component failures from
// the reliability model pulling nodes through checknode and repair, and
// a checkpoint strategy for the hero jobs sized from the measured MTTI
// and the node-local burst buffer.
//
// Run with: go run ./examples/operations
package main

import (
	"fmt"
	"log"

	"frontiersim/internal/core"
	"frontiersim/internal/machine"
	"frontiersim/internal/resilience"
	"frontiersim/internal/sysmgmt"
	"frontiersim/internal/units"
	"frontiersim/internal/workload"
)

func main() {
	spec := machine.Frontier()
	sys, err := core.New(spec, 2026)
	if err != nil {
		log.Fatal(err)
	}
	mgmtCfg, err := spec.MgmtConfig()
	if err != nil {
		log.Fatal(err)
	}
	hpcm, err := sysmgmt.New(sys.Kernel, mgmtCfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(sys)
	fmt.Println(hpcm)

	cfg := workload.DefaultConfig()
	fmt.Printf("\nsimulating %v of operations (mean interarrival %v)...\n",
		cfg.Duration, cfg.MeanInterarrival)
	stats, err := workload.Run(sys, cfg, 2026)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(stats)
	fmt.Printf("  by class: debug %d, midsize %d, capability %d, hero %d\n",
		stats.ByClass["debug"], stats.ByClass["midsize"], stats.ByClass["capability"], stats.ByClass["hero"])
	fmt.Printf("  observed MTTI %v (model analytic: %v)\n", stats.MeasuredMTTI, sys.Reliability.SystemMTTI())
	fmt.Printf("  max queue wait %v\n", stats.MaxWait)

	// Checkpoint strategy for the hero jobs: absorb into the node-local
	// burst buffer, drain to Orion behind the computation.
	fmt.Println("\nhero-job checkpoint strategy:")
	bb, err := spec.BurstBuffer(0)
	if err != nil {
		log.Fatal(err)
	}
	state := units.Bytes(0.15 * 4.6 * float64(units.PiB))
	absorb, drain, err := bb.CheckpointWrite(state)
	if err != nil {
		log.Fatal(err)
	}
	mtti := sys.Reliability.SystemMTTI()
	direct := bb.PFS.IngestTime(state) // straight to Orion
	tauDirect := resilience.OptimalCheckpointInterval(direct, mtti)
	tauBB := resilience.OptimalCheckpointInterval(absorb, mtti)
	effDirect := resilience.CheckpointEfficiency(tauDirect, direct, 10*units.Minute, mtti)
	effBB := resilience.CheckpointEfficiency(tauBB, absorb, 10*units.Minute, mtti)
	fmt.Printf("  state %v; NVMe absorb %v (Orion drain %v overlapped)\n", state, absorb, drain)
	fmt.Printf("  direct-to-Orion: checkpoint every %v -> %.1f%% useful work\n", tauDirect, effDirect*100)
	fmt.Printf("  via burst buffer: checkpoint every %v -> %.1f%% useful work\n", tauBB, effBB*100)
	fmt.Printf("  burst buffer recovers %.1f%% of the machine\n", (effBB-effDirect)*100)
}
