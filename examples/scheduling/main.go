// Scheduling: drive the Slurm model with a mixed workload under node
// failure injection — small jobs pack into dragonfly groups, the
// full-system job spreads across all of them, checknode keeps a sick
// node out until it is repaired, and EASY backfill keeps utilization up.
//
// Run with: go run ./examples/scheduling
package main

import (
	"fmt"
	"log"

	"frontiersim/internal/core"
	"frontiersim/internal/job"
	"frontiersim/internal/machine"
	"frontiersim/internal/scheduler"
	"frontiersim/internal/units"
)

func main() {
	// A scaled Frontier (12 groups x 16 switches x 8 endpoints = 384
	// nodes) keeps the run instant while preserving the topology.
	sys, err := core.New(machine.Scaled(12, 16, 8), 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(sys)

	var completions []string
	onDone := func(j *scheduler.Job) {
		completions = append(completions, fmt.Sprintf("%s:%v", j.Name, j.State))
	}

	// Small jobs: should pack into single groups.
	for i := 0; i < 6; i++ {
		name := fmt.Sprintf("small-%d", i)
		j, err := sys.Scheduler.Submit(job.Blob(name, 16, 2*units.Hour), onDone)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-9s %3d nodes -> %d group(s), VNI %d\n",
			name, j.Nodes, j.GroupsSpanned(sys.Fabric), j.VNI)
	}
	// A full-system job: queued behind the small ones, spreads wide.
	big, err := sys.Scheduler.Submit(job.Blob("hero", 384, 4*units.Hour), onDone)
	if err != nil {
		log.Fatal(err)
	}
	// A backfill candidate that fits in the gap before the hero job.
	filler, err := sys.Scheduler.Submit(job.Blob("filler", 64, 1*units.Hour), onDone)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nhero job state at submit: %v; filler: %v (EASY backfill)\n", big.State, filler.State)

	// Inject a node failure at t+30min, repaired an hour later.
	sys.Kernel.After(30*units.Minute, failNode, &outage{sys: sys, node: 100, repairAfter: 1 * units.Hour})

	sys.Kernel.RunUntil(12 * units.Hour)

	fmt.Printf("\nafter 12 simulated hours:\n")
	fmt.Printf("  jobs started   %d\n", sys.Scheduler.Started)
	fmt.Printf("  jobs finished  %d (failed: %d)\n", sys.Scheduler.Finished, sys.Scheduler.FailedJobs)
	fmt.Printf("  completions    %v\n", completions)
	fmt.Printf("  hero job       %v (spanned %d groups)\n", big.State, big.GroupsSpanned(sys.Fabric))
	fmt.Printf("  free nodes     %d\n", sys.Scheduler.FreeNodes())
}

// outage is one injected node failure and its repair; the kernel passes
// it back to failNode and repairNode.
type outage struct {
	sys         *core.System
	node        int
	repairAfter units.Seconds
}

func failNode(arg any) {
	o := arg.(*outage)
	fmt.Printf("[t=%v] node %d fails checknode\n", o.sys.Kernel.Now(), o.node)
	o.sys.Scheduler.MarkUnhealthy(o.node)
	o.sys.Kernel.After(o.repairAfter, repairNode, o)
}

func repairNode(arg any) {
	o := arg.(*outage)
	fmt.Printf("[t=%v] node %d repaired\n", o.sys.Kernel.Now(), o.node)
	o.sys.Scheduler.MarkHealthy(o.node)
}
