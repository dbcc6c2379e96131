package core_test

import (
	"fmt"

	"frontiersim/internal/core"
	"frontiersim/internal/job"
	"frontiersim/internal/machine"
	"frontiersim/internal/units"
)

// Build the whole machine and read off the Table-1 aggregates.
func ExampleNew() {
	sys, err := core.New(machine.Frontier(), 42)
	if err != nil {
		panic(err)
	}
	specs := sys.ComputeSpecs()
	fmt.Println("nodes:", specs.Nodes)
	fmt.Println("injection per node:", specs.InjectionPerNode)
	fmt.Printf("global bandwidth: %.1f TB/s\n", float64(specs.GlobalBandwidth)/1e12)
	// Output:
	// nodes: 9472
	// injection per node: 100GB/s
	// global bandwidth: 270.1 TB/s
}

// Submit a job and run the clock forward.
func ExampleSystem_scheduler() {
	sys, err := core.New(machine.Scaled(6, 8, 4), 1)
	if err != nil {
		panic(err)
	}
	j, err := sys.Scheduler.Submit(job.Blob("demo", 8, units.Hour), nil)
	if err != nil {
		panic(err)
	}
	sys.Kernel.Run()
	fmt.Println("state:", j.State)
	fmt.Println("groups spanned:", j.Alloc.GroupsSpanned())
	// Output:
	// state: completed
	// groups spanned: 1
}
