package network_test

import (
	"fmt"
	"math/rand"

	"frontiersim/internal/machine"
	"frontiersim/internal/network"
)

// Allocate bandwidth to two flows that share a destination NIC: the
// max-min solver splits the 17.5 GB/s ejection link fairly.
func ExampleSolve() {
	f, err := machine.Scaled(6, 8, 4).NewFabric()
	if err != nil {
		panic(err)
	}
	rng := rand.New(rand.NewSource(1))
	var demands []*network.Demand
	for _, src := range []int{0, 1} {
		links, ends, err := f.AppendAdaptivePaths(nil, []int{0}, src, 9, 2, rng)
		if err != nil {
			panic(err)
		}
		d := &network.Demand{Src: src, Dst: 9}
		for r := 1; r < len(ends); r++ {
			d.Paths = append(d.Paths, links[ends[r-1]:ends[r]])
		}
		demands = append(demands, d)
	}
	if err := network.Solve(f, demands); err != nil {
		panic(err)
	}
	for _, d := range demands {
		fmt.Printf("flow %d->%d: %.2f GB/s\n", d.Src, d.Dst, d.Rate/1e9)
	}
	// Output:
	// flow 0->9: 8.75 GB/s
	// flow 1->9: 8.75 GB/s
}
