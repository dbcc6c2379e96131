package main

import (
	"testing"

	"frontiersim/internal/machine"
	"frontiersim/internal/network"
)

// Trial sets: per-trial derived streams make the batch worker-count
// invariant.
func TestGPCNeTTrialsSerialParallelEquivalence(t *testing.T) {
	f, err := machine.Scaled(6, 8, 4).NewFabric()
	if err != nil {
		t.Fatal(err)
	}
	cfg := network.DefaultGPCNeTConfig()
	cfg.Nodes = 45
	cfg.LatencySamples = 400
	run := func(jobs int) []network.GPCNeTResult {
		res, err := runTrials(f, cfg, true, 4, jobs, 11)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := run(1)
	parallel := run(4)
	if len(serial) != 4 || len(parallel) != 4 {
		t.Fatalf("want 4 trials, got %d and %d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("trial %d differs between jobs=1 and jobs=4:\n%+v\n%+v", i, serial[i], parallel[i])
		}
	}
	// Independent trials should not all collapse to one value.
	if serial[0].Isolated.Bandwidth.Average == serial[1].Isolated.Bandwidth.Average &&
		serial[1].Isolated.Bandwidth.Average == serial[2].Isolated.Bandwidth.Average {
		t.Error("distinct trials returned identical bandwidth averages; seeds look shared")
	}
}

func TestGPCNeTTrialsErrors(t *testing.T) {
	if _, err := runTrials(nil, network.DefaultGPCNeTConfig(), true, 0, 1, 1); err == nil {
		t.Error("zero trials should error")
	}
}
