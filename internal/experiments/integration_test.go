package experiments

import (
	"math"
	"math/rand"
	"testing"

	"frontiersim/internal/core"
	"frontiersim/internal/job"
	"frontiersim/internal/machine"
	"frontiersim/internal/mpi"
	"frontiersim/internal/network"
	"frontiersim/internal/node"
	"frontiersim/internal/power"
	"frontiersim/internal/units"
)

// The analytic collective model and the flow-level solver are
// independent implementations of the same fabric physics; their
// all-to-all predictions must agree.
func TestAnalyticVsSolverAllToAll(t *testing.T) {
	f, err := machine.Scaled(8, 8, 4).NewFabric()
	if err != nil {
		t.Fatal(err)
	}
	nodes := f.Cfg.ComputeNodes() // 64
	list := make([]int, nodes)
	for i := range list {
		list[i] = i
	}
	comm, err := mpi.NewComm(f, list, 4)
	if err != nil {
		t.Fatal(err)
	}
	analytic := float64(comm.AllToAllPerRankBandwidth()) * 4 // per node

	// Solver: random permutation traffic, one demand per NIC, averaged
	// over a few rounds, approximates sustained all-to-all throughput.
	rng := rand.New(rand.NewSource(1))
	var total float64
	var count int
	for round := 0; round < 4; round++ {
		perm := rng.Perm(nodes)
		var demands []*network.Demand
		for i := 0; i < nodes; i++ {
			j := perm[i]
			if j == i {
				continue
			}
			for k := 0; k < 4; k++ {
				links, ends, err := f.AppendAdaptivePaths(nil, []int{0}, f.NodeEndpoints(i)[k], f.NodeEndpoints(j)[k], 4, rng)
				if err != nil {
					t.Fatal(err)
				}
				d := &network.Demand{}
				for r := 1; r < len(ends); r++ {
					d.Paths = append(d.Paths, links[ends[r-1]:ends[r]])
				}
				demands = append(demands, d)
			}
		}
		if err := network.Solve(f, demands); err != nil {
			t.Fatal(err)
		}
		for _, d := range demands {
			total += d.Rate
			count++
		}
	}
	solver := total / float64(count) * 4 // per node
	ratio := solver / analytic
	if ratio < 0.6 || ratio > 1.8 {
		t.Errorf("solver %.3g vs analytic %.3g per node: ratio %.2f outside [0.6, 1.8]",
			solver, analytic, ratio)
	}
}

// The Figure-4 host-to-device aggregate must equal the STREAM model's
// sustained DRAM rate — the paper's own cross-check ("matching the
// Trento's STREAM performance").
func TestFig4MatchesStream(t *testing.T) {
	n := node.New(0)
	h2d := float64(n.HostToDeviceAggregate(8))
	stream := float64(n.CPU.DRAM.Sustained())
	if math.Abs(h2d-stream)/stream > 1e-9 {
		t.Errorf("Fig4 aggregate %.4g != STREAM sustained %.4g", h2d, stream)
	}
}

// Power, HPL and the Green500 metric must be mutually consistent with
// the paper's 52 GF/W.
func TestPowerHPLConsistency(t *testing.T) {
	hs, err := machine.Frontier().HPLSpec()
	if err != nil {
		t.Fatal(err)
	}
	pw, err := machine.Frontier().PowerMachine()
	if err != nil {
		t.Fatal(err)
	}
	rmax := hs.HPLRmax(hs.Nodes)
	watts := pw.SystemHPL(pw.Nodes)
	gfw := power.Efficiency(rmax, watts) / 1e9
	if gfw < 50 || gfw > 56 {
		t.Errorf("cross-model efficiency = %.1f GF/W, want ~52", gfw)
	}
	// Energy for one HPL run: a couple of hours at ~21 MW is tens of MWh.
	energyMWh := float64(watts) / 1e6 * float64(hs.HPLRunTime(hs.Nodes, 0.85)) / 3600
	if energyMWh < 20 || energyMWh > 120 {
		t.Errorf("HPL energy = %.0f MWh, want tens of MWh", energyMWh)
	}
}

// The checkpoint interval used by the resiliency experiment must be
// consistent with Orion's measured ingest rate for the same burst.
func TestCheckpointIntervalUsesOrionRate(t *testing.T) {
	orion, err := machine.Frontier().Orion()
	if err != nil {
		t.Fatal(err)
	}
	ingest := float64(orion.IngestTime(700 * units.TiB))
	if math.Abs(ingest-180)/180 > 0.15 {
		t.Errorf("ingest = %.0f s; the sec54 experiment assumes ~180 s", ingest)
	}
}

// Scheduler placement and the communicator model must agree: a packed
// job gets full NIC bandwidth, a spread job gets the taper-limited share.
func TestPlacementCommConsistency(t *testing.T) {
	sys, err := core.New(machine.Scaled(6, 8, 4), 3)
	if err != nil {
		t.Fatal(err)
	}
	small, err := sys.Scheduler.Submit(job.Blob("packed", 6, 100), nil)
	if err != nil {
		t.Fatal(err)
	}
	commS, err := mpi.NewComm(sys.Fabric, small.Alloc, 8)
	if err != nil {
		t.Fatal(err)
	}
	if commS.GroupsSpanned() != 1 {
		t.Fatalf("packed job spans %d groups", commS.GroupsSpanned())
	}
	nic := float64(sys.Fabric.Cfg.LinkRate) * sys.Fabric.Cfg.EndpointEfficiency
	if float64(commS.PerNICBandwidth()) != nic {
		t.Error("packed job should see full NIC rate")
	}
	big, err := sys.Scheduler.Submit(job.Blob("spread", 40, 100), nil)
	if err != nil {
		t.Fatal(err)
	}
	commB, err := mpi.NewComm(sys.Fabric, big.Alloc, 8)
	if err != nil {
		t.Fatal(err)
	}
	if commB.GroupsSpanned() < 5 {
		t.Errorf("spread job spans %d groups", commB.GroupsSpanned())
	}
}
