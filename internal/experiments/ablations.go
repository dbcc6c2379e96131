package experiments

import (
	"fmt"

	"frontiersim/internal/fabric"
	"frontiersim/internal/memory"
	"frontiersim/internal/mpi"
	"frontiersim/internal/network"
	"frontiersim/internal/report"
	"frontiersim/internal/resilience"
	"frontiersim/internal/units"
)

// AblationTaper sweeps the dragonfly's global bundle size: HPE's 57%
// taper (bundle size two) against a half-provisioned and an over-
// provisioned fabric, measured by full-system all-to-all bandwidth.
func AblationTaper(o Options) (*report.Table, error) {
	t := &report.Table{ID: "ablation-taper", Title: "Global bundle size vs full-system all-to-all"}
	for _, links := range []int{2, 4, 6} {
		cfg, err := o.machine().FabricConfig()
		if err != nil {
			return nil, err
		}
		cfg.ComputeComputeLinks = links
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		f, err := fabric.NewDragonfly(cfg)
		if err != nil {
			return nil, err
		}
		nodes := make([]int, cfg.ComputeNodes())
		for i := range nodes {
			nodes[i] = i
		}
		c, err := mpi.NewComm(f, nodes, 8)
		if err != nil {
			return nil, err
		}
		perNode := float64(c.AllToAllPerRankBandwidth()) * 8
		name := fmt.Sprintf("bundle %d (links %d, taper %.0f%%)", links/2, links, cfg.Taper()*100)
		note := ""
		if links == 4 {
			note = "deployed configuration"
		}
		t.Add(name, "", report.GB(perNode)+" /node a2a", 0, 0, note)
	}
	return t, nil
}

// AblationNPS compares the NUMA-per-socket modes: NPS-4 (deployed) vs
// NPS-1, reproducing the 180 vs ~125 GB/s difference of §4.1.1.
func AblationNPS(o Options) (*report.Table, error) {
	t := &report.Table{ID: "ablation-nps", Title: "NPS-1 vs NPS-4 STREAM Triad (non-temporal)"}
	for _, mode := range []memory.NPSMode{memory.NPS4, memory.NPS1} {
		d := memory.TrentoDDR4()
		d.Mode = mode
		bw := float64(memory.CPUStreamBandwidth(d, memory.Triad, false))
		paper := 180.0
		if mode == memory.NPS1 {
			paper = 125.0
		}
		t.Add(mode.String(), fmt.Sprintf("~%.0f GB/s", paper), report.GB(bw), paper, bw/1e9, "")
	}
	return t, nil
}

// AblationRouting compares minimal-only against adaptive (minimal +
// Valiant) routing for a group-coherent shift permutation — the pattern
// where non-minimal routing earns its keep.
func AblationRouting(o Options) (*report.Table, error) {
	f, err := o.machine().NewFabric()
	if err != nil {
		return nil, err
	}
	t := &report.Table{ID: "ablation-routing", Title: "Minimal-only vs adaptive routing, far-shift permutation"}
	for _, valiant := range []int{0, 4} {
		cfg := network.DefaultMpiGraphConfig()
		cfg.Shifts = 2
		cfg.ValiantPaths = valiant
		cfg.MeasureJitter = 0
		res, err := runCensus(f, cfg, o, topoKey(o.machine()))
		if err != nil {
			return nil, err
		}
		name := "adaptive (UGAL-like)"
		note := "Valiant paths recover bandwidth on adversarial shifts"
		if valiant == 0 {
			name = "minimal only"
			note = "direct group-pair links saturate"
		}
		t.Add(name, "", fmt.Sprintf("min %s, mean %s", report.GB(res.Min), report.GB(res.Mean)), 0, 0, note)
	}
	return t, nil
}

// AblationCC runs GPCNeT with hardware congestion control disabled — the
// counterfactual that motivates Slingshot's headline feature (and the
// behaviour the paper cites from Summit's EDR fabric [73]).
func AblationCC(o Options) (*report.Table, error) {
	f, err := o.machine().NewFabric()
	if err != nil {
		return nil, err
	}
	t := &report.Table{ID: "ablation-cc", Title: "GPCNeT with congestion control on vs off"}
	cfg, err := o.gpcnetConfig(f, 600)
	if err != nil {
		return nil, err
	}
	// Both arms measure one solve per phase: CC only derates after it.
	arms := []bool{true, false}
	results, err := network.RunGPCNeT(f, cfg, o.Seed, arms, o.Solutions, topoKey(o.machine()))
	if err != nil {
		return nil, err
	}
	for i, cc := range arms {
		res := results[i]
		name := "CC on"
		paper := "1.0x"
		pv := 1.0
		note := "deployed behaviour (Table 5)"
		if !cc {
			name = "CC off"
			paper = ">1x (Summit EDR-like)"
			pv = 0
			note = "tree saturation and HOL blocking leak into victims"
		}
		t.Add(name, paper,
			fmt.Sprintf("BW impact %.2fx, lat impact %.2fx", res.BandwidthImpact, res.LatencyImpact),
			pv, res.BandwidthImpact, note)
	}
	return t, nil
}

// AblationPlacement quantifies the scheduler's topology policy: packed
// placement maximises bandwidth for single-group jobs; spreading
// maximises it for multi-group jobs. Group placement is a dragonfly
// notion, so a fat tree has nothing to compare.
func AblationPlacement(o Options) (*report.Table, error) {
	cfg, err := o.machine().FabricConfig()
	if err != nil {
		return nil, err
	}
	f, err := fabric.NewDragonfly(cfg)
	if err != nil {
		return nil, err
	}
	t := &report.Table{ID: "ablation-placement", Title: "Pack vs spread placement (per-node all-to-all)"}
	// One group's worth of nodes, and up to 32 groups' worth.
	perGroup := cfg.NodesPerGroup()
	large := min(32, cfg.ComputeGroups) * perGroup
	cases := []struct {
		nodes  int
		placed string
	}{
		{perGroup, "packed"},
		{perGroup, "spread"},
		{large, "packed"},
		{large, "spread"},
	}
	total := cfg.ComputeNodes()
	for _, c := range cases {
		nodes := make([]int, c.nodes)
		for i := range nodes {
			if c.placed == "spread" {
				nodes[i] = i * total / c.nodes
			} else {
				nodes[i] = i
			}
		}
		comm, err := mpi.NewComm(f, nodes, 8)
		if err != nil {
			return nil, err
		}
		perNode := float64(comm.AllToAllPerRankBandwidth()) * 8
		// Global-link traffic this job's all-to-all injects: zero when
		// packed into one group — the scarce 270 TB/s stays available
		// to other jobs, which is the other half of Slurm's policy.
		spans := comm.GroupsSpanned()
		globalShare := 0.0
		if spans > 1 {
			globalShare = perNode * float64(c.nodes) * (1 - 1/float64(spans))
		}
		unit := "groups"
		if spans == 1 {
			unit = "group"
		}
		t.Add(fmt.Sprintf("%d-node job, %s (%d %s)", c.nodes, c.placed, spans, unit), "", report.GB(perNode)+" /node",
			0, 0, fmt.Sprintf("spans %d groups; %s of global-link traffic", spans, report.GB(globalShare)))
	}
	t.AddInfo("policy", "pack small jobs, spread large jobs", "Slurm's configuration on Frontier (§3.4.2)")
	return t, nil
}

// AblationCheckpoint sweeps checkpoint intervals against the machine's
// MTTI, showing Daly's optimum for a full-machine job writing ~700 TiB
// bursts to Orion.
func AblationCheckpoint(o Options) (*report.Table, error) {
	m, err := o.machine().ResilienceModel()
	if err != nil {
		return nil, err
	}
	mtti := m.SystemMTTI()
	const delta = 180 * units.Second // Orion burst (§4.3.2)
	const restart = 600 * units.Second
	opt := resilience.OptimalCheckpointInterval(delta, mtti)
	t := &report.Table{ID: "ablation-checkpoint", Title: "Checkpoint interval vs machine utilization"}
	for _, mul := range []float64{0.25, 0.5, 1, 2, 4} {
		tau := units.Seconds(float64(opt) * mul)
		eff := resilience.CheckpointEfficiency(tau, delta, restart, mtti)
		name := fmt.Sprintf("tau = %.2fx optimum (%v)", mul, tau)
		note := ""
		if mul == 1 {
			note = "Daly optimum"
		}
		t.Add(name, "", fmt.Sprintf("%.1f%% useful work", eff*100), 0, 0, note)
	}
	t.AddInfo("MTTI", fmt.Sprintf("%v", mtti), "")
	return t, nil
}
