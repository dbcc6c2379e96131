package experiments

import (
	"context"
	"fmt"
	"strconv"

	"frontiersim/internal/fabric"
	"frontiersim/internal/machine"
	"frontiersim/internal/network"
	"frontiersim/internal/report"
)

// Fig6 reproduces the mpiGraph histograms for Frontier's dragonfly and
// Summit's fat tree.
func Fig6(o Options) (*report.Table, error) {
	t := &report.Table{ID: "fig6", Title: "mpiGraph per-NIC receive bandwidth census"}

	// The machine under test (canonically Frontier's dragonfly).
	df, err := o.machine().NewFabric()
	if err != nil {
		return nil, err
	}
	dcfg := network.DefaultMpiGraphConfig()
	if o.Quick {
		dcfg.Shifts = 3
	}
	dres, err := runCensus(df, dcfg, o, topoKey(o.machine()))
	if err != nil {
		return nil, err
	}
	t.Add("Frontier min", "~3 GB/s", report.GB(dres.Min), 3, dres.Min/1e9, "all-global traffic, non-minimal halving")
	t.Add("Frontier max", "~17.5 GB/s", report.GB(dres.Max), 17.5, dres.Max/1e9, "intra-group pairs, ~70% of 25 GB/s")
	t.Add("Frontier median", "wide distribution", report.GB(dres.Median), 0, 0,
		fmt.Sprintf("spread %.1fx across %d samples", dres.Spread(), len(dres.Samples)))

	// Summit, the fixed comparison baseline.
	cl, err := machine.Summit().NewFabric()
	if err != nil {
		return nil, err
	}
	scfg := network.DefaultMpiGraphConfig()
	scfg.RanksPerNode = 1
	if o.Quick {
		scfg.Shifts = 3
	}
	sres, err := runCensus(cl, scfg, o, topoKey(machine.Summit()))
	if err != nil {
		return nil, err
	}
	t.Add("Summit mean", "~8.5 GB/s", report.GB(sres.Mean), 8.5, sres.Mean/1e9, "tight distribution on non-blocking fat tree")
	t.Add("Summit spread", "tight", fmt.Sprintf("%.2fx", sres.Spread()), 0, 0, "")

	if !o.Quick {
		edges, counts := dres.Histogram(14)
		for i := range edges {
			t.AddInfo(fmt.Sprintf("Frontier bin <=%s", report.GB(edges[i])), fmt.Sprintf("%d", counts[i]), "histogram")
		}
	}
	return t, nil
}

// runCensus runs the mpiGraph census for an experiment. Jobs is 1
// because the experiment harness already spreads experiments over the
// cores.
func runCensus(f *fabric.Fabric, cfg network.MpiGraphConfig, o Options, topo string) (network.MpiGraphResult, error) {
	return network.RunMpiGraph(context.Background(), f, cfg, network.ParallelConfig{
		Jobs: 1, Seed: o.Seed, Solutions: o.Solutions, TopoKey: topo,
	})
}

// gpcnetConfig is the GPCNeT run of table5, ablation-ppn and
// ablation-cc: the paper's 9,400-node, 8-PPN configuration, clamped to
// the fabric's compute nodes, with quickSamples latency probes in quick
// mode. A machine too small for GPCNeT's victim/congestor split cannot
// run it: the error wraps machine.ErrNotInSpec.
func (o Options) gpcnetConfig(f *fabric.Fabric, quickSamples int) (network.GPCNeTConfig, error) {
	cfg := network.DefaultGPCNeTConfig()
	cfg.Nodes = min(cfg.Nodes, f.Cfg.ComputeNodes())
	if cfg.Nodes < network.GPCNeTMinNodes {
		return cfg, machine.NotInSpec("machine has %d compute nodes; GPCNeT needs at least %d", cfg.Nodes, network.GPCNeTMinNodes)
	}
	if o.Quick {
		cfg.LatencySamples = quickSamples
	}
	return cfg, nil
}

// thousands formats n with comma digit groups ("9,400").
func thousands(n int) string {
	s := strconv.Itoa(n)
	for i := len(s) - 3; i > 0; i -= 3 {
		s = s[:i] + "," + s[i:]
	}
	return s
}

// Table5 reproduces GPCNeT at 9,400 nodes and 8 PPN with congestion
// control enabled.
func Table5(o Options) (*report.Table, error) {
	f, err := o.machine().NewFabric()
	if err != nil {
		return nil, err
	}
	cfg, err := o.gpcnetConfig(f, 800)
	if err != nil {
		return nil, err
	}
	arms, err := network.RunGPCNeT(f, cfg, o.Seed, []bool{true}, o.Solutions, topoKey(o.machine()))
	if err != nil {
		return nil, err
	}
	res := arms[0]
	t := &report.Table{ID: "table5",
		Title: fmt.Sprintf("GPCNeT on %s nodes, %d PPN (isolated | congested)", thousands(cfg.Nodes), cfg.PPN)}
	us := func(s float64) string { return fmt.Sprintf("%.1f us", s*1e6) }
	mib := func(b float64) string { return fmt.Sprintf("%.1f MiB/s", b/(1<<20)) }

	iso, con := res.Isolated, res.Congested
	t.Add("RR two-sided lat avg", "2.6 us", us(float64(iso.Latency.Average)), 2.6, float64(iso.Latency.Average)*1e6, "isolated")
	t.Add("RR two-sided lat 99%", "4.8 us", us(float64(iso.Latency.P99)), 4.8, float64(iso.Latency.P99)*1e6, "isolated")
	t.Add("RR BW+Sync avg", "3497.2 MiB/s/rank", mib(float64(iso.Bandwidth.Average)), 3497.2, float64(iso.Bandwidth.Average)/(1<<20), "isolated")
	t.Add("RR BW+Sync 99%", "2514.4 MiB/s/rank", mib(float64(iso.Bandwidth.P99)), 2514.4, float64(iso.Bandwidth.P99)/(1<<20), "isolated")
	t.Add("Allreduce avg", "51.5 us", us(float64(iso.Allreduce.Average)), 51.5, float64(iso.Allreduce.Average)*1e6, "isolated")
	t.Add("Allreduce 99%", "54.1 us", us(float64(iso.Allreduce.P99)), 54.1, float64(iso.Allreduce.P99)*1e6, "isolated")

	t.Add("congested lat avg", "2.6 us", us(float64(con.Latency.Average)), 2.6, float64(con.Latency.Average)*1e6, "congestion control holds")
	t.Add("congested BW avg", "3472.2 MiB/s/rank", mib(float64(con.Bandwidth.Average)), 3472.2, float64(con.Bandwidth.Average)/(1<<20), "")
	t.Add("congested allreduce avg", "51.6 us", us(float64(con.Allreduce.Average)), 51.6, float64(con.Allreduce.Average)*1e6, "")
	t.Add("impact factor (BW)", "1.0x", fmt.Sprintf("%.2fx", res.BandwidthImpact), 1.0, res.BandwidthImpact, "ideal: congested == isolated")
	t.Add("impact factor (lat)", "1.0x", fmt.Sprintf("%.2fx", res.LatencyImpact), 1.0, res.LatencyImpact, "")
	return t, nil
}
