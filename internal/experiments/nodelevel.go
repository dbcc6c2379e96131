package experiments

import (
	"fmt"

	"frontiersim/internal/gpu"
	"frontiersim/internal/node"
	"frontiersim/internal/report"
	"frontiersim/internal/units"
)

// Table1 reproduces the compute peak specifications.
func Table1(o Options) (*report.Table, error) {
	s, err := bardPeakSystem("Bard Peak node model", o.machine(), o.Seed)
	if err != nil {
		return nil, err
	}
	sp := s.ComputeSpecs()
	t := &report.Table{ID: "table1", Title: "Frontier compute peak specifications"}
	t.Add("Nodes", "9,472", fmt.Sprintf("%d", sp.Nodes), 9472, float64(sp.Nodes), "") //machinelint:allow paper-published expected value
	t.Add("FP64 DGEMM", "2.0 EF",
		fmt.Sprintf("%.2f EF (vector %.2f EF)", float64(sp.FP64DGEMM)/1e18, float64(sp.FP64VectorPeak)/1e18),
		2.0, float64(sp.FP64DGEMM)/1e18,
		"paper's 2.0 EF sits between vector peak and matrix-pipe DGEMM")
	t.Add("DDR4 capacity", "4.6 PiB", fmt.Sprintf("%.2f PiB", float64(sp.DDRCapacity)/float64(units.PiB)),
		4.6, float64(sp.DDRCapacity)/float64(units.PiB), "")
	t.Add("DDR4 bandwidth", "1.9 PiB/s", fmt.Sprintf("%.2f PB/s", float64(sp.DDRBandwidth)/1e15),
		1.9, float64(sp.DDRBandwidth)/1e15, "paper mixes PiB/PB; model reports decimal")
	t.Add("HBM2e capacity", "4.6 PiB", fmt.Sprintf("%.2f PiB", float64(sp.HBMCapacity)/float64(units.PiB)),
		4.6, float64(sp.HBMCapacity)/float64(units.PiB), "")
	t.Add("HBM2e bandwidth", "123.9 PiB/s", fmt.Sprintf("%.1f PB/s", float64(sp.HBMBandwidth)/1e15),
		123.9, float64(sp.HBMBandwidth)/1e15, "")
	t.Add("Injection/node", "100 GB/s", report.GB(float64(sp.InjectionPerNode)),
		100, float64(sp.InjectionPerNode)/1e9, "4x 200 Gb/s Cassini")
	t.Add("Global bandwidth", "270+270 TB/s", report.GB(float64(sp.GlobalBandwidth)),
		270.1, float64(sp.GlobalBandwidth)/1e12, "one direction")
	return t, nil
}

// Table3 reproduces CPU STREAM with temporal and non-temporal stores.
func Table3(o Options) (*report.Table, error) {
	s, err := bardPeakSystem("Bard Peak node model", o.machine(), o.Seed)
	if err != nil {
		return nil, err
	}
	t := &report.Table{ID: "table3", Title: "CPU STREAM (MB/s), 7.6 GB arrays, NPS-4"}
	paper := map[string][2]float64{
		"Copy":  {176780.4, 179130.5},
		"Scale": {107262.2, 172396.2},
		"Add":   {125567.1, 178356.8},
		"Triad": {120702.1, 178277.0},
	}
	temporal := s.Node.CPU.Stream(7.6*units.GB, true)
	nontemporal := s.Node.CPU.Stream(7.6*units.GB, false)
	for i, row := range temporal {
		p := paper[row.Kernel]
		mT := float64(row.Bandwidth) / 1e6
		mN := float64(nontemporal[i].Bandwidth) / 1e6
		t.Add(row.Kernel+" temporal", fmt.Sprintf("%.1f", p[0]), fmt.Sprintf("%.1f", mT), p[0], mT, "")
		t.Add(row.Kernel+" non-temporal", fmt.Sprintf("%.1f", p[1]), fmt.Sprintf("%.1f", mN), p[1], mN, "")
	}
	return t, nil
}

// Fig3 reproduces the CoralGemm comparison.
func Fig3(o Options) (*report.Table, error) {
	g := gpu.NewMI250XGCD()
	t := &report.Table{ID: "fig3", Title: "CoralGemm achieved vs peak, single GCD (TF/s)"}
	paper := map[gpu.Precision]float64{gpu.FP64: 33.8, gpu.FP32: 24.1, gpu.FP16: 111.2}
	for _, row := range g.Figure3() {
		m := float64(row.Achieved) / 1e12
		p := paper[row.Precision]
		note := fmt.Sprintf("reference peak %.1f TF/s", float64(row.ReferencePeak)/1e12)
		if row.ExceedsPeak {
			note += "; exceeds vector peak via matrix cores"
		}
		t.Add(row.Precision.String(), fmt.Sprintf("%.1f", p), fmt.Sprintf("%.1f", m), p, m, note)
	}
	if !o.Quick {
		// The size ramp behind the figure.
		for _, pt := range g.GemmSweep(gpu.FP64, []int{1024, 4096, 16384}) {
			t.AddInfo(fmt.Sprintf("FP64 n=%d", pt.N), fmt.Sprintf("%.1f TF/s", float64(pt.Achieved)/1e12), "ramp")
		}
	}
	return t, nil
}

// Table4 reproduces GPU STREAM.
func Table4(o Options) (*report.Table, error) {
	g := gpu.NewMI250XGCD()
	t := &report.Table{ID: "table4", Title: "GPU STREAM (MB/s), 8 GB arrays, single GCD"}
	paper := map[string]float64{
		"Copy": 1336574.8, "Mul": 1338272.2, "Add": 1288240.3,
		"Triad": 1285239.7, "Dot": 1374240.6,
	}
	for _, row := range g.Stream(8 * units.GB) {
		m := float64(row.Bandwidth) / 1e6
		p := paper[row.Kernel]
		t.Add(row.Kernel, fmt.Sprintf("%.1f", p), fmt.Sprintf("%.1f", m), p, m, "")
	}
	return t, nil
}

// Fig4 reproduces the aggregate host-to-device bandwidth of 8 ranks.
func Fig4(o Options) (*report.Table, error) {
	n := node.New(0)
	t := &report.Table{ID: "fig4", Title: "CPU→GCD bandwidth, 8 MPI ranks to their own GCDs"}
	single := float64(n.SingleCoreHostDeviceBandwidth())
	t.Add("single core", "25.5 GB/s", report.GB(single), 25.5, single/1e9, "~71% of xGMI-2 peak")
	agg := float64(n.HostToDeviceAggregate(8))
	t.Add("8 ranks aggregate", "~180 GB/s", report.GB(agg), 180, agg/1e9, "DDR4-limited, matches STREAM")
	if !o.Quick {
		for _, size := range []units.Bytes{64 * units.KiB, units.MiB, 16 * units.MiB, 256 * units.MiB} {
			bw := float64(n.HostToDeviceBandwidth(8, size))
			t.AddInfo(fmt.Sprintf("ramp @ %v/rank", size), report.GB(bw), "")
		}
	}
	return t, nil
}

// Fig5 reproduces peer GCD bandwidths by method and link count.
func Fig5(o Options) (*report.Table, error) {
	n := node.New(0)
	t := &report.Table{ID: "fig5", Title: "GCD↔GCD bandwidth on a Bard Peak node"}
	cases := []struct {
		name   string
		a, b   int
		method node.TransferMethod
		paper  float64
	}{
		{"CU kernel, 4 links (intra-OAM)", 0, 1, node.CUKernel, 145.5},
		{"CU kernel, 2 links (north/south)", 0, 2, node.CUKernel, 74.9},
		{"CU kernel, 1 link (east/west)", 0, 7, node.CUKernel, 37.5},
		{"SDMA, 4 links", 0, 1, node.SDMA, 50},
		{"SDMA, 2 links", 0, 2, node.SDMA, 50},
		{"SDMA, 1 link", 0, 7, node.SDMA, 50},
	}
	for _, c := range cases {
		bw, err := n.PeerAsymptote(c.method, c.a, c.b)
		if err != nil {
			return nil, err
		}
		t.Add(c.name, fmt.Sprintf("%.1f GB/s", c.paper), report.GB(float64(bw)), c.paper, float64(bw)/1e9,
			"SDMA engines cannot stripe across links")
	}
	return t, nil
}
