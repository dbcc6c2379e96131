package network

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"frontiersim/internal/fabric"
	"frontiersim/internal/machine"
	"frontiersim/internal/units"
)

func TestLatencyModelShape(t *testing.T) {
	f := smallFabric(t)
	m := NewLatencyModel(f, rand.New(rand.NewSource(1)))
	var eps []int
	for i := 0; i < 64; i++ {
		eps = append(eps, i)
	}
	stats, err := m.MeasureLatency(eps, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Average <= 0 || stats.P99 < stats.Average || stats.Max < stats.P99 {
		t.Errorf("stats ordering broken: %+v", stats)
	}
	// Small-message latency should be low microseconds.
	if stats.Average < 1*units.Microsecond || stats.Average > 6*units.Microsecond {
		t.Errorf("average = %v, want a few microseconds", stats.Average)
	}
	if _, err := m.MeasureLatency([]int{0}, 10); err == nil {
		t.Error("one endpoint should error")
	}
}

func TestAllreduceLatencyScaling(t *testing.T) {
	f := smallFabric(t)
	m := NewLatencyModel(f, rand.New(rand.NewSource(2)))
	small := m.AllreduceLatency(64, 100)
	big := m.AllreduceLatency(65536, 100)
	if big.Average <= small.Average {
		t.Errorf("allreduce should grow with ranks: %v vs %v", small.Average, big.Average)
	}
	// Log scaling: 65536 ranks = 16 stages vs 6 stages.
	ratio := float64(big.Average) / float64(small.Average)
	if ratio < 2 || ratio > 3.5 {
		t.Errorf("stage scaling ratio = %.2f, want ~16/6", ratio)
	}
	if m.AllreduceLatency(1, 10).N != 0 {
		t.Error("allreduce of one rank is a no-op")
	}
}

func TestMpiGraphScaledDragonfly(t *testing.T) {
	f := smallFabric(t)
	cfg := DefaultMpiGraphConfig()
	cfg.Shifts = 6
	res, err := RunMpiGraph(context.Background(), f, cfg, ParallelConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) == 0 {
		t.Fatal("no samples")
	}
	nicPeak := float64(f.Cfg.LinkRate) * f.Cfg.EndpointEfficiency
	if res.Max > nicPeak*1.1 {
		t.Errorf("max %.3g exceeds NIC ceiling %.3g", res.Max, nicPeak)
	}
	if res.Min <= 0 {
		t.Error("min should be positive")
	}
	// Dragonfly census must be wide: global taper plus non-minimal
	// routing spreads pairs well below the intra-group peak.
	if res.Spread() < 1.5 {
		t.Errorf("dragonfly spread = %.2f, want wide (>1.5)", res.Spread())
	}
	edges, counts := res.Histogram(20)
	if len(edges) != 20 || len(counts) != 20 {
		t.Fatal("histogram shape wrong")
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != len(res.Samples) {
		t.Errorf("histogram loses samples: %d vs %d", total, len(res.Samples))
	}
}

func TestMpiGraphClosTight(t *testing.T) {
	cfg, err := machine.Summit().ClosConfig()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Leaves = 16 // scaled Summit
	f, err := fabric.NewClos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mcfg := DefaultMpiGraphConfig()
	mcfg.RanksPerNode = 1
	mcfg.Shifts = 6
	res, err := RunMpiGraph(context.Background(), f, mcfg, ParallelConfig{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Non-blocking fat tree: tight distribution at the endpoint limit.
	want := float64(cfg.LinkRate) * cfg.EndpointEfficiency
	if math.Abs(res.Mean-want)/want > 0.05 {
		t.Errorf("clos mean = %.3g, want ~%.3g", res.Mean, want)
	}
	if res.Spread() > 1.3 {
		t.Errorf("clos spread = %.2f, want tight (<1.3)", res.Spread())
	}
}

func TestMpiGraphDragonflyWiderThanClos(t *testing.T) {
	// The headline qualitative claim of Figure 6.
	df := smallFabric(t)
	dfRes, err := RunMpiGraph(context.Background(), df, DefaultMpiGraphConfig(), ParallelConfig{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	cc, err := machine.Summit().ClosConfig()
	if err != nil {
		t.Fatal(err)
	}
	cc.Leaves = 16
	cl, _ := fabric.NewClos(cc)
	clCfg := DefaultMpiGraphConfig()
	clCfg.RanksPerNode = 1
	clRes, err := RunMpiGraph(context.Background(), cl, clCfg, ParallelConfig{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if dfRes.Spread() <= clRes.Spread() {
		t.Errorf("dragonfly spread %.2f should exceed clos spread %.2f", dfRes.Spread(), clRes.Spread())
	}
}

func TestMpiGraphErrors(t *testing.T) {
	f := smallFabric(t)
	cfg := DefaultMpiGraphConfig()
	cfg.Nodes = 10000
	if _, err := RunMpiGraph(context.Background(), f, cfg, ParallelConfig{Seed: 6}); err == nil {
		t.Error("too many nodes should error")
	}
	cfg.Nodes = 1
	if _, err := RunMpiGraph(context.Background(), f, cfg, ParallelConfig{Seed: 6}); err == nil {
		t.Error("one node should error")
	}
}

func TestGPCNeTCongestionControlProtects(t *testing.T) {
	f := smallFabric(t)
	cfg := DefaultGPCNeTConfig()
	cfg.Nodes = 45
	cfg.LatencySamples = 1500
	arms, err := RunGPCNeT(f, cfg, 7, []bool{true}, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	res := arms[0]
	// Table 5's result: with CC and 8 PPN, congested == isolated.
	if res.BandwidthImpact > 1.12 {
		t.Errorf("bandwidth impact with CC = %.2f, want ~1.0", res.BandwidthImpact)
	}
	if res.LatencyImpact > 1.12 {
		t.Errorf("latency impact with CC = %.2f, want ~1.0", res.LatencyImpact)
	}
	if res.AllreduceImpact > 1.12 {
		t.Errorf("allreduce impact with CC = %.2f, want ~1.0", res.AllreduceImpact)
	}
	if res.Isolated.Bandwidth.P99 >= res.Isolated.Bandwidth.Average {
		t.Error("bandwidth P99 (worst 1%) should sit below the average")
	}
	if res.Isolated.Latency.P99 <= res.Isolated.Latency.Average {
		t.Error("latency P99 should exceed the average")
	}
}

func TestGPCNeTWithoutCCDegrades(t *testing.T) {
	f := smallFabric(t)
	cfg := DefaultGPCNeTConfig()
	cfg.Nodes = 45
	cfg.LatencySamples = 1500
	arms, err := RunGPCNeT(f, cfg, 8, []bool{false}, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	res := arms[0]
	if res.BandwidthImpact < 1.2 {
		t.Errorf("bandwidth impact without CC = %.2f, want noticeable degradation", res.BandwidthImpact)
	}
	if res.LatencyImpact < 1.2 {
		t.Errorf("latency impact without CC = %.2f, want noticeable degradation", res.LatencyImpact)
	}
}

func TestGPCNeTHighPPNPartialDegradation(t *testing.T) {
	f := smallFabric(t)
	base := DefaultGPCNeTConfig()
	base.Nodes = 45
	base.LatencySamples = 1000

	high := base
	high.PPN = 32
	arms, err := RunGPCNeT(f, high, 9, []bool{true}, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	resHigh := arms[0]
	// Paper: 32 PPN shows 1.2-1.6x average degradation even with CC.
	if resHigh.BandwidthImpact < 1.05 {
		t.Errorf("32 PPN bandwidth impact = %.2f, want > 1.05", resHigh.BandwidthImpact)
	}
	if resHigh.BandwidthImpact > 2.5 {
		t.Errorf("32 PPN bandwidth impact = %.2f, want moderate (CC still helps)", resHigh.BandwidthImpact)
	}
}

func TestGPCNeTErrors(t *testing.T) {
	f := smallFabric(t)
	cfg := DefaultGPCNeTConfig()
	on := []bool{true}
	if _, err := RunGPCNeT(f, cfg, 10, on, nil, ""); err == nil {
		t.Error("9400 nodes on a 48-node fabric should error")
	}
	cfg.Nodes = 4
	if _, err := RunGPCNeT(f, cfg, 10, on, nil, ""); err == nil {
		t.Error("too few nodes should error")
	}
	cfg.Nodes = 20
	for _, ppn := range []int{0, -1} {
		cfg.PPN = ppn
		if _, err := RunGPCNeT(f, cfg, 10, on, nil, ""); err == nil {
			t.Errorf("PPN %d should error", ppn)
		}
	}
	cfg.PPN = 8
	cfg.LatencySamples = 0
	if _, err := RunGPCNeT(f, cfg, 10, on, nil, ""); err == nil {
		t.Error("zero latency samples should error")
	}
	cfg.LatencySamples = 100
	if _, err := RunGPCNeT(f, cfg, 10, nil, nil, ""); err == nil {
		t.Error("no congestion-control arm should error")
	}
	m := NewLatencyModel(f, rand.New(rand.NewSource(10)))
	if _, err := m.MeasureLatency(f.NodeEndpoints(0), 0); err == nil {
		t.Error("zero-sample latency measurement should error")
	}
}

// Full-scale Frontier calibration: latency statistics against Table 5 and
// the mpiGraph ceiling against Figure 6. Too slow for -short.
func TestFrontierScaleCalibration(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale calibration in -short mode")
	}
	f, err := machine.Frontier().NewFabric()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	m := NewLatencyModel(f, rng)
	var eps []int
	for i := 0; i < 2000; i++ {
		eps = append(eps, rng.Intn(f.Cfg.ComputeEndpoints()))
	}
	stats, err := m.MeasureLatency(eps, 20000)
	if err != nil {
		t.Fatal(err)
	}
	avgUs := float64(stats.Average) * 1e6
	p99Us := float64(stats.P99) * 1e6
	// Paper: 2.6 us average, 4.8 us 99th percentile.
	if avgUs < 2.2 || avgUs > 3.1 {
		t.Errorf("RR latency average = %.2f us, want ~2.6", avgUs)
	}
	if p99Us < 3.8 || p99Us > 6.0 {
		t.Errorf("RR latency P99 = %.2f us, want ~4.8", p99Us)
	}
	// Allreduce across the 15,040 victim ranks (1,880 nodes x 8 PPN):
	// 51.5 us average, 54.1 us P99.
	ar := m.AllreduceLatency(15040, 400)
	arAvg := float64(ar.Average) * 1e6
	if arAvg < 45 || arAvg > 60 {
		t.Errorf("allreduce average = %.1f us, want ~51.5", arAvg)
	}
	if float64(ar.P99) < float64(ar.Average) {
		t.Error("allreduce P99 below average")
	}
}

// TestGPCNeTArmsMatchSeparateRuns checks that one call measuring several
// congestion-control arms from one solve per phase returns exactly what
// separate single-arm calls at the same seed return, in either arm
// order, at 8 PPN (only the CC-off arm derates) and 32 PPN (both do).
func TestGPCNeTArmsMatchSeparateRuns(t *testing.T) {
	f := smallFabric(t)
	for _, ppn := range []int{8, 32} {
		cfg := DefaultGPCNeTConfig()
		cfg.Nodes = 45
		cfg.PPN = ppn
		cfg.LatencySamples = 300
		for _, seed := range []int64{1, 21, 77, 1234} {
			single := map[bool]GPCNeTResult{}
			for _, cc := range []bool{true, false} {
				res, err := RunGPCNeT(f, cfg, seed, []bool{cc}, nil, "")
				if err != nil {
					t.Fatal(err)
				}
				single[cc] = res[0]
			}
			if single[true] == single[false] {
				t.Fatalf("ppn %d seed %d: CC on and off gave the same result", ppn, seed)
			}
			for _, arms := range [][]bool{{true, false}, {false, true}} {
				got, err := RunGPCNeT(f, cfg, seed, arms, nil, "")
				if err != nil {
					t.Fatal(err)
				}
				want := []GPCNeTResult{single[arms[0]], single[arms[1]]}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("ppn %d seed %d arms %v:\n got %+v\nwant %+v", ppn, seed, arms, got, want)
				}
			}
		}
	}
}
