package node

import (
	"math"
	"testing"

	"frontiersim/internal/units"
)

func TestNodeShape(t *testing.T) {
	n := New(0)
	if n.HBMCapacity() != 512*units.GiB {
		t.Errorf("HBM capacity = %v, want 512 GiB", n.HBMCapacity())
	}
	if got := float64(n.HBMPeak()) / 1e12; math.Abs(got-13.08) > 0.01 {
		t.Errorf("HBM peak = %.2f TB/s, want 13.08", got)
	}
	if got := float64(n.PeakFP64()) / 1e12; math.Abs(got-(8*23.95+2.048)) > 0.01 {
		t.Errorf("node FP64 = %.1f TF/s", got)
	}
	if n.InjectionBandwidth() != 100*units.GBps {
		t.Errorf("injection = %v, want 100 GB/s", n.InjectionBandwidth())
	}
	if n.String() == "" {
		t.Error("empty String")
	}
}

// The paper: node HBM bandwidth is 64x the CPU's DDR bandwidth.
func TestHBMToDDRRatio(t *testing.T) {
	n := New(0)
	r := float64(n.HBMPeak()) / float64(n.CPU.DRAM.Peak())
	if math.Abs(r-64) > 0.5 {
		t.Errorf("HBM:DDR ratio = %.1f, want ~64", r)
	}
}

func TestTwistedLadderStructure(t *testing.T) {
	n := New(0)
	if len(n.Links) != 12 {
		t.Fatalf("links = %d, want 12", len(n.Links))
	}
	counts := map[LinkClass]int{}
	for _, l := range n.Links {
		counts[l.Class]++
	}
	if counts[IntraOAM] != 4 || counts[InterOAMNS] != 4 || counts[InterOAMEW] != 4 {
		t.Errorf("class counts = %v, want 4 of each", counts)
	}
	// Each GCD has exactly 7 xGMI-3 GCD links (4 + 2 + 1) to exactly
	// 3 neighbors.
	perGCD, neighbors := make([]int, 8), make([]int, 8)
	for _, l := range n.Links {
		perGCD[l.A] += l.Links
		perGCD[l.B] += l.Links
		neighbors[l.A]++
		neighbors[l.B]++
	}
	for g, c := range perGCD {
		if c != 7 || neighbors[g] != 3 {
			t.Errorf("GCD %d has %d bonded links to %d neighbors, want 7 to 3", g, c, neighbors[g])
		}
	}
}

func TestLadderConnectedDiameter2(t *testing.T) {
	n := New(0)
	for a := 0; a < 8; a++ {
		for b := 0; b < 8; b++ {
			if a == b {
				continue
			}
			if _, ok := n.LinkBetween(a, b); ok {
				continue
			}
			twoHop := false
			for mid := 0; mid < 8; mid++ {
				_, ab := n.LinkBetween(a, mid)
				_, mb := n.LinkBetween(mid, b)
				twoHop = twoHop || ab && mb
			}
			if !twoHop {
				t.Errorf("GCD %d->%d: no direct link and no 2-hop path", a, b)
			}
		}
	}
}

func TestIntraOAMRates(t *testing.T) {
	n := New(0)
	l, ok := n.LinkBetween(0, 1)
	if !ok || l.Class != IntraOAM {
		t.Fatal("GCDs 0,1 must share an OAM")
	}
	if l.Rate() != 200*units.GBps {
		t.Errorf("intra-OAM rate = %v, want 200 GB/s", l.Rate())
	}
}

// Figure 5: CU kernel transfers reach 37.5 / 74.9 / 145.5 GB/s for 1-, 2-
// and 4-link pairs; SDMA is capped at ~50 GB/s regardless.
func TestFigure5Asymptotes(t *testing.T) {
	n := New(0)
	cases := []struct {
		a, b   int
		method TransferMethod
		want   float64
		tol    float64
	}{
		{0, 7, CUKernel, 37.5, 0.01},
		{0, 2, CUKernel, 74.9, 0.01},
		{0, 1, CUKernel, 145.5, 0.01},
		{0, 7, SDMA, 50, 0.01},
		{0, 2, SDMA, 50, 0.01},
		{0, 1, SDMA, 50, 0.01},
	}
	for _, c := range cases {
		got, err := n.PeerAsymptote(c.method, c.a, c.b)
		if err != nil {
			t.Fatalf("%v %d->%d: %v", c.method, c.a, c.b, err)
		}
		gbs := float64(got) / 1e9
		if math.Abs(gbs-c.want)/c.want > c.tol {
			t.Errorf("%v %d->%d = %.1f GB/s, want %.1f", c.method, c.a, c.b, gbs, c.want)
		}
	}
}

func TestSDMANeverBeatsCUOnWideLinks(t *testing.T) {
	n := New(0)
	for _, pair := range [][2]int{{0, 1}, {0, 2}} {
		cu, _ := n.PeerAsymptote(CUKernel, pair[0], pair[1])
		sd, _ := n.PeerAsymptote(SDMA, pair[0], pair[1])
		if sd >= cu {
			t.Errorf("pair %v: SDMA %v >= CU %v on multi-link bond", pair, sd, cu)
		}
	}
	// On a single link, SDMA's lower setup cost makes it competitive;
	// its asymptote may exceed the CU kernel's 75% wire efficiency.
	cu, _ := n.PeerAsymptote(CUKernel, 0, 7)
	sd, _ := n.PeerAsymptote(SDMA, 0, 7)
	if float64(sd) < float64(cu) {
		t.Errorf("single link: SDMA %v should be >= CU %v", sd, cu)
	}
}

func TestPeerBandwidthRamp(t *testing.T) {
	n := New(0)
	small, err := n.PeerBandwidth(CUKernel, 0, 1, 64*units.KiB)
	if err != nil {
		t.Fatal(err)
	}
	large, err := n.PeerBandwidth(CUKernel, 0, 1, 1*units.GiB)
	if err != nil {
		t.Fatal(err)
	}
	if small >= large {
		t.Errorf("ramp broken: small %v >= large %v", small, large)
	}
	asym, _ := n.PeerAsymptote(CUKernel, 0, 1)
	if float64(large) < 0.99*float64(asym) {
		t.Errorf("1 GiB transfer %v should be near asymptote %v", large, asym)
	}
}

func TestPeerTransferTime(t *testing.T) {
	n := New(0)
	bw, err := n.PeerBandwidth(SDMA, 0, 1, 500*units.MB)
	if err != nil {
		t.Fatal(err)
	}
	d := units.TimeToMove(500*units.MB, bw)
	want := 0.01 // 500 MB at ~50 GB/s
	if math.Abs(float64(d)-want)/want > 0.05 {
		t.Errorf("transfer time = %v, want ~10ms", d)
	}
}

func TestNoDirectLinkError(t *testing.T) {
	n := New(0)
	if _, err := n.PeerAsymptote(CUKernel, 0, 4); err == nil {
		t.Error("GCDs 0 and 4 are not directly linked; want error")
	}
	if _, err := n.PeerBandwidth(CUKernel, 0, 4, units.MiB); err == nil {
		t.Error("want error for unlinked bandwidth query")
	}
}

// Figure 4: single core achieves 25.5 GB/s (~71% of xGMI-2); eight ranks
// aggregate to ~180 GB/s, matching STREAM.
func TestFigure4HostDevice(t *testing.T) {
	n := New(0)
	single := float64(n.SingleCoreHostDeviceBandwidth()) / 1e9
	if math.Abs(single-25.5) > 0.2 {
		t.Errorf("single-core = %.1f GB/s, want 25.5", single)
	}
	agg := float64(n.HostToDeviceAggregate(8)) / 1e9
	if agg < 175 || agg > 182 {
		t.Errorf("8-rank aggregate = %.1f GB/s, want ~179 (STREAM-matched)", agg)
	}
	// With 8 ranks the DRAM is the binding constraint, not the links.
	links := 8 * 25.5
	if agg >= links {
		t.Errorf("aggregate %.1f should be DRAM-capped below %.1f", agg, links)
	}
}

func TestHostToDeviceRamp(t *testing.T) {
	n := New(0)
	prev := units.BytesPerSecond(0)
	for _, s := range []units.Bytes{4 * units.KiB, 64 * units.KiB, units.MiB, 16 * units.MiB, 256 * units.MiB} {
		bw := n.HostToDeviceBandwidth(8, s)
		if bw <= prev {
			t.Errorf("ramp not monotone at %v", s)
		}
		prev = bw
	}
}

func TestHostToDeviceRankBounds(t *testing.T) {
	n := New(0)
	defer func() {
		if recover() == nil {
			t.Error("0 ranks should panic")
		}
	}()
	n.HostToDeviceAggregate(0)
}

func TestNICAttachment(t *testing.T) {
	n := New(0)
	for i, nic := range n.NICs {
		if nic.AttachedGCD != 2*i {
			t.Errorf("NIC %d attached to GCD %d, want %d", i, nic.AttachedGCD, 2*i)
		}
		if nic.Rate != 25*units.GBps {
			t.Errorf("NIC %d rate = %v, want 25 GB/s", i, nic.Rate)
		}
	}
}

func TestStringers(t *testing.T) {
	for _, c := range []LinkClass{IntraOAM, InterOAMNS, InterOAMEW, HostLink, LinkClass(99)} {
		if c.String() == "" {
			t.Errorf("empty string for %d", int(c))
		}
	}
	if CUKernel.String() != "CU-kernel" || SDMA.String() != "SDMA" {
		t.Error("method names wrong")
	}
}
