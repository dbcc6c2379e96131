package memory

import (
	"math"
	"testing"
	"testing/quick"

	"frontiersim/internal/units"
)

func gb(bw units.BytesPerSecond) float64 { return float64(bw) / 1e9 }

func TestTrentoDDR4Shape(t *testing.T) {
	d := TrentoDDR4()
	if d.Channels != 8 {
		t.Errorf("channels = %d, want 8", d.Channels)
	}
	if d.Capacity() != 512*units.GiB {
		t.Errorf("capacity = %v, want 512 GiB", d.Capacity())
	}
	if got := gb(d.Peak()); math.Abs(got-204.8) > 0.01 {
		t.Errorf("peak = %.1f GB/s, want 204.8", got)
	}
}

func TestSustainedNPSModes(t *testing.T) {
	d := TrentoDDR4()
	nps4 := gb(d.Sustained())
	// Paper: "up to 180 GB/s using non-temporal loads and stores in NPS-4".
	if nps4 < 175 || nps4 > 182 {
		t.Errorf("NPS-4 sustained = %.1f GB/s, want ~179", nps4)
	}
	d.Mode = NPS1
	nps1 := gb(d.Sustained())
	// Paper: "When operating in NPS-1, that rate drops to ~125 GB/s".
	if nps1 < 120 || nps1 > 130 {
		t.Errorf("NPS-1 sustained = %.1f GB/s, want ~125", nps1)
	}
	if nps1 >= nps4 {
		t.Error("NPS-1 aggregate must be below NPS-4")
	}
}

func TestNPSModeString(t *testing.T) {
	if NPS4.String() != "NPS-4" || NPS1.String() != "NPS-1" {
		t.Errorf("NPS strings wrong: %s %s", NPS4, NPS1)
	}
}

// Table 3 of the paper, within a few percent.
func TestCPUStreamTable3(t *testing.T) {
	d := TrentoDDR4()
	cases := []struct {
		kernel    StreamKernel
		temporal  bool
		wantGBs   float64
		tolerance float64
	}{
		{Copy, true, 176.8, 0.03},
		{Scale, true, 107.3, 0.03},
		{Add, true, 125.6, 0.05},
		{Triad, true, 120.7, 0.03},
		{Copy, false, 179.1, 0.02},
		{Scale, false, 172.4, 0.05},
		{Add, false, 178.4, 0.02},
		{Triad, false, 178.3, 0.02},
	}
	for _, c := range cases {
		got := gb(CPUStreamBandwidth(d, c.kernel, c.temporal))
		if math.Abs(got-c.wantGBs)/c.wantGBs > c.tolerance {
			t.Errorf("%s temporal=%v: got %.1f GB/s, want %.1f ±%.0f%%",
				c.kernel.Name, c.temporal, got, c.wantGBs, c.tolerance*100)
		}
	}
}

func TestTemporalNeverBeatsNonTemporal(t *testing.T) {
	d := TrentoDDR4()
	for _, k := range CPUStreamKernels {
		temp := CPUStreamBandwidth(d, k, true)
		nt := CPUStreamBandwidth(d, k, false)
		if temp > nt {
			t.Errorf("%s: temporal %.1f > non-temporal %.1f GB/s", k.Name, gb(temp), gb(nt))
		}
	}
}

func TestRunCPUStreamRows(t *testing.T) {
	rows := RunCPUStream(TrentoDDR4(), 7.6*units.GB, true)
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	names := []string{"Copy", "Scale", "Add", "Triad"}
	for i, r := range rows {
		if r.Kernel != names[i] {
			t.Errorf("row %d = %s, want %s", i, r.Kernel, names[i])
		}
		if r.BestTime <= 0 {
			t.Errorf("%s: nonpositive best time", r.Kernel)
		}
		if r.String() == "" {
			t.Errorf("%s: empty formatting", r.Kernel)
		}
	}
	// Add moves 3 arrays; Copy moves 2. Best time must reflect that.
	if rows[2].BestTime <= rows[0].BestTime {
		t.Error("Add should take longer than Copy per iteration")
	}
}

func TestMI250XHBMShape(t *testing.T) {
	h := MI250XHBM()
	if h.Capacity() != 64*units.GiB {
		t.Errorf("capacity = %v, want 64 GiB", h.Capacity())
	}
	if got := gb(h.Peak()); math.Abs(got-1635) > 0.5 {
		t.Errorf("peak = %.0f GB/s, want 1635", got)
	}
}

// Table 4 of the paper, within 1 %.
func TestGPUStreamTable4(t *testing.T) {
	h := MI250XHBM()
	cases := []struct {
		kernel  StreamKernel
		wantGBs float64
	}{
		{Copy, 1336.6},
		{Mul, 1338.3},
		{Add, 1288.2},
		{Triad, 1285.2},
		{Dot, 1374.2},
	}
	for _, c := range cases {
		got := gb(GPUStreamBandwidth(h, c.kernel))
		if math.Abs(got-c.wantGBs)/c.wantGBs > 0.01 {
			t.Errorf("GPU %s: got %.1f GB/s, want %.1f", c.kernel.Name, got, c.wantGBs)
		}
	}
}

func TestGPUStreamEfficiencyBand(t *testing.T) {
	// Paper: "between 79% and 84% of peak HBM bandwidth".
	h := MI250XHBM()
	for _, k := range GPUStreamKernels {
		eff := float64(GPUStreamBandwidth(h, k)) / float64(h.Peak())
		if eff < 0.78 || eff > 0.85 {
			t.Errorf("%s efficiency %.3f outside [0.78, 0.85]", k.Name, eff)
		}
	}
}

func TestRunGPUStream(t *testing.T) {
	rows := RunGPUStream(MI250XHBM(), 8*units.GB)
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(rows))
	}
	if rows[4].Kernel != "Dot" {
		t.Errorf("last row = %s, want Dot", rows[4].Kernel)
	}
}

// Property: STREAM bandwidth scales linearly with channel count.
func TestChannelScalingProperty(t *testing.T) {
	f := func(rawCh uint8) bool {
		ch := int(rawCh%15) + 1
		d := TrentoDDR4()
		d.Channels = ch
		one := TrentoDDR4()
		one.Channels = 1
		ratio := float64(CPUStreamBandwidth(d, Triad, false)) / float64(CPUStreamBandwidth(one, Triad, false))
		return math.Abs(ratio-float64(ch)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: for every kernel and mode, bandwidth is positive and at most
// the theoretical peak.
func TestBandwidthBoundedProperty(t *testing.T) {
	d := TrentoDDR4()
	for _, k := range []StreamKernel{Copy, Scale, Add, Triad, Dot} {
		for _, temporal := range []bool{true, false} {
			bw := CPUStreamBandwidth(d, k, temporal)
			if bw <= 0 || bw > d.Peak() {
				t.Errorf("%s temporal=%v: bw %v outside (0, peak]", k.Name, temporal, bw)
			}
		}
	}
}
