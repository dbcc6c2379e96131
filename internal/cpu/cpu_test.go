package cpu

import (
	"strings"
	"testing"

	"frontiersim/internal/memory"
	"frontiersim/internal/units"
)

func TestTrentoShape(t *testing.T) {
	tr := NewTrento()
	if got := tr.Cores(); got != 64 {
		t.Errorf("cores = %d, want 64", got)
	}
	if len(tr.CCDs) != 8 {
		t.Errorf("CCDs = %d, want 8", len(tr.CCDs))
	}
	if tr.TotalL3() != 256*units.MiB {
		t.Errorf("L3 = %v, want 256 MiB", tr.TotalL3())
	}
	if tr.DRAM.Mode != memory.NPS4 {
		t.Errorf("mode = %v, want NPS-4 (Frontier's configuration)", tr.DRAM.Mode)
	}
}

func TestCCDGCDPairing(t *testing.T) {
	tr := NewTrento()
	for i, ccd := range tr.CCDs {
		if ccd.PairedGCD != i {
			t.Errorf("CCD %d paired with GCD %d, want %d", i, ccd.PairedGCD, i)
		}
	}
}

func TestPeakFlopsIsSmall(t *testing.T) {
	tr := NewTrento()
	pf := tr.PeakFlops()
	if pf != 2.048*units.TeraFlops {
		t.Errorf("peak = %v, want 2.048 TF/s", pf)
	}
	// The paper: "over 99% of the FLOPs in Frontier coming from the GPUs".
	gcdPeak := 8 * 23.95 * units.TeraFlops
	if float64(pf)/(float64(pf)+float64(gcdPeak)) > 0.011 {
		t.Error("CPU share of node FLOPs should be ~1%")
	}
}

func TestStreamRequiresDRAMSizedArrays(t *testing.T) {
	tr := NewTrento()
	defer func() {
		if recover() == nil {
			t.Error("cache-resident STREAM should panic")
		}
	}()
	tr.Stream(100*units.MiB, true)
}

func TestStreamDelegation(t *testing.T) {
	tr := NewTrento()
	rows := tr.Stream(7.6*units.GB, false)
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	for _, r := range rows {
		if gb := float64(r.Bandwidth) / 1e9; gb < 170 || gb > 182 {
			t.Errorf("%s non-temporal = %.1f GB/s, want ~179", r.Kernel, gb)
		}
	}
}

func TestSetNPS(t *testing.T) {
	tr := NewTrento()
	tr.DRAM.Mode = memory.NPS1
	rows := tr.Stream(7.6*units.GB, false)
	for _, r := range rows {
		if gb := float64(r.Bandwidth) / 1e9; gb > 130 {
			t.Errorf("%s NPS-1 = %.1f GB/s, want ~125", r.Kernel, gb)
		}
	}
}

func TestString(t *testing.T) {
	s := NewTrento().String()
	for _, want := range []string{"Trento", "64 cores", "NPS-4"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}
}
