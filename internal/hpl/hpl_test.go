package hpl

import (
	"math"
	"testing"
)

func TestRPeak(t *testing.T) {
	m := FrontierSpec()
	// Table 1: 2.0 EF DGEMM peak (vector FP64 ~1.8 EF; matrix higher).
	ef := float64(m.RPeak()) / 1e18
	if math.Abs(ef-1.815) > 0.01 {
		t.Errorf("vector RPeak = %.3f EF, want 1.815", ef)
	}
}

// TOP500 June 2022: 1.102 EF. The model lands in the same band at full
// machine size.
func TestHPLRmax(t *testing.T) {
	m := FrontierSpec()
	ef := float64(m.HPLRmax(m.Nodes)) / 1e18
	if ef < 1.05 || ef < 1.0 || ef > 1.2 {
		t.Errorf("Rmax = %.3f EF, want ~1.1", ef)
	}
	// Exceeds an exaflop: the paper's headline.
	if ef < 1.0 {
		t.Error("Frontier must exceed 1 EF")
	}
	if m.HPLRmax(m.Nodes*2) != m.HPLRmax(m.Nodes) {
		t.Error("node count should clamp")
	}
}

func TestHPLProblemSizeAndTime(t *testing.T) {
	m := FrontierSpec()
	n := m.HPLProblemSize(m.Nodes, 0.85)
	// Real Frontier HPL runs use N in the ~24-26M range with ~4.6 PiB
	// of HBM.
	if n < 20e6 || n > 30e6 {
		t.Errorf("HPL N = %d, want ~24M", n)
	}
	d := m.HPLRunTime(m.Nodes, 0.85)
	// Real runs take a couple of hours.
	hours := float64(d) / 3600
	if hours < 1 || hours > 6 {
		t.Errorf("HPL runtime = %.1f h, want a few hours", hours)
	}
}

func TestHPCGBandwidthBound(t *testing.T) {
	m := FrontierSpec()
	pf := float64(m.HPCG(m.Nodes)) / 1e15
	// Frontier's HPCG submission: ~14 PF.
	if math.Abs(pf-14) > 1.5 {
		t.Errorf("HPCG = %.1f PF, want ~14", pf)
	}
	frac := float64(m.HPCG(m.Nodes)) / float64(m.RPeak())
	if frac > 0.012 || frac < 0.005 {
		t.Errorf("HPCG fraction of peak = %.4f, want ~0.8%%", frac)
	}
}

func TestScalingMonotone(t *testing.T) {
	m := FrontierSpec()
	if m.HPLRmax(1000) >= m.HPLRmax(9000) {
		t.Error("Rmax should grow with nodes")
	}
	if m.HPCG(1000) >= m.HPCG(9000) {
		t.Error("HPCG should grow with nodes")
	}
}
