package power

import (
	"math"
	"testing"

	"frontiersim/internal/units"
)

// §5.1: 1.1 EF at 21.1 MW gives 52 GF/W, beating the report's 50 GF/W.
func TestFrontierHPLPower(t *testing.T) {
	m := Frontier()
	w := m.SystemHPL(m.Nodes)
	mw := float64(w) / 1e6
	if math.Abs(mw-21.1) > 0.8 {
		t.Errorf("HPL system power = %.1f MW, want ~21.1", mw)
	}
	gfw := Efficiency(1.102*units.ExaFlops, w) / 1e9
	if gfw < 50 || gfw > 55 {
		t.Errorf("efficiency = %.1f GF/W, want ~52 (and > the report's 50)", gfw)
	}
}

func TestMWPerExaflop(t *testing.T) {
	m := Frontier()
	w := m.SystemHPL(m.Nodes)
	mwef := MWPerExaflop(1.102*units.ExaFlops, w)
	// The 2008 report's ceiling was 20 MW/EF; Frontier lands just below.
	if mwef > 20 || mwef < 17 {
		t.Errorf("MW/EF = %.1f, want ~19 (< 20)", mwef)
	}
	if MWPerExaflop(0, w) != 0 {
		t.Error("zero flops should give 0")
	}
}

func TestIdleBelowLoad(t *testing.T) {
	m := Frontier()
	idle := m.SystemHPL(0) // every node idle
	if idle >= m.SystemHPL(m.Nodes) {
		t.Error("idle power must be below HPL power")
	}
	if idle <= 0 {
		t.Error("idle power must be positive")
	}
}

func TestPartialActivity(t *testing.T) {
	m := Frontier()
	half := m.SystemHPL(m.Nodes / 2)
	full := m.SystemHPL(m.Nodes)
	if idle := m.SystemHPL(0); half >= full || half <= idle {
		t.Errorf("half-active %v should sit between idle %v and full %v", half, idle, full)
	}
	// Overflow clamps.
	if m.SystemHPL(m.Nodes*2) != full {
		t.Error("active nodes should clamp to machine size")
	}
}

func TestNodePowerBudget(t *testing.T) {
	m := Frontier()
	node := float64(m.NodeHPL.Total())
	// ~2 kW per node under HPL; the GPUs dominate.
	if node < 1800 || node > 2300 {
		t.Errorf("node HPL power = %.0f W, want ~2 kW", node)
	}
	if float64(m.NodeHPL.GPUs)/node < 0.6 {
		t.Error("GPUs should dominate node power")
	}
}

func TestEfficiencyEdgeCases(t *testing.T) {
	if Efficiency(units.ExaFlops, 0) != 0 {
		t.Error("zero watts should give 0")
	}
}
