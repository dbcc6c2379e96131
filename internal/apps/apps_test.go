package apps

import (
	"math"
	"testing"
)

// Table 6 and Table 7: every application exceeds its KPP target, and the
// modelled speedups track the paper's achieved values.
func TestAllAppsSpeedups(t *testing.T) {
	// Per-app relative tolerance on the paper's achieved speedup. The
	// purely-calibrated apps are tight; the mechanistic ones (GESTS'
	// all-to-all model, AthenaPK's halo-overlap model, PIConGPU's
	// weak-scaling) carry more model freedom.
	tolerance := map[string]float64{
		"CoMet": 0.03, "LSMS": 0.03, "PIConGPU": 0.08, "Cholla": 0.03,
		"GESTS": 0.12, "AthenaPK": 0.12,
		"WarpX": 0.05, "ExaSky": 0.05, "EXAALT": 0.05, "ExaSMR": 0.05, "WDMApp": 0.05,
	}
	for _, app := range allApps() {
		s, fr, br, err := Speedup(app, ByName)
		if err != nil {
			t.Fatalf("%s: %v", app.Name(), err)
		}
		if s < app.TargetSpeedup() {
			t.Errorf("%s: speedup %.2f misses the %gx KPP target", app.Name(), s, app.TargetSpeedup())
		}
		tol := tolerance[app.Name()]
		if tol == 0 {
			tol = 0.1
		}
		if math.Abs(s-app.PaperSpeedup())/app.PaperSpeedup() > tol {
			t.Errorf("%s: speedup %.2f vs paper %.1f (tolerance %.0f%%)",
				app.Name(), s, app.PaperSpeedup(), tol*100)
		}
		if fr.FOM <= br.FOM {
			t.Errorf("%s: Frontier FOM must exceed baseline", app.Name())
		}
		if fr.String() == "" {
			t.Errorf("%s: empty result formatting", app.Name())
		}
	}
}

func TestAppRosters(t *testing.T) {
	if len(CAARApps()) != 6 {
		t.Errorf("CAAR apps = %d, want 6 (Table 6)", len(CAARApps()))
	}
	if len(ECPApps()) != 5 {
		t.Errorf("ECP apps = %d, want 5 (Table 7)", len(ECPApps()))
	}
	seen := map[string]bool{}
	for _, a := range allApps() {
		if seen[a.Name()] {
			t.Errorf("duplicate app %s", a.Name())
		}
		seen[a.Name()] = true
		if _, err := ByName(a.BaselineName()); err != nil {
			t.Errorf("%s: unknown baseline %s", a.Name(), a.BaselineName())
		}
	}
}

// CoMet's absolute FOM: 419.9 quadrillion comparisons/s at 6.71 EF mixed.
func TestCoMetAbsolutes(t *testing.T) {
	r, err := NewCoMet().Run(Frontier(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.FOM-419.9e15)/419.9e15 > 0.02 {
		t.Errorf("CoMet FOM = %.4g, want 419.9e15", r.FOM)
	}
}

// PIConGPU's absolute FOMs: 65.7e12 (Frontier), ~14.7e12 (Summit).
func TestPIConGPUAbsolutes(t *testing.T) {
	app := NewPIConGPU()
	fr, _ := app.Run(Frontier(), 0)
	if math.Abs(fr.FOM-65.7e12)/65.7e12 > 0.02 {
		t.Errorf("Frontier FOM = %.4g, want 65.7e12", fr.FOM)
	}
	sm, _ := app.Run(Summit(), 0)
	if math.Abs(sm.FOM-14.7e12)/14.7e12 > 0.05 {
		t.Errorf("Summit FOM = %.4g, want 14.7e12", sm.FOM)
	}
}

// EXAALT: 3.57e9 atom-steps/s on 7,000 nodes.
func TestEXAALTAbsolutes(t *testing.T) {
	r, err := NewEXAALT().Run(Frontier(), 7000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.FOM-3.57e9)/3.57e9 > 0.02 {
		t.Errorf("EXAALT FOM = %.4g, want 3.57e9", r.FOM)
	}
}

// ExaSMR: component speedups 54 (Shift) and 99.6 (NekRS) combine
// harmonically to 70.
func TestExaSMRComponents(t *testing.T) {
	app := NewExaSMR()
	r, err := app.Run(Frontier(), 6400)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.FOM-70)/70 > 0.03 {
		t.Errorf("combined FOM = %.1f, want 70", r.FOM)
	}
}

// GESTS: the Frontier runs are the largest DNS grids ever (35+ trillion
// points), feasible only because of Frontier's memory capacity.
func TestGESTSGridFitsOnlyOnFrontier(t *testing.T) {
	app := NewGESTS()
	fr, err := app.Run(Frontier(), 0)
	if err != nil {
		t.Fatal(err)
	}
	pointsFr := 32768.0 * 32768 * 32768
	if pointsFr < 35e12 {
		t.Error("Frontier grid should exceed 35 trillion points")
	}
	// Memory check: 32768^3 doubles-complex working set per node must
	// fit Frontier's 512 GiB HBM but not Summit's 96 GiB.
	perNodeFrontier := pointsFr * 40 / 9472
	if perNodeFrontier > 512*(1<<30) {
		t.Errorf("working set %v exceeds Frontier node HBM", perNodeFrontier)
	}
	perNodeSummit := pointsFr * 40 / 4608
	if perNodeSummit < 96*(1<<30) {
		t.Error("the same grid should NOT fit Summit's HBM")
	}
	if fr.StepTime <= 0 {
		t.Error("step time must be positive")
	}
	// The Frontier all-to-all rate in the notes should match §4.2.2's
	// ~30-32 GB/s per node.
	if fr.Notes == "" {
		t.Error("missing notes")
	}
}

// AthenaPK: parallel efficiencies 96% (Frontier) vs 48% (Summit), the
// consequence of a NIC per GPU.
func TestAthenaPKEfficiencies(t *testing.T) {
	app := NewAthenaPK()
	fr, err := app.Run(Frontier(), 9200)
	if err != nil {
		t.Fatal(err)
	}
	if fr.ParallelEff < 0.92 || fr.ParallelEff > 0.99 {
		t.Errorf("Frontier efficiency = %.3f, want ~0.96", fr.ParallelEff)
	}
	sm, err := app.Run(Summit(), 4600)
	if err != nil {
		t.Fatal(err)
	}
	if sm.ParallelEff < 0.42 || sm.ParallelEff > 0.54 {
		t.Errorf("Summit efficiency = %.3f, want ~0.48", sm.ParallelEff)
	}
	// Single-node comparison: Frontier node ~1.2x a Summit node with
	// an 8x larger problem (512 vs 96 GiB of HBM).
	frNode, _ := app.Run(Frontier(), 1)
	smNode, _ := app.Run(Summit(), 1)
	ratio := frNode.FOM / smNode.FOM
	if ratio < 1.05 || ratio > 1.4 {
		t.Errorf("single-node ratio = %.2f, want ~1.2", ratio)
	}
}

func TestPlatformRegistry(t *testing.T) {
	for _, name := range []string{"frontier", "summit", "titan", "mira", "theta", "cori"} {
		p, err := ByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.Nodes <= 0 || p.DevicesPerNode <= 0 || p.MemBW <= 0 {
			t.Errorf("%s: incomplete platform", name)
		}
		if _, err := p.Fabric(); err != nil {
			t.Errorf("%s: fabric build failed: %v", name, err)
		}
	}
	if _, err := ByName("aurora"); err == nil {
		t.Error("unknown platform should error")
	}
}

func TestPlatformComm(t *testing.T) {
	p := Frontier()
	c, err := p.Comm(100, 8)
	if err != nil {
		t.Fatal(err)
	}
	if c.Size() != 800 {
		t.Errorf("comm size = %d, want 800", c.Size())
	}
	// Spread placement should cover many groups.
	if c.GroupsSpanned() < 50 {
		t.Errorf("spread 100-node job spans %d groups, want many", c.GroupsSpanned())
	}
	if _, err := p.Comm(1e6, 8); err == nil {
		t.Error("oversized job should error")
	}
}

func TestRunOnOversizedNodeCountClamps(t *testing.T) {
	r, err := NewCholla().Run(Summit(), 100000)
	if err != nil {
		t.Fatal(err)
	}
	if r.Nodes != 4608 {
		t.Errorf("nodes = %d, want clamped to 4608", r.Nodes)
	}
}
