package apps

import (
	"testing"
)

// Every app must run on every platform (the proxies are machine-generic
// even where the paper only reports two machines), and Frontier must be
// the fastest machine for every one of them.
func TestAppsRunEverywhere(t *testing.T) {
	platforms := []*Platform{Frontier(), Summit(), Titan(), Mira(), Theta(), Cori()}
	for _, app := range allApps() {
		best := ""
		var bestFOM float64
		for _, p := range platforms {
			r, err := app.Run(p, p.Nodes)
			if err != nil {
				t.Fatalf("%s on %s: %v", app.Name(), p.Name, err)
			}
			if r.FOM <= 0 {
				t.Errorf("%s on %s: non-positive FOM", app.Name(), p.Name)
			}
			if r.Unit == "" {
				t.Errorf("%s: missing FOM unit", app.Name())
			}
			if r.FOM > bestFOM {
				bestFOM, best = r.FOM, p.Name
			}
		}
		if best != "frontier" {
			t.Errorf("%s: fastest machine is %s, want frontier", app.Name(), best)
		}
	}
}

// HACC across machine generations must be monotone in time: each newer
// leadership machine beats the previous generation.
func TestGenerationalProgress(t *testing.T) {
	hacc := NewExaSky()
	order := []*Platform{Titan(), Mira(), Theta(), Summit(), Frontier()}
	// Mira (BlueGene) and Titan are contemporaries with different
	// designs; compare within the GPU lineage and the overall arc.
	titanFOM := runFOM(t, hacc, order[0])
	summitFOM := runFOM(t, hacc, order[3])
	frontierFOM := runFOM(t, hacc, order[4])
	if !(titanFOM < summitFOM && summitFOM < frontierFOM) {
		t.Errorf("GPU lineage not monotone: titan %.3g, summit %.3g, frontier %.3g",
			titanFOM, summitFOM, frontierFOM)
	}
	// A decade of machines: Frontier/Titan > 100x for a compute-bound
	// FP32 code.
	if frontierFOM/titanFOM < 40 {
		t.Errorf("frontier/titan = %.0fx, want a large generational jump", frontierFOM/titanFOM)
	}
}

func runFOM(t *testing.T, app App, p *Platform) float64 {
	t.Helper()
	r, err := app.Run(p, p.Nodes)
	if err != nil {
		t.Fatal(err)
	}
	return r.FOM
}

// Strong scaling within Frontier: more nodes, more FOM, for every app.
func TestFrontierScalingMonotone(t *testing.T) {
	fr := Frontier()
	for _, app := range allApps() {
		small, err := app.Run(fr, 1024)
		if err != nil {
			t.Fatalf("%s: %v", app.Name(), err)
		}
		big, err := app.Run(fr, 8192)
		if err != nil {
			t.Fatalf("%s: %v", app.Name(), err)
		}
		if app.Name() == "LSMS" {
			// LSMS reports a per-device FOM; machine scaling lives in
			// the notes.
			continue
		}
		if big.FOM <= small.FOM {
			t.Errorf("%s: FOM at 8192 nodes (%.3g) <= at 1024 (%.3g)", app.Name(), big.FOM, small.FOM)
		}
	}
}

// The KPP table structure itself: CAAR targets 4x over Summit, ECP 50x
// over petascale baselines, exactly as the paper frames them.
func TestKPPStructure(t *testing.T) {
	for _, app := range CAARApps() {
		if app.TargetSpeedup() != 4.0 {
			t.Errorf("%s: CAAR target is 4x", app.Name())
		}
		if app.BaselineName() != "summit" {
			t.Errorf("%s: CAAR baseline is Summit", app.Name())
		}
	}
	for _, app := range ECPApps() {
		if app.TargetSpeedup() != 50.0 {
			t.Errorf("%s: ECP target is 50x", app.Name())
		}
		if app.BaselineName() == "summit" || app.BaselineName() == "frontier" {
			t.Errorf("%s: ECP baselines are the ~20 PF systems", app.Name())
		}
	}
}

// Scaling shapes: EXAALT (replica-parallel) holds efficiency ~1; GESTS
// (global FFT transposes) falls off once the job leaves the NIC-bound
// regime for the tapered global fabric.
func TestScalingShapes(t *testing.T) {
	fr := Frontier()
	counts := []int{1184, 2368, 4736, 9472}
	// curve runs app at each count and returns FOM and the per-node FOM
	// relative to the smallest run (1.0 is ideal scaling).
	curve := func(app App) (fom, eff []float64) {
		for _, n := range counts {
			r, err := app.Run(fr, n)
			if err != nil {
				t.Fatalf("%s at %d nodes: %v", app.Name(), n, err)
			}
			fom = append(fom, r.FOM)
			eff = append(eff, r.FOM/float64(r.Nodes)/(fom[0]/float64(counts[0])))
		}
		return fom, eff
	}

	_, exaalt := curve(NewEXAALT())
	for i, e := range exaalt {
		if e < 0.99 || e > 1.01 {
			t.Errorf("EXAALT at %d nodes: efficiency %.3f, want ~1 (replica-parallel)", counts[i], e)
		}
	}

	fom, gests := curve(NewGESTS())
	if last := gests[len(gests)-1]; last > 0.75 {
		t.Errorf("GESTS strong scaling at %d nodes: efficiency %.2f, want network-bound falloff", counts[len(counts)-1], last)
	}
	// But FOM must still improve with more nodes.
	if fom[len(fom)-1] <= fom[0] {
		t.Error("GESTS should still speed up with more nodes")
	}
}
