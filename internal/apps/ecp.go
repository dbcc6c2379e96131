package apps

import (
	"fmt"
)

// WarpX models the next generation of particle accelerators with
// electromagnetic PIC: memory-bandwidth bound on GPUs. Its 500x over the
// Cori baseline compounds the hardware bandwidth ratio with the Warp →
// WarpX rewrite (pseudo-spectral solvers, Lorentz-boosted frame, mesh
// refinement, full GPU port) — a documented ~19x algorithmic factor; it
// was the first ECP application to reach its KPP, on nearly the full
// machine.
type WarpX struct {
	baseApp
	updatesPerByte float64
	codeSW         map[string]float64
}

// NewWarpX returns the WarpX proxy.
func NewWarpX() *WarpX {
	return &WarpX{
		baseApp:        baseApp{name: "WarpX", baseline: "cori", target: 50, paper: 500, frontierNodes: 9216, baselineNodes: 9688}, //machinelint:allow Table 6 campaign size (paper-published)
		updatesPerByte: 7.0e-4,
		codeSW:         map[string]float64{"frontier": 19.2, "cori": 1.0},
	}
}

// Run implements App.
func (a *WarpX) Run(p *Platform, nodes int) (Result, error) {
	n := a.nodesOn(p, nodes)
	fom := p.Devices(n) * float64(p.MemBW) * a.updatesPerByte * swFactor(a.codeSW, p)
	return Result{App: a.name, Platform: p.Name, Nodes: n, FOM: fom, Unit: "particle-updates/s"}, nil
}

// ExaSky (HACC/CRK-HACC) integrates the Vlasov-Poisson equation with
// particle-mesh plus SPH hydrodynamics: single-precision compute bound.
// The Theta baseline (3,072 nodes rescaled to the full 4,392) ran KNL
// kernels; the GPU force kernels are further tuned (documented 1.43x).
// FOM is the geometric mean of gravity-only and hydro configurations;
// both scale with the same FP32 throughput in this proxy.
type ExaSky struct {
	baseApp
	kernelSW map[string]float64
}

// NewExaSky returns the HACC proxy.
func NewExaSky() *ExaSky {
	return &ExaSky{
		baseApp:  baseApp{name: "ExaSky", baseline: "theta", target: 50, paper: 234, frontierNodes: 8192, baselineNodes: 4392}, //machinelint:allow Table 6 campaign size (paper-published)
		kernelSW: map[string]float64{"frontier": 1.43, "theta": 1.0},
	}
}

// Run implements App.
func (a *ExaSky) Run(p *Platform, nodes int) (Result, error) {
	n := a.nodesOn(p, nodes)
	fom := p.Devices(n) * float64(p.FP32Dense) * swFactor(a.kernelSW, p)
	return Result{App: a.name, Platform: p.Name, Nodes: n, FOM: fom, Unit: "FP32 force-kernel rate (F/s eq.)"}, nil
}

// EXAALT runs thousands of concurrent LAMMPS/SNAP molecular-dynamics
// replicas under ParSplice — embarrassingly parallel, FP64 compute bound
// on the SNAP potential. The ~25x SNAP kernel rewrite [23,44,47] shows up
// as a much higher fraction of peak on Frontier (26.4%) than the pre-ECP
// kernels achieved on Mira's BG/Q (15% of a far smaller peak). Frontier:
// 3.57e9 atom-steps/s on 7,000 nodes (13,856 LAMMPS instances).
type EXAALT struct {
	baseApp
	snapEff          map[string]float64
	flopsPerAtomStep float64
}

// NewEXAALT returns the EXAALT proxy.
func NewEXAALT() *EXAALT {
	return &EXAALT{
		baseApp:          baseApp{name: "EXAALT", baseline: "mira", target: 50, paper: 398.5, frontierNodes: 7000, baselineNodes: 49152}, //machinelint:allow Table 6 campaign size (paper-published)
		snapEff:          map[string]float64{"frontier": 0.264, "mira": 0.15},
		flopsPerAtomStep: 1.4e8, // SNAP is ~100 MF per atom-step
	}
}

// Run implements App.
func (a *EXAALT) Run(p *Platform, nodes int) (Result, error) {
	n := a.nodesOn(p, nodes)
	eff := swFactor(a.snapEff, p)
	fom := p.Devices(n) * float64(p.FP64Dense) * eff / a.flopsPerAtomStep
	instances := int(p.Devices(n) / 4)
	if p.DevicesPerNode == 1 {
		instances = n
	}
	return Result{
		App: a.name, Platform: p.Name, Nodes: n,
		FOM: fom, Unit: "atom-steps/s",
		Notes: fmt.Sprintf("%d ParSplice instances", instances),
	}, nil
}

// ExaSMR couples continuous-energy Monte Carlo neutronics (Shift) with
// spectral-element CFD (NekRS) for small modular reactors. Both
// components are memory-bandwidth bound; their ports carry documented
// rewrite factors (event-based GPU Monte Carlo: 2.65x; Nek5000 → NekRS:
// 4.9x). The paper's combined FOM is the harmonic mean of the two
// component speedups versus Titan: 54 and 99.6 combine to 70.
type ExaSMR struct {
	baseApp
	shiftSW, nekSW map[string]float64
	// baselineAggBW is the full-Titan aggregate achieved memory
	// bandwidth both component FOMs normalise against (software factor
	// 1.0 there), so the Titan baseline lands at exactly 1.0.
	baselineAggBW float64
}

// NewExaSMR returns the coupled proxy.
func NewExaSMR() *ExaSMR {
	return &ExaSMR{
		baseApp:       baseApp{name: "ExaSMR", baseline: "titan", target: 50, paper: 70, frontierNodes: 6400, baselineNodes: 18688}, //machinelint:allow Table 6 campaign size (paper-published)
		shiftSW:       map[string]float64{"frontier": 2.65, "titan": 1.0},
		nekSW:         map[string]float64{"frontier": 4.9, "titan": 1.0},
		baselineAggBW: 18688 * 180e9, //machinelint:allow Table 6 campaign size: 18,688 K20X nodes × 180 GB/s
	}
}

// componentFOMs returns (shift, nekrs) rates on p.
func (a *ExaSMR) componentFOMs(p *Platform, n int) (float64, float64) {
	bw := p.Devices(n) * float64(p.MemBW)
	return bw * swFactor(a.shiftSW, p), bw * swFactor(a.nekSW, p)
}

// Run implements App. The FOM is normalised so the Titan baseline is 1.0
// and Frontier's value is directly the paper's combined figure.
func (a *ExaSMR) Run(p *Platform, nodes int) (Result, error) {
	n := a.nodesOn(p, nodes)
	shift, nek := a.componentFOMs(p, n)
	// Baseline component rates on the full Titan (software factor 1.0).
	rs, rn := shift/a.baselineAggBW, nek/a.baselineAggBW
	fom := 2 / (1/rs + 1/rn)
	return Result{
		App: a.name, Platform: p.Name, Nodes: n,
		FOM: fom, Unit: "combined FOM (vs Titan=1)",
		Notes: fmt.Sprintf("Shift %.1fx, NekRS %.1fx", rs, rn),
	}, nil
}

// WDMApp couples core (GENE) and edge (XGC) gyrokinetic plasma codes —
// mixed-precision particle kernels, compute bound, with a documented
// ~5.2x cumulative code-improvement factor over the Titan-era stack.
type WDMApp struct {
	baseApp
	codeSW map[string]float64
}

// NewWDMApp returns the WDMApp proxy.
func NewWDMApp() *WDMApp {
	return &WDMApp{
		baseApp: baseApp{name: "WDMApp", baseline: "titan", target: 50, paper: 150, frontierNodes: 8192, baselineNodes: 18688}, //machinelint:allow Table 6 campaign size (paper-published)
		codeSW:  map[string]float64{"frontier": 5.15, "titan": 1.0},
	}
}

// Run implements App.
func (a *WDMApp) Run(p *Platform, nodes int) (Result, error) {
	n := a.nodesOn(p, nodes)
	fom := p.Devices(n) * float64(p.FP32Dense) * swFactor(a.codeSW, p)
	return Result{App: a.name, Platform: p.Name, Nodes: n, FOM: fom, Unit: "gyrokinetic push rate (F/s eq.)"}, nil
}
