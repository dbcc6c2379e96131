package apps

import (
	"fmt"
	"math"

	"frontiersim/internal/units"
)

// baseApp carries the common KPP bookkeeping.
type baseApp struct {
	name          string
	baseline      string
	target        float64
	paper         float64
	frontierNodes int
	baselineNodes int
}

func (b baseApp) Name() string           { return b.name }
func (b baseApp) BaselineName() string   { return b.baseline }
func (b baseApp) TargetSpeedup() float64 { return b.target }
func (b baseApp) PaperSpeedup() float64  { return b.paper }
func (b baseApp) FrontierNodes() int     { return b.frontierNodes }
func (b baseApp) BaselineNodes() int     { return b.baselineNodes }

func (b baseApp) nodesOn(p *Platform, requested int) int {
	n := requested
	if n == 0 {
		if p.Name == "frontier" {
			n = b.frontierNodes
		} else {
			n = b.baselineNodes
		}
	}
	if n > p.Nodes {
		n = p.Nodes
	}
	return n
}

// swFactor looks up a platform's software-era factor, defaulting to 1.
func swFactor(m map[string]float64, p *Platform) float64 {
	if v, ok := m[p.Name]; ok {
		return v
	}
	return 1
}

// CoMet computes similarity metrics between vectors with mixed-precision
// matrix multiplies: pure FP16-class GEMM throughput. The CAAR work
// "optimized to achieve high performance on the AMD GPU architecture",
// captured as a higher mixed-precision utilisation on Frontier than the
// pre-CAAR Summit baseline. Frontier: 419.9 quadrillion comparisons/s on
// 9,074 nodes (6.71 EF mixed precision); Summit baseline 81.2.
type CoMet struct {
	baseApp
	// cmpPerFlop converts mixed-precision FLOPs to 3-way CCC element
	// comparisons (419.9e15 cmp/s over 6.71 EF).
	cmpPerFlop float64
	// mixedUtil is the achieved fraction of dense FP16 throughput the
	// CCC kernels reach per platform.
	mixedUtil map[string]float64
}

// NewCoMet returns the CoMet proxy.
func NewCoMet() *CoMet {
	return &CoMet{
		baseApp:    baseApp{name: "CoMet", baseline: "summit", target: 4.0, paper: 5.2, frontierNodes: 9074, baselineNodes: 4600},
		cmpPerFlop: 0.06258,
		mixedUtil:  map[string]float64{"frontier": 0.831, "summit": 0.495},
	}
}

// Run implements App.
func (a *CoMet) Run(p *Platform, nodes int) (Result, error) {
	n := a.nodesOn(p, nodes)
	flops := p.Devices(n) * float64(p.FP16Dense) * swFactor(a.mixedUtil, p)
	return Result{
		App: a.name, Platform: p.Name, Nodes: n,
		FOM: flops * a.cmpPerFlop, Unit: "comparisons/s",
		Notes: fmt.Sprintf("mixed-precision rate %.3g F/s", flops),
	}, nil
}

// LSMS solves Kohn-Sham density functional theory via multiple scattering
// — dense double-complex linear algebra (matrix inversions). Table 6's
// achieved 7.5x is the per-GPU kernel speedup for the l_max=7 case, so
// the proxy's FOM is per-device; the machine-level FOM (1.027e16 on
// 8,192 Frontier nodes for 1,048,576 atoms) lands in Result.Notes. The
// CAAR port to HIP/rocSolver plus newly-offloaded kernels contributes a
// documented 1.49x on top of the raw FP64 dense ratio.
type LSMS struct {
	baseApp
	kernelSW map[string]float64
	fomScale float64
}

// NewLSMS returns the LSMS proxy.
func NewLSMS() *LSMS {
	return &LSMS{
		baseApp:  baseApp{name: "LSMS", baseline: "summit", target: 4.0, paper: 7.5, frontierNodes: 8192, baselineNodes: 4500},
		kernelSW: map[string]float64{"frontier": 1.49, "summit": 1.0},
		fomScale: 3.112e-3, // calibrates machine FOM to 1.027e16
	}
}

// Run implements App.
func (a *LSMS) Run(p *Platform, nodes int) (Result, error) {
	n := a.nodesOn(p, nodes)
	perDevice := float64(p.FP64Dense) * swFactor(a.kernelSW, p)
	machineFOM := p.Devices(n) * perDevice * a.fomScale
	return Result{
		App: a.name, Platform: p.Name, Nodes: n,
		FOM: perDevice, Unit: "per-GPU kernel rate (F/s eq.)",
		Notes: fmt.Sprintf("machine FOM %.4g", machineFOM),
	}, nil
}

// PIConGPU simulates laser-driven plasmas with particle-in-cell: memory-
// bandwidth bound on the GPUs, with weak-scaling efficiencies the teams
// measured (90% on 9,216 Frontier nodes; 92% on the 2019 full-Summit
// run). FOM is weighted particle+cell updates per second: 65.7e12 on
// Frontier vs 14.7e12 on Summit.
type PIConGPU struct {
	baseApp
	updatesPerByte float64
	weakEff        map[string]float64
}

// NewPIConGPU returns the PIConGPU proxy.
func NewPIConGPU() *PIConGPU {
	return &PIConGPU{
		baseApp:        baseApp{name: "PIConGPU", baseline: "summit", target: 4.0, paper: 4.7, frontierNodes: 9216, baselineNodes: 4608}, //machinelint:allow Table 6 campaign size (paper-published)
		updatesPerByte: 7.41e-4,                                                                                                          // ~1.35 kB of HBM traffic per weighted update
		weakEff:        map[string]float64{"frontier": 0.90, "summit": 0.92},
	}
}

// Run implements App.
func (a *PIConGPU) Run(p *Platform, nodes int) (Result, error) {
	n := a.nodesOn(p, nodes)
	eff := swFactor(a.weakEff, p)
	fom := p.Devices(n) * float64(p.MemBW) * a.updatesPerByte * eff
	return Result{
		App: a.name, Platform: p.Name, Nodes: n,
		FOM: fom, Unit: "updates/s", ParallelEff: eff,
	}, nil
}

// Cholla is a GPU-native hydrodynamics code: stencil sweeps bound by HBM
// bandwidth. Of its 20x over the Summit baseline, the paper attributes
// 4-5x to "intensive algorithmic optimizations" during CAAR and the rest
// to hardware — modelled as a 4.31x software factor on the computed
// bandwidth ratio.
type Cholla struct {
	baseApp
	cellsPerByte float64
	algoSW       map[string]float64
}

// NewCholla returns the Cholla proxy.
func NewCholla() *Cholla {
	return &Cholla{
		baseApp:      baseApp{name: "Cholla", baseline: "summit", target: 4.0, paper: 20.0, frontierNodes: 9472, baselineNodes: 4608}, //machinelint:allow Table 6 campaign size (paper-published)
		cellsPerByte: 5.0e-4,                                                                                                          // ~2 kB of traffic per cell update
		algoSW:       map[string]float64{"frontier": 4.31, "summit": 1.0},
	}
}

// Run implements App.
func (a *Cholla) Run(p *Platform, nodes int) (Result, error) {
	n := a.nodesOn(p, nodes)
	fom := p.Devices(n) * float64(p.MemBW) * a.cellsPerByte * swFactor(a.algoSW, p)
	return Result{App: a.name, Platform: p.Name, Nodes: n, FOM: fom, Unit: "cell-updates/s"}, nil
}

// GESTS runs pseudo-spectral direct numerical simulation of turbulence:
// per step, distributed 3-D FFTs whose transposes are full-machine
// all-to-alls, plus GPU FFT passes. FOM = N³/t_wall. The Frontier runs
// use N=32768 (35 trillion grid points — only Frontier has the memory);
// the Summit 2019 baseline used N=18432 and staged GPU data through the
// host, capping its effective all-to-all rate (~10.5 GB/s per node).
type GESTS struct {
	baseApp
	grids      map[string]int
	fftPass    float64
	nTranspose float64
}

// NewGESTS returns the GESTS proxy with the 1-D (slab) decomposition
// the paper's headline 5.87x uses.
func NewGESTS() *GESTS {
	return &GESTS{
		baseApp:    baseApp{name: "GESTS", baseline: "summit", target: 4.0, paper: 5.9, frontierNodes: 9472, baselineNodes: 4608}, //machinelint:allow Table 6 campaign size (paper-published)
		grids:      map[string]int{"frontier": 32768, "summit": 18432},
		fftPass:    8,
		nTranspose: 2,
	}
}

// Run implements App.
func (a *GESTS) Run(p *Platform, nodes int) (Result, error) {
	n := a.nodesOn(p, nodes)
	N, ok := a.grids[p.Name]
	if !ok {
		// Size the grid to the platform's memory (~40 B/point).
		mem := float64(p.MemCap) * float64(p.DevicesPerNode) * float64(n) * 0.8
		N = int(math.Cbrt(mem / 40))
	}
	points := float64(N) * float64(N) * float64(N)
	perNodeBytes := points * 8 / float64(n) // complex64 working array
	comm, err := p.Comm(n, p.DevicesPerNode)
	if err != nil {
		return Result{}, err
	}
	a2aPerNode := float64(comm.AllToAllPerRankBandwidth()) * float64(p.DevicesPerNode)
	if !p.GPUDirect && float64(p.HostStagingBW) < a2aPerNode {
		a2aPerNode = float64(p.HostStagingBW)
	}
	tA2A := a.nTranspose * perNodeBytes / a2aPerNode
	perDeviceBytes := perNodeBytes / float64(p.DevicesPerNode)
	tFFT := a.fftPass * perDeviceBytes / float64(p.MemBW)
	step := units.Seconds(tA2A + tFFT)
	return Result{
		App: a.name, Platform: p.Name, Nodes: n,
		FOM: points / float64(step), Unit: "grid-points/s (N^3/t)",
		StepTime: step,
		Notes:    fmt.Sprintf("N=%d, all-to-all %.1f GB/s/node", N, a2aPerNode/1e9),
	}, nil
}

// AthenaPK is performance-portable magnetohydrodynamics on a 3-D linear
// wave problem sized to fill HBM: per-device stencil sweeps (memory
// bound) plus a six-face halo exchange. Frontier's NIC-per-GPU design
// lets the exchange overlap compute (96% parallel efficiency at 9,200
// nodes); Summit's shared NICs expose it (48%) — the paper's explanation,
// reproduced mechanically here. A single Frontier node does 1.2x a
// Summit node's cell-updates/s on an 8x larger problem.
type AthenaPK struct {
	baseApp
	bytesPerCellStore float64
	// trafficPerUpdate is HBM bytes moved per cell update; the HIP/
	// Kokkos code generation on CDNA2 moves more than the CUDA build,
	// which is what holds the single-node ratio to 1.2x.
	trafficPerUpdate map[string]float64
	fields           float64
	haloOverlap      map[string]float64
}

// NewAthenaPK returns the AthenaPK proxy.
func NewAthenaPK() *AthenaPK {
	return &AthenaPK{
		baseApp:           baseApp{name: "AthenaPK", baseline: "summit", target: 4.0, paper: 4.6, frontierNodes: 9200, baselineNodes: 4600},
		bytesPerCellStore: 200,
		trafficPerUpdate:  map[string]float64{"frontier": 941, "summit": 500},
		fields:            9,
		haloOverlap:       map[string]float64{"frontier": 0.88},
	}
}

// Run implements App.
func (a *AthenaPK) Run(p *Platform, nodes int) (Result, error) {
	n := a.nodesOn(p, nodes)
	cellsPerDevice := 0.8 * float64(p.MemCap) / a.bytesPerCellStore
	traffic := a.trafficPerUpdate[p.Name]
	if traffic == 0 {
		traffic = 500
	}
	perDevRate := float64(p.MemBW) / traffic
	tComp := cellsPerDevice / perDevRate
	// Halo: six faces of side² cells, two ghost layers of all fields.
	side := math.Cbrt(cellsPerDevice)
	haloBytes := 6 * side * side * a.fields * 8 * 2
	// On a single node the exchange rides the intra-node GPU links and
	// overlaps fully; across nodes it contends for the NICs.
	var exposed float64
	if n > 1 {
		comm, err := p.Comm(n, p.DevicesPerNode)
		if err != nil {
			return Result{}, err
		}
		f, _ := p.Fabric()
		perNodeNet := float64(comm.PerNICBandwidth()) * float64(f.Cfg.NICsPerNode)
		perDeviceNet := perNodeNet / float64(p.DevicesPerNode)
		tHalo := haloBytes / perDeviceNet
		exposed = (1 - a.haloOverlap[p.Name]) * tHalo
	}
	eff := tComp / (tComp + exposed)
	fom := p.Devices(n) * perDevRate * eff
	return Result{
		App: a.name, Platform: p.Name, Nodes: n,
		FOM: fom, Unit: "cell-updates/s",
		StepTime:    units.Seconds(tComp + exposed),
		ParallelEff: eff,
		Notes:       fmt.Sprintf("%.0f cells/device, halo %.1f MB/device/step", cellsPerDevice, haloBytes/1e6),
	}, nil
}
