// Package gpu models AMD's Instinct MI250X (§3.1.2): two Graphics Compute
// Dies per OAM package, each GCD an independent GPU with 110 compute
// units, vector and matrix FP pipes, four HBM2e stacks, and SDMA copy
// engines. The models reproduce Figure 3 (CoralGemm achieved vs peak),
// Table 4 (GPU STREAM), and the SDMA-vs-CU-kernel behaviour of Figure 5.
package gpu

import (
	"fmt"

	"frontiersim/internal/memory"
	"frontiersim/internal/units"
)

// Precision selects a floating-point width for compute models.
type Precision int

// Supported precisions.
const (
	FP64 Precision = iota
	FP32
	FP16
)

// String implements fmt.Stringer.
func (p Precision) String() string {
	switch p {
	case FP64:
		return "FP64"
	case FP32:
		return "FP32"
	case FP16:
		return "FP16"
	}
	return fmt.Sprintf("Precision(%d)", int(p))
}

// Bytes returns the element size of the precision.
func (p Precision) Bytes() int {
	switch p {
	case FP64:
		return 8
	case FP32:
		return 4
	default:
		return 2
	}
}

// GCD models one Graphics Compute Die. Each GCD presents itself to the
// operating system as a GPU, which is why users see eight GPUs per node.
type GCD struct {
	// ComputeUnits is the CU count (110 active per GCD; 220 per MI250X).
	ComputeUnits int
	// ClockHz is the engine clock (1.7 GHz).
	ClockHz float64
	// VectorPeak is peak vector-pipe throughput by precision.
	VectorPeak map[Precision]units.Flops
	// MatrixPeak is peak matrix-core throughput by precision.
	MatrixPeak map[Precision]units.Flops
	// HBM is the attached memory.
	HBM memory.HBM
	// SDMAEngineRate is the per-engine ceiling (~50 GB/s). An SDMA
	// engine drives a single xGMI link and cannot stripe one transfer
	// across links (§4.2.1).
	SDMAEngineRate units.BytesPerSecond
	// FabricPortLimit caps the aggregate remote-write bandwidth of the
	// GCD's fabric port; it is what keeps 4-link CU copies at
	// ~145 GB/s rather than the 200 GB/s wire peak.
	FabricPortLimit units.BytesPerSecond
}

// NewMI250XGCD returns one GCD of an MI250X as deployed in Frontier.
func NewMI250XGCD() *GCD {
	return &GCD{
		ComputeUnits: 110,
		ClockHz:      1.7e9,
		VectorPeak: map[Precision]units.Flops{
			FP64: 23.95 * units.TeraFlops,
			FP32: 23.95 * units.TeraFlops,
			FP16: 23.95 * units.TeraFlops,
		},
		MatrixPeak: map[Precision]units.Flops{
			FP64: 47.9 * units.TeraFlops,
			FP32: 47.9 * units.TeraFlops,
			FP16: 191.6 * units.TeraFlops,
		},
		HBM:             memory.MI250XHBM(),
		SDMAEngineRate:  50 * units.GBps,
		FabricPortLimit: 145.5 * units.GBps,
	}
}

// Stream runs the GPU STREAM model (Table 4) against this GCD's HBM.
func (g *GCD) Stream(arrayBytes units.Bytes) []memory.StreamResult {
	if arrayBytes > g.HBM.Capacity()/3 {
		panic(fmt.Sprintf("gpu: STREAM needs 3 arrays of %v but GCD has %v HBM",
			arrayBytes, g.HBM.Capacity()))
	}
	return memory.RunGPUStream(g.HBM, arrayBytes)
}

// String summarises the GCD.
func (g *GCD) String() string {
	return fmt.Sprintf("MI250X GCD: %d CUs @ %.1f GHz, %s FP64 vector / %s matrix, %s HBM2e @ %s",
		g.ComputeUnits, g.ClockHz/1e9, g.VectorPeak[FP64], g.MatrixPeak[FP64],
		g.HBM.Capacity(), g.HBM.Peak())
}
