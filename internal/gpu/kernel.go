package gpu

import (
	"fmt"
	"math"

	"frontiersim/internal/units"
)

// Kernel is one GPU kernel characterised for the roofline model: its
// floating-point work, the HBM traffic it moves, and which pipe it uses.
type Kernel struct {
	Name string
	// Flops is total floating-point operations per launch.
	Flops float64
	// Bytes is HBM traffic per launch.
	Bytes units.Bytes
	// Precision selects the pipe peak.
	Precision Precision
	// UsesMatrixCores selects the matrix pipe over the vector pipe.
	UsesMatrixCores bool
	// Efficiency derates the chosen compute peak (kernel quality).
	Efficiency float64
}

// KernelTime returns the roofline execution time of one launch: the
// slower of the compute and memory phases, plus the launch overhead.
func (g *GCD) KernelTime(k Kernel) (units.Seconds, error) {
	if k.Flops < 0 || k.Bytes < 0 {
		return 0, fmt.Errorf("gpu: kernel %q has negative work", k.Name)
	}
	eff := k.Efficiency
	if eff <= 0 || eff > 1 {
		eff = 1
	}
	peak := g.VectorPeak[k.Precision]
	if k.UsesMatrixCores {
		peak = g.MatrixPeak[k.Precision]
	}
	compute := k.Flops / (float64(peak) * eff)
	mem := float64(k.Bytes) / float64(g.HBM.Peak())
	return gemmLaunchOverhead + units.Seconds(math.Max(compute, mem)), nil
}

// KernelRate returns the achieved FLOP rate of one launch.
func (g *GCD) KernelRate(k Kernel) (units.Flops, error) {
	t, err := g.KernelTime(k)
	if err != nil {
		return 0, err
	}
	if t <= 0 {
		return 0, nil
	}
	return units.Flops(k.Flops / float64(t)), nil
}
