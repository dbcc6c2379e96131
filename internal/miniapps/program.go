package miniapps

import (
	"fmt"

	"frontiersim/internal/gpu"
	"frontiersim/internal/job"
	"frontiersim/internal/units"
)

// The Heat3D kernel doubles as an analytic job-program builder: the same
// measured flops-per-point and bytes-per-point constants that calibrate
// the roofline prediction become per-device phase work, paired with the
// ghost exchange the distributed stencil performs. The problem size is per
// *device* (the kernel weak-scales), so the per-step work is
// placement-independent and only the collective reacts to where the job
// lands.

// phase converts a gpu.Kernel to a compute phase.
func phase(name string, k gpu.Kernel) job.Phase {
	return job.Phase{
		Name: name, Kind: job.Compute,
		Flops: k.Flops, Bytes: k.Bytes,
		Precision: k.Precision, MatrixCores: k.UsesMatrixCores,
		Efficiency: k.Efficiency,
	}
}

// Heat3DProgram is the distributed stencil: one Heat3D step per device
// per iteration plus the six-face ghost exchange (one ghost layer of
// float64 per face).
func Heat3DProgram(nPerDevice, nodes, ppn, iterations int) (*job.Program, error) {
	if nPerDevice < 4 {
		return nil, fmt.Errorf("miniapps: heat3d needs n >= 4")
	}
	// Kernel() is pure arithmetic in N; skip NewHeat3D so building a
	// program never allocates the actual N³ grid.
	h := &Heat3D{N: nPerDevice}
	face := units.Bytes(float64(nPerDevice) * float64(nPerDevice) * 8)
	return &job.Program{
		Name: fmt.Sprintf("heat3d-%d", nPerDevice), Class: "stencil",
		Nodes: nodes, PPN: ppn,
		Iterations: iterations,
		Loop: []job.Phase{
			phase("stencil-sweep", h.Kernel()),
			{Name: "ghost-exchange", Kind: job.Collective, Op: job.Halo, Payload: face},
		},
	}, nil
}
