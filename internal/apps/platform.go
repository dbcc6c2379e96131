// Package apps implements proxy models of the CAAR and ECP applications
// the paper evaluates (Tables 6 and 7): each application is decomposed
// into its dominant resource class (dense FP64/FP32/FP16 compute, memory
// bandwidth, all-to-all, halo exchange, Monte-Carlo transport), executed
// against a platform's hardware model and communicator, and multiplied by
// the software-improvement factors the paper itself attributes to each
// port. The hardware ratios are computed; the software factors are
// documented inputs, never outputs.
package apps

import (
	"fmt"
	"sync"

	"frontiersim/internal/fabric"
	"frontiersim/internal/mpi"
	"frontiersim/internal/units"
)

// Platform describes one machine as the application models see it.
type Platform struct {
	Name  string
	Year  int
	Nodes int
	// DevicesPerNode is the accelerator count (GCDs on Frontier, GPUs
	// on Summit/Titan, the CPU itself on Mira/Theta/Cori).
	DevicesPerNode int
	// Achieved dense throughput per device by precision (measured
	// GEMM-class rates, not marketing peaks).
	FP64Dense units.Flops
	FP32Dense units.Flops
	FP16Dense units.Flops
	// MemBW is the achieved STREAM-class bandwidth per device.
	MemBW units.BytesPerSecond
	// MemCap is usable memory per device.
	MemCap units.Bytes
	// GPUDirect reports whether the network can DMA device memory
	// directly; when false, transfers stage through the host at
	// HostStagingBW (per node).
	GPUDirect     bool
	HostStagingBW units.BytesPerSecond

	newFabric func() (*fabric.Fabric, error)
	fabOnce   sync.Once
	fab       *fabric.Fabric
	fabErr    error
}

// SetFabricBuilder installs the function that constructs the platform's
// network on first use. The machine-spec layer calls this with the
// spec's topology; Fabric caches the result.
func (p *Platform) SetFabricBuilder(build func() (*fabric.Fabric, error)) {
	p.newFabric = build
}

// Fabric lazily builds and caches the platform's network.
func (p *Platform) Fabric() (*fabric.Fabric, error) {
	p.fabOnce.Do(func() {
		if p.newFabric == nil {
			p.fabErr = fmt.Errorf("apps: platform %s has no fabric builder", p.Name)
			return
		}
		p.fab, p.fabErr = p.newFabric()
	})
	return p.fab, p.fabErr
}

// Comm builds a communicator over n nodes spread evenly across the
// machine (large-job placement) with the given ranks per node.
func (p *Platform) Comm(n, ppn int) (*mpi.Comm, error) {
	f, err := p.Fabric()
	if err != nil {
		return nil, err
	}
	if total := f.Cfg.ComputeNodes(); n > total {
		return nil, fmt.Errorf("apps: %d nodes exceeds %s's %d", n, p.Name, total)
	}
	return mpi.NewComm(f, f.SpreadPlacement(n), ppn)
}

// Devices returns the device count for an n-node job.
func (p *Platform) Devices(n int) float64 { return float64(n * p.DevicesPerNode) }
