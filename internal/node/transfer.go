package node

import (
	"fmt"
	"math"

	"frontiersim/internal/units"
)

// TransferMethod selects the engine that moves bytes between GCDs.
type TransferMethod int

// Peer-transfer methods (§4.2.1, Figure 5).
const (
	// CUKernel is a copy kernel running on the GPU's compute units. CU
	// kernels issue loads/stores across all bonded xGMI links, so they
	// stripe and scale with link count.
	CUKernel TransferMethod = iota
	// SDMA uses a System DMA engine. One SDMA engine drives one xGMI
	// link; engines cannot stripe a single transfer across links, so
	// SDMA transfers cap at ~50 GB/s regardless of the bond width.
	SDMA
)

// String implements fmt.Stringer.
func (m TransferMethod) String() string {
	if m == CUKernel {
		return "CU-kernel"
	}
	return "SDMA"
}

// Calibration constants for intra-node transfers, from §4.2.1.
const (
	// cuCopyEfficiency is the fraction of xGMI wire rate a CU copy
	// kernel achieves (37.5 of 50 GB/s on a single link).
	cuCopyEfficiency = 0.75
	// hostXGMIEfficiency is the fraction of the 36 GB/s xGMI-2 host
	// link a single CPU core achieves (25.5 GB/s measured).
	hostXGMIEfficiency = 0.708
	// cuLaunchLatency is the setup cost of a copy kernel.
	cuLaunchLatency = 10 * units.Microsecond
	// sdmaSetupLatency is the descriptor-ring setup cost of an SDMA
	// transfer; lower than a kernel launch.
	sdmaSetupLatency = 4 * units.Microsecond
	// hostCopyLatency is the per-transfer host-side cost (hipMemcpy
	// path) for CPU↔GCD movement.
	hostCopyLatency = 8 * units.Microsecond
)

// PeerAsymptote returns the large-transfer bandwidth between two directly
// linked GCDs for the given method.
func (n *Node) PeerAsymptote(method TransferMethod, a, b int) (units.BytesPerSecond, error) {
	l, ok := n.LinkBetween(a, b)
	if !ok {
		return 0, fmt.Errorf("node: no direct xGMI link between GCD %d and GCD %d", a, b)
	}
	switch method {
	case SDMA:
		// One engine, one link: the bond width does not help.
		return n.GCDs[a].SDMAEngineRate, nil
	case CUKernel:
		bw := units.BytesPerSecond(float64(l.Rate()) * cuCopyEfficiency)
		if limit := n.GCDs[a].FabricPortLimit; bw > limit {
			bw = limit
		}
		return bw, nil
	}
	return 0, fmt.Errorf("node: unknown transfer method %v", method)
}

// PeerBandwidth returns the achieved bandwidth for a transfer of size
// bytes between directly linked GCDs a and b: the asymptote derated by the
// latency ramp (half performance when the transfer takes as long as the
// setup latency).
func (n *Node) PeerBandwidth(method TransferMethod, a, b int, size units.Bytes) (units.BytesPerSecond, error) {
	asym, err := n.PeerAsymptote(method, a, b)
	if err != nil {
		return 0, err
	}
	lat := cuLaunchLatency
	if method == SDMA {
		lat = sdmaSetupLatency
	}
	return ramp(asym, lat, size), nil
}

// HostToDeviceAggregate returns the asymptotic aggregate bandwidth when
// `ranks` MPI ranks concurrently write to their own paired GCDs
// (Figure 4): per-link xGMI-2 limits times the rank count, capped by what
// the DDR4 subsystem can actually source.
func (n *Node) HostToDeviceAggregate(ranks int) units.BytesPerSecond {
	if ranks < 1 || ranks > len(n.CPU.CCDs) {
		panic(fmt.Sprintf("node: ranks must be in [1,%d]", len(n.CPU.CCDs)))
	}
	perLink := float64(XGMI2LinkRate) * hostXGMIEfficiency
	agg := perLink * float64(ranks)
	dram := float64(n.CPU.DRAM.Sustained())
	return units.BytesPerSecond(math.Min(agg, dram))
}

// HostToDeviceBandwidth returns the aggregate achieved bandwidth for a
// given per-rank transfer size, reproducing Figure 4's ramp to ~180 GB/s.
func (n *Node) HostToDeviceBandwidth(ranks int, size units.Bytes) units.BytesPerSecond {
	return ramp(n.HostToDeviceAggregate(ranks), hostCopyLatency, size)
}

// SingleCoreHostDeviceBandwidth is the one-core CPU→GCD (or GCD→CPU) rate:
// 25.5 GB/s, ~71 % of the 36 GB/s xGMI-2 peak.
func (n *Node) SingleCoreHostDeviceBandwidth() units.BytesPerSecond {
	return units.BytesPerSecond(float64(XGMI2LinkRate) * hostXGMIEfficiency)
}

// ramp derates an asymptotic bandwidth for finite transfer sizes: a
// transfer of size s against setup latency t achieves asym·s/(s+asym·t),
// the classic n½ (half-performance length) model.
func ramp(asym units.BytesPerSecond, setup units.Seconds, size units.Bytes) units.BytesPerSecond {
	if size <= 0 {
		return 0
	}
	nHalf := float64(asym) * float64(setup)
	return units.BytesPerSecond(float64(asym) * float64(size) / (float64(size) + nHalf))
}
