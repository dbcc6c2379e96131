// Package hpl models the TOP500 benchmarks that frame the paper's §5:
// HPL (dense LU, compute-bound — 1.102 EF on Frontier's June 2022 debut)
// and HPCG (sparse multigrid, bandwidth-bound — the metric the 2008
// report's authors revisit in their follow-up paper [38]).
package hpl

import (
	"math"

	"frontiersim/internal/units"
)

// MachineSpec is the minimal description the benchmark models need.
type MachineSpec struct {
	Nodes int
	// GCDsPerNode is the GPU (device) count per node.
	GCDsPerNode int
	// VectorFP64PerGCD is per-device peak FP64.
	VectorFP64PerGCD units.Flops
	// HBMPerGCD is per-device memory bandwidth.
	HBMPerGCD units.BytesPerSecond
	// HBMCapacityPerGCD bounds the HPL problem size.
	HBMCapacityPerGCD units.Bytes
}

// RPeak is the machine's theoretical FP64 vector peak.
func (m MachineSpec) RPeak() units.Flops {
	return units.Flops(float64(m.Nodes*m.GCDsPerNode) * float64(m.VectorFP64PerGCD))
}

// hplEfficiency is HPL's achieved fraction of vector peak at full scale:
// Frontier's debut 1.102 EF against a 1.685 EF peak on 9,248 nodes plus
// panel/broadcast overheads puts the machine-level figure near 62%.
const hplEfficiency = 0.617

// HPLRmax estimates the sustained HPL rate on n nodes.
func (m MachineSpec) HPLRmax(n int) units.Flops {
	if n > m.Nodes {
		n = m.Nodes
	}
	return units.Flops(float64(n*m.GCDsPerNode) * float64(m.VectorFP64PerGCD) * hplEfficiency)
}

// HPLProblemSize returns the largest N whose N×N FP64 matrix fills the
// configured fraction of device memory across n nodes.
func (m MachineSpec) HPLProblemSize(n int, memFraction float64) int {
	bytes := float64(n*m.GCDsPerNode) * float64(m.HBMCapacityPerGCD) * memFraction
	return int(math.Sqrt(bytes / 8))
}

// HPLRunTime estimates the wall time of one HPL run on n nodes: the
// 2/3·N³ LU factorisation at Rmax.
func (m MachineSpec) HPLRunTime(n int, memFraction float64) units.Seconds {
	N := float64(m.HPLProblemSize(n, memFraction))
	flops := 2.0 / 3.0 * N * N * N
	return units.Seconds(flops / float64(m.HPLRmax(n)))
}

// hpcgFlopsPerByte is the arithmetic intensity of HPCG's sparse
// kernels — multigrid-preconditioned CG streams ~9 bytes per flop.
const hpcgFlopsPerByte = 0.11

// HPCG estimates the sustained HPCG rate: bandwidth-bound on HBM.
// Frontier's submission measured ~14 PF against a 1.7 EF peak — the
// memory wall the 2008 report worried about, quantified.
func (m MachineSpec) HPCG(n int) units.Flops {
	if n > m.Nodes {
		n = m.Nodes
	}
	bw := float64(n*m.GCDsPerNode) * float64(m.HBMPerGCD)
	return units.Flops(bw * hpcgFlopsPerByte)
}
