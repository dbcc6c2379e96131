// Package network is the flow-level simulator that runs on a fabric: it
// allocates bandwidth to traffic demands by progressive water-filling
// (max-min fairness), samples packet latencies, and drives the paper's two
// network benchmarks, mpiGraph (Figure 6) and GPCNeT (Table 5).
//
// Flow-level max-min fairness is the standard steady-state abstraction
// for congestion-controlled fabrics: each demand is spread over the path
// set chosen by adaptive routing, and every link divides its capacity
// fairly among the subflows crossing it. Slingshot's hardware congestion
// control is what makes this abstraction accurate on Frontier — sources
// are pushed back to their bottleneck fair share, so persistent queues
// (and the head-of-line blocking a fabric without CC suffers) do not form.
package network

import (
	"frontiersim/internal/fabric"
)

// Demand is one traffic pair to be allocated bandwidth.
type Demand struct {
	// Src and Dst are endpoint ids (informational; paths carry routing).
	Src, Dst int
	// Paths is the path set from adaptive routing. Each path is a
	// sequence of directed link ids.
	Paths [][]int
	// Cap optionally limits the demand's total rate (bytes/s), e.g.
	// when a benchmark's message window cannot keep more data in
	// flight. Zero means uncapped.
	Cap float64
	// Rate is the solved total rate across subflows.
	Rate float64
	// SubRates are the solved per-path rates. Solve reuses the slice
	// across calls when its capacity suffices.
	SubRates []float64
}

// Solve computes the max-min fair allocation for the demands on fabric f.
// Each path of each demand is an independent subflow (Slingshot sprays
// packets over paths); a demand's rate is the sum over its subflows.
// Demand caps are honoured by modelling them as single-user pseudo-links.
//
// Solve is a thin wrapper over a pooled Solver arena: it is safe for
// concurrent use and allocation-free in steady state. Callers running
// many solves on one goroutine can hold their own Solver instead.
func Solve(f *fabric.Fabric, demands []*Demand) error {
	s := solverPool.Get().(*Solver)
	err := s.Solve(f, demands)
	solverPool.Put(s)
	return err
}
