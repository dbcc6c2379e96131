// Package core composes a machine spec into the system that simulates
// it: one event kernel, the interconnect, the compute-node template, the
// Slurm model and the reliability model that drives failure injection.
// Every other subsystem (HPL, power, Orion, node-local storage, the
// management plane) is derived from the spec in internal/machine, which
// is its only entry point.
package core

import (
	"fmt"

	"frontiersim/internal/fabric"
	"frontiersim/internal/gpu"
	"frontiersim/internal/machine"
	"frontiersim/internal/node"
	"frontiersim/internal/resilience"
	"frontiersim/internal/scheduler"
	"frontiersim/internal/sim"
	"frontiersim/internal/units"
)

// System is a composed machine.
type System struct {
	Name   string
	Kernel *sim.Kernel
	Fabric *fabric.Fabric
	// Node is the compute-node template (all nodes are identical), and
	// Scheduler the Slurm model over the fabric's compute nodes. Both
	// exist only for machines with the Bard Peak node model; baseline
	// systems modelled at lower fidelity leave both nil.
	Node      *node.Node
	Scheduler *scheduler.Scheduler
	// Reliability carries the §5.4 failure model workload.Run injects
	// from (zero when the spec has none).
	Reliability resilience.Model
}

// New composes a system from a machine spec. The build is cheap enough
// (milliseconds at full scale) to use per experiment.
func New(spec machine.Spec, seed int64) (*System, error) {
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	k := sim.NewKernel(seed)
	f, err := spec.NewFabric()
	if err != nil {
		return nil, fmt.Errorf("core: building fabric: %w", err)
	}
	s := &System{
		Name:   spec.Name,
		Kernel: k,
		Fabric: f,
	}
	if spec.Node.BardPeak {
		// Jobs price their programs against the same fabric instance
		// the rest of the system holds.
		env, err := spec.JobEnv(f)
		if err != nil {
			return nil, fmt.Errorf("core: building job environment: %w", err)
		}
		s.Node = node.New(0)
		s.Scheduler = scheduler.New(k, env)
	}
	if spec.Resilience != nil {
		if s.Reliability, err = spec.ResilienceModel(); err != nil {
			return nil, fmt.Errorf("core: building reliability model: %w", err)
		}
	}
	return s, nil
}

// ComputeSpecs are the aggregate figures of the paper's Table 1.
type ComputeSpecs struct {
	Nodes int
	// FP64VectorPeak is the machine vector FP64 peak (1.83 EF);
	// FP64DGEMM is the matrix-pipe DGEMM rate hipBLAS can reach (the
	// paper's table quotes 2.0 EF, between the two).
	FP64VectorPeak   units.Flops
	FP64DGEMM        units.Flops
	DDRCapacity      units.Bytes
	DDRBandwidth     units.BytesPerSecond
	HBMCapacity      units.Bytes
	HBMBandwidth     units.BytesPerSecond
	InjectionPerNode units.BytesPerSecond
	GlobalBandwidth  units.BytesPerSecond
}

// ComputeSpecs derives Table 1 from the composed models. It reads the
// node template, so the system must have one (s.Node != nil).
func (s *System) ComputeSpecs() ComputeSpecs {
	n := units.Bytes(s.Fabric.Cfg.ComputeNodes())
	nf := float64(s.Fabric.Cfg.ComputeNodes())
	gemm := 0.0
	for _, g := range s.Node.GCDs {
		gemm += float64(g.GemmAsymptote(gpu.FP64))
	}
	return ComputeSpecs{
		Nodes:            int(nf),
		FP64VectorPeak:   units.Flops(nf * float64(s.Node.PeakFP64())),
		FP64DGEMM:        units.Flops(nf * gemm),
		DDRCapacity:      n * s.Node.DDRCapacity(),
		DDRBandwidth:     units.BytesPerSecond(nf * float64(s.Node.CPU.DRAM.Peak())),
		HBMCapacity:      n * s.Node.HBMCapacity(),
		HBMBandwidth:     units.BytesPerSecond(nf * float64(s.Node.HBMPeak())),
		InjectionPerNode: s.Node.InjectionBandwidth(),
		GlobalBandwidth:  s.Fabric.Cfg.TotalGlobalBandwidth(),
	}
}

// String summarises the system.
func (s *System) String() string {
	return fmt.Sprintf("%s: %d nodes on %s", s.Name, s.Fabric.Cfg.ComputeNodes(), s.Fabric)
}
