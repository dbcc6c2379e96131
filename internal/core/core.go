// Package core composes the subsystem models into whole machines: the
// full Frontier system (nodes, Slingshot fabric, scheduler, Orion and
// node-local storage, power and reliability models) plus the Summit
// comparison system, and derives the aggregate specifications of the
// paper's Table 1. Machine parameters come from the declarative specs in
// internal/machine; core only assembles.
package core

import (
	"fmt"

	"frontiersim/internal/fabric"
	"frontiersim/internal/gpu"
	"frontiersim/internal/hpl"
	"frontiersim/internal/machine"
	"frontiersim/internal/node"
	"frontiersim/internal/power"
	"frontiersim/internal/resilience"
	"frontiersim/internal/scheduler"
	"frontiersim/internal/sim"
	"frontiersim/internal/storage"
	"frontiersim/internal/sysmgmt"
	"frontiersim/internal/units"
)

// System is a composed machine.
type System struct {
	Name   string
	Kernel *sim.Kernel
	Fabric *fabric.Fabric
	// Node is the compute-node template (all nodes are identical); nil
	// for baseline systems modelled at lower fidelity.
	Node *node.Node
	// Scheduler is the Slurm model over the fabric's compute nodes.
	Scheduler *scheduler.Scheduler
	// Orion is the center-wide file system; NodeLocal the per-node NVMe.
	Orion     *storage.Orion
	NodeLocal *storage.NodeLocalStore
	// HPCM is the system-management plane (§3.4.2).
	HPCM *sysmgmt.HPCM
	// Power and Reliability carry the §5 models.
	Power       power.Machine
	Reliability resilience.Model
	// HPLSpec drives the TOP500 benchmark models.
	HPLSpec hpl.MachineSpec
}

// New composes a system from a machine spec. Subsystems the spec does
// not describe (no power model, no storage plant, …) are left at their
// zero values, matching the lower-fidelity treatment the paper gives
// the comparison machines. The build is cheap enough (tens of
// milliseconds at full scale) to use per experiment.
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
	// Jobs price their programs against the same fabric and storage
	// instances the rest of the system holds.
	env, err := spec.JobEnv(f)
	if err != nil {
		return nil, fmt.Errorf("core: building job environment: %w", err)
	}
	s.NodeLocal, s.Orion = env.NodeLocal, env.Orion
	if spec.Node.BardPeak {
		s.Node = node.New(0)
		s.Scheduler = scheduler.New(k, env)
	}
	if spec.Power != nil {
		if s.Power, err = spec.PowerMachine(); err != nil {
			return nil, fmt.Errorf("core: building power model: %w", err)
		}
	}
	if spec.Resilience != nil {
		if s.Reliability, err = spec.ResilienceModel(); err != nil {
			return nil, fmt.Errorf("core: building reliability model: %w", err)
		}
	}
	if spec.HPL != nil {
		if s.HPLSpec, err = spec.HPLSpec(); err != nil {
			return nil, fmt.Errorf("core: building hpl spec: %w", err)
		}
	}
	if spec.Mgmt != nil {
		mgmtCfg, err := spec.MgmtConfig()
		if err != nil {
			return nil, fmt.Errorf("core: building management plane: %w", err)
		}
		hpcm, err := sysmgmt.New(k, mgmtCfg)
		if err != nil {
			return nil, fmt.Errorf("core: building management plane: %w", err)
		}
		s.HPCM = hpcm
	}
	return s, nil
}

// NewFrontier builds the full 9,472-node Frontier system.
func NewFrontier(seed int64) (*System, error) {
	return New(machine.Frontier(), seed)
}

// NewScaledFrontier builds a structurally faithful small Frontier for
// fast tests: groups × switchesPerGroup × endpointsPerSwitch.
func NewScaledFrontier(groups, switchesPerGroup, endpointsPerSwitch int, seed int64) (*System, error) {
	return New(machine.Scaled(groups, switchesPerGroup, endpointsPerSwitch), seed)
}

// NewSummit builds the Summit comparison system: a Clos fabric of 4,608
// nodes. Node-level detail beyond what the comparisons need (per-NIC
// rates, fat-tree behaviour) is not modelled.
func NewSummit(seed int64) (*System, error) {
	return New(machine.Summit(), seed)
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

// ComputeSpecs derives Table 1 from the composed models.
func (s *System) ComputeSpecs() ComputeSpecs {
	if s.Node == nil {
		return ComputeSpecs{Nodes: s.HPLSpec.Nodes}
	}
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
