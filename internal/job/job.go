// Package job is the application model the scheduler, workload, and
// resilience layers share: a Program is a deterministic sequence (and
// loop) of typed phases — roofline-bound compute, MPI collectives, bulk
// I/O, checkpoints, and fixed-duration work — whose runtime *emerges*
// from the machine the job lands on. Binding a program to a concrete
// node placement builds an mpi.Comm over those nodes, so topology-aware
// placement changes the collective phases' durations; executing a bound
// program on the event kernel makes every phase boundary a real
// simulation event, which is what lets mid-phase interrupts charge
// lost-work-since-last-checkpoint.
//
// The package deliberately depends only on the subsystem models it
// prices phases against (fabric, mpi, gpu precisions, storage, sim);
// the machine-spec layer derives the NodeModel/Env inputs, and the
// apps, miniapps, and llm packages are program *builders* on top.
package job

import (
	"fmt"

	"frontiersim/internal/gpu"
	"frontiersim/internal/units"
)

// Kind classifies a phase by the resource it exercises.
type Kind int

// Phase kinds.
const (
	// Compute is roofline-bound node-local work: the slower of the
	// floating-point and HBM-traffic phases on each device.
	Compute Kind = iota
	// Collective is an MPI operation on a communicator built from the
	// job's actual placement.
	Collective
	// IO is bulk file I/O: reads stream from the parallel file system,
	// writes absorb into the node-local tier when the machine has one.
	IO
	// Checkpoint is a defensive write; completing one resets the
	// lost-work clock the resilience layer charges on interrupt.
	Checkpoint
	// Fixed is opaque work of a given duration (Phase.Seconds) that
	// prices the same on any placement: a job known only by its
	// runtime.
	Fixed

	// kinds is the number of phase kinds.
	kinds = iota
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Compute:
		return "compute"
	case Collective:
		return "collective"
	case IO:
		return "io"
	case Checkpoint:
		return "checkpoint"
	case Fixed:
		return "fixed"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Op selects a collective operation.
type Op int

// Collective operations.
const (
	Allreduce Op = iota
	AllGather
	ReduceScatter
	AllToAll
	Broadcast
	Barrier
	// SendRecv is a pairwise exchange with the rank PeerStride away —
	// the pipeline-parallel stage boundary, halo partner, or any other
	// point-to-point pattern.
	SendRecv
	// Halo is a six-face nearest-neighbour exchange (3-D stencils);
	// Payload is one face.
	Halo
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case Allreduce:
		return "allreduce"
	case AllGather:
		return "allgather"
	case ReduceScatter:
		return "reduce-scatter"
	case AllToAll:
		return "all-to-all"
	case Broadcast:
		return "broadcast"
	case Barrier:
		return "barrier"
	case SendRecv:
		return "sendrecv"
	case Halo:
		return "halo"
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// Group selects the sub-communicator a collective runs on: Size ranks
// taken every Stride ranks. The zero Group means the whole job. Two
// shapes are supported: contiguous blocks (Stride <= 1; tensor-parallel
// groups packed within a node) and full strided decompositions
// (Size*Stride == job ranks; data-parallel groups spanning nodes).
type Group struct {
	Size   int
	Stride int
}

// whole reports whether the group is the full communicator.
func (g Group) whole(ranks int) bool {
	return g.Size == 0 || g.Size == ranks
}

// Phase is one typed step of a program. Compute work is per device;
// collective payloads are per rank; I/O byte counts are job-aggregate.
type Phase struct {
	Name string
	Kind Kind

	// Compute: per-device roofline work.
	Flops       float64
	Bytes       units.Bytes
	Precision   gpu.Precision
	MatrixCores bool
	// Efficiency derates the dense rate (0 means 1.0).
	Efficiency float64

	// Collective.
	Op      Op
	Payload units.Bytes
	Group   Group
	// PeerStride is the SendRecv partner distance in ranks (0 means one
	// full node away, the nearest cross-node partner).
	PeerStride int

	// IO / Checkpoint: job-aggregate bytes moved.
	Read  units.Bytes
	Write units.Bytes

	// Fixed: the phase's duration on any placement.
	Seconds units.Seconds
}

// Program is a deterministic phase-structured application: Setup runs
// once, then Loop repeats Iterations times. The program's runtime is not
// stored anywhere — it is derived by binding to an Env and a placement.
type Program struct {
	Name string
	// Class labels the workload stratum for campaign statistics.
	Class string
	// Nodes is the required allocation size.
	Nodes int
	// PPN is ranks per node for the collective phases (devices per node
	// for GPU codes).
	PPN int

	Setup      []Phase
	Iterations int
	Loop       []Phase

	// Walltime is the requested limit (Slurm's --time). Zero lets the
	// scheduler quote it from the program's nominal runtime. Pricing
	// never reads it.
	Walltime units.Seconds
}

// Blob is a job known only by its runtime: one Fixed phase of duration
// d at one rank per node, requesting exactly d as its walltime.
func Blob(name string, nodes int, d units.Seconds) *Program {
	return &Program{
		Name: name, Nodes: nodes, PPN: 1,
		Setup:    []Phase{{Name: "run", Kind: Fixed, Seconds: d}},
		Walltime: d,
	}
}

// Validate checks the program for structural sanity.
func (p *Program) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("job: program needs a name")
	}
	if p.Nodes < 1 {
		return fmt.Errorf("job: program %s needs at least one node (got %d)", p.Name, p.Nodes)
	}
	if p.PPN < 1 {
		return fmt.Errorf("job: program %s needs ppn >= 1 (got %d)", p.Name, p.PPN)
	}
	if len(p.Setup)+len(p.Loop) == 0 {
		return fmt.Errorf("job: program %s has no phases", p.Name)
	}
	if len(p.Loop) > 0 && p.Iterations < 1 {
		return fmt.Errorf("job: program %s has a loop but %d iterations", p.Name, p.Iterations)
	}
	if p.Walltime < 0 {
		return fmt.Errorf("job: program %s has a negative walltime", p.Name)
	}
	ranks := p.Nodes * p.PPN
	check := func(where string, phases []Phase) error {
		for i, ph := range phases {
			if ph.Kind == Compute && (ph.Flops < 0 || ph.Bytes < 0) {
				return fmt.Errorf("job: program %s %s[%d] has negative compute work", p.Name, where, i)
			}
			if ph.Kind == Collective {
				g := ph.Group
				if g.whole(ranks) {
					continue
				}
				if g.Size < 1 || g.Size > ranks || ranks%g.Size != 0 {
					return fmt.Errorf("job: program %s %s[%d] group size %d does not divide %d ranks",
						p.Name, where, i, g.Size, ranks)
				}
				if g.Stride > 1 && g.Size*g.Stride != ranks {
					return fmt.Errorf("job: program %s %s[%d] strided group %dx%d must cover the %d ranks",
						p.Name, where, i, g.Size, g.Stride, ranks)
				}
			}
			if (ph.Kind == IO || ph.Kind == Checkpoint) && (ph.Read < 0 || ph.Write < 0) {
				return fmt.Errorf("job: program %s %s[%d] has negative I/O", p.Name, where, i)
			}
			if ph.Kind == Fixed && ph.Seconds <= 0 {
				return fmt.Errorf("job: program %s %s[%d] needs a positive duration", p.Name, where, i)
			}
		}
		return nil
	}
	if err := check("setup", p.Setup); err != nil {
		return err
	}
	return check("loop", p.Loop)
}

// PhaseEvents is the number of phase-boundary events executing the
// program schedules: one per phase instance.
func (p *Program) PhaseEvents() int {
	return len(p.Setup) + p.Iterations*len(p.Loop)
}

// Coarsen returns a copy of the program in which each loop pass stands
// for chunk original iterations: phase work quantities are multiplied by
// chunk and the iteration count divided (rounding up), so a
// million-step job costs the calendar thousands of events instead of
// millions. Per-phase latency terms are folded away — acceptable at
// campaign granularity, where bandwidth terms dominate. A chunk < 2
// returns the program unchanged.
func Coarsen(p *Program, chunk int) *Program {
	if chunk < 2 || len(p.Loop) == 0 {
		return p
	}
	cp := *p
	cp.Loop = make([]Phase, len(p.Loop))
	for i, ph := range p.Loop {
		ph.Flops *= float64(chunk)
		ph.Bytes *= units.Bytes(chunk)
		ph.Payload *= units.Bytes(chunk)
		ph.Read *= units.Bytes(chunk)
		ph.Write *= units.Bytes(chunk)
		cp.Loop[i] = ph
	}
	cp.Iterations = (p.Iterations + chunk - 1) / chunk
	return &cp
}

// Checkpointed returns a copy of the program with a checkpoint phase of
// the given aggregate size appended to the loop every interval
// iterations by splitting the iteration count; when interval does not
// divide the loop structure cleanly the checkpoint simply rides at the
// end of every interval-th iteration. An interval < 1 appends it to
// every iteration.
func Checkpointed(p *Program, size units.Bytes, interval int) *Program {
	cp := *p
	if interval < 1 {
		interval = 1
	}
	ck := Phase{Name: "checkpoint", Kind: Checkpoint, Write: size}
	if interval == 1 || len(cp.Loop) == 0 {
		cp.Loop = append(append([]Phase(nil), cp.Loop...), ck)
		return &cp
	}
	// Fold interval iterations into one loop body ending in a checkpoint;
	// leftover iterations are promoted into the folded count (the program
	// stays deterministic, just checkpoint-aligned).
	body := make([]Phase, 0, interval*len(cp.Loop)+1)
	for i := 0; i < interval; i++ {
		body = append(body, cp.Loop...)
	}
	body = append(body, ck)
	cp.Loop = body
	cp.Iterations = (p.Iterations + interval - 1) / interval
	return &cp
}
