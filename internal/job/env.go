package job

import (
	"fmt"
	"math"

	"frontiersim/internal/fabric"
	"frontiersim/internal/gpu"
	"frontiersim/internal/mpi"
	"frontiersim/internal/storage"
	"frontiersim/internal/units"
)

// phaseLaunchOverhead is the fixed cost of entering a phase (kernel
// launch + runtime dispatch), which keeps zero-work phases from being
// free and matches the GEMM model's launch constant.
const phaseLaunchOverhead = 12 * units.Microsecond

// NodeModel is one compute node as the job layer prices it: achieved
// (not marketing-peak) dense rates per device, STREAM-class memory
// bandwidth, and usable device memory. The machine-spec layer derives
// it from the same NodeSpec the application proxies use.
type NodeModel struct {
	// Devices is the accelerator count per node (GCDs on Frontier).
	Devices int
	// Achieved dense throughput per device by precision.
	FP64, FP32, FP16 units.Flops
	// MemBW is achieved memory bandwidth per device; MemCap usable
	// memory per device.
	MemBW  units.BytesPerSecond
	MemCap units.Bytes
}

// Dense returns the achieved dense rate for a precision.
func (n NodeModel) Dense(p gpu.Precision) units.Flops {
	switch p {
	case gpu.FP32:
		return n.FP32
	case gpu.FP16:
		return n.FP16
	}
	return n.FP64
}

// Env is everything a program needs to be priced on a machine: the node
// model for compute phases, the fabric for placement-aware collectives,
// and the storage plant for I/O and checkpoint phases. Storage fields
// are optional; binding a program with I/O phases on an env without any
// storage is an error.
type Env struct {
	Node   NodeModel
	Fabric *fabric.Fabric
	// NodeLocal is the per-node burst tier (checkpoint absorbs, warm
	// reads); Orion the center-wide file system (streaming reads, drain
	// target).
	NodeLocal *storage.NodeLocalStore
	Orion     *storage.Orion

	// Cache, when non-nil, memoizes Bind's and Estimate's per-phase
	// pricing keyed by (program signature, placement signature,
	// CacheKey). Hits are bit-identical to cold binds but skip phase
	// pricing; the served Bound shares the cached time slices.
	Cache *PricingCache
	// CacheKey distinguishes machines sharing one cache — conventionally
	// the machine.Hash of the spec this env was derived from.
	CacheKey string
}

// Validate checks the env is usable.
func (e *Env) Validate() error {
	if e == nil {
		return fmt.Errorf("job: nil env")
	}
	if e.Fabric == nil {
		return fmt.Errorf("job: env needs a fabric")
	}
	if e.Node.Devices < 1 {
		return fmt.Errorf("job: env node model needs at least one device")
	}
	return nil
}

// SpreadPlacement is the nominal large-job placement: n nodes spread
// evenly across the machine, the same shape Platform.Comm uses. The
// scheduler estimates queue-time walltimes against it; the placement a
// job actually receives re-prices the program.
func (e *Env) SpreadPlacement(n int) []int {
	total := e.Fabric.Cfg.ComputeNodes()
	nodes := make([]int, n)
	for i := range nodes {
		nodes[i] = i * total / n
	}
	return nodes
}

// Bound is a program priced against an env and a concrete placement:
// per-phase durations and the total runtime the scheduler uses as the
// job's derived duration.
type Bound struct {
	Prog  *Program
	Env   *Env
	Nodes []int

	// SetupTimes and LoopTimes are per-phase durations in program order.
	SetupTimes, LoopTimes []units.Seconds
	// Total is setup plus Iterations loop passes.
	Total units.Seconds

	// comm is the placement's communicator and subs its rank-0
	// subgroups, built by the first collective phase that needs them.
	comm *mpi.Comm
	subs map[Group]*mpi.Comm
}

// Bind prices a program on a concrete placement. Collectives run on a
// communicator over the placement's actual nodes, so a packed allocation
// and a spread allocation yield different collective times — placement
// policy is visible in job runtime.
func (e *Env) Bind(p *Program, nodes []int) (*Bound, error) {
	if err := e.Validate(); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(nodes) != p.Nodes {
		return nil, fmt.Errorf("job: program %s needs %d nodes, placement has %d", p.Name, p.Nodes, len(nodes))
	}
	if e.Cache != nil {
		if place, ok := e.PlacementSignature(nodes); ok {
			key := pricingKey{env: e.CacheKey, prog: ProgramSignature(p), place: place}
			if pr, hit := e.Cache.lookup(key); hit {
				return &Bound{Prog: p, Env: e, Nodes: nodes,
					SetupTimes: pr.setupTimes, LoopTimes: pr.loopTimes,
					Total: pr.total(p.Iterations)}, nil
			}
			return e.price(p, nodes, &key)
		}
	}
	return e.price(p, nodes, nil)
}

// price is Bind past the cache lookup: it prices every phase and, given
// the key of a cache miss, stores the result under it. A keyed placement
// was already checked by PlacementSignature (or is the nominal spread
// placement); an unkeyed one is checked here.
func (e *Env) price(p *Program, nodes []int, key *pricingKey) (*Bound, error) {
	if key == nil {
		if err := e.Fabric.CheckNodes(nodes); err != nil {
			return nil, fmt.Errorf("job: binding %s: %w", p.Name, err)
		}
	}
	b := &Bound{Prog: p, Env: e, Nodes: nodes}
	timed := func(phases []Phase) ([]units.Seconds, units.Seconds, error) {
		times := make([]units.Seconds, len(phases))
		var sum units.Seconds
		for i, ph := range phases {
			d, err := b.phaseTime(ph)
			if err != nil {
				return nil, 0, fmt.Errorf("job: program %s phase %q: %w", p.Name, ph.Name, err)
			}
			times[i] = d
			sum += d
		}
		return times, sum, nil
	}
	var pr pricedProgram
	var err error
	if pr.setupTimes, pr.setupSum, err = timed(p.Setup); err != nil {
		return nil, err
	}
	if pr.loopTimes, pr.loopSum, err = timed(p.Loop); err != nil {
		return nil, err
	}
	b.SetupTimes, b.LoopTimes, b.Total = pr.setupTimes, pr.loopTimes, pr.total(p.Iterations)
	if key != nil {
		e.Cache.store(*key, pr)
	}
	return b, nil
}

// Estimate prices a program on the nominal spread placement — the
// number a scheduler can quote before any nodes are assigned. With a
// cache, the nominal placement's signature is memoized per node count,
// so a hit builds neither the placement nor a Bound; a miss prices the
// placement exactly as Bind would.
func (e *Env) Estimate(p *Program) (units.Seconds, error) {
	if err := e.Validate(); err != nil {
		return 0, err
	}
	if p.Nodes > e.Fabric.Cfg.ComputeNodes() {
		return 0, fmt.Errorf("job: program %s needs %d nodes, machine has %d",
			p.Name, p.Nodes, e.Fabric.Cfg.ComputeNodes())
	}
	if e.Cache == nil {
		b, err := e.Bind(p, e.SpreadPlacement(p.Nodes))
		if err != nil {
			return 0, err
		}
		return b.Total, nil
	}
	if err := p.Validate(); err != nil {
		return 0, err
	}
	key := pricingKey{env: e.CacheKey, prog: ProgramSignature(p), place: e.Cache.nominal(e, p.Nodes)}
	if pr, hit := e.Cache.lookup(key); hit {
		return pr.total(p.Iterations), nil
	}
	b, err := e.price(p, e.SpreadPlacement(p.Nodes), &key)
	if err != nil {
		return 0, err
	}
	return b.Total, nil
}

// phaseTime prices one phase instance.
func (b *Bound) phaseTime(ph Phase) (units.Seconds, error) {
	switch ph.Kind {
	case Compute:
		return b.computeTime(ph), nil
	case Collective:
		return b.collectiveTime(ph)
	case IO, Checkpoint:
		return b.ioTime(ph)
	case Fixed:
		return ph.Seconds, nil
	}
	return 0, fmt.Errorf("unknown phase kind %v", ph.Kind)
}

// computeTime is the roofline time of the phase's per-device work: the
// slower of the compute and memory streams on the achieved rates.
func (b *Bound) computeTime(ph Phase) units.Seconds {
	n := b.Env.Node
	eff := ph.Efficiency
	if eff <= 0 || eff > 1 {
		eff = 1
	}
	var compute float64
	if ph.Flops > 0 {
		compute = ph.Flops / (float64(n.Dense(ph.Precision)) * eff)
	}
	var mem float64
	if ph.Bytes > 0 && n.MemBW > 0 {
		mem = float64(ph.Bytes) / float64(n.MemBW)
	}
	return phaseLaunchOverhead + units.Seconds(math.Max(compute, mem))
}

// xgmiBW is the intra-node device-to-device rate, matching the
// CU-copy single-link figure mpi.SendRecv uses for same-node pairs.
const xgmiBW = 37.5 * units.GBps

// intraNodeLatency is the per-stage software latency of a node-local
// collective (no NIC traversal).
const intraNodeLatency = 1300 * units.Nanosecond

// nodeLocalCollective prices a collective whose communicator lies
// entirely within one node: the ring runs over xGMI instead of the NIC,
// which is what makes tensor-parallel groups cheap relative to the
// data-parallel groups that span the fabric.
func nodeLocalCollective(op Op, payload units.Bytes, p float64) (units.Seconds, bool) {
	if p < 2 {
		return 0, true
	}
	stages := units.Seconds(math.Ceil(math.Log2(p))) * intraNodeLatency
	ring := func(vol float64) units.Seconds {
		return stages + units.Seconds(vol/float64(xgmiBW))
	}
	b := float64(payload)
	switch op {
	case Allreduce:
		return ring(2 * b * (p - 1) / p), true
	case AllGather:
		return ring(b * (p - 1)), true
	case ReduceScatter:
		return ring(b * (p - 1) / p), true
	case AllToAll:
		return ring(b * (p - 1)), true
	case Broadcast:
		return ring(b), true
	case Barrier:
		return stages, true
	}
	return 0, false // SendRecv/Halo keep the peer-aware path
}

// collectiveTime prices the phase's operation on its (sub-)communicator.
func (b *Bound) collectiveTime(ph Phase) (units.Seconds, error) {
	c, err := b.groupComm(ph.Group)
	if err != nil {
		return 0, err
	}
	if len(c.Nodes) == 1 {
		if d, ok := nodeLocalCollective(ph.Op, ph.Payload, float64(c.Size())); ok {
			return d, nil
		}
	}
	switch ph.Op {
	case Allreduce:
		return c.Allreduce(ph.Payload), nil
	case AllGather:
		return c.AllGather(ph.Payload), nil
	case ReduceScatter:
		return c.ReduceScatter(ph.Payload), nil
	case AllToAll:
		return c.AllToAll(ph.Payload), nil
	case Broadcast:
		return c.Broadcast(ph.Payload), nil
	case Barrier:
		return c.Barrier(), nil
	case SendRecv:
		peer := ph.PeerStride
		if peer < 1 {
			peer = b.Prog.PPN // nearest cross-node partner
		}
		if peer >= c.Size() {
			peer = c.Size() - 1
		}
		if peer < 1 {
			return 0, nil // single-rank communicator: nothing to exchange
		}
		return c.SendRecv(0, peer, ph.Payload), nil
	case Halo:
		return c.Halo3D(ph.Payload), nil
	}
	return 0, fmt.Errorf("unknown collective op %v", ph.Op)
}

// groupComm returns the sub-communicator for a group, building the
// placement's communicator and the subgroup on first use. The
// representative subgroup is the one containing rank 0; under the
// supported shapes all subgroups are congruent, so one price serves the
// phase.
func (b *Bound) groupComm(g Group) (*mpi.Comm, error) {
	if b.comm == nil {
		comm, err := mpi.NewComm(b.Env.Fabric, b.Nodes, b.Prog.PPN)
		if err != nil {
			return nil, err
		}
		b.comm, b.subs = comm, map[Group]*mpi.Comm{}
	}
	if g.whole(b.comm.Size()) {
		return b.comm, nil
	}
	c, ok := b.subs[g]
	if !ok {
		c = b.comm.RankZeroGroup(g.Size, g.Stride)
		b.subs[g] = c
	}
	return c, nil
}

// ioTime prices a bulk I/O or checkpoint phase. Reads stream from the
// parallel file system (the cold path: training sets, restart files);
// writes absorb into the node-local tier when the machine has one
// (burst-buffer semantics — the drain overlaps computation), else they
// stream to the PFS.
func (b *Bound) ioTime(ph Phase) (units.Seconds, error) {
	e := b.Env
	if e.NodeLocal == nil && e.Orion == nil {
		return 0, fmt.Errorf("%s phase needs a storage plant", ph.Kind)
	}
	n := units.BytesPerSecond(len(b.Nodes))
	var t units.Seconds
	if ph.Read > 0 {
		switch {
		case e.Orion != nil:
			t += units.TimeToMove(ph.Read, e.Orion.StreamBandwidth(ph.Read, false))
		default:
			t += units.TimeToMove(ph.Read, e.NodeLocal.SeqRead()*n)
		}
	}
	if ph.Write > 0 {
		switch {
		case e.NodeLocal != nil:
			t += units.TimeToMove(ph.Write, e.NodeLocal.SeqWrite()*n)
		default:
			t += units.TimeToMove(ph.Write, e.Orion.StreamBandwidth(ph.Write, true))
		}
	}
	return phaseLaunchOverhead + t, nil
}
