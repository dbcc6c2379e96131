// Package mpi provides the message-passing abstraction the application
// proxies run on: communicators of ranks placed on fabric nodes, with
// analytic time models for point-to-point transfers and the collectives
// the paper's applications depend on (allreduce for solvers, all-to-all
// for pseudo-spectral FFTs, halo exchanges for stencil codes).
//
// Bandwidth terms derive from the fabric's structural parameters — the
// endpoint efficiency, the global-link taper, and the average number of
// global hops under adaptive routing — the same quantities that drive the
// flow-level solver, so the collective models agree with the mpiGraph and
// GPCNeT measurements without re-solving a full flow problem per call.
package mpi

import (
	"fmt"
	"math"

	"frontiersim/internal/fabric"
	"frontiersim/internal/units"
)

// Model constants calibrated against the paper's network measurements.
const (
	// avgGlobalHops is the mean number of global links a byte crosses
	// under adaptive routing (half minimal at 1 hop, half Valiant at 2).
	avgGlobalHops = 1.5
	// fabricUtilization is the achievable fraction of structural
	// capacity under dense collectives.
	fabricUtilization = 0.80
	// smallMsgLatency is the effective point-to-point alpha (the
	// paper's 2.6 µs RR latency).
	smallMsgLatency = 2.6 * units.Microsecond
	// rendezvousOverhead is the extra software cost of large-message
	// protocol per message.
	rendezvousOverhead = 1.2 * units.Microsecond
)

// Comm is a communicator: ranks round-robin across the NICs of a
// placement's compute nodes, block-distributed over its nodes in
// ascending order.
type Comm struct {
	F         *fabric.Fabric
	Placement fabric.Placement
	PPN       int
}

// NewComm creates a communicator over a placement on f with ppn ranks
// per node. A placement is checked when it is built, so this reads only
// its counts.
func NewComm(f *fabric.Fabric, p fabric.Placement, ppn int) (*Comm, error) {
	if p.Nodes() == 0 || ppn < 1 {
		return nil, fmt.Errorf("mpi: communicator needs nodes and ppn >= 1")
	}
	if p.Fabric() != f {
		return nil, fmt.Errorf("mpi: placement is on another fabric")
	}
	return &Comm{F: f, Placement: p, PPN: ppn}, nil
}

// Size returns the rank count.
func (c *Comm) Size() int { return c.Placement.Nodes() * c.PPN }

// GroupsSpanned reports how many dragonfly groups the job covers.
func (c *Comm) GroupsSpanned() int { return c.Placement.GroupsSpanned() }

// ranksPerNIC is how many ranks share one NIC.
func (c *Comm) ranksPerNIC() float64 {
	r := float64(c.PPN) / float64(c.F.Cfg.NICsPerNode)
	if r < 1 {
		return 1
	}
	return r
}

// nicBW is the achievable per-NIC rate.
func (c *Comm) nicBW() float64 {
	return float64(c.F.Cfg.LinkRate) * c.F.Cfg.EndpointEfficiency
}

// globalHops is the mean number of global-link traversals per byte for
// this job's placement. A job spread across every group offers minimal
// routing a direct link for most pairs (≈1.5 hops with adaptive
// spreading); a job packed into few groups must route almost everything
// non-minimally through intermediate groups (→2 hops). This is exactly
// why Slurm spreads large jobs "to maximize the number of global
// connections available to minimal routing" (§3.4.2).
func (c *Comm) globalHops() float64 {
	total := c.F.Cfg.ComputeGroups
	if total <= 1 {
		return avgGlobalHops
	}
	fracMinimal := float64(c.GroupsSpanned()-1) / float64(total-1)
	return 2 - 0.5*fracMinimal
}

// globalShare is the per-endpoint share of global capacity for this
// job's placement under all-inter-group traffic.
func (c *Comm) globalShare() float64 {
	endpoints := float64(c.Placement.Nodes() * c.F.Cfg.NICsPerNode)
	globalDirected := 2 * float64(c.F.Cfg.TotalGlobalBandwidth())
	// Only the fraction of traffic leaving the group crosses globals.
	interFrac := 1 - 1/float64(c.GroupsSpanned())
	return globalDirected * fabricUtilization / (endpoints * interFrac * c.globalHops())
}

// PerNICBandwidth returns the sustained inter-node bandwidth one NIC sees
// under permutation-style traffic for this job's placement: NIC-limited
// when the job packs into one group, global-taper-limited when it spreads.
func (c *Comm) PerNICBandwidth() units.BytesPerSecond {
	nic := c.nicBW()
	if c.GroupsSpanned() <= 1 || c.F.Kind == fabric.FatTree {
		return units.BytesPerSecond(nic)
	}
	return units.BytesPerSecond(math.Min(nic, c.globalShare()))
}

// PerRankBandwidth divides the NIC rate among the ranks sharing it.
func (c *Comm) PerRankBandwidth() units.BytesPerSecond {
	return units.BytesPerSecond(float64(c.PerNICBandwidth()) / c.ranksPerNIC())
}

// SendRecv models one pairwise exchange of b bytes between two ranks.
func (c *Comm) SendRecv(src, dst int, b units.Bytes) units.Seconds {
	if src/c.PPN == dst/c.PPN { // nodes are distinct, so one node per rank block
		// Intra-node: the runtime moves data over xGMI; model at the
		// CU-copy single-link rate.
		return smallMsgLatency/2 + units.TimeToMove(b, 37.5*units.GBps)
	}
	alpha := smallMsgLatency
	if b > 64*units.KiB {
		alpha += rendezvousOverhead
	}
	return alpha + units.TimeToMove(b, c.PerRankBandwidth())
}

// Barrier models a dissemination barrier.
func (c *Comm) Barrier() units.Seconds {
	return c.logStages() * smallMsgLatency
}

// Allreduce models an allreduce of b bytes per rank: latency-bound
// dissemination for small messages, a bandwidth-bound ring for large.
func (c *Comm) Allreduce(b units.Bytes) units.Seconds {
	small := c.logStages() * (smallMsgLatency + 400*units.Nanosecond)
	if b <= 4*units.KiB {
		return small
	}
	p := float64(c.Size())
	ring := units.Seconds(2 * float64(b) * (p - 1) / p / float64(c.PerRankBandwidth()))
	return small + ring
}

// Broadcast models a pipelined binomial broadcast of b bytes.
func (c *Comm) Broadcast(b units.Bytes) units.Seconds {
	return c.logStages()*smallMsgLatency + units.TimeToMove(b, c.PerRankBandwidth())
}

// AllToAll models a complete exchange where every rank sends b bytes to
// every other rank. This is the pattern that dominates pseudo-spectral
// codes (GESTS): per-node bandwidth lands at ~30 GB/s on the full
// machine, the paper's §4.2.2 number.
func (c *Comm) AllToAll(b units.Bytes) units.Seconds {
	p := float64(c.Size())
	if p < 2 {
		return 0
	}
	perRankVolume := float64(b) * (p - 1)
	// All-to-all keeps every NIC busy in both directions; the fraction
	// of traffic staying on-node is negligible at scale.
	t := perRankVolume / float64(c.AllToAllPerRankBandwidth())
	return units.Seconds(t) + c.logStages()*smallMsgLatency
}

// AllToAllPerRankBandwidth is the sustained per-rank rate under a
// complete exchange.
func (c *Comm) AllToAllPerRankBandwidth() units.BytesPerSecond {
	nic := c.nicBW()
	perRank := nic / c.ranksPerNIC()
	if c.GroupsSpanned() <= 1 || c.F.Kind == fabric.FatTree {
		return units.BytesPerSecond(perRank)
	}
	return units.BytesPerSecond(math.Min(perRank, c.globalShare()/c.ranksPerNIC()))
}

// Halo3D models a nearest-neighbour exchange on a 3-D domain
// decomposition: six faces of faceBytes each, overlapping across the
// node's NICs. Stencil codes (Cholla, AthenaPK) are dominated by this.
func (c *Comm) Halo3D(faceBytes units.Bytes) units.Seconds {
	// Three send/receive phases (x, y, z), each moving two faces per
	// rank. Neighbours are mostly placement-adjacent, so the NIC rate
	// applies rather than the spread-job global share.
	perRank := c.nicBW() / c.ranksPerNIC()
	phase := units.Seconds(2*float64(faceBytes)/perRank) + smallMsgLatency
	return 3 * phase
}

// logStages returns ceil(log2(P)) as a multiplier.
func (c *Comm) logStages() units.Seconds {
	return units.Seconds(math.Ceil(math.Log2(float64(c.Size()))))
}

// String summarises the communicator.
func (c *Comm) String() string {
	return fmt.Sprintf("comm: %d ranks (%d nodes x %d ppn), %d groups",
		c.Size(), c.Placement.Nodes(), c.PPN, c.GroupsSpanned())
}

// RankZeroGroup returns the sub-communicator holding rank 0 of a
// congruent decomposition: the size consecutive ranks 0..size-1 when
// stride <= 1, else the size ranks 0, stride, 2·stride, …. It equals
// the rank-0 communicator of an MPI split by color r/size or r%stride —
// the same nodes in the same order and the same PPN, so it prices
// bit-identically — but costs O(runs) when stride <= PPN and
// O(runs + subgroup) otherwise, instead of a color call per rank. Ranks
// are block-distributed over the placement, so rank r is on node index
// r/PPN, and the group's node indices increase, each node once. A
// stride of at most PPN skips no node index, so the group is a prefix
// of the placement. Job pricing uses it because congruent-subgroup
// collectives only ever price the rank-0 subgroup.
func (c *Comm) RankZeroGroup(size, stride int) *Comm {
	stride = max(stride, 1)
	// The group's ranks are j·stride for j < members.
	members := min(max(size, 1), (c.Size()+stride-1)/stride)
	if stride <= c.PPN {
		last := (members - 1) * stride / c.PPN
		return &Comm{F: c.F, Placement: c.Placement.Prefix(last + 1), PPN: c.PPN}
	}
	b := c.F.NewPlacementBuilder()
	runs := c.Placement.Runs()
	r, base := 0, 0 // base is the node index of runs[r].First
	for j := 0; j < members; j++ {
		i := j * stride / c.PPN
		for i >= base+runs[r].Count {
			base += runs[r].Count
			r++
		}
		b.Append(runs[r].First+i-base, 1)
	}
	return &Comm{F: c.F, Placement: b.Placement(), PPN: c.PPN}
}

// AllGather models an allgather of b bytes contributed per rank: ring
// collection, each rank ends with P*b bytes.
func (c *Comm) AllGather(b units.Bytes) units.Seconds {
	p := float64(c.Size())
	if p < 2 {
		return 0
	}
	moved := float64(b) * (p - 1)
	return units.Seconds(moved/float64(c.PerRankBandwidth())) + c.logStages()*smallMsgLatency
}

// ReduceScatter models the mirror collective: each rank contributes b
// bytes and receives its reduced b/P slice.
func (c *Comm) ReduceScatter(b units.Bytes) units.Seconds {
	p := float64(c.Size())
	if p < 2 {
		return 0
	}
	moved := float64(b) * (p - 1) / p
	return units.Seconds(moved/float64(c.PerRankBandwidth())) + c.logStages()*smallMsgLatency
}
