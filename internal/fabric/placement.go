package fabric

import (
	"fmt"
	"slices"
)

// Run is Count consecutive compute nodes from First, all in one compute
// group.
type Run struct{ First, Count int }

// End returns one past the run's last node.
func (r Run) End() int { return r.First + r.Count }

// Placement is a set of a fabric's compute nodes in the form the
// scheduler, pricing and communicators read: the ascending list of its
// maximal runs of consecutive node ids inside one compute group. Compute
// group g is the node range [g·NodesPerGroup, (g+1)·NodesPerGroup), so a
// run's group is First / NodesPerGroup, and ranks block-distributed over
// the placement meet each group's nodes in one stretch. Every consumer
// does O(runs) work; node ids are expanded only on request.
//
// A Placement is valid by construction: NewPlacement checks a node list,
// and SpreadPlacement, Prefix and PlacementBuilder only build ascending,
// maximal, in-group runs. It is immutable, and copies share its runs.
// The zero Placement is empty and on no fabric.
type Placement struct {
	f      *Fabric
	runs   []Run
	nodes  int
	groups int
}

// Fabric returns the fabric the placement's nodes belong to.
func (p Placement) Fabric() *Fabric { return p.f }

// Nodes returns the node count.
func (p Placement) Nodes() int { return p.nodes }

// GroupsSpanned returns how many compute groups the placement touches.
func (p Placement) GroupsSpanned() int { return p.groups }

// Runs returns the placement's runs in ascending order. Callers must not
// modify them.
func (p Placement) Runs() []Run { return p.runs[:len(p.runs):len(p.runs)] }

// Contains reports whether node is in the placement, by binary search
// over its runs.
func (p Placement) Contains(node int) bool {
	_, ok := slices.BinarySearchFunc(p.runs, node, func(r Run, n int) int {
		switch {
		case r.End() <= n:
			return -1
		case r.First > n:
			return 1
		}
		return 0
	})
	return ok
}

// AppendNodes appends the placement's node ids to dst in ascending order.
func (p Placement) AppendNodes(dst []int) []int {
	for _, r := range p.runs {
		for n := r.First; n < r.End(); n++ {
			dst = append(dst, n)
		}
	}
	return dst
}

// Prefix returns the placement's first k nodes (all of them when k is at
// least Nodes).
func (p Placement) Prefix(k int) Placement {
	if k >= p.nodes {
		return p
	}
	b := p.f.NewPlacementBuilder()
	for _, r := range p.runs {
		if b.p.nodes >= k {
			break
		}
		b.Append(r.First, min(r.Count, k-b.p.nodes))
	}
	return b.p
}

// NewPlacement checks a node list against the placement contract — a
// strictly increasing list of the fabric's compute node ids — and
// returns it as runs. The error names the first node that breaks it.
func (f *Fabric) NewPlacement(nodes []int) (Placement, error) {
	total := f.Cfg.ComputeNodes()
	b := f.NewPlacementBuilder()
	for i, n := range nodes {
		if n < 0 || n >= total {
			return Placement{}, fmt.Errorf("node %d outside fabric (0..%d)", n, total-1)
		}
		if i > 0 && n <= nodes[i-1] {
			return Placement{}, fmt.Errorf("node %d follows node %d: a placement is strictly increasing", n, nodes[i-1])
		}
		b.Append(n, 1)
	}
	return b.p, nil
}

// SpreadPlacement is the nominal large-job placement: n of the fabric's
// compute nodes spread evenly across it, node i·total/n for rank block
// i. n must be in 0..ComputeNodes. The scheduler's walltime quotes price
// programs on it; the placement a job actually receives re-prices the
// program.
func (f *Fabric) SpreadPlacement(n int) Placement {
	total := f.Cfg.ComputeNodes()
	b := f.NewPlacementBuilder()
	for i := 0; i < n; i++ {
		b.Append(i*total/n, 1)
	}
	return b.p
}

// PlacementBuilder assembles a Placement from node ranges given in
// ascending order, for callers that already produce them in order: the
// scheduler peels runs off its free bitmap. A range that continues the
// last run inside its group extends it, and a range that crosses a
// group boundary is split there, so the runs stay maximal and in-group
// whatever the caller's granularity.
type PlacementBuilder struct {
	p Placement
	// per and total are the fabric's NodesPerGroup and ComputeNodes;
	// groupEnd is one past the last node of the last run's group.
	per, total, groupEnd int
}

// NewPlacementBuilder returns an empty builder for placements on f.
func (f *Fabric) NewPlacementBuilder() PlacementBuilder {
	return PlacementBuilder{p: Placement{f: f}, per: f.Cfg.NodesPerGroup(), total: f.Cfg.ComputeNodes()}
}

// Append adds the nodes [first, first+count), which must lie on the
// fabric above every node added so far; it panics otherwise. It costs
// O(1) per group the range touches, and divides only on entering a
// group.
func (b *PlacementBuilder) Append(first, count int) {
	p := &b.p
	last := len(p.runs) - 1
	end := 0
	if last >= 0 {
		end = p.runs[last].End()
	}
	if count < 1 || first < end || first+count > b.total {
		panic(fmt.Sprintf("fabric: nodes [%d, %d) do not extend a placement ending at node %d on %d nodes",
			first, first+count, end, b.total))
	}
	for count > 0 {
		if first >= b.groupEnd {
			// Node ids are small and non-negative, so a 32-bit divide
			// gives the same group at a fraction of a 64-bit one's latency.
			b.groupEnd = (int(uint32(first)/uint32(b.per)) + 1) * b.per
			p.groups++
			p.runs = append(p.runs, Run{First: first})
			last++
		} else if first != end {
			p.runs = append(p.runs, Run{First: first})
			last++
		}
		k := min(count, b.groupEnd-first)
		p.runs[last].Count += k
		p.nodes += k
		first += k
		count -= k
		end = first
	}
}

// Reset empties the builder, keeping its storage.
func (b *PlacementBuilder) Reset() {
	b.p = Placement{f: b.p.f, runs: b.p.runs[:0]}
	b.groupEnd = 0
}

// Placement returns the placement built so far, in storage of its own
// exactly its size, so the builder can be reset and reused.
func (b *PlacementBuilder) Placement() Placement {
	p := b.p
	p.runs = slices.Clone(p.runs)
	return p
}
