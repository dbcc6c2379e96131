package job

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"sync"

	"frontiersim/internal/units"
)

// This file is the placement-signature pricing cache. Binding a program
// prices every phase through mpi.Comm, and every quantity that pricing
// reads — Size, PPN, GroupsSpanned, rank-to-node equality for SendRecv,
// and the sub-communicators Split derives from rank indices — is
// invariant under relabeling the placement's nodes by order of
// appearance and its dragonfly groups by first appearance. Two
// placements with the same relabeled per-node group sequence therefore
// price to bit-identical per-phase times, and a campaign's thousands of
// same-class jobs landing on isomorphic placements collapse to one
// pricing pass.
//
// The counterexample that keeps the signature honest: group sequences
// [0,0,1] and [0,1,1] have the same per-group occupancy multiset, but
// their rank-0 contiguous subgroups span different group counts, so a
// sorted occupancy shape alone is NOT a sound key — the signature encodes
// the full relabeled sequence.

// Sig is a program's content signature, a pricing cache key component.
type Sig [sha256.Size]byte

// ProgramSignature hashes exactly the program content pricing reads:
// the node/rank shape and every per-phase work quantity, in order.
// Iterations is deliberately excluded — the cached entry stores the
// setup and single-pass loop sums, and Bind rebuilds Total with the
// job's own iteration count using the identical floating-point
// expression — as are Name, Class and Walltime, which never enter a
// price.
func ProgramSignature(p *Program) Sig {
	h := sha256.New()
	var buf [1024]byte
	n := 0
	flush := func() {
		h.Write(buf[:n])
		n = 0
	}
	w := func(v uint64) {
		if n+8 > len(buf) {
			flush()
		}
		binary.LittleEndian.PutUint64(buf[n:], v)
		n += 8
	}
	wi := func(v int) { w(uint64(v)) }
	wf := func(v float64) { w(math.Float64bits(v)) }
	wi(p.Nodes)
	wi(p.PPN)
	section := func(tag int, phases []Phase) {
		wi(tag)
		wi(len(phases))
		for _, ph := range phases {
			wi(int(ph.Kind))
			wf(ph.Flops)
			wf(float64(ph.Bytes))
			wi(int(ph.Precision))
			m := 0
			if ph.MatrixCores {
				m = 1
			}
			wi(m)
			wf(ph.Efficiency)
			wi(int(ph.Op))
			wf(float64(ph.Payload))
			wi(ph.Group.Size)
			wi(ph.Group.Stride)
			wi(ph.PeerStride)
			wf(float64(ph.Read))
			wf(float64(ph.Write))
			wf(float64(ph.Seconds))
		}
	}
	section(1, p.Setup)
	section(2, p.Loop)
	flush()
	var s Sig
	h.Sum(s[:0])
	return s
}

// PlacementSignature canonicalizes a placement for pricing: the node
// count, then the per-node dragonfly-group sequence (Fabric.NodeGroup,
// the mapping mpi.NewComm uses) with groups relabeled by first
// appearance, run-length encoded as (label, run length) pairs. Every
// value is a uvarint. The encoding is lossless, so two placements share
// a signature exactly when their relabeled sequences are equal:
// placements isomorphic under group relabeling do, placements whose ranks
// interleave groups differently (different comm-group layout) do not. A
// scheduler allocation is sorted, so each group is one run, the key is
// at most 2×groups+1 varints, and the runs are read one group stretch
// at a time (Fabric.NextStretch) rather than per node. ok is false when
// a node is outside the machine or repeated — the relabeled sequence
// cannot tell [3,3] from [3,2], which Fabric.CheckNodes rejects and accepts —
// so callers fall back to the uncached path, where Bind surfaces the
// canonical error.
func (e *Env) PlacementSignature(nodes []int) (string, bool) {
	f := e.Fabric
	total := f.Cfg.ComputeNodes()
	var stack [128]int32 // every canonical machine fits: no allocation
	var labels []int32
	if groups := f.Cfg.TotalGroups(); groups <= len(stack) {
		labels = stack[:groups]
	} else {
		labels = make([]int32, groups)
	}
	for i := range labels {
		labels[i] = -1
	}
	increasing, prev := true, -1
	for _, node := range nodes {
		if uint(node) >= uint(total) { // negative or past the machine
			return "", false
		}
		if node <= prev {
			increasing = false
		}
		prev = node
	}
	// A strictly increasing placement (every scheduler allocation) has
	// no repeats; only other orders need the set check.
	if !increasing && f.CheckNodes(nodes) != nil {
		return "", false
	}
	next := int32(0)
	var buf [64]byte
	key := binary.AppendUvarint(buf[:0], uint64(len(nodes)))
	run, runLen := int32(-1), uint64(0)
	for i := 0; i < len(nodes); {
		g := f.NodeGroup(nodes[i])
		// An increasing placement advances a whole group stretch at a
		// time; any other order advances one node.
		j := i + 1
		if increasing {
			j = f.NextStretch(nodes, i)
		}
		if labels[g] < 0 {
			labels[g] = next
			next++
		}
		if labels[g] != run {
			if runLen > 0 {
				key = binary.AppendUvarint(binary.AppendUvarint(key, uint64(run)), runLen)
			}
			run, runLen = labels[g], 0
		}
		runLen += uint64(j - i)
		i = j
	}
	if runLen > 0 {
		key = binary.AppendUvarint(binary.AppendUvarint(key, uint64(run)), runLen)
	}
	return string(key), true
}

// pricingKey identifies one priced (program, placement, machine)
// combination.
type pricingKey struct {
	env   string
	prog  Sig
	place string
}

// pricedProgram is the machine-dependent, iteration-independent part of
// a Bound: per-phase times and their sums as Bind computed them.
type pricedProgram struct {
	setupTimes, loopTimes []units.Seconds
	setupSum, loopSum     units.Seconds
}

// total is the program's runtime over iterations loop passes. Cold
// binds, cache hits and cached estimates all compute it with this one
// expression, which is what makes them bit-identical.
func (pr pricedProgram) total(iterations int) units.Seconds {
	return pr.setupSum + units.Seconds(iterations)*pr.loopSum
}

// nominalKey identifies a nominal spread placement: Estimate's
// placement for an n-node program on one machine.
type nominalKey struct {
	env   string
	nodes int
}

// PricingCache memoizes Bind's per-phase pricing keyed by (program
// signature, placement signature, machine hash). A hit rebuilds the
// Bound from the stored times without pricing any phase; the
// result is bit-identical to a cold Bind because the stored values ARE
// a cold Bind's values and Total is recomputed with the same
// expression. The cache is unbounded, which keeps the reported hit rate
// a pure function of the job stream; an entry costs a few hundred bytes,
// so even a year-scale campaign's working set is small. Safe for
// concurrent use; a nil *PricingCache is a valid always-miss cache.
type PricingCache struct {
	mu      sync.Mutex
	entries map[pricingKey]pricedProgram
	hits    uint64
	misses  uint64
	// nominals memoizes the signature of each nominal spread placement
	// Estimate quotes against. It holds one short key per (machine,
	// node count), outside the hit/miss counts.
	nominals map[nominalKey]string
}

// NewPricingCache returns an empty cache.
func NewPricingCache() *PricingCache {
	return &PricingCache{
		entries:  make(map[pricingKey]pricedProgram),
		nominals: make(map[nominalKey]string),
	}
}

// nominal returns the placement signature of e.SpreadPlacement(n),
// computing it on first use. A spread of 1 <= n <= nodes is strictly
// increasing and inside the machine, so its signature always exists.
func (c *PricingCache) nominal(e *Env, n int) string {
	k := nominalKey{env: e.CacheKey, nodes: n}
	c.mu.Lock()
	place, ok := c.nominals[k]
	c.mu.Unlock()
	if !ok {
		place, _ = e.PlacementSignature(e.SpreadPlacement(n))
		c.mu.Lock()
		c.nominals[k] = place
		c.mu.Unlock()
	}
	return place
}

// lookup returns the priced program for a key, if present.
func (c *PricingCache) lookup(key pricingKey) (pricedProgram, bool) {
	if c == nil {
		return pricedProgram{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	val, ok := c.entries[key]
	if !ok {
		c.misses++
		return pricedProgram{}, false
	}
	c.hits++
	return val, true
}

// store inserts a priced program.
func (c *PricingCache) store(key pricingKey, val pricedProgram) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.entries[key] = val
	c.mu.Unlock()
}

// Stats returns the cumulative hit and miss counts.
func (c *PricingCache) Stats() (hits, misses uint64) {
	if c == nil {
		return 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// HitRate returns hits / (hits + misses), or 0 before any lookup.
func (c *PricingCache) HitRate() float64 {
	h, m := c.Stats()
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

// Len returns the number of cached priced programs.
func (c *PricingCache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
