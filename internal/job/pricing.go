package job

import (
	"container/list"
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

// Sig is a program's content signature, a pricing-cache key component.
type Sig [sha256.Size]byte

// ProgramSignature hashes exactly the program content pricing reads:
// the node/rank shape and every per-phase work quantity, in order.
// Iterations is deliberately excluded — the cached entry stores the
// setup and single-pass loop sums, and Bind rebuilds Total with the
// job's own iteration count using the identical floating-point
// expression — as are Name and Class, which never enter a price.
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
// scheduler allocation is sorted, so each group is one run and the key is
// at most 2×groups+1 varints. ok is false when a node is outside the
// machine — callers fall back to the uncached path so Bind surfaces its
// canonical error.
func (e *Env) PlacementSignature(nodes []int) (string, bool) {
	f := e.Fabric
	total := f.Cfg.ComputeNodes()
	labels := make([]int32, f.Cfg.TotalGroups())
	for i := range labels {
		labels[i] = -1
	}
	next := int32(0)
	key := binary.AppendUvarint(make([]byte, 0, 256), uint64(len(nodes)))
	run, runLen := int32(-1), uint64(0)
	for _, node := range nodes {
		if node < 0 || node >= total {
			return "", false
		}
		g := f.NodeGroup(node)
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
		runLen++
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

// PricingCache memoizes Bind's per-phase pricing keyed by (program
// signature, placement signature, machine hash). A hit rebuilds the
// Bound from the stored times without constructing an mpi.Comm; the
// result is bit-identical to a cold Bind because the stored values ARE
// a cold Bind's values and Total is recomputed with the same
// expression. Safe for concurrent use; a nil *PricingCache is a valid
// always-miss cache.
type PricingCache struct {
	mu      sync.Mutex
	max     int
	entries map[pricingKey]*list.Element
	lru     list.List // of cacheSlot, front = most recent
	hits    uint64
	misses  uint64
}

type cacheSlot struct {
	key pricingKey
	val pricedProgram
}

// NewPricingCache returns a cache bounded to maxEntries priced
// programs; maxEntries <= 0 means unbounded, which keeps the reported
// hit rate a pure function of the job stream (no eviction noise). An
// entry costs a few hundred bytes, so even a year-scale campaign's
// working set is small.
func NewPricingCache(maxEntries int) *PricingCache {
	return &PricingCache{
		max:     maxEntries,
		entries: make(map[pricingKey]*list.Element),
	}
}

// lookup returns the priced program for a key, if present.
func (c *PricingCache) lookup(key pricingKey) (pricedProgram, bool) {
	if c == nil {
		return pricedProgram{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		return pricedProgram{}, false
	}
	c.hits++
	c.lru.MoveToFront(el)
	return el.Value.(cacheSlot).val, true
}

// store inserts a priced program, evicting the least recently used
// entry when the cache is bounded and full.
func (c *PricingCache) store(key pricingKey, val pricedProgram) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		return
	}
	c.entries[key] = c.lru.PushFront(cacheSlot{key: key, val: val})
	if c.max > 0 && len(c.entries) > c.max {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.entries, oldest.Value.(cacheSlot).key)
	}
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
