package network

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"math"
	"sync"

	"frontiersim/internal/fabric"
)

// This file is the incremental-solving layer on top of the Solver arena:
// demand-set signatures and a SolutionCache that lets repeated patterns
// (a census or a GPCNeT run repeated at one seed) return stored
// allocations without touching the water-filling heap. Cache entries are
// keyed by (topology, demand signature); a fabric never changes once
// built, so no entry goes stale.

// Signature identifies a demand set (or a pattern that fully determines
// one) for solution caching. It is a SHA-256 in the style of the
// machine.Hash canonical content address.
type Signature [sha256.Size]byte

// sigHasher streams fixed-width little-endian words into a SHA-256
// digest through a small buffer, so signing a census-sized demand set
// costs no per-demand allocation.
type sigHasher struct {
	d   hash.Hash
	buf [4096]byte
	n   int
}

func newSigHasher() sigHasher { return sigHasher{d: sha256.New()} }

func (s *sigHasher) u64(v uint64) {
	if s.n+8 > len(s.buf) {
		s.d.Write(s.buf[:s.n])
		s.n = 0
	}
	binary.LittleEndian.PutUint64(s.buf[s.n:], v)
	s.n += 8
}

func (s *sigHasher) sum() Signature {
	s.d.Write(s.buf[:s.n])
	s.n = 0
	var sig Signature
	s.d.Sum(sig[:0])
	return sig
}

// DemandSignature hashes a demand set in demand order: src, dst, cap
// bits, and the full path set (path count, lengths, link ids). Two
// demand sets with equal signatures on the same fabric state solve to
// bit-identical allocations, because the solver is a deterministic
// function of exactly these inputs plus per-link capacity (which the
// cache key's topology field or the solving instance pins).
func DemandSignature(demands []*Demand) Signature {
	h := newSigHasher()
	h.u64(uint64(len(demands)))
	for _, d := range demands {
		h.u64(uint64(d.Src))
		h.u64(uint64(d.Dst))
		h.u64(math.Float64bits(d.Cap))
		h.u64(uint64(len(d.Paths)))
		for _, p := range d.Paths {
			h.u64(uint64(len(p)))
			for _, lid := range p {
				h.u64(uint64(lid))
			}
		}
	}
	return h.sum()
}

// PatternSignature hashes a short tuple that fully determines a demand
// set without building it — e.g. the census signs (path seed, valiant
// fanout, nodes, ranks, shift) because each shift draws its paths from a
// stream derived from the path seed and the shift alone. The
// tag namespaces patterns so two callers hashing coincidentally equal
// tuples can't collide.
func PatternSignature(tag string, vals ...uint64) Signature {
	h := newSigHasher()
	h.d.Write([]byte(tag))
	h.u64(uint64(len(vals)))
	for _, v := range vals {
		h.u64(v)
	}
	return h.sum()
}

// Solution is a stored max-min allocation: per-demand total rates plus
// the flat per-subflow rates, in demand order. Solutions handed out by
// the cache are shared and immutable — callers read Rates or Apply them
// onto a demand set, never mutate them.
type Solution struct {
	// Rates[i] is the solved total rate of demand i, bit-exact as the
	// solver produced it.
	Rates    []float64
	subStart []int32
	subRates []float64
}

// newSolution snapshots the allocation currently held by demands.
func newSolution(demands []*Demand) *Solution {
	sol := &Solution{
		Rates:    make([]float64, len(demands)),
		subStart: make([]int32, len(demands)+1),
	}
	total := 0
	for i, d := range demands {
		sol.Rates[i] = d.Rate
		sol.subStart[i] = int32(total)
		total += len(d.SubRates)
	}
	sol.subStart[len(demands)] = int32(total)
	sol.subRates = make([]float64, total)
	for i, d := range demands {
		copy(sol.subRates[sol.subStart[i]:sol.subStart[i+1]], d.SubRates)
	}
	return sol
}

// size is the entry's byte footprint for the cache's LRU budget.
func (sol *Solution) size() int64 {
	return int64(len(sol.Rates))*8 + int64(len(sol.subRates))*8 + int64(len(sol.subStart))*4 + 96
}

// Apply writes the stored allocation onto demands, bit-for-bit what
// solving them would have produced. It reports false (writing nothing)
// if the demand set's shape doesn't match the stored solution — which
// indicates a signature misuse, never a legitimate cache hit.
func (sol *Solution) Apply(demands []*Demand) bool {
	if len(demands) != len(sol.Rates) {
		return false
	}
	for i, d := range demands {
		if int(sol.subStart[i+1]-sol.subStart[i]) != len(d.Paths) {
			return false
		}
	}
	for i, d := range demands {
		d.Rate = sol.Rates[i]
		if cap(d.SubRates) >= len(d.Paths) {
			d.SubRates = d.SubRates[:len(d.Paths)]
		} else {
			d.SubRates = make([]float64, len(d.Paths))
		}
		copy(d.SubRates, sol.subRates[sol.subStart[i]:sol.subStart[i+1]])
	}
	return true
}

// solutionKey identifies one cached allocation. topo is a canonical
// topology address (machine.Hash) or "" when the caller has none.
type solutionKey struct {
	topo string
	sig  Signature
}

type solutionEntry struct {
	key  solutionKey
	fab  *fabric.Fabric
	sol  *Solution
	size int64
}

// SolutionCache is a bounded, concurrency-safe LRU of solved
// allocations. A nil *SolutionCache is valid and never hits, so callers
// thread it through unconditionally.
//
// Hit soundness: a stored entry is served only when the requesting
// fabric is the instance the entry was solved on, or the lookup carries
// a canonical topology key, which fully describes every fabric built
// from it.
type SolutionCache struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	lru      *list.List
	entries  map[solutionKey]*list.Element
	hits     uint64
	misses   uint64
}

// NewSolutionCache returns a cache bounded to maxBytes of stored
// solutions (<=0 selects the 256 MiB default — roughly a hundred
// full-machine census shifts).
func NewSolutionCache(maxBytes int64) *SolutionCache {
	if maxBytes <= 0 {
		maxBytes = 256 << 20
	}
	return &SolutionCache{
		maxBytes: maxBytes,
		lru:      list.New(),
		entries:  make(map[solutionKey]*list.Element),
	}
}

// Lookup returns the stored solution for sig on fabric f's current
// state, if the cache holds one it can soundly serve.
func (c *SolutionCache) Lookup(f *fabric.Fabric, topo string, sig Signature) (*Solution, bool) {
	if c == nil {
		return nil, false
	}
	key := solutionKey{topo: topo, sig: sig}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		return nil, false
	}
	e := el.Value.(*solutionEntry)
	if e.fab != f && key.topo == "" {
		c.misses++
		return nil, false
	}
	c.lru.MoveToFront(el)
	c.hits++
	return e.sol, true
}

// Store snapshots the allocation currently held by demands under sig
// and returns it; evicts least-recently-used entries past the byte
// budget. Storing on a nil cache returns nil.
func (c *SolutionCache) Store(f *fabric.Fabric, topo string, sig Signature, demands []*Demand) *Solution {
	if c == nil {
		return nil
	}
	sol := newSolution(demands)
	key := solutionKey{topo: topo, sig: sig}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		// Concurrent workers can race to store the same shift; keep the
		// first entry (both are bit-identical by construction).
		c.lru.MoveToFront(el)
		return el.Value.(*solutionEntry).sol
	}
	e := &solutionEntry{key: key, fab: f, sol: sol, size: sol.size()}
	c.entries[key] = c.lru.PushFront(e)
	c.bytes += e.size
	for c.bytes > c.maxBytes && c.lru.Len() > 1 {
		back := c.lru.Back()
		old := back.Value.(*solutionEntry)
		c.lru.Remove(back)
		delete(c.entries, old.key)
		c.bytes -= old.size
	}
	return sol
}

// solveCached solves demands, serving from (and populating) the
// solution cache by literal demand signature when one is provided. A
// hit applies the stored allocation — bit-for-bit what the skipped
// solve would have written — and never touches the water-filling heap.
func solveCached(f *fabric.Fabric, demands []*Demand, solutions *SolutionCache, topo string) error {
	if solutions == nil {
		return Solve(f, demands)
	}
	sig := DemandSignature(demands)
	if sol, ok := solutions.Lookup(f, topo, sig); ok && sol.Apply(demands) {
		return nil
	}
	if err := Solve(f, demands); err != nil {
		return err
	}
	solutions.Store(f, topo, sig, demands)
	return nil
}

// SolutionCacheStats is a point-in-time snapshot of cache occupancy and
// effectiveness.
type SolutionCacheStats struct {
	Entries int    `json:"entries"`
	Bytes   int64  `json:"bytes"`
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
}

// Stats reports current occupancy and hit/miss counters.
func (c *SolutionCache) Stats() SolutionCacheStats {
	if c == nil {
		return SolutionCacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return SolutionCacheStats{
		Entries: c.lru.Len(),
		Bytes:   c.bytes,
		Hits:    c.hits,
		Misses:  c.misses,
	}
}
