// Package rng is the simulator's random-number substrate: a splittable
// family of cheap, statistically strong streams that replaces
// math/rand's legacy lagged-Fibonacci source on every hot path.
//
// Why it exists: rand.NewSource pays a 607-element warmup on every Seed,
// which dominated profiles of the full-scale mpiGraph census — the
// simulator builds a fresh stream per census shift, per trial, and per
// experiment, so stream construction has to be a handful of arithmetic
// instructions, not thousands. Here a stream is a xoshiro256++ generator
// whose 256-bit state is expanded from a 64-bit seed by SplitMix64 (the
// seeding procedure its authors prescribe), so construction costs four
// multiplies and never touches the heap beyond the state itself.
//
// Splittability: Mix64 is a bijective avalanche, so folding coordinates
// (a name hash, a shift index, a trial index) into a parent seed yields
// child seeds whose streams are statistically independent even when the
// inputs are consecutive small integers.
// Derive and DeriveN are the only sanctioned ways to build child seeds;
// deriving by drawing from a parent *stream* is forbidden because it
// makes the child depend on derivation order (the bug Kernel.Stream
// shipped with). The derivation tree is documented in DESIGN.md and
// pinned by golden-stream tests.
package rng

import "math/rand"

// golden is the SplitMix64 increment: 2^64 / phi, odd. Weyl-sequencing a
// seed by it guarantees distinct Mix64 inputs for distinct draws.
const golden = 0x9E3779B97F4A7C15

// Mix64 is the SplitMix64 finalizer (Steele, Lea & Flood 2014): a
// bijection over 64 bits whose output bits each depend on every input
// bit. It is the shared avalanche behind Derive, DeriveN and Expand.
func Mix64(x uint64) uint64 {
	x += golden
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// fnv64a hashes a name with FNV-1a, the cheap string fold used to bring
// component names into the 64-bit seed space.
func fnv64a(name string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}

// Derive maps a parent seed and a stream name to an independent child
// seed. The result depends only on (seed, name) — never on call order or
// on any generator state — so a component's stream is stable under
// refactors that add, remove or reorder sibling streams.
func Derive(seed int64, name string) int64 {
	return int64(Mix64(uint64(seed) ^ fnv64a(name)))
}

// DeriveN folds integer coordinates into a parent seed, one avalanche
// per coordinate: the numeric analogue of Derive for per-shift and
// per-trial streams. Folding happens left to
// right, so DeriveN(s, a, b) and DeriveN(s, b, a) differ.
func DeriveN(seed int64, coords ...uint64) int64 {
	h := Mix64(uint64(seed))
	for _, c := range coords {
		h = Mix64(h ^ c)
	}
	return int64(h)
}

// Source is a xoshiro256++ generator (Blackman & Vigna 2018). It
// implements math/rand.Source64, so rand.New(NewSource(seed)) is a
// drop-in replacement for rand.New(rand.NewSource(seed)) with O(1)
// seeding instead of the legacy source's 607-element warmup.
type Source struct {
	s0, s1, s2, s3 uint64
}

var _ rand.Source64 = (*Source)(nil)

// NewSource returns a source seeded with seed.
func NewSource(seed int64) *Source {
	var s Source
	s.Seed(seed)
	return &s
}

// Seed resets the generator state. The four state words are consecutive
// SplitMix64 outputs, as the xoshiro reference implementation seeds
// itself; Mix64 is a bijection over distinct inputs, so at most one word
// can be zero and the all-zero fixed point is unreachable.
func (s *Source) Seed(seed int64) {
	x := uint64(seed)
	x += golden
	s.s0 = Mix64(x)
	x += golden
	s.s1 = Mix64(x)
	x += golden
	s.s2 = Mix64(x)
	x += golden
	s.s3 = Mix64(x)
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 advances the generator.
func (s *Source) Uint64() uint64 {
	r := rotl(s.s0+s.s3, 23) + s.s0
	t := s.s1 << 17
	s.s2 ^= s.s0
	s.s3 ^= s.s1
	s.s1 ^= s.s2
	s.s0 ^= s.s3
	s.s2 ^= t
	s.s3 = rotl(s.s3, 45)
	return r
}

// Int63 implements math/rand.Source.
func (s *Source) Int63() int64 { return int64(s.Uint64() >> 1) }

// New returns a *rand.Rand over a freshly seeded Source: the standard
// way the simulator builds a stream from a (derived) seed.
func New(seed int64) *rand.Rand { return rand.New(NewSource(seed)) }
