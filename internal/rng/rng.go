// Package rng centralizes pseudo-random number generation for the
// reproduction. Every stochastic component (deployment, PU activity,
// backoff draws) receives its own deterministic child source derived from a
// run seed and a string label, so that
//
//   - a whole experiment is reproducible from a single uint64 seed, and
//   - changing how many random numbers one component draws does not perturb
//     the streams of the others.
package rng

import (
	"hash/fnv"
	"math"
	"math/rand/v2"
)

// Source is a deterministic random source with the derivation helpers used
// across the simulator. It wraps a math/rand/v2 PCG generator with an
// explicit seed; crypto randomness is neither needed nor wanted for
// reproducible experiments. Seeding a PCG sets two words, so building or
// re-seeding a source costs nanoseconds and no derived seed needs caching.
type Source struct {
	seed uint64
	pcg  *rand.PCG
	rnd  *rand.Rand

	// geomQ/geomLogQ memoize the last two Geometric denominators, most
	// recent miss first: the PU activity processes draw millions of
	// geometric samples, alternating between p_t and 1−p_t on one stream,
	// and ln(q) is half the cost of a sample. Reusing a cached value is
	// bit-identical to recomputing it.
	geomQ    [2]float64
	geomLogQ [2]float64
}

// pcgStream salts the PCG's second state word: the seed is the first word,
// and mix(seed, pcgStream) the second, so small seeds do not start from
// near-zero states.
const pcgStream = 0x6a09e667f3bcc909

// New returns a Source seeded with seed.
func New(seed uint64) *Source {
	pcg := rand.NewPCG(seed, mix(seed, pcgStream))
	return &Source{seed: seed, pcg: pcg, rnd: rand.New(pcg)}
}

// Seed returns the seed the source was created with.
func (s *Source) Seed() uint64 { return s.seed }

// Child derives an independent source labeled by name. Derivation mixes the
// parent seed with an FNV-1a hash of the label, so identical labels yield
// identical children and distinct labels yield (practically) independent
// streams.
func (s *Source) Child(name string) *Source {
	return New(s.ChildSeed(name))
}

// ChildSeed returns the seed Child(name) derives its source from, without
// building the source. It lets retained children be re-seeded in place (see
// Reseed) instead of reallocated each run.
func (s *Source) ChildSeed(name string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	return mix(s.seed, h.Sum64())
}

// ChildN derives an independent source labeled by name and an index, e.g.
// one stream per repetition of an experiment.
func (s *Source) ChildN(name string, n int) *Source {
	return New(ChildSeedN(s.seed, name, n))
}

// ChildSeedN returns the seed New(parent).ChildN(name, n) derives its source
// from, without building either source. It is the one per-repetition seed
// derivation: the sweeps use it directly as every placement and collection
// seed.
func ChildSeedN(parent uint64, name string, n int) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	return mix(mix(parent, h.Sum64()), uint64(n)+0x9e3779b97f4a7c15)
}

// Reseed re-seeds s in place: afterwards its stream is bit-identical to a
// freshly built source with the given seed, but no allocation happens. The
// geometric memo survives — it is keyed by value and recomputing it is
// bit-identical.
func (s *Source) Reseed(seed uint64) {
	s.seed = seed
	s.pcg.Seed(seed, mix(seed, pcgStream))
}

// ReseedChild re-points s at parent.Child(name)'s stream, reusing s's
// allocation when it exists. Child derivation depends only on the parent's
// seed, never its stream position, so the result is bit-identical to a
// fresh Child regardless of s's history or which path built it.
func ReseedChild(s, parent *Source, name string) *Source {
	if s == nil {
		return parent.Child(name)
	}
	s.Reseed(parent.ChildSeed(name))
	return s
}

// mix is the splitmix64 finalizer applied to a xor of the inputs; it is a
// strong enough mixer to decorrelate seeds derived from small integers.
func mix(a, b uint64) uint64 {
	z := a ^ (b + 0x9e3779b97f4a7c15 + (a << 6) + (a >> 2))
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (s *Source) Float64() float64 { return s.rnd.Float64() }

// Intn returns a uniform value in [0, n). It panics if n <= 0, matching
// math/rand semantics.
func (s *Source) Intn(n int) int { return s.rnd.IntN(n) }

// Int63n returns a uniform value in [0, n). It panics if n <= 0.
func (s *Source) Int63n(n int64) int64 { return s.rnd.Int64N(n) }

// Uint64 returns a uniform 64-bit value.
func (s *Source) Uint64() uint64 { return s.rnd.Uint64() }

// Perm returns a random permutation of [0, n).
func (s *Source) Perm(n int) []int { return s.rnd.Perm(n) }

// Bernoulli returns true with probability p. Values of p outside [0, 1] are
// clamped.
func (s *Source) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.rnd.Float64() < p
}

// UniformInt returns a uniform integer in [lo, hi] inclusive. It panics if
// hi < lo.
func (s *Source) UniformInt(lo, hi int64) int64 {
	if hi < lo {
		panic("rng: UniformInt with hi < lo")
	}
	return lo + s.rnd.Int64N(hi-lo+1)
}

// Geometric returns the number of consecutive Bernoulli(p) failures before
// the first success, i.e. a sample of the geometric distribution with
// support {0, 1, 2, ...}. For p <= 0 it returns a very large value capped at
// 1<<40 to keep virtual time arithmetic safe; for p >= 1 it returns 0.
//
// It is used to jump PU activity processes across runs of identical slots
// without simulating each slot individually.
func (s *Source) Geometric(p float64) int64 {
	const cap40 = int64(1) << 40
	if p >= 1 {
		return 0
	}
	if p <= 0 {
		return cap40
	}
	// Inverse transform: floor(ln(U) / ln(1-p)) with U in (0,1).
	u := s.rnd.Float64()
	for u == 0 {
		u = s.rnd.Float64()
	}
	q := 1 - p
	var logQ float64
	switch q {
	case s.geomQ[0]:
		logQ = s.geomLogQ[0]
	case s.geomQ[1]:
		logQ = s.geomLogQ[1]
	default:
		logQ = math.Log(q)
		s.geomQ = [2]float64{q, s.geomQ[0]}
		s.geomLogQ = [2]float64{logQ, s.geomLogQ[0]}
	}
	k := int64(math.Log(u) / logQ)
	if k < 0 {
		k = 0
	}
	if k > cap40 {
		k = cap40
	}
	return k
}
