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

	// geom memoizes the last two Geometric denominators, and a miss
	// replaces the older one (geomOld): the PU activity processes draw
	// millions of geometric samples, alternating between p_t and 1−p_t on
	// one stream. A miss pays ln(q) and the log formula; later hits look
	// their draw up in the entry's threshold table (see geomMemo), skipping
	// math.Log. Entries are replaced in place, so their tables' backing
	// arrays are reused, and Reseed keeps them: each is a function of q.
	geom    [2]geomMemo
	geomOld int
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
// geometric memo and its tables survive — they are keyed by value and
// recomputing them is bit-identical.
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
	// Inverse transform: floor(ln(U) / ln(1-p)) with U = r·2⁻⁵³ in (0,1),
	// where r is the PCG word rand.Rand.Float64 would consume.
	r := s.pcg.Uint64() << 11 >> 11
	for r == 0 {
		r = s.pcg.Uint64() << 11 >> 11
	}
	q := 1 - p
	m := &s.geom[0]
	if q != m.q {
		m = &s.geom[1]
	}
	if q == m.q {
		if k, ok := m.lookup(r); ok {
			return k
		}
	} else {
		m = &s.geom[s.geomOld]
		s.geomOld ^= 1
		m.q, m.logQ, m.stepsPerBit, m.t = q, math.Log(q), 0, 1<<53
		m.bounds = m.bounds[:0]
	}
	k := int64(math.Log(float64(r)/(1<<53)) / m.logQ)
	if k < 0 {
		k = 0
	}
	if k > cap40 {
		k = cap40
	}
	return k
}

// geomMemo is one memoized Geometric denominator q = 1−p with ln q and a
// table of the inverse transform's thresholds on r. The draw is k exactly
// when q^(k+1)·2⁵³ < r ≤ q^k·2⁵³, so bounds[k] brackets T = q^(k+1)·2⁵³
// by [lo, hi]: r > bounds[k].hi and r < bounds[k-1].lo answer k. The
// bracket is widened by 2⁻³⁰ of T plus two, far more than the formula's
// rounding (under 2⁻⁴⁴ of T: ln u is within an ulp, |ln u| ≤ 37 and T's
// k+1 products add an ulp each), so every answer outside the brackets is
// the formula's. An r inside a bracket or beyond geomTableLen steps falls
// back to the formula. The table grows lazily, one product per new step.
type geomMemo struct {
	q, logQ float64
	// stepsPerBit = −ln 2 / ln q is the run length that halving u adds.
	// The entry's first hit sets it and still draws by the formula, so an
	// entry hit only once builds nothing.
	stepsPerBit float64
	// t is the last threshold built, q^len(bounds)·2⁵³.
	t      float64
	bounds []geomBound
}

type geomBound struct{ lo, hi uint64 }

// geomTableLen caps a memo's table: at q = 0.9, the run-length complement
// of the paper's lowest p_t, a draw passes 64 steps with probability 0.1%.
const geomTableLen = 64

// lookup returns the draw for r, or false when the formula must decide.
// It starts from an estimate that the chord under log₂ on each octave of r
// keeps at or above the draw and, for q ≤ 0.9, at most one above it.
func (m *geomMemo) lookup(r uint64) (int64, bool) {
	if m.stepsPerBit == 0 {
		m.stepsPerBit = -math.Ln2 / m.logQ
		return 0, false
	}
	b := math.Float64bits(float64(r))
	e := int(b>>52) - 1023                        // ⌊log₂ r⌋
	f := float64(b&(1<<52-1)) * 0x1p-52           // r/2^e − 1 ≤ log₂(r/2^e)
	k := int((float64(53-e) - f) * m.stepsPerBit) // ≥ ⌊ln u / ln q⌋
	if uint(k) >= geomTableLen {
		return 0, false
	}
	for len(m.bounds) <= k {
		m.grow()
	}
	if r <= m.bounds[k].hi {
		return 0, false // in the bracket, or the estimate fell short
	}
	for ; k > 0; k-- {
		t := m.bounds[k-1]
		if r < t.lo {
			return int64(k), true
		}
		if r <= t.hi {
			return 0, false
		}
	}
	return 0, true
}

// grow appends the bracket of the next threshold.
func (m *geomMemo) grow() {
	m.t *= m.q
	t := m.t
	band := t*0x1p-30 + 2
	m.bounds = append(m.bounds, geomBound{lo: uint64(max(t-band, 0)), hi: uint64(t+band) + 1})
}
