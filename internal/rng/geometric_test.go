package rng

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
)

// geometricRef is Geometric without memo or table: the inverse transform
// on one Float64 word, clamped to [0, 2⁴⁰].
func geometricRef(rnd *rand.Rand, p float64) int64 {
	switch {
	case p >= 1:
		return 0
	case p <= 0:
		return 1 << 40
	}
	u := rnd.Float64()
	for u == 0 {
		u = rnd.Float64()
	}
	return min(max(int64(math.Log(u)/math.Log(1-p)), 0), 1<<40)
}

// formulaAt is geometricRef's answer for the 53-bit word r.
func formulaAt(r uint64, q float64) int64 {
	return min(max(int64(math.Log(float64(r)/(1<<53))/math.Log(q)), 0), 1<<40)
}

// fullMemo returns q's memo entry with its whole table built.
func fullMemo(q float64) *geomMemo {
	m := &geomMemo{q: q, logQ: math.Log(q), t: 1 << 53}
	m.stepsPerBit = -math.Ln2 / m.logQ
	for len(m.bounds) < geomTableLen {
		m.grow()
	}
	return m
}

// checkTableAt fails if q's table answers the 53-bit word r differently
// from the formula, and reports whether the table answered.
func checkTableAt(t testing.TB, m *geomMemo, r uint64) bool {
	if r == 0 || r >= 1<<53 {
		return false
	}
	k, ok := m.lookup(r)
	if ok && k != formulaAt(r, m.q) {
		t.Fatalf("q=%v r=%d: table %d, formula %d", m.q, r, k, formulaAt(r, m.q))
	}
	return ok
}

// checkStream draws Geometric from src and geometricRef from twin, seeded
// alike, cycling through ps and interleaving Float64 and UniformInt draws,
// and fails on the first differing value.
func checkStream(t testing.TB, seed uint64, ps []float64, draws int) {
	src, twin := New(seed), New(seed)
	for i := range draws {
		p := ps[i%len(ps)]
		if got, want := src.Geometric(p), geometricRef(twin.rnd, p); got != want {
			t.Fatalf("seed %d draw %d: Geometric(%v) = %d, formula %d", seed, i, p, got, want)
		}
		switch i % 5 {
		case 1:
			if got, want := src.Float64(), twin.Float64(); got != want {
				t.Fatalf("seed %d draw %d: Float64 %v after Geometric, twin %v", seed, i, got, want)
			}
		case 3:
			if got, want := src.UniformInt(2, 40), twin.UniformInt(2, 40); got != want {
				t.Fatalf("seed %d draw %d: UniformInt %d after Geometric, twin %d", seed, i, got, want)
			}
		}
	}
}

var geomTestPs = []float64{0.1, 0.3, 0.5, 0.7, 0.9, 1 - 0.7, 1 - 0.3, 1e-6, 1 - 1e-6}

// TestGeometricMatchesFormula pins the table draw to the log formula: at
// every word within 4096 of each bracket edge and each threshold, at over
// 10⁷ random words across the probabilities, and through Sources that
// interleave Geometric with Float64 and UniformInt, which must consume the
// same PCG words as the formula.
func TestGeometricMatchesFormula(t *testing.T) {
	const randomPerP = 1_200_000
	for i, p := range geomTestPs {
		m := fullMemo(1 - p)
		for _, b := range m.bounds {
			for d := uint64(0); d <= 4096; d++ {
				for _, edge := range []uint64{b.lo, b.hi, (b.lo + b.hi) / 2} {
					checkTableAt(t, m, edge+d)
					checkTableAt(t, m, edge-d)
				}
			}
		}
		src := New(uint64(i) + 101)
		answered := 0
		for range randomPerP {
			if checkTableAt(t, m, src.Uint64()>>11) {
				answered++
			}
		}
		// At q ≤ 0.9 a draw passes the table's 64 steps with probability
		// 0.1%: the table, not the fallback, must answer.
		if q := 1 - p; q <= 0.9 && answered < randomPerP*99/100 {
			t.Errorf("q=%v: the table answered %d of %d draws", q, answered, randomPerP)
		}
	}
	for seed := uint64(1); seed <= 3; seed++ {
		checkStream(t, seed, []float64{0.3, 0.7}, 20000)
		checkStream(t, seed, []float64{0.1, 0.9, 0.1, 0.9, 0.5}, 20000)
		checkStream(t, seed, append(geomTestPs, math.NaN(), -0.5, 0, 1, 1.5, 1e-17), 20000)
	}
}

// FuzzGeometric checks the table draw against the log formula at a fuzzed
// probability and word, and a fuzzed Source's interleaved stream against
// its twin's formula draws; p may be NaN, infinite or outside (0, 1).
func FuzzGeometric(f *testing.F) {
	for i, p := range append(geomTestPs, math.NaN(), math.Inf(1), math.Inf(-1), -0.5, 0, 1, 1.5, 1e-17) {
		f.Add(p, uint64(i)*0x9e3779b97f4a7c15, uint64(i))
	}
	f.Fuzz(func(t *testing.T, p float64, r, seed uint64) {
		if q := 1 - p; q > 0 && q < 1 {
			m := fullMemo(q)
			checkTableAt(t, m, r>>11)
			for _, b := range m.bounds {
				checkTableAt(t, m, b.lo+r%64)
				checkTableAt(t, m, b.hi-r%64)
			}
		}
		checkStream(t, seed, []float64{p, 1 - p, p, p, 0.3}, 64)
	})
}

var geomSink int64

// BenchmarkGeometric times one draw in the exact model's pattern, which
// alternates p_t and 1−p_t on one stream, at the paper's p_t range, and in
// a per-node pattern, where each draw's p is one of 1024 blocking
// probabilities 1−(1−p_t)^k or their complements.
func BenchmarkGeometric(b *testing.B) {
	for _, pt := range []float64{0.1, 0.3, 0.5} {
		b.Run(fmt.Sprintf("alternating/pt=%v", pt), func(b *testing.B) {
			src := New(1)
			ps := [2]float64{pt, 1 - pt}
			for i := 0; i < b.N; i++ {
				geomSink += src.Geometric(ps[i&1])
			}
		})
	}
	b.Run("per-node", func(b *testing.B) {
		pick := New(2)
		ps := make([]float64, 1024)
		for i := range ps {
			q := 1 - math.Pow(0.7, float64(pick.UniformInt(1, 6)))
			if pick.Bernoulli(0.5) {
				q = 1 - q
			}
			ps[i] = q
		}
		src := New(1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			geomSink += src.Geometric(ps[i&1023])
		}
	})
}
