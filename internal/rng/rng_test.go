package rng

import (
	"fmt"
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("sources with equal seeds diverged at draw %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds produced %d/100 identical draws", same)
	}
}

func TestChildDeterministic(t *testing.T) {
	a := New(7).Child("x")
	b := New(7).Child("x")
	for i := 0; i < 50; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("children with equal labels diverged")
		}
	}
}

func TestChildrenIndependent(t *testing.T) {
	parent := New(7)
	a := parent.Child("alpha")
	b := parent.Child("beta")
	if a.Seed() == b.Seed() {
		t.Error("distinct labels produced equal child seeds")
	}
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("sibling children produced %d/100 identical draws", same)
	}
}

func TestChildNDistinct(t *testing.T) {
	parent := New(9)
	seen := make(map[uint64]bool)
	for i := 0; i < 100; i++ {
		s := parent.ChildN("rep", i).Seed()
		if seen[s] {
			t.Fatalf("duplicate child seed at index %d", i)
		}
		seen[s] = true
	}
}

func TestChildDoesNotConsumeParentStream(t *testing.T) {
	a := New(11)
	b := New(11)
	_ = a.Child("side")
	for i := 0; i < 10; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("deriving a child perturbed the parent stream")
		}
	}
}

func TestBernoulli(t *testing.T) {
	src := New(1)
	if src.Bernoulli(0) {
		t.Error("Bernoulli(0) returned true")
	}
	if !src.Bernoulli(1) {
		t.Error("Bernoulli(1) returned false")
	}
	if src.Bernoulli(-0.5) {
		t.Error("Bernoulli(-0.5) returned true")
	}
	if !src.Bernoulli(1.5) {
		t.Error("Bernoulli(1.5) returned false")
	}
	// The hit count of n draws is Binomial(n, p): it must land within 5σ.
	const n = 1000000
	for _, p := range []float64{0.01, 0.3, 0.5, 0.9} {
		hits := 0
		for i := 0; i < n; i++ {
			if src.Bernoulli(p) {
				hits++
			}
		}
		if dev, sigma := float64(hits)-n*p, math.Sqrt(n*p*(1-p)); math.Abs(dev) > 5*sigma {
			t.Errorf("Bernoulli(%v): %d hits in %d draws, %.1fσ from the mean", p, hits, n, dev/sigma)
		}
	}
}

func TestUniformInt(t *testing.T) {
	src := New(2)
	seen := make(map[int64]int)
	for i := 0; i < 60000; i++ {
		v := src.UniformInt(1, 6)
		if v < 1 || v > 6 {
			t.Fatalf("UniformInt out of range: %d", v)
		}
		seen[v]++
	}
	for v := int64(1); v <= 6; v++ {
		freq := float64(seen[v]) / 60000
		if math.Abs(freq-1.0/6) > 0.02 {
			t.Errorf("value %d frequency %v, want ~1/6", v, freq)
		}
	}
	if got := src.UniformInt(5, 5); got != 5 {
		t.Errorf("UniformInt(5,5) = %d", got)
	}
}

func TestUniformIntPanicsOnBadRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("UniformInt(hi<lo) did not panic")
		}
	}()
	New(1).UniformInt(3, 2)
}

func TestGeometricEdgeCases(t *testing.T) {
	src := New(3)
	if got := src.Geometric(1); got != 0 {
		t.Errorf("Geometric(1) = %d, want 0", got)
	}
	if got := src.Geometric(1.5); got != 0 {
		t.Errorf("Geometric(1.5) = %d, want 0", got)
	}
	if got := src.Geometric(0); got != 1<<40 {
		t.Errorf("Geometric(0) = %d, want cap", got)
	}
	if got := src.Geometric(-0.1); got != 1<<40 {
		t.Errorf("Geometric(-0.1) = %d, want cap", got)
	}
}

func TestGeometricMean(t *testing.T) {
	// Failures before the first success, with q = 1-p: mean q/p, variance
	// q/p², and fourth central moment σ⁴(9 + p²/q). Over n draws the sample
	// mean has standard error sqrt(q/p²/n) and the sample variance
	// sqrt(σ⁴(8 + p²/q)/n); both must land within 5 standard errors.
	const n = 1000000
	for _, p := range []float64{0.01, 0.1, 0.5, 0.9} {
		src := New(uint64(p*1000) + 17)
		var sum, sumSq float64
		for i := 0; i < n; i++ {
			k := float64(src.Geometric(p))
			sum += k
			sumSq += k * k
		}
		q := 1 - p
		mean := sum / n
		variance := (sumSq - sum*mean) / (n - 1)
		wantMean, wantVar := q/p, q/(p*p)
		if se := math.Sqrt(wantVar / n); math.Abs(mean-wantMean) > 5*se {
			t.Errorf("Geometric(%v) mean %v, want %v ± 5×%v", p, mean, wantMean, se)
		}
		if se := math.Sqrt(wantVar * wantVar * (8 + p*p/q) / n); math.Abs(variance-wantVar) > 5*se {
			t.Errorf("Geometric(%v) variance %v, want %v ± 5×%v", p, variance, wantVar, se)
		}
	}
}

func TestGeometricMatchesBernoulliRuns(t *testing.T) {
	// The geometric sampler must reproduce the distribution of run lengths
	// of i.i.d. Bernoulli slots: P(G = 0) = p.
	src := New(4)
	p := 0.4
	n := 100000
	zero := 0
	for i := 0; i < n; i++ {
		if src.Geometric(p) == 0 {
			zero++
		}
	}
	freq := float64(zero) / float64(n)
	if math.Abs(freq-p) > 0.01 {
		t.Errorf("P(G=0) = %v, want ~%v", freq, p)
	}
}

func TestPerm(t *testing.T) {
	src := New(5)
	perm := src.Perm(10)
	if len(perm) != 10 {
		t.Fatalf("Perm length %d", len(perm))
	}
	seen := make([]bool, 10)
	for _, v := range perm {
		if v < 0 || v >= 10 || seen[v] {
			t.Fatalf("invalid permutation %v", perm)
		}
		seen[v] = true
	}
}

func TestIntnAndInt63n(t *testing.T) {
	src := New(6)
	for i := 0; i < 1000; i++ {
		if v := src.Intn(7); v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		if v := src.Int63n(9); v < 0 || v >= 9 {
			t.Fatalf("Int63n out of range: %d", v)
		}
	}
}

func TestMixAvalanche(t *testing.T) {
	// Flipping one input bit should change roughly half the output bits.
	base := mix(12345, 67890)
	diffBits := 0
	for bit := 0; bit < 64; bit++ {
		out := mix(12345^(1<<uint(bit)), 67890)
		x := base ^ out
		for ; x != 0; x &= x - 1 {
			diffBits++
		}
	}
	avg := float64(diffBits) / 64
	if avg < 20 || avg > 44 {
		t.Errorf("avalanche average %v bits, want ~32", avg)
	}
}

func TestReseedMatchesNew(t *testing.T) {
	// One source re-seeded in place, after arbitrary prior draws, must
	// replay exactly the stream a freshly built source yields.
	reused := New(0)
	for seed := uint64(0); seed < 200; seed++ {
		_ = reused.Intn(int(seed) + 1) // leave reused mid-stream
		s := seed*0x9e3779b97f4a7c15 + seed
		reused.Reseed(s)
		fresh := New(s)
		if reused.Seed() != fresh.Seed() {
			t.Fatalf("seed %d: Seed() %d after Reseed, want %d", s, reused.Seed(), fresh.Seed())
		}
		for i := 0; i < 10000; i++ {
			if a, b := reused.Uint64(), fresh.Uint64(); a != b {
				t.Fatalf("seed %d: reseeded stream diverged at draw %d", s, i)
			}
		}
	}
}

func TestIntnChiSquare(t *testing.T) {
	// Pearson's χ² over 37 equiprobable cells has 36 degrees of freedom;
	// its 0.999 quantile is 67.985.
	const cells, n = 37, 370000
	src := New(37)
	var counts [cells]int
	for i := 0; i < n; i++ {
		counts[src.Intn(cells)]++
	}
	want := float64(n) / cells
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - want
		chi2 += d * d / want
	}
	if chi2 > 67.985 {
		t.Errorf("Intn(%d): χ² = %.1f over %d draws exceeds the 0.999 quantile 67.985", cells, chi2, n)
	}
}

func TestChildSeedNDistinct(t *testing.T) {
	// Every (label, n) pair of a sweep-sized grid must derive its own seed.
	type pair struct{ label, n int }
	seen := make(map[uint64]pair, 100000)
	for l := 0; l < 10; l++ {
		label := fmt.Sprintf("sweep/6a/x%d", l)
		for n := 0; n < 10000; n++ {
			s := ChildSeedN(1, label, n)
			if prev, dup := seen[s]; dup {
				t.Fatalf("ChildSeedN(1, %q, %d) repeats the seed of x%d, n=%d", label, n, prev.label, prev.n)
			}
			seen[s] = pair{l, n}
		}
	}
}

// seedSink keeps the seeding benchmarks' results live, so the compiler
// cannot elide the work they measure.
var (
	seedSink   *Source
	uint64Sink uint64
)

func BenchmarkSeedNew(b *testing.B) {
	for i := 0; i < b.N; i++ {
		seedSink = New(uint64(i))
	}
}

// BenchmarkSeedReseed times re-seeding a retained source plus its first
// draw — the per-run cost of every run root and component stream.
func BenchmarkSeedReseed(b *testing.B) {
	src := New(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.Reseed(uint64(i))
		uint64Sink += src.Uint64()
	}
}

// TestGeometricMemoMatchesDirect: the spectrum model draws Geometric(p_t)
// and Geometric(1−p_t) alternately from one stream, now and then another
// probability; the memoized ln(1−p) must give exactly the samples of the
// uncached inverse transform computed from a twin stream.
func TestGeometricMemoMatchesDirect(t *testing.T) {
	src, twin := New(29), New(29)
	ps := []float64{0.3, 0.7, 0.3, 0.7, 0.01, 0.7, 0.3, 1, 0.99, 0, 0.3, 0.7, 1e-9}
	for i := 0; i < 20000; i++ {
		p := ps[i%len(ps)]
		got := src.Geometric(p)
		var want int64
		switch {
		case p >= 1:
			want = 0
		case p <= 0:
			want = 1 << 40
		default:
			u := twin.Float64()
			for u == 0 {
				u = twin.Float64()
			}
			want = min(max(int64(math.Log(u)/math.Log(1-p)), 0), 1<<40)
		}
		if got != want {
			t.Fatalf("draw %d: Geometric(%v) = %d, direct formula %d", i, p, got, want)
		}
	}
}
