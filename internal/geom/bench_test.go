package geom

import (
	"math/rand"
	"testing"
)

func benchGrid(b *testing.B, n int) (*Grid, []Point) {
	b.Helper()
	rnd := rand.New(rand.NewSource(1))
	bounds := Square(250)
	pts := randomPoints(rnd, bounds, n)
	g, err := NewGrid(bounds, 10, pts)
	if err != nil {
		b.Fatal(err)
	}
	queries := randomPoints(rnd, bounds, 1024)
	return g, queries
}

// BenchmarkGridWithin measures the fixed-radius query on the hot-path
// density (the carrier-sense tracker's workload).
func BenchmarkGridWithin(b *testing.B) {
	g, queries := benchGrid(b, 2000)
	var buf []int32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = g.Within(queries[i%len(queries)], 39, buf[:0])
	}
	_ = buf
}

// BenchmarkGridCountWithin measures the counting variant used by the
// Coolest temperature computation and the CSR tables' sizing pass.
func BenchmarkGridCountWithin(b *testing.B) {
	g, queries := benchGrid(b, 2000)
	b.ResetTimer()
	var total int
	for i := 0; i < b.N; i++ {
		total += g.CountWithin(queries[i%len(queries)], 39)
	}
	_ = total
}

// BenchmarkGridNearest measures nearest-neighbor lookup.
func BenchmarkGridNearest(b *testing.B) {
	g, queries := benchGrid(b, 2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Nearest(queries[i%len(queries)])
	}
}
