package geom

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func randomPoints(rnd *rand.Rand, bounds Rect, n int) []Point {
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{
			X: bounds.MinX + rnd.Float64()*bounds.Width(),
			Y: bounds.MinY + rnd.Float64()*bounds.Height(),
		}
	}
	return pts
}

func bruteWithin(points []Point, center Point, radius float64) []int32 {
	var out []int32
	r2 := radius * radius
	for i, p := range points {
		if p.Dist2(center) <= r2 {
			out = append(out, int32(i))
		}
	}
	return out
}

func sortedCopy(s []int32) []int32 {
	out := append([]int32(nil), s...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestNewGridValidation(t *testing.T) {
	if _, err := NewGrid(Square(10), 0, nil); err == nil {
		t.Error("zero cell size accepted")
	}
	if _, err := NewGrid(Square(10), -1, nil); err == nil {
		t.Error("negative cell size accepted")
	}
	if _, err := NewGrid(Rect{}, 1, nil); err == nil {
		t.Error("degenerate bounds accepted")
	}
}

func TestGridEmpty(t *testing.T) {
	g, err := NewGrid(Square(10), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 0 {
		t.Errorf("Len = %d, want 0", g.Len())
	}
	if got := g.Within(Point{5, 5}, 100, nil); len(got) != 0 {
		t.Errorf("Within on empty grid returned %v", got)
	}
	if idx, d := g.Nearest(Point{5, 5}); idx != -1 || !math.IsInf(d, 1) {
		t.Errorf("Nearest on empty grid = (%d, %v)", idx, d)
	}
}

func TestGridWithinMatchesBruteForce(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	bounds := Square(100)
	for trial := 0; trial < 50; trial++ {
		n := 1 + rnd.Intn(200)
		pts := randomPoints(rnd, bounds, n)
		cell := 1 + rnd.Float64()*20
		g, err := NewGrid(bounds, cell, pts)
		if err != nil {
			t.Fatal(err)
		}
		for q := 0; q < 10; q++ {
			center := Point{rnd.Float64() * 100, rnd.Float64() * 100}
			radius := rnd.Float64() * 50
			got := sortedCopy(g.Within(center, radius, nil))
			want := sortedCopy(bruteWithin(pts, center, radius))
			if len(got) != len(want) {
				t.Fatalf("trial %d: Within found %d points, brute force %d", trial, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("trial %d: Within mismatch at %d: %d vs %d", trial, i, got[i], want[i])
				}
			}
			if c := g.CountWithin(center, radius); c != len(want) {
				t.Fatalf("trial %d: CountWithin = %d, want %d", trial, c, len(want))
			}
		}
	}
}

func TestGridWithinOutOfBoundsCenter(t *testing.T) {
	rnd := rand.New(rand.NewSource(8))
	bounds := Square(50)
	pts := randomPoints(rnd, bounds, 100)
	g, err := NewGrid(bounds, 5, pts)
	if err != nil {
		t.Fatal(err)
	}
	// Query centers outside the indexed area must still be exact.
	centers := []Point{{-20, 25}, {70, 25}, {25, -20}, {25, 70}, {-5, -5}}
	for _, c := range centers {
		got := sortedCopy(g.Within(c, 30, nil))
		want := sortedCopy(bruteWithin(pts, c, 30))
		if len(got) != len(want) {
			t.Errorf("center %v: got %d points, want %d", c, len(got), len(want))
		}
	}
}

func TestGridWithinNegativeRadius(t *testing.T) {
	g, err := NewGrid(Square(10), 1, []Point{{5, 5}})
	if err != nil {
		t.Fatal(err)
	}
	if got := g.Within(Point{5, 5}, -1, nil); len(got) != 0 {
		t.Errorf("negative radius returned %v", got)
	}
	if c := g.CountWithin(Point{5, 5}, -1); c != 0 {
		t.Errorf("negative radius count = %d", c)
	}
}

func TestGridWithinRadiusBoundaryInclusive(t *testing.T) {
	pts := []Point{{0, 0}, {3, 0}}
	g, err := NewGrid(Rect{MinX: -1, MinY: -1, MaxX: 4, MaxY: 1}, 1, pts)
	if err != nil {
		t.Fatal(err)
	}
	got := g.Within(Point{0, 0}, 3, nil)
	if len(got) != 2 {
		t.Errorf("boundary point excluded: got %v", got)
	}
}

func TestGridNearestMatchesBruteForce(t *testing.T) {
	rnd := rand.New(rand.NewSource(9))
	bounds := Square(100)
	for trial := 0; trial < 30; trial++ {
		pts := randomPoints(rnd, bounds, 1+rnd.Intn(150))
		g, err := NewGrid(bounds, 1+rnd.Float64()*15, pts)
		if err != nil {
			t.Fatal(err)
		}
		for q := 0; q < 10; q++ {
			center := Point{rnd.Float64()*140 - 20, rnd.Float64()*140 - 20}
			bestI, bestD := -1, math.Inf(1)
			for i, p := range pts {
				if d := p.Dist(center); d < bestD {
					bestI, bestD = i, d
				}
			}
			gotI, gotD := g.Nearest(center)
			if math.Abs(gotD-bestD) > 1e-9 {
				t.Fatalf("trial %d: Nearest dist %v, want %v (idx %d vs %d)", trial, gotD, bestD, gotI, bestI)
			}
		}
	}
}

func TestGridPointAccessor(t *testing.T) {
	pts := []Point{{1, 1}, {2, 2}}
	g, err := NewGrid(Square(5), 1, pts)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 2 {
		t.Fatalf("Len = %d", g.Len())
	}
	if g.Point(1) != pts[1] {
		t.Errorf("Point(1) = %v", g.Point(1))
	}
	// The grid must hold a copy: mutating the input must not change it.
	pts[0].X = 99
	if g.Point(0).X == 99 {
		t.Error("grid aliases caller's point slice")
	}
}

func TestGridQuickWithinProperty(t *testing.T) {
	rnd := rand.New(rand.NewSource(10))
	f := func(seed int64, radiusRaw float64) bool {
		local := rand.New(rand.NewSource(seed))
		bounds := Square(60)
		pts := randomPoints(local, bounds, 1+local.Intn(60))
		g, err := NewGrid(bounds, 7, pts)
		if err != nil {
			return false
		}
		center := Point{local.Float64() * 60, local.Float64() * 60}
		radius := math.Mod(math.Abs(radiusRaw), 60)
		got := sortedCopy(g.Within(center, radius, nil))
		want := sortedCopy(bruteWithin(pts, center, radius))
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rnd}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestWithinFarOutside: a query disk entirely beyond a side of the bounds
// finds nothing (the column range is empty after clamping).
func TestWithinFarOutside(t *testing.T) {
	g, err := NewGrid(Square(50), 10, []Point{{X: 5, Y: 5}, {X: 45, Y: 45}, {X: 25, Y: 25}})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []Point{{X: 200, Y: 25}, {X: -200, Y: 25}, {X: 25, Y: 200}, {X: 25, Y: -200}} {
		if got := g.Within(c, 30, nil); len(got) != 0 {
			t.Errorf("Within(%v, 30) = %v, want none", c, got)
		}
		if got := g.CountWithin(c, 30); got != 0 {
			t.Errorf("CountWithin(%v, 30) = %d, want 0", c, got)
		}
	}
}

// Nearest returns the index of the indexed point closest to center and its
// distance. It returns (-1, +Inf) when the grid is empty. The search expands
// ring by ring, so typical cost is a handful of cells.
func (g *Grid) Nearest(center Point) (int, float64) {
	if len(g.points) == 0 {
		return -1, math.Inf(1)
	}
	cx, cy := g.cellCoords(center)
	best := -1
	bestD2 := math.Inf(1)
	maxRing := g.cols
	if g.rows > g.cols {
		maxRing = g.rows
	}
	for ring := 0; ring <= maxRing; ring++ {
		// Once a candidate is found, one extra ring suffices: any point in
		// a farther ring is at distance > (ring-1)*cellSize.
		if best >= 0 {
			minPossible := float64(ring-1) * g.cellSize
			if minPossible > 0 && minPossible*minPossible > bestD2 {
				break
			}
		}
		for dy := -ring; dy <= ring; dy++ {
			for dx := -ring; dx <= ring; dx++ {
				if abs(dx) != ring && abs(dy) != ring {
					continue // interior cells were scanned in earlier rings
				}
				x, y := cx+dx, cy+dy
				if x < 0 || x >= g.cols || y < 0 || y >= g.rows {
					continue
				}
				c := y*g.cols + x
				for _, i := range g.ids[g.start[c]:g.start[c+1]] {
					d2 := g.points[i].Dist2(center)
					if d2 < bestD2 {
						bestD2 = d2
						best = int(i)
					}
				}
			}
		}
	}
	return best, math.Sqrt(bestD2)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
