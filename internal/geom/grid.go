package geom

import (
	"fmt"
	"math"
)

// Grid is a uniform-cell spatial index over a fixed set of points. It
// supports fixed-radius range queries in expected O(k) time for k results,
// which is the dominant query pattern of the carrier-sensing tracker (all
// nodes within PCR of a transmitter) and of unit-disk graph construction.
//
// The point set is immutable after construction; node positions in the
// paper's model never move.
type Grid struct {
	bounds   Rect
	cellSize float64
	cols     int
	rows     int
	// ids lists the indices (into points) cell by cell, ascending within
	// each cell: cell c holds ids[start[c]:start[c+1]]. A point's position
	// in ids is its rank, and rank is the inverse permutation.
	ids    []int32
	start  []int32
	rank   []int32
	points []Point
}

// NewGrid indexes points within bounds using square cells of side cellSize.
// cellSize is typically the query radius, so a radius query inspects at most
// nine cells. Points outside bounds are clamped into the boundary cells so
// that queries remain correct for slightly out-of-range coordinates.
func NewGrid(bounds Rect, cellSize float64, points []Point) (*Grid, error) {
	if cellSize <= 0 {
		return nil, fmt.Errorf("geom: cell size must be positive, got %v", cellSize)
	}
	if bounds.Width() <= 0 || bounds.Height() <= 0 {
		return nil, fmt.Errorf("geom: degenerate bounds %v", bounds)
	}
	cols := int(math.Ceil(bounds.Width() / cellSize))
	rows := int(math.Ceil(bounds.Height() / cellSize))
	if cols < 1 {
		cols = 1
	}
	if rows < 1 {
		rows = 1
	}
	g := &Grid{
		bounds:   bounds,
		cellSize: cellSize,
		cols:     cols,
		rows:     rows,
		ids:      make([]int32, len(points)),
		start:    make([]int32, cols*rows+1),
		rank:     make([]int32, len(points)),
		points:   make([]Point, len(points)),
	}
	copy(g.points, points)
	// Counting sort by cell: count, prefix-sum, then place in index order
	// (which advances start[c] to the end of cell c) and shift back.
	for _, p := range g.points {
		g.start[g.cellIndex(p)+1]++
	}
	for c := 1; c < len(g.start); c++ {
		g.start[c] += g.start[c-1]
	}
	for i, p := range g.points {
		c := g.cellIndex(p)
		g.ids[g.start[c]] = int32(i)
		g.rank[i] = g.start[c]
		g.start[c]++
	}
	copy(g.start[1:], g.start)
	g.start[0] = 0
	return g, nil
}

// Len returns the number of indexed points.
func (g *Grid) Len() int { return len(g.points) }

// Point returns the indexed point with the given index.
func (g *Grid) Point(i int) Point { return g.points[i] }

// Order returns every indexed point's index in rank order — by cell index,
// then by index within the cell. Within visits cells in ascending index and
// each cell lists its points in ascending index, so every Within result is
// strictly increasing in rank. The slice is the grid's own and must not be
// modified.
func (g *Grid) Order() []int32 { return g.ids }

// Ranks returns the inverse of Order: Ranks()[i] is point i's rank. The
// slice is the grid's own and must not be modified.
func (g *Grid) Ranks() []int32 { return g.rank }

func (g *Grid) cellCoords(p Point) (cx, cy int) {
	cx = int((p.X - g.bounds.MinX) / g.cellSize)
	cy = int((p.Y - g.bounds.MinY) / g.cellSize)
	if cx < 0 {
		cx = 0
	}
	if cx >= g.cols {
		cx = g.cols - 1
	}
	if cy < 0 {
		cy = 0
	}
	if cy >= g.rows {
		cy = g.rows - 1
	}
	return cx, cy
}

func (g *Grid) cellIndex(p Point) int {
	cx, cy := g.cellCoords(p)
	return cy*g.cols + cx
}

// Within appends to dst the indices of all indexed points q with
// Dist(center, q) <= radius and returns the extended slice. The center need
// not be an indexed point. Results are in rank order (see Order).
func (g *Grid) Within(center Point, radius float64, dst []int32) []int32 {
	if radius < 0 {
		return dst
	}
	r2 := radius * radius
	minCX := int((center.X - radius - g.bounds.MinX) / g.cellSize)
	maxCX := int((center.X + radius - g.bounds.MinX) / g.cellSize)
	minCY := int((center.Y - radius - g.bounds.MinY) / g.cellSize)
	maxCY := int((center.Y + radius - g.bounds.MinY) / g.cellSize)
	if minCX < 0 {
		minCX = 0
	}
	if minCY < 0 {
		minCY = 0
	}
	if maxCX >= g.cols {
		maxCX = g.cols - 1
	}
	if maxCY >= g.rows {
		maxCY = g.rows - 1
	}
	if minCX > maxCX {
		return dst
	}
	// The cells minCX..maxCX of one grid row are adjacent in ids.
	for cy := minCY; cy <= maxCY; cy++ {
		base := cy * g.cols
		for _, i := range g.ids[g.start[base+minCX]:g.start[base+maxCX+1]] {
			if g.points[i].Dist2(center) <= r2 {
				dst = append(dst, i)
			}
		}
	}
	return dst
}

// CountWithin returns the number of indexed points within radius of center.
func (g *Grid) CountWithin(center Point, radius float64) int {
	if radius < 0 {
		return 0
	}
	r2 := radius * radius
	minCX := int((center.X - radius - g.bounds.MinX) / g.cellSize)
	maxCX := int((center.X + radius - g.bounds.MinX) / g.cellSize)
	minCY := int((center.Y - radius - g.bounds.MinY) / g.cellSize)
	maxCY := int((center.Y + radius - g.bounds.MinY) / g.cellSize)
	if minCX < 0 {
		minCX = 0
	}
	if minCY < 0 {
		minCY = 0
	}
	if maxCX >= g.cols {
		maxCX = g.cols - 1
	}
	if maxCY >= g.rows {
		maxCY = g.rows - 1
	}
	if minCX > maxCX {
		return 0
	}
	count := 0
	for cy := minCY; cy <= maxCY; cy++ {
		base := cy * g.cols
		for _, i := range g.ids[g.start[base+minCX]:g.start[base+maxCX+1]] {
			if g.points[i].Dist2(center) <= r2 {
				count++
			}
		}
	}
	return count
}
