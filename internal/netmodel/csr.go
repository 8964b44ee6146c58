package netmodel

import (
	"fmt"
	"sync"

	"addcrn/internal/geom"
	"addcrn/internal/graphx"
)

// CSRTable is a compressed-sparse-row neighbor table over a static
// deployment: Row(i) lists the indices of secondary nodes within a fixed
// radius of source i, packed into one flat []int32 with an offsets array.
//
// The table is built once from the grid index and then read forever: a
// carrier-sense transition walks one contiguous row instead of re-running a
// grid range query over a deployment that never moves. Each row preserves
// the exact order geom.Grid.Within returns for the same query, so replacing
// a per-event grid query with a row walk is bit-identical — observer
// callbacks fire in the same sequence. That order is ascending grid rank
// (geom.Grid.Order).
type CSRTable struct {
	// offsets has len(sources)+1 entries; row i spans
	// flat[offsets[i]:offsets[i+1]].
	offsets []int32
	flat    []int32
}

// NumRows returns the number of sources the table was built over.
func (t *CSRTable) NumRows() int { return len(t.offsets) - 1 }

// Row returns source i's neighbor indices. The returned slice aliases the
// table's backing array and must not be modified.
func (t *CSRTable) Row(i int32) []int32 { return t.flat[t.offsets[i]:t.offsets[i+1]] }

// Len returns the total number of (source, neighbor) pairs stored.
func (t *CSRTable) Len() int { return len(t.flat) }

// BuildCSR packs, for every source point, the indices of grid-indexed
// points within radius into one CSR table. Row order matches Grid.Within's
// result order for the same query (boundary distances at exactly radius
// included), which is what keeps the fast path bit-identical to per-event
// grid queries.
func BuildCSR(grid *geom.Grid, sources []geom.Point, radius float64) (*CSRTable, error) {
	if grid == nil {
		return nil, fmt.Errorf("netmodel: BuildCSR on nil grid")
	}
	if radius < 0 {
		return nil, fmt.Errorf("netmodel: BuildCSR radius must be non-negative, got %v", radius)
	}
	// Count the entries first so the table is allocated once at its exact
	// size, leaving no outgrown backing arrays behind as garbage.
	size := 0
	for _, p := range sources {
		size += grid.CountWithin(p, radius)
	}
	t := &CSRTable{
		offsets: make([]int32, len(sources)+1),
		flat:    make([]int32, 0, size),
	}
	for i, p := range sources {
		t.flat = grid.Within(p, radius, t.flat)
		t.offsets[i+1] = int32(len(t.flat))
	}
	return t, nil
}

// derived memoizes the graphs a deployment's fixed positions determine:
// the SU unit-disk adjacency and the CSR neighbor tables, one per radius.
// The mutex is held across each build, so concurrent callers (the workers of
// a sweep sharing one topology) wait for a single build instead of racing
// duplicates. Every memoized graph is immutable once built.
type derived struct {
	mu     sync.Mutex
	adj    graphx.Adjacency
	su, pu map[float64]*CSRTable
}

// Adjacency returns the SU unit-disk graph at the communication radius r
// (base station included), built on first use and shared by every later
// caller and every WithParams copy. It is read-only.
func (nw *Network) Adjacency() graphx.Adjacency {
	d := nw.derived
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.adj == nil {
		adj, err := graphx.UnitDisk(nw.Bounds(), nw.SU, nw.Params.RadiusSU)
		if err != nil {
			// buildGrids built the SU grid from these same arguments.
			panic(fmt.Sprintf("netmodel: adjacency of a built network: %v", err))
		}
		d.adj = adj
	}
	return d.adj
}

// SUNeighborTable returns the SU→SU CSR table, built once per radius: row i
// lists every secondary node (base station included) within radius of SU i
// — including SU i itself, matching what a grid query centered on the node
// returns; callers that need the open neighborhood skip the self entry.
func (nw *Network) SUNeighborTable(radius float64) (*CSRTable, error) {
	return nw.derived.table(&nw.derived.su, nw.SUGrid, nw.SU, radius)
}

// PUNeighborTable returns the PU→SU CSR table, built once per radius: row i
// lists every secondary node within radius of PU i.
func (nw *Network) PUNeighborTable(radius float64) (*CSRTable, error) {
	return nw.derived.table(&nw.derived.pu, nw.SUGrid, nw.PU, radius)
}

// table returns (*m)[radius], building and storing it on a miss. Errors are
// not stored.
func (d *derived) table(m *map[float64]*CSRTable, grid *geom.Grid, sources []geom.Point, radius float64) (*CSRTable, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if t, ok := (*m)[radius]; ok {
		return t, nil
	}
	t, err := BuildCSR(grid, sources, radius)
	if err != nil {
		return nil, err
	}
	if *m == nil {
		*m = make(map[float64]*CSRTable)
	}
	(*m)[radius] = t
	return t, nil
}
