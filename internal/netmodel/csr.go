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
// It is the intermediate form the network's RankBits are encoded from.
// Each row preserves the exact order geom.Grid.Within returns for the same
// query: ascending grid rank (geom.Grid.Order).
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

// BuildCSR packs, for every source point, the indices of grid-indexed
// points within radius into one CSR table. Row order matches Grid.Within's
// result order for the same query (boundary distances at exactly radius
// included).
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

// RankBits re-encodes a CSR table's rows as bitsets over SU grid rank
// (geom.Grid.Ranks), the form a carrier-sense walk intersects with other
// rank bitsets word by word. Since a CSR row is strictly increasing
// in rank, visiting a row's set bits in ascending order visits its nodes in
// row order. A RankBits is immutable once built and must not be modified.
type RankBits struct {
	// Words is the length of one rank bitset: ⌈NumNodes/64⌉.
	Words int
	// Rows[i*Words:(i+1)*Words] is source i's row, and its set bits lie in
	// the words Span[2i] up to Span[2i+1] (equal for an empty row). An SU
	// row leaves out the source's own bit.
	Rows []uint64
	Span []int32
	// Cover[id*CoverWords:(id+1)*CoverWords] holds, for a PU table, the
	// primary users whose row contains SU id (bit i for PU i). An SU table
	// has none: it is symmetric, so row id is already the set of SUs whose
	// row contains id. Touch[k*CoverWords:(k+1)*CoverWords] holds, for a
	// PU table, the primary users whose row has a bit in word k.
	CoverWords int
	Cover      []uint64
	Touch      []uint64
}

// newRankBits encodes tab, whose rows hold indices into ranks, as rank
// bitsets. su says the sources are the SUs themselves: rows then drop the
// self entry, and the table must be symmetric.
func newRankBits(tab *CSRTable, ranks []int32, su bool) (*RankBits, error) {
	np, w := tab.NumRows(), (len(ranks)+63)/64
	b := &RankBits{Words: w, Rows: make([]uint64, np*w), Span: make([]int32, 2*np)}
	for i := range np {
		set := b.Rows[i*w : (i+1)*w]
		prev := int32(-1)
		for _, id := range tab.Row(int32(i)) {
			r := ranks[id]
			if r <= prev {
				panic(fmt.Sprintf("netmodel: row %d of a CSR table is not in grid rank order", i))
			}
			prev = r
			if su && id == int32(i) {
				continue
			}
			if b.Span[2*i+1] == 0 {
				b.Span[2*i] = r >> 6
			}
			b.Span[2*i+1] = r>>6 + 1
			set[r>>6] |= 1 << (r & 63)
		}
	}
	if su {
		// Within includes a point by its distance from the center, which is
		// symmetric; only its cell pruning could break that, by rounding.
		for v := range np {
			r := ranks[v]
			for _, u := range tab.Row(int32(v)) {
				if u != int32(v) && b.Rows[int(u)*w+int(r>>6)]&(1<<(r&63)) == 0 {
					return nil, fmt.Errorf("netmodel: SU table is not symmetric: %d is in %d's row but not %d in %d's", u, v, v, u)
				}
			}
		}
		return b, nil
	}
	m := (np + 63) / 64
	b.CoverWords, b.Cover, b.Touch = m, make([]uint64, len(ranks)*m), make([]uint64, w*m)
	for i := range np {
		for _, id := range tab.Row(int32(i)) {
			b.Cover[int(id)*m+i>>6] |= 1 << (i & 63)
			b.Touch[int(ranks[id]>>6)*m+i>>6] |= 1 << (i & 63)
		}
	}
	return b, nil
}

// derived memoizes the graphs a deployment's fixed positions determine:
// the SU unit-disk adjacency and the rank-bitset neighbor rows, one set per
// radius. The mutex is held across each build, so concurrent callers (the
// workers of a sweep sharing one topology) wait for a single build instead
// of racing duplicates. Every memoized graph is immutable once built.
type derived struct {
	mu             sync.Mutex
	adj            graphx.Adjacency
	suBits, puBits map[float64]*RankBits
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

// SUNeighborBits returns the SU→SU neighbor rows at radius as rank
// bitsets, built once per radius and shared by every later caller and
// every WithParams copy: row i holds every secondary node (base station
// included) within radius of SU i, except SU i itself. It fails if the
// rows are not symmetric, which the carrier-sense walks rely on.
func (nw *Network) SUNeighborBits(radius float64) (*RankBits, error) {
	return nw.derived.bits(&nw.derived.suBits, nw.SUGrid, nw.SU, radius, true)
}

// PUNeighborBits returns the PU→SU neighbor rows at radius as rank bitsets,
// built once per radius and shared like the SU rows: row i holds every
// secondary node within radius of PU i.
func (nw *Network) PUNeighborBits(radius float64) (*RankBits, error) {
	return nw.derived.bits(&nw.derived.puBits, nw.SUGrid, nw.PU, radius, false)
}

// bits returns (*m)[radius], building the CSR table over sources and
// encoding it on a miss; the table itself is not kept.
func (d *derived) bits(m *map[float64]*RankBits, grid *geom.Grid, sources []geom.Point, radius float64, su bool) (*RankBits, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if b, ok := (*m)[radius]; ok {
		return b, nil
	}
	tab, err := BuildCSR(grid, sources, radius)
	if err != nil {
		return nil, err
	}
	b, err := newRankBits(tab, grid.Ranks(), su)
	if err != nil {
		return nil, err
	}
	if *m == nil {
		*m = make(map[float64]*RankBits)
	}
	(*m)[radius] = b
	return b, nil
}
