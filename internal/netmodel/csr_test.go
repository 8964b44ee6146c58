package netmodel

import (
	"math/bits"
	"reflect"
	"sort"
	"sync"
	"testing"

	"addcrn/internal/geom"
	"addcrn/internal/graphx"
	"addcrn/internal/rng"
)

// sortedCopy returns a sorted copy of ids for order-insensitive comparison.
func sortedCopy(ids []int32) []int32 {
	out := append([]int32(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func equalInt32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestCSRMatchesGridWithinRandom: for random deployments and random radii,
// every CSR row over the SUs and over the PUs must contain exactly the
// index set a live grid query returns, in the grid's result order.
func TestCSRMatchesGridWithinRandom(t *testing.T) {
	src := rng.New(42)
	for trial := 0; trial < 20; trial++ {
		p := ScaledDefaultParams()
		p.NumSU = 20 + src.Intn(120)
		p.NumPU = 1 + src.Intn(20)
		p.Area = 40 + src.Float64()*80
		nw, err := Deploy(p, src.ChildN("deploy", trial))
		if err != nil {
			t.Fatal(err)
		}
		// Random radius from a fraction of r to several r, crossing grid
		// cell boundaries both ways.
		radius := p.RadiusSU * (0.3 + 3*src.Float64())

		suTab, err := BuildCSR(nw.SUGrid, nw.SU, radius)
		if err != nil {
			t.Fatal(err)
		}
		puTab, err := BuildCSR(nw.SUGrid, nw.PU, radius)
		if err != nil {
			t.Fatal(err)
		}
		if suTab.NumRows() != nw.NumNodes() || puTab.NumRows() != len(nw.PU) {
			t.Fatalf("trial %d: row counts su=%d pu=%d, want %d and %d",
				trial, suTab.NumRows(), puTab.NumRows(), nw.NumNodes(), len(nw.PU))
		}

		var buf []int32
		for i := 0; i < nw.NumNodes(); i++ {
			buf = nw.SUGrid.Within(nw.SU[i], radius, buf[:0])
			row := suTab.Row(int32(i))
			if !equalInt32(sortedCopy(row), sortedCopy(buf)) {
				t.Fatalf("trial %d: SU row %d = %v, grid says %v", trial, i, row, buf)
			}
			if !equalInt32(row, buf) {
				t.Fatalf("trial %d: SU row %d order %v differs from grid order %v",
					trial, i, row, buf)
			}
		}
		for i := range nw.PU {
			buf = nw.SUGrid.Within(nw.PU[i], radius, buf[:0])
			row := puTab.Row(int32(i))
			if !equalInt32(row, buf) {
				t.Fatalf("trial %d: PU row %d = %v, grid says %v", trial, i, row, buf)
			}
		}
	}
}

// TestCSRBoundaryAtExactRadius pins the closed-ball contract: a neighbor at
// distance exactly radius is included, one epsilon beyond is not.
func TestCSRBoundaryAtExactRadius(t *testing.T) {
	p := ScaledDefaultParams()
	p.NumSU = 3
	p.NumPU = 1
	p.Area = 50
	radius := 10.0
	su := []geom.Point{
		{X: 25, Y: 25},                 // base station
		{X: 25 + radius, Y: 25},        // at exactly radius from the BS
		{X: 25, Y: 25 + radius + 1e-9}, // just outside
		{X: 30, Y: 25},                 // well inside
	}
	pu := []geom.Point{{X: 25 - radius, Y: 25}} // BS at exactly radius from PU
	nw, err := NewCustomNetwork(p, su, pu)
	if err != nil {
		t.Fatal(err)
	}
	suTab, err := BuildCSR(nw.SUGrid, nw.SU, radius)
	if err != nil {
		t.Fatal(err)
	}
	row := sortedCopy(suTab.Row(0))
	want := []int32{0, 1, 3} // self, boundary node, inside node; not the outside one
	if !equalInt32(row, want) {
		t.Fatalf("BS row = %v, want %v", row, want)
	}
	puTab, err := BuildCSR(nw.SUGrid, nw.PU, radius)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, v := range puTab.Row(0) {
		if v == 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("PU row %v misses the base station at distance exactly radius", puTab.Row(0))
	}
}

// TestSUNeighborsOrderPreserving: removing the query node from its own
// neighborhood must not perturb the order of the remaining entries.
func TestSUNeighborsOrderPreserving(t *testing.T) {
	p := ScaledDefaultParams()
	p.NumSU = 80
	p.Area = 60
	nw, err := Deploy(p, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	var raw, nbrs []int32
	for id := 0; id < nw.NumNodes(); id++ {
		raw = nw.SUGrid.Within(nw.SU[id], p.RadiusSU, raw[:0])
		nbrs = nw.SUNeighbors(id, p.RadiusSU, nbrs[:0])
		// nbrs must be raw with the single id entry deleted, order intact.
		want := raw[:0:0]
		for _, v := range raw {
			if int(v) != id {
				want = append(want, v)
			}
		}
		if !equalInt32(nbrs, want) {
			t.Fatalf("node %d: SUNeighbors %v, want grid order minus self %v", id, nbrs, want)
		}
	}
}

// rankOf inverts a grid's rank order: rank[id] is id's position in
// g.Order. It also checks that the grid's own Ranks agrees.
func rankOf(t *testing.T, g *geom.Grid) []int32 {
	t.Helper()
	order := g.Order()
	if len(order) != g.Len() {
		t.Fatalf("Order lists %d points, want %d", len(order), g.Len())
	}
	rank := make([]int32, g.Len())
	for r, id := range order {
		rank[id] = int32(r)
	}
	if !equalInt32(rank, g.Ranks()) {
		t.Fatal("Ranks is not the inverse of Order")
	}
	return rank
}

// checkRowsAscendInRank fails unless every row of tab is strictly
// increasing in rank — the invariant the tracker's rank-bitset walks rely
// on to visit nodes in row order.
func checkRowsAscendInRank(t *testing.T, label string, tab *CSRTable, rank []int32) {
	t.Helper()
	for i := 0; i < tab.NumRows(); i++ {
		row := tab.Row(int32(i))
		for k := 1; k < len(row); k++ {
			if rank[row[k-1]] >= rank[row[k]] {
				t.Fatalf("%s row %d: entries %d and %d have ranks %d, %d, not increasing",
					label, i, row[k-1], row[k], rank[row[k-1]], rank[row[k]])
			}
		}
	}
}

// TestCSRRowsAscendInGridRank pins the rank-order invariant: every SU→SU
// and PU→SU row lists its nodes in strictly increasing Grid.Order rank, for
// random deployments and for point sets with entries on and beyond the
// bounds, which the grid clamps into its boundary cells.
func TestCSRRowsAscendInGridRank(t *testing.T) {
	src := rng.New(17)
	for trial := 0; trial < 20; trial++ {
		p := ScaledDefaultParams()
		p.NumSU = 20 + src.Intn(200)
		p.NumPU = 1 + src.Intn(40)
		p.Area = 40 + src.Float64()*80
		nw, err := Deploy(p, src.ChildN("deploy", trial))
		if err != nil {
			t.Fatal(err)
		}
		rank := rankOf(t, nw.SUGrid)
		radius := p.RadiusSU * (0.3 + 4*src.Float64())
		suTab, err := BuildCSR(nw.SUGrid, nw.SU, radius)
		if err != nil {
			t.Fatal(err)
		}
		puTab, err := BuildCSR(nw.SUGrid, nw.PU, radius)
		if err != nil {
			t.Fatal(err)
		}
		checkRowsAscendInRank(t, "SU", suTab, rank)
		checkRowsAscendInRank(t, "PU", puTab, rank)
	}

	// Clamped points: an area that is a whole number of cells puts X or Y
	// == side exactly one cell past the last, and points outside the bounds
	// land in the boundary cells too.
	const side, cell = 60.0, 10.0
	for trial := 0; trial < 20; trial++ {
		n := 30 + src.Intn(150)
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Point{X: src.Float64() * side, Y: src.Float64() * side}
			switch src.Intn(6) {
			case 0:
				pts[i].X = side
			case 1:
				pts[i].Y = side
			case 2:
				pts[i].X, pts[i].Y = side, side
			case 3:
				pts[i].X = -src.Float64() * cell
			case 4:
				pts[i].Y = side + src.Float64()*cell
			}
		}
		g, err := geom.NewGrid(geom.Square(side), cell, pts)
		if err != nil {
			t.Fatal(err)
		}
		rank := rankOf(t, g)
		sources := append(append([]geom.Point(nil), pts[:10]...),
			geom.Point{X: side, Y: side}, geom.Point{X: 0, Y: 0}, geom.Point{X: -5, Y: side + 5})
		for _, radius := range []float64{cell / 2, cell, 2.5 * cell, 8 * cell} {
			tab, err := BuildCSR(g, sources, radius)
			if err != nil {
				t.Fatal(err)
			}
			checkRowsAscendInRank(t, "clamped", tab, rank)
		}
	}
}

// TestNetworkMemoizesGraphs: goroutines calling Adjacency, SUNeighborBits
// and PUNeighborBits on WithParams copies of one network all receive the
// same memoized values, and each equals a fresh UnitDisk, or the encoding of
// a fresh BuildCSR, over the same positions. Run under -race it also checks
// the memo's locking.
func TestNetworkMemoizesGraphs(t *testing.T) {
	p := ScaledDefaultParams()
	p.NumSU = 100
	p.NumPU = 8
	p.Area = 60
	nw, err := Deploy(p, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	radii := []float64{p.RadiusSU, 2.5 * p.RadiusSU}
	type graphs struct {
		adj            graphx.Adjacency
		suBits, puBits []*RankBits
	}
	got := make([]graphs, 8)
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			q := p
			q.PacketBits += float64(w) // a protocol knob WithParams may change
			cp, err := nw.WithParams(q)
			if err != nil {
				t.Error(err)
				return
			}
			g := graphs{suBits: make([]*RankBits, len(radii)), puBits: make([]*RankBits, len(radii))}
			// Alternate the call order so builds of every key race.
			for k := range radii {
				if w%2 == 1 {
					k = len(radii) - 1 - k
				}
				if w%4 < 2 {
					g.adj = cp.Adjacency()
				}
				if g.suBits[k], err = cp.SUNeighborBits(radii[k]); err != nil {
					t.Error(err)
					return
				}
				if g.puBits[k], err = cp.PUNeighborBits(radii[k]); err != nil {
					t.Error(err)
					return
				}
				g.adj = cp.Adjacency()
			}
			got[w] = g
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	fresh, err := graphx.UnitDisk(nw.Bounds(), nw.SU, p.RadiusSU)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got[0].adj, fresh) {
		t.Fatal("memoized adjacency differs from a fresh UnitDisk")
	}
	for k, r := range radii {
		su, err := BuildCSR(nw.SUGrid, nw.SU, r)
		if err != nil {
			t.Fatal(err)
		}
		pu, err := BuildCSR(nw.SUGrid, nw.PU, r)
		if err != nil {
			t.Fatal(err)
		}
		checkRankBits(t, su, nw.SUGrid.Ranks(), got[0].suBits[k], true)
		checkRankBits(t, pu, nw.SUGrid.Ranks(), got[0].puBits[k], false)
	}
	for w, g := range got {
		if &g.adj[0] != &got[0].adj[0] {
			t.Fatalf("goroutine %d received a different adjacency", w)
		}
		for k := range radii {
			if g.suBits[k] != got[0].suBits[k] || g.puBits[k] != got[0].puBits[k] {
				t.Fatalf("goroutine %d received different rows at radius %v", w, radii[k])
			}
		}
	}
	if b, _ := nw.SUNeighborBits(radii[0]); b != got[0].suBits[0] {
		t.Fatal("the original network does not share its copies' memo")
	}
}

// checkRankBits requires b to encode tab by definition: row i holds the
// rank of every node in tab's row i (SU sources without their own) and its
// span is tight, and for a PU table Cover row id holds every PU whose row
// holds id.
func checkRankBits(t *testing.T, tab *CSRTable, ranks []int32, b *RankBits, su bool) {
	t.Helper()
	has := func(set []uint64, k int32) bool { return set[k>>6]&(1<<(k&63)) != 0 }
	np, nn := tab.NumRows(), len(ranks)
	cover := make([][]int32, nn)
	for i := range np {
		set := b.Rows[i*b.Words : (i+1)*b.Words]
		want := map[int32]bool{}
		for _, id := range tab.Row(int32(i)) {
			if su && id == int32(i) {
				continue
			}
			want[ranks[id]] = true
			cover[id] = append(cover[id], int32(i))
		}
		for r := range int32(nn) {
			if has(set, r) != want[r] {
				t.Fatalf("row %d: rank %d bit is %v, want %v", i, r, has(set, r), want[r])
			}
		}
		lo, hi := b.Span[2*i], b.Span[2*i+1]
		for k, x := range set {
			if x != 0 && (int32(k) < lo || int32(k) >= hi) {
				t.Fatalf("row %d: word %d set outside span [%d, %d)", i, k, lo, hi)
			}
		}
		if lo < hi && (set[lo] == 0 || set[hi-1] == 0) {
			t.Fatalf("row %d: span [%d, %d) is not tight", i, lo, hi)
		}
	}
	if su {
		return
	}
	m := b.CoverWords
	for id := range nn {
		set := b.Cover[id*m : (id+1)*m]
		n := 0
		for _, x := range set {
			n += bits.OnesCount64(x)
		}
		if n != len(cover[id]) {
			t.Fatalf("cover of %d holds %d sources, want %d", id, n, len(cover[id]))
		}
		for _, i := range cover[id] {
			if !has(set, i) {
				t.Fatalf("cover of %d misses PU %d", id, i)
			}
		}
	}
	for k := range b.Words {
		for i := range np {
			touches := b.Rows[i*b.Words+k] != 0
			if has(b.Touch[k*m:(k+1)*m], int32(i)) != touches {
				t.Fatalf("touch of word %d: PU %d bit is %v, want %v", k, i, !touches, touches)
			}
		}
	}
}

// TestRankBitsRejectsAsymmetricSUTable: the tracker reads an SU's own row
// as the set of SUs whose row holds it, so an SU table with node 1 in 0's
// row but not 0 in 1's is refused, while a symmetric one encodes.
func TestRankBitsRejectsAsymmetricSUTable(t *testing.T) {
	ranks := []int32{2, 0, 1}
	for _, tc := range []struct {
		offsets, flat []int32
		ok            bool
	}{
		// Rows in rank order: 0 → {1, 2, 0}, 1 → {1, 2}, 2 → {1, 2, 0}.
		{[]int32{0, 3, 5, 8}, []int32{1, 2, 0, 1, 2, 1, 2, 0}, false},
		// 0 → {1, 0}, 1 → {1, 0}, 2 → {2}.
		{[]int32{0, 2, 4, 5}, []int32{1, 0, 1, 0, 2}, true},
	} {
		tab := &CSRTable{offsets: tc.offsets, flat: tc.flat}
		b, err := newRankBits(tab, ranks, true)
		if (err == nil) != tc.ok {
			t.Fatalf("rows %v: newRankBits error %v, want accepted = %v", tc.flat, err, tc.ok)
		}
		if err == nil {
			checkRankBits(t, tab, ranks, b, true)
		}
	}
}
