package graphx

import (
	"math/rand"
	"testing"

	"addcrn/internal/geom"
)

func randomPoints(rnd *rand.Rand, side float64, n int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: rnd.Float64() * side, Y: rnd.Float64() * side}
	}
	return pts
}

func bruteUnitDisk(points []geom.Point, radius float64) Adjacency {
	adj := make(Adjacency, len(points))
	for u := range points {
		for v := range points {
			if u != v && points[u].Dist(points[v]) <= radius {
				adj[u] = append(adj[u], int32(v))
			}
		}
	}
	return adj
}

func TestUnitDiskMatchesBruteForce(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rnd.Intn(120)
		pts := randomPoints(rnd, 50, n)
		radius := 2 + rnd.Float64()*20
		got, err := UnitDisk(geom.Square(50), pts, radius)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteUnitDisk(pts, radius)
		for u := range got {
			if len(got[u]) != len(want[u]) {
				t.Fatalf("trial %d node %d: %d neighbors, want %d", trial, u, len(got[u]), len(want[u]))
			}
			for i := range got[u] {
				if got[u][i] != want[u][i] {
					t.Fatalf("trial %d node %d: neighbor mismatch", trial, u)
				}
			}
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestUnitDiskRejectsBadRadius(t *testing.T) {
	if _, err := UnitDisk(geom.Square(10), nil, 0); err == nil {
		t.Error("zero radius accepted")
	}
	if _, err := UnitDisk(geom.Square(10), nil, -2); err == nil {
		t.Error("negative radius accepted")
	}
}

// lineGraph builds a path 0-1-2-...-k.
func lineGraph(k int) Adjacency {
	adj := make(Adjacency, k+1)
	for i := 0; i <= k; i++ {
		if i > 0 {
			adj[i] = append(adj[i], int32(i-1))
		}
		if i < k {
			adj[i] = append(adj[i], int32(i+1))
		}
	}
	return adj
}

func TestBFSLevelsLine(t *testing.T) {
	adj := lineGraph(5)
	levels := adj.BFSLevels(0)
	for i, l := range levels {
		if l != i {
			t.Errorf("node %d level %d, want %d", i, l, i)
		}
	}
	levels = adj.BFSLevels(3)
	want := []int{3, 2, 1, 0, 1, 2}
	for i, l := range levels {
		if l != want[i] {
			t.Errorf("root 3: node %d level %d, want %d", i, l, want[i])
		}
	}
}

func TestBFSLevelsUnreachable(t *testing.T) {
	adj := Adjacency{{1}, {0}, {}} // node 2 isolated
	levels := adj.BFSLevels(0)
	if levels[2] != -1 {
		t.Errorf("isolated node level %d, want -1", levels[2])
	}
	if adj.Connected() {
		t.Error("disconnected graph reported connected")
	}
}

func TestBFSLevelsBadRoot(t *testing.T) {
	adj := lineGraph(2)
	for _, root := range []int{-1, 99} {
		levels := adj.BFSLevels(root)
		for i, l := range levels {
			if l != -1 {
				t.Errorf("root %d: node %d level %d, want -1", root, i, l)
			}
		}
	}
}

func TestConnectedTrivial(t *testing.T) {
	if !(Adjacency{}).Connected() {
		t.Error("empty graph not connected")
	}
	if !(Adjacency{{}}).Connected() {
		t.Error("singleton graph not connected")
	}
}

func TestDegreesAndEdges(t *testing.T) {
	adj := lineGraph(3) // path of 4 nodes, 3 edges
	if adj.NumNodes() != 4 {
		t.Errorf("NumNodes = %d", adj.NumNodes())
	}
	if adj.NumEdges() != 3 {
		t.Errorf("NumEdges = %d", adj.NumEdges())
	}
	if adj.Degree(0) != 1 || adj.Degree(1) != 2 {
		t.Errorf("degrees: %d, %d", adj.Degree(0), adj.Degree(1))
	}
	if adj.MaxDegree() != 2 {
		t.Errorf("MaxDegree = %d", adj.MaxDegree())
	}
	if (Adjacency{}).MaxDegree() != 0 {
		t.Error("MaxDegree of empty graph != 0")
	}
}

func TestHasEdge(t *testing.T) {
	adj := lineGraph(4)
	if !adj.HasEdge(1, 2) || !adj.HasEdge(2, 1) {
		t.Error("existing edge not found")
	}
	if adj.HasEdge(0, 2) {
		t.Error("phantom edge found")
	}
	if adj.HasEdge(0, 0) {
		t.Error("self edge found")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	tests := []struct {
		name string
		adj  Adjacency
	}{
		{"self loop", Adjacency{{0}}},
		{"out of range", Adjacency{{5}}},
		{"unsorted", Adjacency{{2, 1}, {0}, {0}}},
		{"duplicate", Adjacency{{1, 1}, {0, 0}}},
		{"asymmetric", Adjacency{{1}, {}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.adj.Validate(); err == nil {
				t.Errorf("Validate accepted %s", tt.name)
			}
		})
	}
}

func TestSortInt32(t *testing.T) {
	s := []int32{5, 3, 1, 4, 2}
	sortInt32(s)
	for i := 1; i < len(s); i++ {
		if s[i-1] > s[i] {
			t.Fatalf("not sorted: %v", s)
		}
	}
	sortInt32(nil) // must not panic
}

// Degree returns the degree of node u.
func (a Adjacency) Degree(u int) int { return len(a[u]) }
