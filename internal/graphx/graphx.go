// Package graphx provides the graph substrate for the reproduction:
// unit-disk adjacency construction, breadth-first search, connectivity, and
// degree statistics over the secondary network graph G_s = (V_s, E_s).
package graphx

import (
	"fmt"

	"addcrn/internal/geom"
)

// Adjacency is an undirected graph as adjacency lists; Adjacency[u] lists
// the neighbors of node u. Neighbor lists are sorted ascending.
type Adjacency [][]int32

// UnitDisk builds the unit-disk graph over points with communication radius
// radius, using a grid index for near-linear construction time.
func UnitDisk(bounds geom.Rect, points []geom.Point, radius float64) (Adjacency, error) {
	if radius <= 0 {
		return nil, fmt.Errorf("graphx: radius must be positive, got %v", radius)
	}
	grid, err := geom.NewGrid(bounds, radius, points)
	if err != nil {
		return nil, fmt.Errorf("graphx: %w", err)
	}
	adj := make(Adjacency, len(points))
	var buf []int32
	for u := range points {
		buf = grid.Within(points[u], radius, buf[:0])
		nbrs := make([]int32, 0, len(buf))
		for _, v := range buf {
			if int(v) != u {
				nbrs = append(nbrs, v)
			}
		}
		sortInt32(nbrs)
		adj[u] = nbrs
	}
	return adj, nil
}

// NumNodes returns the number of nodes in the graph.
func (a Adjacency) NumNodes() int { return len(a) }

// NumEdges returns the number of undirected edges.
func (a Adjacency) NumEdges() int {
	total := 0
	for _, nbrs := range a {
		total += len(nbrs)
	}
	return total / 2
}

// MaxDegree returns the maximum degree over all nodes, 0 for empty graphs.
func (a Adjacency) MaxDegree() int {
	maxDeg := 0
	for _, nbrs := range a {
		if len(nbrs) > maxDeg {
			maxDeg = len(nbrs)
		}
	}
	return maxDeg
}

// HasEdge reports whether u and v are adjacent, by binary search.
func (a Adjacency) HasEdge(u, v int) bool {
	nbrs := a[u]
	lo, hi := 0, len(nbrs)
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case nbrs[mid] == int32(v):
			return true
		case nbrs[mid] < int32(v):
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return false
}

// BFSLevels returns the hop distance of every node from root, or -1 for
// nodes unreachable from root.
func (a Adjacency) BFSLevels(root int) []int {
	levels := make([]int, len(a))
	for i := range levels {
		levels[i] = -1
	}
	if root < 0 || root >= len(a) {
		return levels
	}
	levels[root] = 0
	queue := make([]int32, 0, len(a))
	queue = append(queue, int32(root))
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range a[u] {
			if levels[v] == -1 {
				levels[v] = levels[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return levels
}

// Connected reports whether the graph is connected (vacuously true for 0 or
// 1 nodes).
func (a Adjacency) Connected() bool {
	if len(a) <= 1 {
		return true
	}
	for _, l := range a.BFSLevels(0) {
		if l == -1 {
			return false
		}
	}
	return true
}

// Validate checks structural invariants: sorted neighbor lists, no self
// loops, no duplicate edges, and symmetry. It is intended for tests and
// debug assertions.
func (a Adjacency) Validate() error {
	for u, nbrs := range a {
		for i, v := range nbrs {
			if int(v) == u {
				return fmt.Errorf("graphx: self loop at node %d", u)
			}
			if v < 0 || int(v) >= len(a) {
				return fmt.Errorf("graphx: node %d has out-of-range neighbor %d", u, v)
			}
			if i > 0 && nbrs[i-1] >= v {
				return fmt.Errorf("graphx: node %d has unsorted or duplicate neighbors", u)
			}
			if !a.HasEdge(int(v), u) {
				return fmt.Errorf("graphx: asymmetric edge %d->%d", u, v)
			}
		}
	}
	return nil
}

func sortInt32(s []int32) {
	// Insertion sort: neighbor lists are short (bounded by local density)
	// and mostly sorted already because grid cells are scanned in order.
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j-1] > s[j]; j-- {
			s[j-1], s[j] = s[j], s[j-1]
		}
	}
}
