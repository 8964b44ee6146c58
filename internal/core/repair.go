// Self-healing tree repair: when a relay crashes, the subtree hanging off it
// is orphaned — its packets would otherwise burn retries against a dead
// parent until the bounded-retry machine drops them. The repairer re-parents
// orphans with a local rule that mirrors the CDS construction: each orphan
// adopts the best live, still-rooted neighbor within communication range,
// preferring dominators over connectors over plain nodes, then lower BFS
// level, then shorter distance (ties broken by id, keeping repair
// deterministic). Re-anchoring one node can re-anchor the nodes behind it,
// so the rule iterates to a fixpoint; nodes left unanchored have genuinely
// lost every live path to the base station and degrade gracefully through
// the retry cap.
package core

import (
	"addcrn/internal/cds"
	"addcrn/internal/graphx"
	"addcrn/internal/netmodel"
	"addcrn/internal/sim"
)

// repairer maintains the live routing view of a collection run under crash
// faults.
type repairer struct {
	nw  *netmodel.Network
	adj graphx.Adjacency
	// role is the CDS classification when the run has one (nil otherwise:
	// the repair rule then ranks candidates by level and distance alone).
	role  []cds.Role
	level []int

	parent   []int32
	alive    []bool
	anchored []bool
	repairs  []int
	root     int32

	// setParent pushes a re-parenting into the MAC; onRepair observes it
	// (tracing and counters). Either may be nil in tests.
	setParent func(node, parent int32)
	onRepair  func(node, parent int32, now sim.Time)
}

// newRepairer snapshots the routing tree. tree may be nil (non-CDS routings);
// levels then come from BFS over nw's adjacency.
func newRepairer(nw *netmodel.Network, tree *cds.Tree, parent []int32,
	setParent func(node, parent int32)) *repairer {
	n := len(parent)
	r := &repairer{
		nw:        nw,
		adj:       nw.Adjacency(),
		parent:    append([]int32(nil), parent...),
		alive:     make([]bool, n),
		anchored:  make([]bool, n),
		repairs:   make([]int, n),
		root:      int32(netmodel.BaseStationID),
		setParent: setParent,
	}
	for i := range r.alive {
		r.alive[i] = true
	}
	if tree != nil {
		r.role = tree.Role
		r.level = tree.Level
	} else {
		r.level = r.adj.BFSLevels(int(r.root))
	}
	r.recomputeAnchored()
	return r
}

// nodeCrashed marks id dead and re-parents every orphan it can.
func (r *repairer) nodeCrashed(id int32, now sim.Time) {
	r.alive[id] = false
	r.repair(now)
}

// nodeRecovered marks id live again; the fixpoint pass re-anchors it (and
// any subtree that can now reach the root through it).
func (r *repairer) nodeRecovered(id int32, now sim.Time) {
	r.alive[id] = true
	r.repair(now)
}

// repair alternates anchoring analysis with one re-parenting sweep until no
// orphan can improve.
func (r *repairer) repair(now sim.Time) {
	for {
		r.recomputeAnchored()
		changed := false
		for v := range r.parent {
			id := int32(v)
			if id == r.root || !r.alive[id] || r.anchored[id] {
				continue
			}
			best := r.bestParent(id)
			if best < 0 {
				continue
			}
			r.parent[id] = best
			// Attaching to an anchored parent anchors id immediately, so
			// later orphans in this same sweep may adopt it.
			r.anchored[id] = true
			r.repairs[id]++
			if r.setParent != nil {
				r.setParent(id, best)
			}
			if r.onRepair != nil {
				r.onRepair(id, best, now)
			}
			changed = true
		}
		if !changed {
			return
		}
	}
}

// recomputeAnchored walks parent chains and marks every live node whose
// chain reaches the root over live nodes.
func (r *repairer) recomputeAnchored() {
	n := len(r.parent)
	const (
		unknown uint8 = iota
		walking
		yes
		no
	)
	st := make([]uint8, n)
	st[r.root] = yes
	var path []int32
	for v := 0; v < n; v++ {
		if st[v] != unknown {
			continue
		}
		path = path[:0]
		u := int32(v)
		verdict := no
		for {
			if !r.alive[u] || st[u] == no || st[u] == walking {
				// Dead link, known-dead chain, or a cycle (impossible by
				// construction, but treated as unanchored defensively).
				break
			}
			if st[u] == yes {
				verdict = yes
				break
			}
			st[u] = walking
			path = append(path, u)
			u = r.parent[u]
			if u < 0 {
				// Chain ended at a non-root node with parent -1; only the
				// root is anchored by definition.
				break
			}
		}
		for _, w := range path {
			st[w] = verdict
		}
	}
	for v := 0; v < n; v++ {
		r.anchored[v] = st[v] == yes && r.alive[v]
	}
}

// rolePriority ranks repair candidates the way the CDS construction would:
// dominators are the backbone, connectors relay between them, everything
// else is a last resort.
func (r *repairer) rolePriority(v int32) int {
	if r.role == nil {
		return 0
	}
	switch r.role[v] {
	case cds.RoleDominator:
		return 0
	case cds.RoleConnector:
		return 1
	default:
		return 2
	}
}

// bestParent returns the best live anchored neighbor of v, or -1 when the
// orphan has no live path back to the base station.
func (r *repairer) bestParent(v int32) int32 {
	best := int32(-1)
	bestPrio, bestLevel := 0, 0
	bestDist2 := 0.0
	for _, u := range r.adj[v] {
		if !r.alive[u] || !r.anchored[u] {
			continue
		}
		prio := r.rolePriority(u)
		level := r.level[u]
		dist2 := r.nw.SU[v].Dist2(r.nw.SU[u])
		if best == -1 || prio < bestPrio ||
			(prio == bestPrio && (level < bestLevel ||
				(level == bestLevel && dist2 < bestDist2))) {
			// Adjacency lists are sorted ascending, so equal keys keep the
			// smallest id — the choice is deterministic.
			best, bestPrio, bestLevel, bestDist2 = u, prio, level, dist2
		}
	}
	return best
}
