// Topology memoization: the sweep engine's cache of expensive
// immutable construction artifacts. A deployment — node placement, the
// Wan et al. CDS tree, the unit-disk adjacency, CSR neighbor tables, the
// Coolest routing tree — is a pure function of the topological parameters
// (n, N, area, r_SU, r_PU) and the placement seed. Sweeping a
// non-topological axis (packet count, p_t, fault fraction, deadline)
// therefore rebuilds byte-identical artifacts for every grid point and
// repetition; the cache builds each distinct topology once and shares it
// read-only across the whole worker pool.
//
// Sharing is safe because every consumer treats the artifacts as immutable:
// the MAC and the self-healing repairer copy the parent slice before any
// routing mutation (copy-on-write — fault runs re-parent their private
// copy, never the shared tree), CSR tables and adjacency rows are only ever
// read, and per-run parameter changes go through Network.WithParams, which
// swaps the Params value on a shallow copy while sharing positions and
// spatial grids. TestSharedTopologyImmutable pins the contract.
package experiment

import (
	"fmt"
	"sync"

	"addcrn/internal/cds"
	"addcrn/internal/coolest"
	"addcrn/internal/graphx"
	"addcrn/internal/netmodel"
	"addcrn/internal/rng"
	"addcrn/internal/spectrum"
)

// topoKey is the exact set of inputs a deployment depends on. Two parameter
// sets that agree on these fields (and the placement seed) realize the same
// topology no matter how their protocol knobs differ.
type topoKey struct {
	numSU, numPU             int
	area, radiusSU, radiusPU float64
	seed                     uint64
}

func topoKeyOf(p netmodel.Params, seed uint64) topoKey {
	return topoKey{
		numSU:    p.NumSU,
		numPU:    p.NumPU,
		area:     p.Area,
		radiusSU: p.RadiusSU,
		radiusPU: p.RadiusPU,
		seed:     seed,
	}
}

// Topology is one memoized deployment plus the immutable artifacts derived
// from it. All exported fields are read-only once built. The lazily built
// tables are plain maps behind one mutex: a run looks up only a few, and
// the lock held across a build keeps it to one build per key. It implements
// spectrum.NeighborTables, memoizing one CSR build per sensing radius.
type Topology struct {
	NW    *netmodel.Network
	Adj   graphx.Adjacency
	Tree  *cds.Tree
	Stats cds.Stats

	mu      sync.Mutex // guards the maps below
	su      map[float64]*netmodel.CSRTable
	pu      map[float64]*netmodel.CSRTable
	coolest map[coolestKey][]int32
}

// coolestKey identifies one Coolest routing tree: the spectrum temperatures
// it minimizes over depend on the sensing range and on p_t (ActiveProb), so
// a sweep over p_t gets one tree per grid point even on a shared topology.
type coolestKey struct {
	sensingRange float64
	activeProb   float64
}

// BuildTopology deploys a connected network for (params, seed) — the same
// derivation the sweeps use when building fresh — and precomputes the
// unit-disk adjacency, the CDS tree, and its statistics.
func BuildTopology(params netmodel.Params, seed uint64) (*Topology, error) {
	nw, err := netmodel.DeployConnected(params, rng.New(seed), netmodel.DeployAttempts)
	if err != nil {
		return nil, err
	}
	adj, err := graphx.UnitDisk(nw.Bounds(), nw.SU, params.RadiusSU)
	if err != nil {
		return nil, err
	}
	tree, err := cds.Build(adj, netmodel.BaseStationID)
	if err != nil {
		return nil, fmt.Errorf("experiment: CDS tree: %w", err)
	}
	return &Topology{
		NW:    nw,
		Adj:   adj,
		Tree:  tree,
		Stats: tree.ComputeStats(adj),
	}, nil
}

// memo returns m[key], calling build and storing its result on a miss.
// mu is held throughout, so concurrent callers wait for one build instead
// of racing duplicates. Errors are not stored.
func memo[K comparable, V any](mu *sync.Mutex, m *map[K]V, key K, build func() (V, error)) (V, error) {
	mu.Lock()
	defer mu.Unlock()
	if v, ok := (*m)[key]; ok {
		return v, nil
	}
	v, err := build()
	if err != nil {
		return v, err
	}
	if *m == nil {
		*m = make(map[K]V)
	}
	(*m)[key] = v
	return v, nil
}

// SUNeighborTable implements spectrum.NeighborTables with one build per
// radius.
func (t *Topology) SUNeighborTable(radius float64) (*netmodel.CSRTable, error) {
	return memo(&t.mu, &t.su, radius, func() (*netmodel.CSRTable, error) {
		return t.NW.SUNeighborTable(radius)
	})
}

// PUNeighborTable implements spectrum.NeighborTables with one build per
// radius.
func (t *Topology) PUNeighborTable(radius float64) (*netmodel.CSRTable, error) {
	return memo(&t.mu, &t.pu, radius, func() (*netmodel.CSRTable, error) {
		return t.NW.PUNeighborTable(radius)
	})
}

// coolestParents memoizes the Coolest routing tree (accumulated metric) for
// (sensing range, p_t) on this topology. nw must be this topology's network
// (with per-point params applied via WithParams); the returned slice is
// shared and must be treated read-only — core copies it before any
// mutation.
func (t *Topology) coolestParents(nw *netmodel.Network, sensingRange float64) ([]int32, error) {
	key := coolestKey{sensingRange: sensingRange, activeProb: nw.Params.ActiveProb}
	return memo(&t.mu, &t.coolest, key, func() ([]int32, error) {
		return coolest.BuildParentsOn(t.Adj, nw, sensingRange, coolest.MetricAccumulated)
	})
}

var _ spectrum.NeighborTables = (*Topology)(nil)

// topoCache memoizes Topology builds by their topological key for one
// Sweep.Run, which creates it and drops it when the run returns: a job's
// topologies are freed with the job, and the cache is bounded by the
// sweep's own grid (one entry per placement seed). The double-checked
// sync.Once per entry means concurrent workers asking for the same key
// block on one build instead of racing duplicates, while builds for
// distinct keys proceed in parallel. Build errors are cached too: the build
// is deterministic in the key, so retrying an identical key would only
// reproduce the failure (a sweep retry derives a fresh seed and therefore a
// fresh key). A hit returns exactly what a fresh build would, so the cache
// never changes results.
type topoCache struct {
	mu           sync.Mutex
	m            map[topoKey]*topoCacheEntry
	hits, misses int64
}

type topoCacheEntry struct {
	once sync.Once
	topo *Topology
	err  error
}

// TopoCacheStats counts one sweep run's topology cache lookups: Hits were
// served from memory, Misses built a deployment.
type TopoCacheStats struct {
	Hits, Misses int64
}

func newTopoCache() *topoCache {
	return &topoCache{m: make(map[topoKey]*topoCacheEntry)}
}

func (c *topoCache) get(params netmodel.Params, seed uint64) (*Topology, error) {
	key := topoKeyOf(params, seed)
	c.mu.Lock()
	e := c.m[key]
	if e != nil {
		c.hits++
	} else {
		c.misses++
		e = &topoCacheEntry{}
		c.m[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() { e.topo, e.err = BuildTopology(params, seed) })
	return e.topo, e.err
}

// stats returns a snapshot of cache activity.
func (c *topoCache) stats() TopoCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return TopoCacheStats{Hits: c.hits, Misses: c.misses}
}
