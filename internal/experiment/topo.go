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
	"container/list"
	"fmt"
	"sync"
	"sync/atomic"

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
// from it. All exported fields are read-only once built. The lazily grown
// table caches are published as immutable snapshots behind an atomic
// pointer: a worker pool sharing one Topology reads them lock-free — the
// steady state of a sweep (every table already built) holds no mutex at all
// — while the rare build of a new table clones the snapshot under t.mu and
// publishes the extended copy. It implements spectrum.NeighborTables,
// memoizing one CSR build per sensing radius.
type Topology struct {
	NW    *netmodel.Network
	Adj   graphx.Adjacency
	Tree  *cds.Tree
	Stats cds.Stats

	// onGrow, when non-nil, reports the approximate byte cost of lazily
	// built artifacts (CSR tables, Coolest trees) to the owning cache's
	// size accounting. It is set once, before the Topology escapes the
	// build, and only ever called with t.mu held.
	onGrow func(delta int64)

	// tables is the current immutable snapshot of every lazily built
	// artifact; nil until the first build. Readers load it atomically and
	// never see a map under mutation. t.mu serializes writers only.
	tables atomic.Pointer[topoTables]
	mu     sync.Mutex
}

// topoTables is one immutable snapshot of a Topology's lazily built
// artifacts. A snapshot is never mutated after publication; extending any
// map means cloning it into a fresh snapshot.
type topoTables struct {
	su      map[float64]*netmodel.CSRTable
	pu      map[float64]*netmodel.CSRTable
	coolest map[coolestKey][]int32
}

// clone returns a mutable deep copy of the snapshot's map headers (the
// referenced tables themselves are immutable and shared). A nil receiver
// clones to an empty snapshot.
func (tt *topoTables) clone() *topoTables {
	next := &topoTables{
		su:      make(map[float64]*netmodel.CSRTable),
		pu:      make(map[float64]*netmodel.CSRTable),
		coolest: make(map[coolestKey][]int32),
	}
	if tt != nil {
		for k, v := range tt.su {
			next.su[k] = v
		}
		for k, v := range tt.pu {
			next.pu[k] = v
		}
		for k, v := range tt.coolest {
			next.coolest[k] = v
		}
	}
	return next
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
	nw, err := netmodel.DeployConnected(params, rng.New(seed), 50)
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

// SUNeighborTable implements spectrum.NeighborTables with one build per
// radius. Hits are lock-free snapshot reads.
func (t *Topology) SUNeighborTable(radius float64) (*netmodel.CSRTable, error) {
	if tt := t.tables.Load(); tt != nil {
		if tab, ok := tt.su[radius]; ok {
			return tab, nil
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	// Double-check under the writer lock: a racing builder may have
	// published the table while we waited.
	tt := t.tables.Load()
	if tt != nil {
		if tab, ok := tt.su[radius]; ok {
			return tab, nil
		}
	}
	tab, err := t.NW.SUNeighborTable(radius)
	if err != nil {
		return nil, err
	}
	next := tt.clone()
	next.su[radius] = tab
	t.grew(csrBytes(tab))
	t.tables.Store(next)
	return tab, nil
}

// PUNeighborTable implements spectrum.NeighborTables with one build per
// radius. Hits are lock-free snapshot reads.
func (t *Topology) PUNeighborTable(radius float64) (*netmodel.CSRTable, error) {
	if tt := t.tables.Load(); tt != nil {
		if tab, ok := tt.pu[radius]; ok {
			return tab, nil
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	tt := t.tables.Load()
	if tt != nil {
		if tab, ok := tt.pu[radius]; ok {
			return tab, nil
		}
	}
	tab, err := t.NW.PUNeighborTable(radius)
	if err != nil {
		return nil, err
	}
	next := tt.clone()
	next.pu[radius] = tab
	t.grew(csrBytes(tab))
	t.tables.Store(next)
	return tab, nil
}

// coolestParents memoizes the Coolest routing tree (accumulated metric) for
// (sensing range, p_t) on this topology. nw must be this topology's network (with
// per-point params applied via WithParams); the returned slice is shared
// and must be treated read-only — core copies it before any mutation. Hits
// are lock-free snapshot reads.
func (t *Topology) coolestParents(nw *netmodel.Network, sensingRange float64) ([]int32, error) {
	key := coolestKey{sensingRange: sensingRange, activeProb: nw.Params.ActiveProb}
	if tt := t.tables.Load(); tt != nil {
		if p, ok := tt.coolest[key]; ok {
			return p, nil
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	tt := t.tables.Load()
	if tt != nil {
		if p, ok := tt.coolest[key]; ok {
			return p, nil
		}
	}
	p, err := coolest.BuildParentsOn(t.Adj, nw, sensingRange, coolest.MetricAccumulated)
	if err != nil {
		return nil, err
	}
	next := tt.clone()
	next.coolest[key] = p
	t.grew(4*int64(len(p)) + mapEntryOverhead)
	t.tables.Store(next)
	return p, nil
}

// grew reports delta bytes of lazily built artifacts to the owning cache
// (no-op for topologies built outside a cache). Called with t.mu held.
func (t *Topology) grew(delta int64) {
	if t.onGrow != nil {
		t.onGrow(delta)
	}
}

// Per-entry bookkeeping allowances for the approximate size accounting:
// slice/map headers, pointers, interior fragmentation. The accounting aims
// to be proportional to real heap cost, not exact.
const (
	sliceOverhead    = 24
	mapEntryOverhead = 64
)

// csrBytes approximates the heap cost of one CSR neighbor table.
func csrBytes(tab *netmodel.CSRTable) int64 {
	return 4*int64(tab.Len()+tab.NumRows()+1) + 2*sliceOverhead + mapEntryOverhead
}

// sizeBytes approximates the heap cost of the eagerly built artifacts: node
// positions (plus their spatial grids), the unit-disk adjacency, and the
// CDS tree. Lazily built tables report separately through grew.
func (t *Topology) sizeBytes() int64 {
	var b int64
	// Positions are 16 bytes each; the spatial grids index them with cell
	// buckets of comparable total footprint, hence the factor of two.
	b += 2 * 16 * int64(len(t.NW.SU)+len(t.NW.PU))
	for _, row := range t.Adj {
		b += 4*int64(len(row)) + sliceOverhead
	}
	n := int64(len(t.Tree.Parent))
	b += 4 * n                   // Parent
	b += int64(len(t.Tree.Role)) // Role (1 byte each)
	b += 8 * int64(len(t.Tree.Level))
	for _, ch := range t.Tree.Children {
		b += 4*int64(len(ch)) + sliceOverhead
	}
	b += 4 * int64(len(t.Tree.Dominators)+len(t.Tree.Connectors))
	return b
}

var _ spectrum.NeighborTables = (*Topology)(nil)

// TopoCache memoizes Topology builds by their topological key. The
// double-checked sync.Once per entry means concurrent workers asking for
// the same key block on one build instead of racing duplicates, while
// builds for distinct keys proceed in parallel. Build errors are cached
// too: the build is deterministic in the key, so retrying an identical key
// would only reproduce the failure (a sweep retry derives a fresh seed and
// therefore a fresh key).
//
// A cache with a byte budget is a size-accounted LRU with admission
// control: every built entry is charged its approximate heap cost (eager
// artifacts at build time, lazily built CSR/Coolest tables as they appear),
// the least recently used entries are evicted once the total exceeds the
// budget, and an entry larger than the whole budget is never admitted at
// all — a hostile mix of huge topologies degrades to cache misses instead
// of growing the process without bound. Eviction only forgets the cache's
// reference; sweeps already holding the Topology keep using it safely.
//
// Sharing one TopoCache across sweeps (the service daemon shares one across
// every job) never changes results: entries are pure functions of their
// key, so a hit returns exactly what a fresh build would.
type TopoCache struct {
	mu       sync.Mutex
	maxBytes int64
	size     int64
	m        map[topoKey]*topoCacheEntry
	lru      *list.List // of *topoCacheEntry; front = most recently used

	hits, misses, evictions, rejections int64
}

type topoCacheEntry struct {
	key  topoKey
	once sync.Once
	topo *Topology
	err  error

	// bytes and elem are owned by the cache mutex; elem is nil while the
	// entry is in flight (being built) or rejected — in-flight entries are
	// never evicted, so a builder always finishes what it started.
	bytes int64
	elem  *list.Element
}

// TopoCacheStats is a snapshot of cache activity and occupancy.
type TopoCacheStats struct {
	// Hits and Misses count lookups; Evictions counts entries dropped to
	// stay under the byte budget; Rejections counts entries denied
	// admission because they alone exceed the budget.
	Hits, Misses, Evictions, Rejections int64
	// Entries and SizeBytes describe current occupancy; MaxBytes restates
	// the configured budget (0 = unbounded).
	Entries   int
	SizeBytes int64
	MaxBytes  int64
}

// NewTopoCache returns a topology cache bounded to roughly maxBytes of
// memoized artifacts; maxBytes <= 0 means unbounded (the per-sweep default,
// where the key space is bounded by the sweep's own grid).
func NewTopoCache(maxBytes int64) *TopoCache {
	if maxBytes < 0 {
		maxBytes = 0
	}
	return &TopoCache{
		maxBytes: maxBytes,
		m:        make(map[topoKey]*topoCacheEntry),
		lru:      list.New(),
	}
}

func newTopoCache() *TopoCache { return NewTopoCache(0) }

func (c *TopoCache) get(params netmodel.Params, seed uint64) (*Topology, error) {
	key := topoKeyOf(params, seed)
	c.mu.Lock()
	e := c.m[key]
	if e != nil {
		c.hits++
		if e.elem != nil {
			c.lru.MoveToFront(e.elem)
		}
	} else {
		c.misses++
		e = &topoCacheEntry{key: key}
		c.m[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() {
		e.topo, e.err = BuildTopology(params, seed)
		var bytes int64 = mapEntryOverhead // error entries cost a map slot
		if e.topo != nil {
			bytes += e.topo.sizeBytes()
			e.topo.onGrow = func(delta int64) { c.grow(e, delta) }
		}
		c.admit(e, bytes)
	})
	return e.topo, e.err
}

// admit moves a freshly built entry from in-flight to resident, charging
// its size and evicting older entries as needed — or denies admission when
// the entry alone exceeds the whole budget.
func (c *TopoCache) admit(e *topoCacheEntry, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.maxBytes > 0 && bytes > c.maxBytes {
		delete(c.m, e.key)
		c.rejections++
		return
	}
	e.bytes = bytes
	c.size += bytes
	e.elem = c.lru.PushFront(e)
	c.evictLocked(e)
}

// grow charges lazily built artifacts to an entry's account (no-op once the
// entry has been evicted or rejected — the artifacts then live only as long
// as their users do).
func (c *TopoCache) grow(e *topoCacheEntry, delta int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m[e.key] != e || e.elem == nil {
		return
	}
	e.bytes += delta
	c.size += delta
	c.evictLocked(e)
}

// evictLocked drops least-recently-used entries until the budget holds,
// never evicting keep (the entry being admitted or grown: evicting the
// entry a caller is about to use would defeat the memoization).
func (c *TopoCache) evictLocked(keep *topoCacheEntry) {
	if c.maxBytes <= 0 {
		return
	}
	for c.size > c.maxBytes {
		back := c.lru.Back()
		if back == nil {
			return
		}
		ev := back.Value.(*topoCacheEntry)
		if ev == keep {
			return
		}
		c.lru.Remove(back)
		ev.elem = nil
		delete(c.m, ev.key)
		c.size -= ev.bytes
		c.evictions++
	}
}

// Stats returns a snapshot of cache activity.
func (c *TopoCache) Stats() TopoCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return TopoCacheStats{
		Hits:       c.hits,
		Misses:     c.misses,
		Evictions:  c.evictions,
		Rejections: c.rejections,
		Entries:    c.lru.Len(),
		SizeBytes:  c.size,
		MaxBytes:   c.maxBytes,
	}
}
