package rng

import (
	"math/rand"
	"sync"
)

// math/rand's default source is an additive lagged-Fibonacci generator
// (Mitchell & Reeds): x_i = x_{i-607} + x_{i-273} over uint64, seeded by an
// LCG expansion that walks a 607-word table. That seeding walk is what makes
// rand.NewSource cost ~14µs — two orders of magnitude more than reading the
// stream's first draw, which is all a derived per-repetition seed needs.
//
// The position-0 state of a freshly seeded math/rand source is recovered
// through the public API alone: each Uint64() returns the full 64-bit word
// it just wrote into the state vector, so 607 draws determine the entire
// vector, and the seeded values they overwrote fall out of the recurrence —
//
//	t in [274, 607]: seed[feed_t] = x_t - x_{t-273}
//	t in [1, 273]:   seed[feed_t] = x_t - seed[tap_t]   (tap_t recovered above)
//
// with feed_t = (334-t) mod 607 and tap_t = (607-t) mod 607, all arithmetic
// mod 2^64. A Cache memoizes these recovered states per seed, so the first
// draw of rand.New(rand.NewSource(seed)) becomes two array reads.
const (
	lfLen = 607
	lfTap = 273
)

// lfState is the seeded state vector of a lagged-Fibonacci source before any
// draws. It is immutable once captured.
type lfState struct {
	vec [lfLen]uint64
}

// captureState recovers the position-0 state of rand.NewSource(seed).
func captureState(seed uint64) *lfState {
	src := rand.NewSource(int64(seed)).(rand.Source64) //nolint:gosec // reproducibility, not security
	var x [lfLen + 1]uint64                            // 1-indexed draws
	for t := 1; t <= lfLen; t++ {
		x[t] = src.Uint64()
	}
	st := &lfState{}
	feed := func(t int) int { return ((lfLen-lfTap-t)%lfLen + lfLen) % lfLen }
	for t := lfTap + 1; t <= lfLen; t++ {
		st.vec[feed(t)] = x[t] - x[t-lfTap]
	}
	for t := 1; t <= lfTap; t++ {
		tap := (lfLen - t) % lfLen
		st.vec[feed(t)] = x[t] - st.vec[tap]
	}
	return st
}

// Cache memoizes seeded generator states so that the first draw of a
// source for a seed already seen costs two array reads instead of
// math/rand's seeding walk (see FirstUint64). The sweep layer derives every
// repetition's placement and collection seed through one.
//
// The cache is safe for concurrent use and built for it: entries stripe over
// a power-of-two set of independently locked shards (seeds are already
// splitmix-mixed, so a multiplicative hash spreads them evenly), which keeps
// a sweep's worker pool from serializing on one lock — the process-wide
// cache behind sweep seed derivation is touched by every worker on every
// block. Each shard bounds its memory with a two-generation clock instead
// of a wholesale clear: when the current generation fills, it becomes the
// previous generation and a fresh one starts; lookups that hit the previous
// generation promote the entry into the current one. A seed in active use
// therefore survives any number of epoch turns (it keeps getting promoted),
// while cold seeds age out after two turns — a working set larger than the
// bound no longer triggers re-capture storms, and an epoch turn on one shard
// cannot thrash the others. At most 2x the per-generation bound is resident
// per shard, so the configured budget stays hard.
type Cache struct {
	shards [cacheShards]cacheShard

	// captureHook, when non-nil, observes every captureState call the cache
	// performs (tests use it to pin the retention behavior). Set it before
	// the cache is shared; it is read without synchronization.
	captureHook func(seed uint64)
}

// cacheShards is the stripe fan-out; a power of two so shard selection is a
// mask. 8 shards keep worst-case lock sharing at 1/8th of the old global
// lock even for a pool of many more workers, because hold times are tiny.
const cacheShards = 8

// cacheShard is one stripe: a two-generation seed-state table under its own
// lock, padded so neighboring shards' locks never share a cache line.
type cacheShard struct {
	mu   sync.Mutex
	cur  map[uint64]*lfState
	prev map[uint64]*lfState
	max  int // per-generation entry bound
	_    [64]byte
}

// NewCache returns a cache bounded to roughly max seeded states (~4.9KB
// each) across all shards and generations; max <= 0 selects the default of
// 2048 (~10MB).
func NewCache(max int) *Cache {
	if max <= 0 {
		max = 2048
	}
	perGen := max / (2 * cacheShards)
	if perGen < 1 {
		perGen = 1
	}
	c := &Cache{}
	for i := range c.shards {
		c.shards[i].max = perGen
	}
	return c
}

// shard selects seed's stripe. Seeds reaching the cache are already
// splitmix-mixed child seeds, but a fresh multiply guards against callers
// passing small consecutive integers.
func (c *Cache) shard(seed uint64) *cacheShard {
	return &c.shards[(seed*0x9e3779b97f4a7c15)>>(64-3)&(cacheShards-1)]
}

// state returns the seeded state for seed, capturing and memoizing it on
// first use.
func (c *Cache) state(seed uint64) *lfState {
	s := c.shard(seed)
	s.mu.Lock()
	if st := s.cur[seed]; st != nil {
		s.mu.Unlock()
		return st
	}
	if st := s.prev[seed]; st != nil {
		// Promote: an entry still in use keeps riding the current
		// generation and survives the next epoch turn.
		s.insertLocked(seed, st)
		s.mu.Unlock()
		return st
	}
	s.mu.Unlock()
	// Capture outside the lock: ~14µs of seeding walk would otherwise
	// serialize every miss on the shard. Two racing captures of the same
	// seed produce identical immutable states, so last-write-wins is fine.
	if c.captureHook != nil {
		c.captureHook(seed)
	}
	st := captureState(seed)
	s.mu.Lock()
	s.insertLocked(seed, st)
	s.mu.Unlock()
	return st
}

// insertLocked adds seed to the current generation, turning the epoch when
// the generation is full. Called with s.mu held.
func (s *cacheShard) insertLocked(seed uint64, st *lfState) {
	if s.cur == nil {
		s.cur = make(map[uint64]*lfState, s.max)
	}
	if len(s.cur) >= s.max {
		if _, ok := s.cur[seed]; !ok {
			s.prev = s.cur
			s.cur = make(map[uint64]*lfState, s.max)
		}
	}
	s.cur[seed] = st
}

// resident counts entries across all shards and generations (test helper;
// entries in both generations count once per generation, matching their
// memory cost).
func (c *Cache) resident() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.cur) + len(s.prev)
		s.mu.Unlock()
	}
	return n
}

// FirstUint64 returns New(seed).Uint64() — the stream's first draw — read
// straight off the memoized state, with no source built and no state copied.
// rand.Rand forwards Uint64 to the underlying Source64, so the first draw is
// vec[feed-1] + vec[tap-1] of the position-0 state.
func (c *Cache) FirstUint64(seed uint64) uint64 {
	st := c.state(seed)
	return st.vec[lfLen-lfTap-1] + st.vec[lfLen-1]
}
