package rng

import (
	"math/rand"
	"sync"
	"testing"
)

// TestCaptureStateExact: the recovered position-0 state must reproduce
// math/rand's stream bit-for-bit from the first draw, across seeds
// (including the special cases of the stdlib seeding routine), and
// FirstUint64 must equal the first draw of a freshly seeded rand.Rand.
func TestCaptureStateExact(t *testing.T) {
	seeds := []uint64{0, 1, 2, 89482311, 1<<31 - 1, 1 << 31, 1 << 40, ^uint64(0), 0xdeadbeefcafebabe}
	for s := uint64(3); s < 40; s += 7 {
		seeds = append(seeds, s, s*0x9e3779b97f4a7c15)
	}
	for s := uint64(0); s < 200; s++ {
		seeds = append(seeds, mix(s, 0xfeed))
	}
	c := NewCache(64)
	for _, seed := range seeds {
		want := rand.New(rand.NewSource(int64(seed))).Uint64() //nolint:gosec // test against stdlib
		if got := c.FirstUint64(seed); got != want {
			t.Fatalf("seed %d: FirstUint64 %d != %d", seed, got, want)
		}
		// Step the lagged-Fibonacci recurrence over the captured state and
		// compare well past one full state-vector turn.
		vec := captureState(seed).vec
		tap, feed := 0, lfLen-lfTap
		ref := rand.NewSource(int64(seed)).(rand.Source64) //nolint:gosec // test against stdlib
		for i := 0; i < 2000; i++ {
			tap = (tap + lfLen - 1) % lfLen
			feed = (feed + lfLen - 1) % lfLen
			vec[feed] += vec[tap]
			if w := ref.Uint64(); vec[feed] != w {
				t.Fatalf("seed %d draw %d: %d != %d", seed, i, vec[feed], w)
			}
		}
	}
}

// TestCacheEpochClear: filling the cache past capacity ages entries out
// rather than growing without bound, and streams stay correct afterwards.
func TestCacheEpochClear(t *testing.T) {
	// Capacity below the shard fan-out still bounds each shard to one entry
	// per generation: 2 generations x 8 shards = at most 16 resident.
	c := NewCache(8)
	for s := uint64(0); s < 400; s++ {
		_ = c.FirstUint64(s)
	}
	if n := c.resident(); n > 2*cacheShards {
		t.Fatalf("cache grew to %d entries past its hard bound of %d", n, 2*cacheShards)
	}
	if x, y := New(5).Uint64(), c.FirstUint64(5); x != y {
		t.Fatalf("post-clear first draw diverged: %v != %v", y, x)
	}
}

// TestCacheRetainsHotEntriesAcrossEpochs: a working set in steady use must
// not be re-captured when cold seeds overflow the capacity — the failure
// mode of a wholesale epoch clear, where every clear forced a re-capture
// storm of the entire live set. Hot entries ride generation promotion and
// are captured once, no matter how much cold traffic flows past them.
func TestCacheRetainsHotEntriesAcrossEpochs(t *testing.T) {
	c := NewCache(256) // per-shard generations of 16
	captures := make(map[uint64]int)
	c.captureHook = func(seed uint64) { captures[seed]++ }

	hot := make([]uint64, 16)
	for i := range hot {
		hot[i] = uint64(i)*0x9e3779b97f4a7c15 + 1
	}
	cold := uint64(1 << 32)
	// 50 rounds x 64 cold captures ≈ 12.5x the cache capacity: the old
	// wholesale clear would have wiped the hot set repeatedly.
	for round := 0; round < 50; round++ {
		for _, s := range hot {
			_ = c.FirstUint64(s)
		}
		for i := 0; i < 64; i++ {
			cold++
			_ = c.FirstUint64(cold)
		}
	}
	for _, s := range hot {
		// A hot seed is captured once up front; a single extra capture is
		// tolerated in case an epoch turn lands between its access and the
		// cold flood of the same round. More means retention is broken.
		if captures[s] > 2 {
			t.Fatalf("hot seed %#x captured %d times; retention across epoch turns is broken", s, captures[s])
		}
	}
	if captures[hot[0]] == 0 {
		t.Fatal("capture hook observed nothing; test is vacuous")
	}
}

// TestCacheConcurrentStripes hammers one cache from many goroutines over
// overlapping seed sets; the race detector guards the striped locking and
// the returned streams must stay bit-identical to fresh sources.
func TestCacheConcurrentStripes(t *testing.T) {
	c := NewCache(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				seed := uint64(i % 37)
				want := New(seed).Uint64()
				if got := c.FirstUint64(seed); got != want {
					t.Errorf("goroutine %d: FirstUint64(%d) = %d, want %d", g, seed, got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func BenchmarkSeedNew(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = New(uint64(i))
	}
}

func BenchmarkSeedCacheHit(b *testing.B) {
	c := NewCache(16)
	_ = c.FirstUint64(7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.FirstUint64(7)
	}
}
