package experiment

import (
	"context"
	"errors"
	"sync"
	"testing"

	"addcrn/internal/netmodel"
)

// cacheParams returns a tiny connected operating point whose topology builds
// fast; i perturbs NumSU so distinct i give distinct cache keys.
func cacheParams(i int) netmodel.Params {
	p := tinyBase()
	p.NumSU = 60 + i
	return p
}

func TestTopoCacheHitsAndSize(t *testing.T) {
	c := newTopoCache()
	p := cacheParams(0)
	a, err := c.get(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.get(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("second get did not return the memoized topology")
	}
	if st := c.stats(); st != (TopoCacheStats{Hits: 1, Misses: 1}) || len(c.m) != 1 {
		t.Fatalf("stats = %+v over %d entries, want 1 hit, 1 miss, 1 entry", st, len(c.m))
	}

	// The network's lazily built neighbor rows are built once per radius
	// and shared with the WithParams copy a sweep run works on.
	tab, err := a.NW.SUNeighborBits(p.RadiusSU)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := b.NW.WithParams(p)
	if err != nil {
		t.Fatal(err)
	}
	again, err := cp.SUNeighborBits(p.RadiusSU)
	if err != nil {
		t.Fatal(err)
	}
	if tab != again {
		t.Fatal("repeat lookup rebuilt the neighbor rows")
	}
}

func TestTopoCacheCachesErrors(t *testing.T) {
	c := newTopoCache()
	bad := cacheParams(0)
	bad.RadiusSU = -1 // deterministic build failure
	_, err1 := c.get(bad, 1)
	if err1 == nil {
		t.Fatal("expected a build error")
	}
	_, err2 := c.get(bad, 1)
	if !errors.Is(err2, err1) && err2.Error() != err1.Error() {
		t.Fatalf("error not memoized: %v vs %v", err1, err2)
	}
	if st := c.stats(); st.Hits != 1 {
		t.Fatalf("Hits = %d, want 1 (error entries are cache entries too)", st.Hits)
	}
}

// Hammer the cache from many goroutines; the race detector guards the
// locking, and builds stay bounded by the distinct keys: concurrent gets of
// one key block on a single build and all receive its Topology.
func TestTopoCacheConcurrentBounded(t *testing.T) {
	const keys = 6
	c := newTopoCache()
	var wg sync.WaitGroup
	got := make([][keys]*Topology, 8)
	errs := make(chan error, 8)
	for w := range got {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				k := (w + i) % keys
				topo, err := c.get(cacheParams(k), 1)
				if err != nil {
					errs <- err
					return
				}
				if _, err := topo.NW.SUNeighborBits(topo.NW.Params.RadiusSU); err != nil {
					errs <- err
					return
				}
				got[w][k] = topo
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := c.stats(); st.Misses != keys || st.Hits != int64(8*12-keys) {
		t.Fatalf("stats = %+v, want %d misses (one build per key) and %d hits", st, keys, 8*12-keys)
	}
	for w := range got {
		if got[w] != got[0] {
			t.Fatalf("worker %d received different Topology values than worker 0", w)
		}
	}
}

// A sweep handed a warm cache produces byte-identical output to one
// building its own: the cache is pure memoization, so a hit returns exactly
// what a fresh build would.
func TestSweepSharedCacheEquivalence(t *testing.T) {
	private := tinySweep(5)
	private.ShareTopology = true
	privateRes, err := private.Run()
	if err != nil {
		t.Fatal(err)
	}
	if privateRes.TopoCache.Misses == 0 {
		t.Fatalf("run stats = %+v, want misses under ShareTopology", privateRes.TopoCache)
	}

	// Re-running the same sweep on a warm cache hits instead of building.
	cache := newTopoCache()
	warm := tinySweep(5)
	warm.ShareTopology = true
	if _, err := warm.runWith(context.Background(), cache); err != nil {
		t.Fatal(err)
	}
	cold := cache.stats()
	again := tinySweep(5)
	again.ShareTopology = true
	againRes, err := again.runWith(context.Background(), cache)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := againRes.FormatCSV(), privateRes.FormatCSV(); got != want {
		t.Fatalf("warm-cache sweep diverged:\n--- private\n%s--- warm\n%s", want, got)
	}
	st := againRes.TopoCache
	if st.Misses != cold.Misses {
		t.Fatalf("warm pass rebuilt topologies: misses %d -> %d", cold.Misses, st.Misses)
	}
	if st.Hits <= cold.Hits {
		t.Fatalf("warm pass did not hit: hits %d -> %d", cold.Hits, st.Hits)
	}
}
