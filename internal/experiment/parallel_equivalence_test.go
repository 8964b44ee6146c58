package experiment

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
	"time"

	"addcrn/internal/fault"
	"addcrn/internal/netmodel"
)

// parallelSweep runs a checkpointed sweep of 12 (x, rep) pairs — enough for
// real work interleaving across a pool — under faults and invariant guards,
// and returns the journal bytes plus the formatted CSV and table. mutate
// sets the Workers count under test.
func parallelSweep(t *testing.T, mutate func(*Sweep)) (ck []byte, csv, table string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	s := &Sweep{
		ID:     "par",
		Title:  "parallel-execution equivalence",
		XLabel: "p_t",
		Base:   tinyBase(),
		Xs:     []float64{0.1, 0.2, 0.3},
		Apply: func(p netmodel.Params, x float64) netmodel.Params {
			p.ActiveProb = x
			return p
		},
		Reps:           4,
		Seed:           23,
		MaxVirtualTime: 10 * time.Minute,
		Guard:          true,
		Faults:         &fault.Spec{CrashFrac: 0.05, LinkLoss: 0.02, RecoverAfter: 2 * time.Minute},
		Checkpoint:     path,
	}
	if mutate != nil {
		mutate(s)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data, res.FormatCSV(), maskWallClock(res.FormatTable())
}

// maskWallClock blanks the table trailer's wall-clock annotation — the one
// field of the formatted output that is a property of the run, not of the
// results (it differs even between two identical Workers=1 runs). Everything
// else in the table must be byte-identical across worker counts.
func maskWallClock(table string) string {
	return regexp.MustCompile(`\(wall clock [^)]*\)`).ReplaceAllString(table, "(wall clock X)")
}

// TestParallelByteIdentity is the determinism contract of the parallel
// engine: every Workers count must journal byte-identical bytes and format
// identical CSV and table output — under faults and guards, where per-pair
// work is maximally uneven and completion order is not grid order.
//
// The subtest keeps the name "batch1": every sweep job runs one (x, rep)
// pair, which is the configuration that name has always covered.
func TestParallelByteIdentity(t *testing.T) {
	t.Run("batch1", func(t *testing.T) {
		refCk, refCSV, refTable := parallelSweep(t, func(s *Sweep) { s.Workers = 1 })
		if len(refCk) == 0 {
			t.Fatal("reference sweep journaled nothing; comparison is vacuous")
		}
		for _, workers := range []int{2, 8} {
			ck, csv, table := parallelSweep(t, func(s *Sweep) { s.Workers = workers })
			if !bytes.Equal(refCk, ck) {
				t.Fatalf("journal bytes diverge between Workers=1 and Workers=%d:\n ref:\n%s\n got:\n%s",
					workers, refCk, ck)
			}
			if refCSV != csv {
				t.Fatalf("CSV diverges between Workers=1 and Workers=%d:\n ref:\n%s\n got:\n%s",
					workers, refCSV, csv)
			}
			if refTable != table {
				t.Fatalf("table diverges between Workers=1 and Workers=%d", workers)
			}
		}
	})
}

// TestParallelJournalGridOrder pins the property byte-identity rests on: the
// committer journals outcomes through an in-order frontier, so however many
// workers race and whatever order pairs complete in, the journal's entry
// sequence walks the flattened grid (xi, rep) in strictly increasing order,
// ADDC before Coolest within a pair. This is the replacement for the old
// single-aggregator ordering, which was only deterministic at Workers=1.
func TestParallelJournalGridOrder(t *testing.T) {
	path := filepath.Join(t.TempDir(), "order.ckpt")
	s := &Sweep{
		ID:   "order",
		Base: tinyBase(),
		Xs:   []float64{0.1, 0.25},
		Apply: func(p netmodel.Params, x float64) netmodel.Params {
			p.ActiveProb = x
			return p
		},
		Reps:           5,
		Seed:           7,
		MaxVirtualTime: 10 * time.Minute,
		Workers:        8,
		Checkpoint:     path,
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	jr, err := LoadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	entries := jr.Entries()
	if len(entries) != 2*len(s.Xs)*s.Reps {
		t.Fatalf("journal has %d entries, want %d", len(entries), 2*len(s.Xs)*s.Reps)
	}
	prev := -1
	for i, e := range entries {
		flat := e.Xi*s.Reps + e.Rep
		switch {
		case i%2 == 0: // first entry of a pair: a strictly later grid slot
			if flat <= prev {
				t.Fatalf("entry %d (%d,%d) out of grid order (flat %d after %d)", i, e.Xi, e.Rep, flat, prev)
			}
			if e.Algo != algoADDC {
				t.Fatalf("entry %d: pair starts with %q, want %q", i, e.Algo, algoADDC)
			}
			prev = flat
		default: // second entry completes the same pair
			if flat != prev || e.Algo != algoCoolest {
				t.Fatalf("entry %d (%d,%d,%s) does not complete pair flat=%d", i, e.Xi, e.Rep, e.Algo, prev)
			}
		}
	}
}

// TestParallelWorkersResultEquivalence covers the no-checkpoint path (no
// journal frontier involved): the summarized points must be independent of
// the worker count, because aggregation is keyed by grid slot, never by
// completion order.
func TestParallelWorkersResultEquivalence(t *testing.T) {
	run := func(workers int) *SweepResult {
		s := &Sweep{
			ID:   "mem",
			Base: tinyBase(),
			Xs:   []float64{0.15, 0.3},
			Apply: func(p netmodel.Params, x float64) netmodel.Params {
				p.ActiveProb = x
				return p
			},
			Reps:           3,
			Seed:           5,
			MaxVirtualTime: 10 * time.Minute,
			Workers:        workers,
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref := run(1)
	for _, workers := range []int{2, 8} {
		if got := run(workers); !reflect.DeepEqual(ref.Points, got.Points) {
			t.Fatalf("points diverge between Workers=1 and Workers=%d:\n ref: %+v\n got: %+v",
				workers, ref.Points, got.Points)
		}
	}
}

// TestSweepWorkers4Stress is the race-tier stress target: four workers over
// a checkpointed, topology-sharing sweep — every cross-worker structure
// (topology snapshot tables, the sweep's topology cache, committer,
// journal) exercised at once. Its assertions are deliberately thin; under
// `go test -race` the detector is the test.
func TestSweepWorkers4Stress(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stress.ckpt")
	s := &Sweep{
		ID:   "stress",
		Base: tinyBase(),
		Xs:   []float64{0.1, 0.2, 0.3},
		Apply: func(p netmodel.Params, x float64) netmodel.Params {
			p.ActiveProb = x
			return p
		},
		Reps:           4,
		Seed:           31,
		MaxVirtualTime: 10 * time.Minute,
		Workers:        4,
		ShareTopology:  true,
		Guard:          true,
		Checkpoint:     path,
		FlushBatch:     1, // flush per pair: maximal committer/journal traffic
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != len(s.Xs) {
		t.Fatalf("got %d points, want %d", len(res.Points), len(s.Xs))
	}
	for _, p := range res.Points {
		if p.ADDCDelay.N+p.Failed == 0 {
			t.Fatalf("point x=%v summarized no repetitions", p.X)
		}
	}
}
