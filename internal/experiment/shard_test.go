package experiment

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"addcrn/internal/fault"
	"addcrn/internal/netmodel"
)

func TestParseShard(t *testing.T) {
	cases := []struct {
		in   string
		want ShardSpec
		ok   bool
	}{
		{"1/1", ShardSpec{1, 1}, true},
		{"1/3", ShardSpec{1, 3}, true},
		{"3/3", ShardSpec{3, 3}, true},
		{" 2 / 5 ", ShardSpec{2, 5}, true},
		{"16/16", ShardSpec{16, 16}, true},
		{"", ShardSpec{}, false},
		{"13", ShardSpec{}, false},        // no slash
		{"0/3", ShardSpec{}, false},       // index < 1
		{"-1/3", ShardSpec{}, false},      // negative index
		{"4/3", ShardSpec{}, false},       // index > count
		{"1/0", ShardSpec{}, false},       // count < 1
		{"1/-2", ShardSpec{}, false},      // negative count
		{"1.5/3", ShardSpec{}, false},     // non-integer
		{"a/b", ShardSpec{}, false},       // non-numeric
		{"1/", ShardSpec{}, false},        // empty count
		{"/3", ShardSpec{}, false},        // empty index
		{"1/2/3", ShardSpec{}, false},     // too many fields
		{"one/three", ShardSpec{}, false}, // words
	}
	for _, tc := range cases {
		got, err := ParseShard(tc.in)
		if tc.ok {
			if err != nil {
				t.Errorf("ParseShard(%q) failed: %v", tc.in, err)
			} else if got != tc.want {
				t.Errorf("ParseShard(%q) = %+v, want %+v", tc.in, got, tc.want)
			}
		} else if err == nil {
			t.Errorf("ParseShard(%q) accepted as %+v", tc.in, got)
		}
	}
}

// Property: for random grids, the k shard partitions exactly tile the
// (x, rep) index space — every pair owned by exactly one shard, in grid
// order within each shard.
// FuzzParseShard feeds arbitrary strings to ParseShard: it must never panic,
// every spec it accepts must pass Validate, and printing an accepted spec
// must parse back to the same spec.
func FuzzParseShard(f *testing.F) {
	for _, s := range []string{"1/3", "3/3", " 2 / 5 ", "+1/2", "0/1", "2/1", "-1/2", "1/", "/", "", "a/b",
		"1/2/3", "9223372036854775807/9223372036854775807", "99999999999999999999/1"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		sp, err := ParseShard(s)
		if err != nil {
			return
		}
		if err := sp.Validate(); err != nil {
			t.Fatalf("ParseShard(%q) accepted %+v, which Validate rejects: %v", s, sp, err)
		}
		back, err := ParseShard(sp.String())
		if err != nil || back != sp {
			t.Fatalf("ParseShard(%q) = %+v, but its String %q parses to %+v, %v", s, sp, sp.String(), back, err)
		}
	})
}

func TestPartitionTilesGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		numXs := 1 + rng.Intn(12)
		reps := 1 + rng.Intn(12)
		k := 1 + rng.Intn(numXs*reps+3) // sometimes more shards than pairs
		for xi := 0; xi < numXs; xi++ {
			for rep := 0; rep < reps; rep++ {
				var owners []int
				for i := 1; i <= k; i++ {
					if (ShardSpec{Index: i, Count: k}).owns(xi, rep, reps) {
						owners = append(owners, i)
					}
				}
				if len(owners) != 1 {
					t.Fatalf("grid %dx%d k=%d: pair (%d,%d) owned by shards %v, want exactly one",
						numXs, reps, k, xi, rep, owners)
				}
			}
		}
	}
}

func TestPartitionRejectsInvalidSpec(t *testing.T) {
	for _, sp := range []ShardSpec{{0, 3}, {4, 3}, {1, 0}, {-1, -1}} {
		if err := sp.Validate(); err == nil {
			t.Errorf("Validate accepted invalid %+v", sp)
		}
	}
}

func TestShardJournalPath(t *testing.T) {
	got := ShardJournalPath("/state/cp.jsonl", ShardSpec{Index: 2, Count: 3})
	if got != "/state/cp.shard-2-of-3.jsonl" {
		t.Fatalf("ShardJournalPath = %q", got)
	}
	if got := ShardJournalPath("cp", ShardSpec{Index: 1, Count: 2}); got != "cp.shard-1-of-2" {
		t.Fatalf("extensionless path = %q", got)
	}
}

// shardTestSweep is the small sweep the merge/equivalence tests shard.
// Workers is pinned to 1 so journals are byte-comparable (completion order
// is deterministic only then).
func shardTestSweep(dir string, mutate func(*Sweep)) *Sweep {
	s := &Sweep{
		ID:     "shardtest",
		Title:  "shard equivalence",
		XLabel: "p_t",
		Base:   tinyBase(),
		Xs:     []float64{0.15, 0.3},
		Apply: func(p netmodel.Params, x float64) netmodel.Params {
			p.ActiveProb = x
			return p
		},
		Reps:           3,
		Seed:           11,
		MaxVirtualTime: 10 * time.Minute,
		Workers:        1,
	}
	if mutate != nil {
		mutate(s)
	}
	return s
}

// runShards executes every shard of the sweep into dir and returns the
// shard journal paths.
func runShards(t *testing.T, dir string, k int, mutate func(*Sweep)) (base string, paths []string) {
	t.Helper()
	base = filepath.Join(dir, "cp.jsonl")
	for i := 1; i <= k; i++ {
		sp := ShardSpec{Index: i, Count: k}
		s := shardTestSweep(dir, mutate)
		s.Shard = sp
		s.Checkpoint = ShardJournalPath(base, sp)
		if _, err := s.Run(); err != nil {
			t.Fatalf("shard %s: %v", sp, err)
		}
		paths = append(paths, s.Checkpoint)
	}
	return base, paths
}

// shardTestExt2 turns the shard test sweep into the ADDC-only ext2 figure
// over the same small grid.
func shardTestExt2(s *Sweep) {
	fig, err := NewFigureSweep("ext2", s.Base, s.Seed)
	if err != nil {
		panic(err)
	}
	fig.Xs = []float64{0.1, 0.3}
	fig.Reps, fig.MaxVirtualTime, fig.Workers = s.Reps, s.MaxVirtualTime, s.Workers
	*s = *fig
}

// The core byte-identity contract: for k in {1, 2, 5}, merging the k shard
// journals reproduces the unsharded run's journal byte for byte, and the
// summary replayed from the merged journal equals the unsharded summary
// (CSV byte-identical; points deep-equal) — for a Fig. 6-style sweep and for
// the ADDC-only ext2 figure.
func TestShardedMergeByteIdentical(t *testing.T) {
	checkShardedMerge(t, nil)
	t.Run("ext2", func(t *testing.T) { checkShardedMerge(t, shardTestExt2) })
}

func checkShardedMerge(t *testing.T, mutate func(*Sweep)) {
	baselineDir := t.TempDir()
	baseline := shardTestSweep(baselineDir, mutate)
	baseline.Checkpoint = filepath.Join(baselineDir, "cp.jsonl")
	baseRes, err := baseline.Run()
	if err != nil {
		t.Fatal(err)
	}
	wantJournal, err := os.ReadFile(baseline.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	if len(wantJournal) == 0 {
		t.Fatal("baseline journaled nothing; comparison is vacuous")
	}
	wantCSV := baseRes.FormatCSV()

	for _, k := range []int{1, 2, 5} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			dir := t.TempDir()
			base, paths := runShards(t, dir, k, mutate)
			stats, err := mergeJournals(base, paths, MergeOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if len(stats.MissingPairs) != 0 {
				t.Fatalf("full merge reports %d missing pairs", len(stats.MissingPairs))
			}
			merged, err := os.ReadFile(base)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(merged, wantJournal) {
				t.Fatalf("merged journal diverges from unsharded run:\n merged:\n%s\n unsharded:\n%s", merged, wantJournal)
			}
			replay := shardTestSweep(dir, mutate)
			replay.Checkpoint = base
			replay.Resume = true
			replay.replayOnly = true
			res, err := replay.Run()
			if err != nil {
				t.Fatal(err)
			}
			if got := res.FormatCSV(); got != wantCSV {
				t.Fatalf("replayed CSV diverges:\n got:\n%s\n want:\n%s", got, wantCSV)
			}
			if !reflect.DeepEqual(res.Points, baseRes.Points) {
				t.Fatalf("replayed points diverge:\n got:  %+v\n want: %+v", res.Points, baseRes.Points)
			}
			if res.Resumed != len(baseline.Xs)*baseline.Reps {
				t.Fatalf("replay executed work: Resumed = %d, want %d", res.Resumed, len(baseline.Xs)*baseline.Reps)
			}
		})
	}
}

// Kill-and-resume variant: shard 1 of 2 is "killed" by truncating its
// journal mid-file (simulating a crash that lost the un-flushed tail and
// tore the final line), then resumed; the merge must still be
// byte-identical to the unsharded run.
func TestShardedMergeAfterKillResume(t *testing.T) {
	baselineDir := t.TempDir()
	baseline := shardTestSweep(baselineDir, nil)
	baseline.Checkpoint = filepath.Join(baselineDir, "cp.jsonl")
	if _, err := baseline.Run(); err != nil {
		t.Fatal(err)
	}
	wantJournal, err := os.ReadFile(baseline.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	base, paths := runShards(t, dir, 2, nil)

	// Crash shard 1: drop its last complete pair and tear the final line.
	data, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
	if len(lines) < 4 {
		t.Fatalf("shard journal too short to truncate meaningfully: %d lines", len(lines))
	}
	torn := append(bytes.Join(lines[:len(lines)-2], []byte("\n")), []byte("\n")...)
	torn = append(torn, lines[len(lines)-2][:10]...) // torn unterminated tail
	if err := os.WriteFile(paths[0], torn, 0o644); err != nil {
		t.Fatal(err)
	}

	// The merge refuses while a pair is missing (no AllowMissing)...
	if _, err := mergeJournals(base, paths, MergeOptions{}); err == nil {
		if stats, _ := mergeJournals(base, paths, MergeOptions{}); len(stats.MissingPairs) == 0 {
			t.Fatal("truncation removed nothing; test is vacuous")
		}
	}

	// ...then the shard resumes from its torn journal and re-runs only the
	// lost pairs, after which the merge is byte-identical again.
	sp := ShardSpec{Index: 1, Count: 2}
	s := shardTestSweep(dir, nil)
	s.Shard = sp
	s.Checkpoint = paths[0]
	s.Resume = true
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Resumed == 0 {
		t.Fatal("resumed shard replayed nothing from its journal")
	}
	if _, err := mergeJournals(base, paths, MergeOptions{}); err != nil {
		t.Fatal(err)
	}
	merged, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(merged, wantJournal) {
		t.Fatalf("kill-resume merge diverges from unsharded run:\n merged:\n%s\n unsharded:\n%s", merged, wantJournal)
	}
}

// Fault injection + invariant guards ride along unchanged: a sharded run
// of a faulty, guarded sweep still merges byte-identically.
func TestShardedMergeWithFaultsAndGuards(t *testing.T) {
	withFaults := func(s *Sweep) {
		s.Guard = true
		s.Faults = &fault.Spec{CrashFrac: 0.05, LinkLoss: 0.02, RecoverAfter: 2 * time.Minute}
	}
	baselineDir := t.TempDir()
	baseline := shardTestSweep(baselineDir, withFaults)
	baseline.Checkpoint = filepath.Join(baselineDir, "cp.jsonl")
	baseRes, err := baseline.Run()
	if err != nil {
		t.Fatal(err)
	}
	wantJournal, err := os.ReadFile(baseline.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	base, paths := runShards(t, dir, 2, withFaults)
	if _, err := mergeJournals(base, paths, MergeOptions{}); err != nil {
		t.Fatal(err)
	}
	merged, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(merged, wantJournal) {
		t.Fatalf("faulty+guarded merge diverges:\n merged:\n%s\n unsharded:\n%s", merged, wantJournal)
	}
	replay := shardTestSweep(dir, withFaults)
	replay.Checkpoint = base
	replay.Resume = true
	replay.replayOnly = true
	res, err := replay.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.FormatCSV(), baseRes.FormatCSV(); got != want {
		t.Fatalf("faulty+guarded CSV diverges:\n got:\n%s\n want:\n%s", got, want)
	}
}

// Coverage validation: gaps, overlaps, and mismatched grids are refused
// with typed errors; AllowMissing downgrades only the gap.
func TestMergeJournalsCoverageValidation(t *testing.T) {
	dir := t.TempDir()
	base, paths := runShards(t, dir, 3, nil)

	t.Run("gap", func(t *testing.T) {
		_, err := mergeJournals(base, []string{paths[0], paths[2]}, MergeOptions{})
		if !errors.Is(err, ErrShardGap) {
			t.Fatalf("err = %v, want ErrShardGap", err)
		}
		stats, err := mergeJournals(base, []string{paths[0], paths[2]}, MergeOptions{AllowMissing: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(stats.MissingPairs) == 0 {
			t.Fatal("AllowMissing merge reports no missing pairs despite the gap")
		}
	})

	t.Run("duplicate-shard", func(t *testing.T) {
		dup := filepath.Join(dir, "dup.jsonl")
		data, err := os.ReadFile(paths[1])
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dup, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err = mergeJournals(filepath.Join(dir, "out1.jsonl"), append([]string{dup}, paths...), MergeOptions{})
		if !errors.Is(err, ErrShardOverlap) {
			t.Fatalf("err = %v, want ErrShardOverlap", err)
		}
	})

	t.Run("foreign-entry", func(t *testing.T) {
		// Graft an entry shard 1 does not own (it belongs to shard 2's
		// partition) into shard 1's journal.
		victim := filepath.Join(dir, "victim.jsonl")
		data, err := os.ReadFile(paths[0])
		if err != nil {
			t.Fatal(err)
		}
		stolen, err := os.ReadFile(paths[1])
		if err != nil {
			t.Fatal(err)
		}
		lines := bytes.SplitN(stolen, []byte("\n"), 3)
		grafted := append(append([]byte{}, data...), append(lines[1], '\n')...)
		if err := os.WriteFile(victim, grafted, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err = mergeJournals(filepath.Join(dir, "out2.jsonl"), []string{victim, paths[1], paths[2]}, MergeOptions{})
		if !errors.Is(err, ErrShardOverlap) {
			t.Fatalf("err = %v, want ErrShardOverlap", err)
		}
	})

	t.Run("mismatched-grid", func(t *testing.T) {
		otherDir := t.TempDir()
		_, otherPaths := runShards(t, otherDir, 3, func(s *Sweep) { s.Seed = 99 })
		_, err := mergeJournals(filepath.Join(dir, "out3.jsonl"),
			[]string{otherPaths[0], paths[1], paths[2]}, MergeOptions{})
		if !errors.Is(err, ErrShardMismatch) {
			t.Fatalf("err = %v, want ErrShardMismatch", err)
		}
	})

	t.Run("headerless", func(t *testing.T) {
		plain := filepath.Join(dir, "plain.jsonl")
		data, err := os.ReadFile(paths[0])
		if err != nil {
			t.Fatal(err)
		}
		// Strip the header line.
		idx := bytes.IndexByte(data, '\n')
		if err := os.WriteFile(plain, data[idx+1:], 0o644); err != nil {
			t.Fatal(err)
		}
		_, err = mergeJournals(filepath.Join(dir, "out4.jsonl"), []string{plain, paths[1], paths[2]}, MergeOptions{})
		if !errors.Is(err, ErrShardMismatch) || !strings.Contains(err.Error(), "no shard header") {
			t.Fatalf("err = %v, want headerless ErrShardMismatch", err)
		}
	})
}

// Merging is idempotent over duplicates: a shard journal holding a pair
// twice (a resumed shard re-journals replayed pairs) merges with last-write
// -wins dedup, and re-merging produces identical bytes.
func TestMergeJournalsIdempotent(t *testing.T) {
	dir := t.TempDir()
	base, paths := runShards(t, dir, 2, nil)

	first, err := mergeJournals(base, paths, MergeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mergedOnce, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}

	// Duplicate shard 1's first pair by re-appending its entry lines.
	data, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitN(data, []byte("\n"), 4) // header, addc, coolest, rest
	dup := append(append([]byte{}, data...), append(lines[1], '\n')...)
	dup = append(dup, append(lines[2], '\n')...)
	if err := os.WriteFile(paths[0], dup, 0o644); err != nil {
		t.Fatal(err)
	}

	again, err := mergeJournals(base, paths, MergeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if again.Duplicates < 2 {
		t.Fatalf("Duplicates = %d, want >= 2", again.Duplicates)
	}
	if again.Entries != first.Entries {
		t.Fatalf("entry count changed across re-merge: %d vs %d", again.Entries, first.Entries)
	}
	mergedTwice, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mergedOnce, mergedTwice) {
		t.Fatal("re-merge with duplicated entries changed the merged journal bytes")
	}
}

// A shard journal survives its own torn tail: LoadJournal keeps the header
// and every complete line, and a sharded resume refuses a journal written
// by a different shard or grid.
func TestShardJournalHeaderRoundTripAndResumeGuards(t *testing.T) {
	dir := t.TempDir()
	base, paths := runShards(t, dir, 2, nil)

	j, err := LoadJournal(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	h := j.Header()
	if h == nil || h.Index != 1 || h.Count != 2 || h.Sweep != "shardtest" {
		t.Fatalf("header = %+v", h)
	}
	if h.NumXs != 2 || h.Reps != 3 {
		t.Fatalf("header geometry = %dx%d, want 2x3", h.NumXs, h.Reps)
	}

	// Resuming shard 2's journal as shard 1 is refused.
	s := shardTestSweep(dir, nil)
	s.Shard = ShardSpec{Index: 1, Count: 2}
	s.Checkpoint = paths[1]
	s.Resume = true
	if _, err := s.Run(); !errors.Is(err, ErrShardMismatch) {
		t.Fatalf("cross-shard resume: err = %v, want ErrShardMismatch", err)
	}

	// Resuming a shard journal unsharded is refused too (merge instead).
	u := shardTestSweep(dir, nil)
	u.Checkpoint = paths[0]
	u.Resume = true
	if _, err := u.Run(); !errors.Is(err, ErrShardMismatch) {
		t.Fatalf("unsharded resume of shard journal: err = %v, want ErrShardMismatch", err)
	}
	_ = base
}

// TestGridHashGolden pins the shard grid hash of two fixed sweeps, fresh
// and shared-topology under faults, to the values shard journals have
// carried since the PCG generator switch. A change here makes every existing
// shard journal unmergeable, so it must be deliberate (and recorded) rather
// than a side effect of refactoring the sweep engine.
func TestGridHashGolden(t *testing.T) {
	base := netmodel.ScaledDefaultParams()
	base.NumSU = 80
	base.Area = 55
	fresh := Sweep{
		ID:             "6c",
		Base:           base,
		Xs:             []float64{0.1, 0.25, 0.4},
		Reps:           5,
		Seed:           7,
		MaxVirtualTime: 10 * time.Minute,
	}
	shared := fresh
	shared.ShareTopology = true
	shared.Guard = true
	shared.Faults = &fault.Spec{CrashFrac: 0.05, LinkLoss: 0.02, RecoverAfter: 2 * time.Minute}
	for _, c := range []struct {
		name string
		s    Sweep
		want string
	}{
		{"fresh", fresh, "d987f05f43bfe021"},
		{"share+faults", shared, "58fd9aecaeb6b9f9"},
	} {
		if got := c.s.GridHash(); got != c.want {
			t.Errorf("%s: grid hash %s, want %s", c.name, got, c.want)
		}
	}
}

// Sweep.Merge is the one merge phase the CLI and the coordinator share: it
// finds the shard journals beside Checkpoint, merges them into the
// unsharded run's journal and replays its summary; journals written for
// another grid are refused before anything is written.
func TestSweepMerge(t *testing.T) {
	baselineDir := t.TempDir()
	baseline := shardTestSweep(baselineDir, nil)
	baseline.Checkpoint = filepath.Join(baselineDir, "cp.jsonl")
	baseRes, err := baseline.Run()
	if err != nil {
		t.Fatal(err)
	}
	wantJournal, err := os.ReadFile(baseline.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	base, _ := runShards(t, dir, 2, nil)
	s := shardTestSweep(dir, nil)
	s.Checkpoint = base
	res, stats, err := s.Merge(context.Background(), MergeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Journals != 2 || stats.Shards != 2 || len(stats.MissingPairs) != 0 {
		t.Fatalf("stats = %+v, want 2 journals of 2 shards and full coverage", stats)
	}
	if got, want := res.FormatCSV(), baseRes.FormatCSV(); got != want {
		t.Fatalf("merged CSV diverges:\n got:\n%s\n want:\n%s", got, want)
	}
	if res.Resumed != len(s.Xs)*s.Reps {
		t.Fatalf("merge executed work: Resumed = %d, want %d", res.Resumed, len(s.Xs)*s.Reps)
	}
	if merged, err := os.ReadFile(base); err != nil || !bytes.Equal(merged, wantJournal) {
		t.Fatalf("merged journal diverges from the unsharded run's (err %v):\n%s", err, merged)
	}

	foreign := t.TempDir()
	base, _ = runShards(t, foreign, 2, nil)
	other := shardTestSweep(foreign, func(s *Sweep) { s.Seed++ })
	other.Checkpoint = base
	if _, _, err := other.Merge(context.Background(), MergeOptions{}); !errors.Is(err, ErrShardMismatch) {
		t.Fatalf("merge under another grid: err = %v, want ErrShardMismatch", err)
	}
	if _, err := os.Stat(base); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("a refused merge wrote %s (stat err %v)", base, err)
	}

	empty := shardTestSweep(t.TempDir(), nil)
	empty.Checkpoint = filepath.Join(t.TempDir(), "cp.jsonl")
	if _, _, err := empty.Merge(context.Background(), MergeOptions{}); err == nil || !strings.Contains(err.Error(), "no shard journals") {
		t.Fatalf("merge without shard journals: err = %v", err)
	}
}
