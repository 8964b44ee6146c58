package experiment

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"addcrn/internal/netmodel"
)

// batchSweep builds the checkpointed sweep the batch resume test runs. Reps
// is 4 so a batch of 2 spans two full blocks.
func batchSweep(dir string, mutate func(*Sweep)) *Sweep {
	s := &Sweep{
		ID:     "batchequiv",
		Title:  "lane-batch equivalence",
		XLabel: "p_t",
		Base:   tinyBase(),
		Xs:     []float64{0.15, 0.3},
		Apply: func(p netmodel.Params, x float64) netmodel.Params {
			p.ActiveProb = x
			return p
		},
		Reps:           4,
		Seed:           11,
		MaxVirtualTime: 10 * time.Minute,
		Workers:        1,
		Guard:          true,
		Checkpoint:     filepath.Join(dir, "cp.jsonl"),
	}
	if mutate != nil {
		mutate(s)
	}
	return s
}

// TestBatchedShardMerge pins lane independence at the sharding boundary: a
// shard owns individual (x, rep) pairs, so a batched shard often executes a
// partial block. Its per-lane outcomes must still equal the full block's —
// the block placement seed is derived from the full rep grid, not from
// whichever lanes a shard happens to own — so merging k batched shards
// reproduces the unsharded batched journal byte for byte.
func TestBatchedShardMerge(t *testing.T) {
	batched := func(s *Sweep) {
		s.Reps = 4
		s.Batch = 2
	}
	baselineDir := t.TempDir()
	baseline := shardTestSweep(baselineDir, batched)
	baseline.Checkpoint = filepath.Join(baselineDir, "cp.jsonl")
	if _, err := baseline.Run(); err != nil {
		t.Fatal(err)
	}
	wantJournal, err := os.ReadFile(baseline.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	if len(wantJournal) == 0 {
		t.Fatal("baseline journaled nothing; comparison is vacuous")
	}

	for _, k := range []int{2, 3} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			dir := t.TempDir()
			base, paths := runShards(t, dir, k, batched)
			if _, err := MergeJournals(base, paths, MergeOptions{}); err != nil {
				t.Fatal(err)
			}
			merged, err := os.ReadFile(base)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(merged, wantJournal) {
				t.Fatalf("batched shard merge diverges from unsharded batched run:\n merged:\n%s\n unsharded:\n%s",
					merged, wantJournal)
			}
		})
	}
}

// TestBatchResumeSkipsJournaledLanes: resuming a batched sweep replays the
// journaled pairs and re-executes only the missing ones — including the
// case where a block is partially journaled, which a resumed run completes
// with identical per-lane bytes.
func TestBatchResumeSkipsJournaledLanes(t *testing.T) {
	dir := t.TempDir()
	full := batchSweep(dir, func(s *Sweep) { s.Batch = 2 })
	if _, err := full.Run(); err != nil {
		t.Fatal(err)
	}
	wantJournal, err := os.ReadFile(full.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}

	// Tear the journal mid-block: drop the last three complete pairs so the
	// resumed run restarts inside a batch block, not at a block boundary.
	lines := bytes.Split(bytes.TrimSuffix(wantJournal, []byte("\n")), []byte("\n"))
	if len(lines) < 8 {
		t.Fatalf("journal too short to truncate meaningfully: %d lines", len(lines))
	}
	torn := append(bytes.Join(lines[:len(lines)-6], []byte("\n")), '\n')
	tornPath := filepath.Join(t.TempDir(), "cp.jsonl")
	if err := os.WriteFile(tornPath, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	resumed := batchSweep(dir, func(s *Sweep) { s.Batch = 2 })
	resumed.Checkpoint = tornPath
	resumed.Resume = true
	res, err := resumed.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Resumed == 0 {
		t.Fatal("resume replayed nothing; truncation test is vacuous")
	}
	got, err := os.ReadFile(tornPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wantJournal) {
		t.Fatalf("resumed batched journal diverges from uninterrupted run:\n resumed:\n%s\n full:\n%s", got, wantJournal)
	}
}

// TestBatchedShardRefusesScalarMerge: Batch enters the grid hash, so a
// batched shard journal and a scalar shard journal of the "same" sweep are
// different grids and must not merge.
func TestBatchedShardRefusesScalarMerge(t *testing.T) {
	dir := t.TempDir()
	_, scalarPaths := runShards(t, dir, 2, func(s *Sweep) { s.Reps = 4 })
	otherDir := t.TempDir()
	_, batchedPaths := runShards(t, otherDir, 2, func(s *Sweep) {
		s.Reps = 4
		s.Batch = 2
	})
	_, err := MergeJournals(filepath.Join(dir, "out.jsonl"),
		[]string{scalarPaths[0], batchedPaths[1]}, MergeOptions{})
	if !errors.Is(err, ErrShardMismatch) {
		t.Fatalf("scalar+batched merge: err = %v, want ErrShardMismatch", err)
	}
}
