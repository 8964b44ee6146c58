package serve

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// shardedSpec is testSpec widened to a 2x3 grid so each of 3 shards owns
// two (x, rep) pairs.
func shardedSpec(seed uint64, shards int) JobSpec {
	spec := testSpec(seed)
	spec.Reps = 3
	spec.Shards = shards
	return spec
}

// referenceJournal runs the spec's sweep directly at one worker with a
// checkpoint and returns the journal bytes an unsharded run writes.
func referenceJournal(t *testing.T, spec JobSpec) []byte {
	t.Helper()
	unsharded := spec
	unsharded.Shards = 0
	sw, err := unsharded.sweep(1)
	if err != nil {
		t.Fatal(err)
	}
	sw.Checkpoint = t.TempDir() + "/reference.jsonl"
	if _, err := sw.Run(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(sw.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("reference run journaled nothing")
	}
	return data
}

func TestShardSpecValidation(t *testing.T) {
	for _, shards := range []int{-1, 1, 17} {
		spec := testSpec(1)
		spec.Shards = shards
		if err := spec.Validate(); err == nil {
			t.Errorf("Shards = %d accepted", shards)
		}
	}
	for _, shards := range []int{0, 2, 16} {
		spec := testSpec(1)
		spec.Shards = shards
		if err := spec.Validate(); err != nil {
			t.Errorf("Shards = %d rejected: %v", shards, err)
		}
	}
}

// The coordinator contract: a job submitted with Shards=3 produces the
// byte-identical journal and CSV of the unsharded job, via three shard
// jobs riding the ordinary queue.
func TestCoordinatorMatchesDirectRun(t *testing.T) {
	spec := shardedSpec(5, 3)
	unsharded := spec
	unsharded.Shards = 0
	wantCSV := referenceCSV(t, unsharded)
	wantJournal := referenceJournal(t, spec)

	dir := t.TempDir()
	s := newTestServer(t, Config{Workers: 2, StateDir: dir})
	s.Start()
	defer s.Drain(time.Millisecond)

	j, err := s.Submit(spec, "tester")
	if err != nil {
		t.Fatal(err)
	}
	done := waitJob(t, s, j.ID, StateDone, 2*time.Minute)
	if len(done.ShardIDs) != 3 {
		t.Fatalf("ShardIDs = %v, want 3 shard jobs", done.ShardIDs)
	}
	for _, id := range done.ShardIDs {
		c, ok := s.Job(id)
		if !ok {
			t.Fatalf("shard job %s missing from the table", id)
		}
		if c.Parent != j.ID || c.ShardOf != 3 {
			t.Fatalf("shard job %s: Parent=%q ShardOf=%d, want %q/3", id, c.Parent, c.ShardOf, j.ID)
		}
		if c.State != StateDone {
			t.Fatalf("shard job %s settled in %q", id, c.State)
		}
	}

	res, err := s.Result(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.Partial {
		t.Fatalf("all shards done but result marked partial (%q)", done.Error)
	}
	if res.CSV != wantCSV {
		t.Fatalf("coordinated CSV diverged from direct run:\n--- direct\n%s--- coordinated\n%s", wantCSV, res.CSV)
	}
	merged, err := os.ReadFile(journalPath(dir, j.ID))
	if err != nil {
		t.Fatal(err)
	}
	if string(merged) != string(wantJournal) {
		t.Fatalf("merged journal diverged from unsharded journal:\n--- unsharded\n%s--- merged\n%s", wantJournal, merged)
	}

	stats := s.Stats()
	if stats.ShardsSpawned != 3 || stats.ShardsCompleted != 3 {
		t.Fatalf("shard counters spawned=%d completed=%d, want 3/3", stats.ShardsSpawned, stats.ShardsCompleted)
	}
	if stats.ShardsFailed != 0 {
		t.Fatalf("ShardsFailed = %d, want 0", stats.ShardsFailed)
	}
}

// A single-worker pool must not deadlock: the parked coordinator holds no
// worker while its own shards drain through the one slot.
func TestCoordinatorSingleWorkerNoDeadlock(t *testing.T) {
	spec := shardedSpec(6, 2)
	s := newTestServer(t, Config{Workers: 1})
	s.Start()
	defer s.Drain(time.Millisecond)

	j, err := s.Submit(spec, "")
	if err != nil {
		t.Fatal(err)
	}
	done := waitJob(t, s, j.ID, StateDone, 2*time.Minute)
	if done.Error != "" {
		t.Fatalf("coordinator error: %q", done.Error)
	}
}

// A daemon restart re-arms a parked coordinator: interrupted shards resume
// from their journals, the coordinator merges, and the result still equals
// the direct run.
func TestCoordinatorRestartReArm(t *testing.T) {
	spec := shardedSpec(7, 3)
	unsharded := spec
	unsharded.Shards = 0
	wantCSV := referenceCSV(t, unsharded)

	dir := t.TempDir()
	first := newTestServer(t, Config{Workers: 1, StateDir: dir})
	first.Start()
	j, err := first.Submit(spec, "")
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the coordinator has parked and minted its shards, then
	// drain mid-flight: shards are either queued or interrupted mid-sweep.
	deadline := time.Now().Add(time.Minute)
	for {
		cur, ok := first.Job(j.ID)
		if !ok {
			t.Fatalf("job %s disappeared", j.ID)
		}
		if cur.State == StateCoordinating && len(cur.ShardIDs) == 3 {
			break
		}
		if terminalState(cur.State) {
			t.Fatalf("job settled in %q before the drain", cur.State)
		}
		if time.Now().After(deadline) {
			t.Fatalf("coordinator never parked (state %q)", cur.State)
		}
		time.Sleep(time.Millisecond)
	}
	first.Drain(time.Millisecond)

	second := newTestServer(t, Config{Workers: 2, StateDir: dir})
	second.Start()
	defer second.Drain(time.Millisecond)
	done := waitJob(t, second, j.ID, StateDone, 2*time.Minute)
	if done.Error != "" {
		t.Fatalf("restarted coordinator error: %q", done.Error)
	}
	res, err := second.Result(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.Partial {
		t.Fatal("restart produced a partial result despite all shards surviving")
	}
	if res.CSV != wantCSV {
		t.Fatalf("post-restart CSV diverged from direct run:\n--- direct\n%s--- restarted\n%s", wantCSV, res.CSV)
	}
}

// A shard that permanently failed costs only its own pairs: the coordinator
// merges the surviving journals and stores a partial result instead of
// failing the whole job. Simulated by rewriting persisted state between two
// daemon lifetimes — exactly what a crashed worker leaves behind.
func TestCoordinatorPartialResultOnFailedShard(t *testing.T) {
	spec := shardedSpec(8, 3)
	dir := t.TempDir()
	first := newTestServer(t, Config{Workers: 2, StateDir: dir})
	first.Start()
	j, err := first.Submit(spec, "")
	if err != nil {
		t.Fatal(err)
	}
	done := waitJob(t, first, j.ID, StateDone, 2*time.Minute)
	first.Drain(time.Millisecond)

	// Rewind history: shard 2 "failed" and never journaled, the parent is
	// still parked, and neither merged journal nor result exists yet.
	lost := done.ShardIDs[1]
	rewrite := func(id string, mutate func(*Job)) {
		data, err := os.ReadFile(jobPath(dir, id))
		if err != nil {
			t.Fatal(err)
		}
		var job Job
		if err := json.Unmarshal(data, &job); err != nil {
			t.Fatal(err)
		}
		mutate(&job)
		out, err := json.Marshal(&job)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(jobPath(dir, id), out, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	rewrite(lost, func(job *Job) { job.State = StateFailed; job.Error = "worker died" })
	rewrite(j.ID, func(job *Job) { job.State = StateCoordinating })
	for _, p := range []string{
		first.JournalPath(lost),
		journalPath(dir, j.ID),
		resultPath(dir, j.ID),
	} {
		if err := os.Remove(p); err != nil {
			t.Fatal(err)
		}
	}

	second := newTestServer(t, Config{Workers: 2, StateDir: dir})
	second.Start()
	defer second.Drain(time.Millisecond)
	redone := waitJob(t, second, j.ID, StateDone, 2*time.Minute)
	if !strings.Contains(redone.Error, "partial") {
		t.Fatalf("partial merge error = %q, want it to say partial", redone.Error)
	}
	res, err := second.Result(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partial {
		t.Fatal("result of a merge with a failed shard not marked partial")
	}
	if res.CSV == "" {
		t.Fatal("partial merge stored no CSV at all")
	}
}

// The merge phase refuses shard journals written for another grid: when the
// parent's spec no longer describes the grid its shards journaled (here its
// seed is rewritten between two daemon lifetimes), the job fails instead of
// storing a summary of someone else's pairs.
func TestCoordinatorRejectsForeignGrid(t *testing.T) {
	spec := shardedSpec(9, 2)
	dir := t.TempDir()
	first := newTestServer(t, Config{Workers: 2, StateDir: dir})
	first.Start()
	j, err := first.Submit(spec, "")
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, first, j.ID, StateDone, 2*time.Minute)
	first.Drain(time.Millisecond)

	data, err := os.ReadFile(jobPath(dir, j.ID))
	if err != nil {
		t.Fatal(err)
	}
	var parent Job
	if err := json.Unmarshal(data, &parent); err != nil {
		t.Fatal(err)
	}
	parent.State = StateCoordinating
	parent.Spec.Seed++
	if data, err = json.Marshal(&parent); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(jobPath(dir, j.ID), data, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{journalPath(dir, j.ID), resultPath(dir, j.ID)} {
		if err := os.Remove(p); err != nil {
			t.Fatal(err)
		}
	}

	second := newTestServer(t, Config{Workers: 2, StateDir: dir})
	second.Start()
	defer second.Drain(time.Millisecond)
	failed := waitJob(t, second, j.ID, StateFailed, 2*time.Minute)
	if !strings.Contains(failed.Error, "grid") {
		t.Fatalf("merge error = %q, want it to name the grid mismatch", failed.Error)
	}
	if _, err := os.Stat(journalPath(dir, j.ID)); err == nil {
		t.Fatal("a refused merge still wrote the merged journal")
	}
}
