package experiment

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"addcrn/internal/netmodel"
)

// tinySweep is a fast two-point, two-rep sweep over the tiny operating
// point; every resilience test derives from it.
func tinySweep(seed uint64) *Sweep {
	return &Sweep{
		ID:     "test",
		Title:  "resilience test sweep",
		XLabel: "n",
		Base:   tinyBase(),
		Xs:     []float64{70, 80},
		Apply: func(p netmodel.Params, x float64) netmodel.Params {
			p.NumSU = int(x)
			return p
		},
		Reps:           2,
		Seed:           seed,
		MaxVirtualTime: 30 * time.Minute,
	}
}

// A repetition that panics must become a per-point failure carrying the
// stack trace — never a worker crash that kills the sweep.
func TestSweepPanicIsolation(t *testing.T) {
	s := tinySweep(1)
	apply := s.Apply
	s.Apply = func(p netmodel.Params, x float64) netmodel.Params {
		if x == 80 {
			panic("injected test panic")
		}
		return apply(p, x)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatalf("sweep aborted instead of isolating the panic: %v", err)
	}
	healthy, poisoned := res.Points[0], res.Points[1]
	if healthy.Failed != 0 || healthy.ADDCDelay.N != 2 {
		t.Fatalf("healthy point damaged: %d failed, %d reps", healthy.Failed, healthy.ADDCDelay.N)
	}
	if poisoned.Failed != 2*s.Reps { // both algorithms of both reps
		t.Fatalf("poisoned point Failed = %d, want %d", poisoned.Failed, 2*s.Reps)
	}
	if !strings.Contains(poisoned.LastError, "injected test panic") {
		t.Fatalf("LastError does not carry the panic: %q", poisoned.LastError)
	}
	if !strings.Contains(poisoned.LastError, "goroutine") {
		t.Fatalf("LastError does not carry the stack: %q", firstLine(poisoned.LastError, 120))
	}
	// The failure must be diagnosable from the rendered outputs.
	if table := res.FormatTable(); !strings.Contains(table, "injected test panic") {
		t.Fatalf("table hides the failure:\n%s", table)
	}
	if csv := res.FormatCSV(); !strings.Contains(csv, "injected test panic") {
		t.Fatalf("CSV hides the failure:\n%s", csv)
	}
}

// Interrupt a checkpointed sweep after one completed pair, resume it, and
// require the byte-identical summary of an uninterrupted run.
func TestSweepResumeDeterminism(t *testing.T) {
	dir := t.TempDir()
	full := tinySweep(2)
	full.Checkpoint = filepath.Join(dir, "full.jsonl")
	fullRes, err := full.Run()
	if err != nil {
		t.Fatal(err)
	}
	wantCSV := fullRes.FormatCSV()

	// Simulate an interruption: keep only the journal's first completed
	// pair (two lines — the per-pair flush keeps a pair's entries adjacent).
	data, err := os.ReadFile(full.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	if len(lines) < 2*len(full.Xs)*full.Reps {
		t.Fatalf("journal has %d lines, want %d", len(lines), 2*len(full.Xs)*full.Reps)
	}
	truncated := filepath.Join(dir, "interrupted.jsonl")
	if err := os.WriteFile(truncated, []byte(lines[0]+lines[1]), 0o644); err != nil {
		t.Fatal(err)
	}

	resumed := tinySweep(2)
	resumed.Checkpoint = truncated
	resumed.Resume = true
	resumedRes, err := resumed.Run()
	if err != nil {
		t.Fatal(err)
	}
	if resumedRes.Resumed != 1 {
		t.Fatalf("Resumed = %d, want 1", resumedRes.Resumed)
	}
	if got := resumedRes.FormatCSV(); got != wantCSV {
		t.Fatalf("resumed summary differs from uninterrupted run:\n--- want\n%s--- got\n%s", wantCSV, got)
	}

	// Resuming the now-complete journal replays everything.
	replay := tinySweep(2)
	replay.Checkpoint = truncated
	replay.Resume = true
	replayRes, err := replay.Run()
	if err != nil {
		t.Fatal(err)
	}
	if want := len(replay.Xs) * replay.Reps; replayRes.Resumed != want {
		t.Fatalf("full replay resumed %d pairs, want %d", replayRes.Resumed, want)
	}
	if got := replayRes.FormatCSV(); got != wantCSV {
		t.Fatal("replayed summary differs from uninterrupted run")
	}

	// Checkpointing itself must not perturb results.
	plain := tinySweep(2)
	plainRes, err := plain.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := plainRes.FormatCSV(); got != wantCSV {
		t.Fatal("checkpointed run differs from plain run")
	}
}

func TestSweepCancelImmediate(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := tinySweep(3)
	s.Checkpoint = filepath.Join(t.TempDir(), "cp.jsonl")
	res, err := s.RunContext(ctx)
	if res == nil {
		t.Fatal("canceled sweep returned no partial result")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !strings.Contains(err.Error(), "resume from") {
		t.Fatalf("error does not point at the checkpoint: %v", err)
	}
	for _, p := range res.Points {
		if p.Failed != 0 || p.ADDCDelay.N != 0 {
			t.Fatalf("canceled reps leaked into the summary: %+v", p)
		}
	}
}

// A guard-enabled sweep over the tiny operating point must report zero
// violations (they would surface as per-point failures).
func TestSweepGuardedClean(t *testing.T) {
	s := tinySweep(4)
	s.Xs = s.Xs[:1]
	s.Guard = true
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Points {
		if p.Failed != 0 {
			t.Fatalf("guarded sweep failed %d reps: %s", p.Failed, p.LastError)
		}
		if p.ADDCDelay.N != s.Reps || p.CoolestDelay.N != s.Reps {
			t.Fatalf("missing reps: %d/%d", p.ADDCDelay.N, p.CoolestDelay.N)
		}
	}
}

func TestRetryableClassification(t *testing.T) {
	wrapped := fmt.Errorf("deploy: %w", netmodel.ErrDisconnected)
	cases := []struct {
		outs []runOutcome
		want bool
	}{
		{[]runOutcome{{err: wrapped}}, true},
		{[]runOutcome{{}, {CheckpointEntry: CheckpointEntry{Algo: algoCoolest}, err: wrapped}}, true},
		{[]runOutcome{{err: errors.New("deterministic")}}, false},
		{[]runOutcome{{err: wrapped, canceled: true}}, false},
		{[]runOutcome{{}, {CheckpointEntry: CheckpointEntry{Algo: algoCoolest}}}, false},
	}
	for i, c := range cases {
		if got := retryable(c.outs); got != c.want {
			t.Errorf("case %d: retryable = %v, want %v", i, got, c.want)
		}
	}
}

// Retries re-derive seeds but cannot rescue a hopeless deployment: the
// sweep must still terminate and report the disconnection.
func TestSweepRetryExhaustion(t *testing.T) {
	s := tinySweep(5)
	s.Xs = s.Xs[:1]
	s.Reps = 1
	s.Retries = 1
	s.Apply = func(p netmodel.Params, x float64) netmodel.Params {
		p.NumSU = 12
		p.Area = 500 // density far below the connectivity threshold
		return p
	}
	_, err := s.Run()
	if !errors.Is(err, netmodel.ErrDisconnected) {
		t.Fatalf("err = %v, want ErrDisconnected", err)
	}
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j, err := LoadJournal(path)
	if err != nil || j.Len() != 0 {
		t.Fatalf("missing journal: len=%d err=%v", j.Len(), err)
	}
	j.Add(
		CheckpointEntry{Sweep: "t", Xi: 0, Rep: 0, Algo: algoADDC, Delay: 123.456789012345, Tightness: -1, PUBusy: 0.1},
		CheckpointEntry{Sweep: "t", Xi: 0, Rep: 0, Algo: algoCoolest, Err: "boom, with \"quotes\"\nand a newline"},
	)
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	back, err := LoadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 2 {
		t.Fatalf("reloaded %d entries, want 2", back.Len())
	}
	for i, e := range back.Entries() {
		if e != j.Entries()[i] {
			t.Fatalf("entry %d round-trip mismatch: %+v vs %+v", i, e, j.Entries()[i])
		}
	}
	// A corrupt line is an error, not a silent skip.
	if err := os.WriteFile(path, []byte("{not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadJournal(path); err == nil {
		t.Fatal("corrupt journal loaded silently")
	}
}

// A crash mid-append can tear only the journal's final line; LoadJournal must
// drop that torn tail — and only that: the same fragment newline-terminated,
// or anywhere before the end, is corruption.
func TestJournalTornTailTolerated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	good := `{"sweep":"t","xi":0,"rep":0,"algo":"addc","delay":1,"capacity":2,"aborts":0,"tightness":-1,"pu_busy":0,"fairness":1}` + "\n"
	frag := `{"sweep":"t","xi":0,"rep":0,"algo":"coo` // torn mid-append

	if err := os.WriteFile(path, []byte(good+frag), 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := LoadJournal(path)
	if err != nil {
		t.Fatalf("torn final line rejected: %v", err)
	}
	if j.Len() != 1 || j.Entries()[0].Algo != algoADDC {
		t.Fatalf("loaded %d entries, want just the intact one", j.Len())
	}

	// Newline-terminated, the fragment is a complete (corrupt) line.
	if err := os.WriteFile(path, []byte(good+frag+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadJournal(path); err == nil {
		t.Fatal("newline-terminated corruption loaded silently")
	}
	// So is a fragment anywhere before the final line.
	if err := os.WriteFile(path, []byte(frag+"\n"+good), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadJournal(path); err == nil {
		t.Fatal("mid-file corruption loaded silently")
	}
}

// MaybeFlush must persist on the batch and interval triggers only: below
// both, the journal stays in memory.
func TestJournalBatchedFlushPolicy(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	entry := func(rep int) CheckpointEntry {
		return CheckpointEntry{Sweep: "t", Rep: rep, Algo: algoADDC, Tightness: -1}
	}
	j := NewJournal(path)
	j.Add(entry(0))
	if err := j.MaybeFlush(2, time.Hour); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("flushed below the batch size before the interval: %v", err)
	}
	j.Add(entry(1))
	if err := j.MaybeFlush(2, time.Hour); err != nil {
		t.Fatal(err)
	}
	back, err := LoadJournal(path)
	if err != nil || back.Len() != 2 {
		t.Fatalf("batch trigger persisted %d entries (err %v), want 2", back.Len(), err)
	}
	// The interval trigger fires even far below the batch size.
	j.Add(entry(2))
	j.lastFlush = time.Now().Add(-time.Hour)
	if err := j.MaybeFlush(100, time.Minute); err != nil {
		t.Fatal(err)
	}
	if back, err = LoadJournal(path); err != nil || back.Len() != 3 {
		t.Fatalf("interval trigger persisted %d entries (err %v), want 3", back.Len(), err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// Kill the batched flusher mid-append — the journal ends in one complete pair
// plus a torn fragment of the next line — and resume: the summary must be
// byte-identical to the uninterrupted run, and the resumed journal must be
// compacted back to a fully parseable record.
func TestSweepResumeAfterMidFlushKill(t *testing.T) {
	dir := t.TempDir()
	full := tinySweep(6)
	full.Checkpoint = filepath.Join(dir, "full.jsonl")
	fullRes, err := full.Run()
	if err != nil {
		t.Fatal(err)
	}
	wantCSV := fullRes.FormatCSV()

	data, err := os.ReadFile(full.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	if len(lines) < 3 {
		t.Fatalf("journal has only %d lines", len(lines))
	}
	// First completed pair, then the next line cut off mid-object with no
	// trailing newline — exactly what a death inside a buffered append leaves.
	torn := lines[0] + lines[1] + lines[2][:len(lines[2])/2]
	killed := filepath.Join(dir, "killed.jsonl")
	if err := os.WriteFile(killed, []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}

	resumed := tinySweep(6)
	resumed.Checkpoint = killed
	resumed.Resume = true
	res, err := resumed.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Resumed != 1 {
		t.Fatalf("Resumed = %d, want 1 (the intact pair)", res.Resumed)
	}
	if got := res.FormatCSV(); got != wantCSV {
		t.Fatalf("resumed summary differs from uninterrupted run:\n--- want\n%s--- got\n%s", wantCSV, got)
	}
	back, err := LoadJournal(killed)
	if err != nil {
		t.Fatalf("resumed journal not fully parseable: %v", err)
	}
	if want := 2 * len(full.Xs) * full.Reps; back.Len() != want {
		t.Fatalf("resumed journal has %d entries, want %d", back.Len(), want)
	}
}
