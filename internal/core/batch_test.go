package core

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"

	"addcrn/internal/metrics"
	"addcrn/internal/netmodel"
	"addcrn/internal/sim"
	"addcrn/internal/trace"
)

// scalarReference runs one repetition the scalar way, fully instrumented,
// and returns the byte-comparison material: Result, JSONL trace stream and
// deterministic metrics snapshot.
func scalarReference(t *testing.T, nw *netmodel.Network, parent []int32, base CollectConfig, seed uint64) (*Result, []byte, []byte) {
	t.Helper()
	var jsonl bytes.Buffer
	reg := metrics.NewRegistry()
	cfg := base
	cfg.Seed = seed
	cfg.Metrics = reg
	cfg.Sink = trace.NewJSONLSink(&jsonl)
	cfg.Workspace = nil
	res, err := Collect(nw, parent, cfg)
	if err != nil {
		t.Fatalf("scalar seed %d: %v", seed, err)
	}
	snap, err := reg.Snapshot().MarshalDeterministic()
	if err != nil {
		t.Fatal(err)
	}
	return res, jsonl.Bytes(), snap
}

// runBatchEquivalence drives CollectBatch over `seeds` lanes and asserts
// every lane is byte-identical to the same repetition run alone: equal
// Result, equal JSONL trace bytes, equal deterministic metrics snapshot.
func runBatchEquivalence(t *testing.T, base CollectConfig, seeds []uint64, ws *Workspace) {
	t.Helper()
	opts := smallOptions(seeds[0])
	nw, err := BuildNetwork(opts)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := BuildTree(nw)
	if err != nil {
		t.Fatal(err)
	}
	base.Tree = tree

	lanes := make([]Lane, len(seeds))
	bufs := make([]*bytes.Buffer, len(seeds))
	regs := make([]*metrics.Registry, len(seeds))
	for i, seed := range seeds {
		bufs[i] = &bytes.Buffer{}
		regs[i] = metrics.NewRegistry()
		lanes[i] = Lane{Seed: seed, Metrics: regs[i], Sink: trace.NewJSONLSink(bufs[i])}
	}
	cfg := base
	cfg.Workspace = ws
	out, err := CollectBatch(context.Background(), nw, tree.Parent, cfg, lanes)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(seeds) {
		t.Fatalf("got %d lane results for %d lanes", len(out), len(seeds))
	}
	for i, seed := range seeds {
		if out[i].Err != nil {
			t.Fatalf("lane %d (seed %d): %v", i, seed, out[i].Err)
		}
		wantRes, wantTrace, wantSnap := scalarReference(t, nw, tree.Parent, base, seed)
		if !reflect.DeepEqual(wantRes, out[i].Result) {
			t.Errorf("lane %d (seed %d): Results diverge:\n scalar: %+v\n batch:  %+v",
				i, seed, wantRes, out[i].Result)
		}
		if !bytes.Equal(wantTrace, bufs[i].Bytes()) {
			t.Errorf("lane %d (seed %d): JSONL trace streams diverge (%d vs %d bytes)",
				i, seed, len(wantTrace), bufs[i].Len())
		}
		snap, err := regs[i].Snapshot().MarshalDeterministic()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wantSnap, snap) {
			t.Errorf("lane %d (seed %d): metrics snapshots diverge:\n scalar: %s\n batch:  %s",
				i, seed, wantSnap, snap)
		}
		if len(wantTrace) == 0 {
			t.Fatalf("lane %d (seed %d): empty trace stream; comparison is vacuous", i, seed)
		}
	}
}

func laneSeedsFor(b int) []uint64 {
	seeds := make([]uint64, b)
	for i := range seeds {
		seeds[i] = uint64(1000 + 77*i)
	}
	return seeds
}

// TestCollectBatchEquivalence: lanes of a fault-free batch, at B = 1, 4 and
// 16, must be bit-identical to B sequential scalar runs with the same seeds.
func TestCollectBatchEquivalence(t *testing.T) {
	for _, b := range []int{1, 4, 16} {
		base := CollectConfig{TraceMAC: true}
		runBatchEquivalence(t, base, laneSeedsFor(b), NewWorkspace())
	}
}

// TestCollectBatchEquivalenceFaultsGuards is the hard variant: crashes with
// self-healing repair, link/ACK loss with bounded retries, invariant guards
// and full MAC tracing — on a workspace deliberately dirtied by a previous,
// differently-seeded batch, so slab and scratch renewal is in the loop.
func TestCollectBatchEquivalenceFaultsGuards(t *testing.T) {
	base := CollectConfig{
		Faults:   equivalenceSpec(),
		Guard:    true,
		TraceMAC: true,
	}
	ws := NewWorkspace()
	runBatchEquivalence(t, base, []uint64{5501, 5502, 5503, 5504}, ws)
	// Same workspace, new seeds: every MAC, slab lane and scratch buffer is
	// renewed in place.
	runBatchEquivalence(t, base, []uint64{7, 301, 1009, 2003}, ws)
}

// TestCollectBatchCancelMidRun: canceling the context mid-batch must stop
// every still-running lane within the poll granularity, each reporting its
// own *CanceledError carrying that lane's partial delivery counts.
func TestCollectBatchCancelMidRun(t *testing.T) {
	opts := smallOptions(2)
	nw, err := BuildNetwork(opts)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := BuildTree(nw)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	starts := 0
	cfg := CollectConfig{
		OnTxStart: func(node int32, now sim.Time) {
			starts++
			if starts == 25 {
				cancel()
			}
		},
	}
	lanes := []Lane{{Seed: 11}, {Seed: 12}, {Seed: 13}, {Seed: 14}}
	out, err := CollectBatch(ctx, nw, tree.Parent, cfg, lanes)
	if err != nil {
		t.Fatal(err)
	}
	canceled := 0
	for i, lr := range out {
		if lr.Result == nil {
			t.Fatalf("lane %d: nil partial Result", i)
		}
		if lr.Err == nil {
			continue // finished before the cancellation landed
		}
		var ce *CanceledError
		if !errors.As(lr.Err, &ce) {
			t.Fatalf("lane %d: err = %T (%v), want *CanceledError", i, lr.Err, lr.Err)
		}
		if !errors.Is(lr.Err, context.Canceled) {
			t.Fatalf("lane %d: cause %v does not unwrap to context.Canceled", i, lr.Err)
		}
		if lr.Result.Outcome != OutcomeCanceled {
			t.Fatalf("lane %d: outcome %v, want canceled", i, lr.Result.Outcome)
		}
		if ce.Delivered != lr.Result.Delivered || ce.Expected != lr.Result.Expected {
			t.Fatalf("lane %d: error counts (%d/%d) disagree with Result (%d/%d)",
				i, ce.Delivered, ce.Expected, lr.Result.Delivered, lr.Result.Expected)
		}
		canceled++
	}
	if canceled == 0 {
		t.Fatal("cancellation landed after every lane finished; coverage is vacuous")
	}
}

// TestCollectBatchPreCanceled: a batch never starts under an already-dead
// context.
func TestCollectBatchPreCanceled(t *testing.T) {
	opts := smallOptions(1)
	nw, err := BuildNetwork(opts)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := BuildTree(nw)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := CollectBatch(ctx, nw, tree.Parent, CollectConfig{}, []Lane{{Seed: 1}})
	if out != nil {
		t.Fatalf("pre-canceled batch returned results: %+v", out)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
