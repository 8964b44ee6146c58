package core

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"addcrn/internal/fault"
	"addcrn/internal/geom"
	"addcrn/internal/metrics"
	"addcrn/internal/trace"
)

// equivalenceSpec is the fault load every equivalence run injects: crashes
// (exercising self-healing repair and therefore parent-slice copy-on-write),
// link loss and ACK loss (exercising the retry machine and the loss RNG
// stream).
func equivalenceSpec() *fault.Spec {
	return &fault.Spec{
		CrashFrac:   0.08,
		CrashWindow: 500 * time.Millisecond,
		LinkLoss:    0.05,
		AckLoss:     0.02,
	}
}

// equivalenceRun executes one fully instrumented collection — faults
// injected, guards on, MAC tracing streamed to JSONL, metrics registered —
// reusing ws when non-nil, and returns everything a byte-level comparison
// needs.
func equivalenceRun(t *testing.T, seed uint64, ws *Workspace) (*Result, []byte, []byte) {
	t.Helper()
	opts := smallOptions(seed)
	nw, err := BuildNetwork(opts)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := BuildTree(nw)
	if err != nil {
		t.Fatal(err)
	}
	var jsonl bytes.Buffer
	reg := metrics.NewRegistry()
	res, err := Collect(nw, tree.Parent, CollectConfig{
		Seed:           seed,
		MaxVirtualTime: 30 * time.Minute,
		Faults:         equivalenceSpec(),
		Guard:          true,
		TraceMAC:       true,
		Sink:           trace.NewJSONLSink(&jsonl),
		Metrics:        reg,
		Tree:           tree,
		Workspace:      ws,
	})
	if err != nil {
		t.Fatalf("workspace=%v: %v", ws != nil, err)
	}
	snap, err := reg.Snapshot().MarshalDeterministic()
	if err != nil {
		t.Fatal(err)
	}
	return res, jsonl.Bytes(), snap
}

// TestWorkspaceReuseEquivalenceFullRun is the whole-run half of engine
// reuse's bit-identity guarantee: a collection run with fault injection,
// invariant guards and full MAC tracing must produce an identical Result, an
// identical JSONL trace stream, and an identical deterministic metrics
// snapshot whether it runs on a fresh simulation context or on a workspace
// dirtied by previous, different runs.
func TestWorkspaceReuseEquivalenceFullRun(t *testing.T) {
	ws := NewWorkspace()
	// Dirty the workspace: two unrelated runs leave the engine arena, MAC
	// node state, RNG-derived closures and scratch buffers mid-life.
	equivalenceRun(t, 1009, ws)
	equivalenceRun(t, 2003, ws)
	for _, seed := range []uint64{7, 301} {
		freshRes, freshTrace, freshSnap := equivalenceRun(t, seed, nil)
		reuseRes, reuseTrace, reuseSnap := equivalenceRun(t, seed, ws)

		if !reflect.DeepEqual(freshRes, reuseRes) {
			t.Errorf("seed %d: Results diverge:\n fresh: %+v\n reuse: %+v", seed, freshRes, reuseRes)
		}
		if !bytes.Equal(freshTrace, reuseTrace) {
			t.Errorf("seed %d: JSONL trace streams diverge (%d vs %d bytes)",
				seed, len(freshTrace), len(reuseTrace))
		}
		if !bytes.Equal(freshSnap, reuseSnap) {
			t.Errorf("seed %d: metrics snapshots diverge:\n fresh: %s\n reuse: %s",
				seed, freshSnap, reuseSnap)
		}
		if len(freshTrace) == 0 {
			t.Fatalf("seed %d: empty trace stream; comparison is vacuous", seed)
		}
		if freshRes.Fault == nil || freshRes.Fault.Crashes == 0 {
			t.Fatalf("seed %d: fault injection produced no crashes; comparison is too easy", seed)
		}
	}
}

// TestSharedTreeImmutable pins the copy-on-write contract: a fault run that
// crashes nodes and re-parents orphans (self-healing repair) must never write
// into the routing tree or the network it was given, which the sweep engine
// shares read-only across runs.
func TestSharedTreeImmutable(t *testing.T) {
	opts := smallOptions(7)
	nw, err := BuildNetwork(opts)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := BuildTree(nw)
	if err != nil {
		t.Fatal(err)
	}
	parentBefore := append([]int32(nil), tree.Parent...)
	suBefore := append([]geom.Point(nil), nw.SU...)

	res, err := Collect(nw, tree.Parent, CollectConfig{
		Seed:           opts.Seed,
		MaxVirtualTime: opts.MaxVirtualTime,
		Faults:         equivalenceSpec(),
		Tree:           tree,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fault == nil || res.Fault.Repairs == 0 {
		t.Fatal("no repairs happened; immutability coverage is vacuous")
	}
	if !reflect.DeepEqual(parentBefore, tree.Parent) {
		t.Error("fault run mutated the shared routing tree's parent slice")
	}
	if !reflect.DeepEqual(suBefore, nw.SU) {
		t.Error("fault run mutated the shared network's positions")
	}
}
