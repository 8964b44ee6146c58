package core

import (
	"bytes"
	"reflect"
	"slices"
	"testing"
	"time"

	"addcrn/internal/coolest"
	"addcrn/internal/fault"
	"addcrn/internal/geom"
	"addcrn/internal/mac"
	"addcrn/internal/metrics"
	"addcrn/internal/netmodel"
	"addcrn/internal/pcr"
	"addcrn/internal/spectrum"
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

// shapeRun is one run shape of TestWorkspaceReuseAcrossRunShapes: a
// deployment size and the CollectConfig fields that differ from a plain
// traced ADDC run.
type shapeRun struct {
	name       string
	seed       uint64
	n, numPU   int
	area       float64
	channels   int
	coolest    bool
	collectCfg func(*CollectConfig)
}

// run executes the shape with MAC tracing and metrics, reusing ws when
// non-nil, and returns everything a byte-level comparison needs.
func (s shapeRun) run(t *testing.T, ws *Workspace) (*Result, []byte, []byte) {
	t.Helper()
	opts := smallOptions(s.seed)
	opts.Params.NumSU, opts.Params.NumPU, opts.Params.Area = s.n, s.numPU, s.area
	nw, err := BuildNetwork(opts)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := BuildTree(nw)
	if err != nil {
		t.Fatal(err)
	}
	consts, err := pcr.Compute(nw.Params)
	if err != nil {
		t.Fatal(err)
	}
	parent := tree.Parent
	if s.coolest {
		if parent, err = coolest.BuildParents(nw, consts.Range, coolest.MetricAccumulated); err != nil {
			t.Fatal(err)
		}
	}
	var jsonl bytes.Buffer
	reg := metrics.NewRegistry()
	cfg := CollectConfig{
		Seed:      s.seed,
		TraceMAC:  true,
		Sink:      trace.NewJSONLSink(&jsonl),
		Metrics:   reg,
		Tree:      tree,
		Workspace: ws,
	}
	if s.channels > 1 {
		cfg.Channels = s.channels
		cfg.Home = leastPUHome(nw, consts.Range, s.channels)
	}
	if s.collectCfg != nil {
		s.collectCfg(&cfg)
	}
	res, err := Collect(nw, parent, cfg)
	if err != nil {
		t.Fatalf("%s, workspace=%v: %v", s.name, ws != nil, err)
	}
	snap, err := reg.Snapshot().MarshalDeterministic()
	if err != nil {
		t.Fatal(err)
	}
	return res, jsonl.Bytes(), snap
}

// leastPUHome gives each node the channel licensed to the fewest PUs within
// pcrRange of it, PU i on channel i mod channels, ties broken per node.
func leastPUHome(nw *netmodel.Network, pcrRange float64, channels int) []int {
	home := make([]int, nw.NumNodes())
	counts := make([]int, channels)
	var near []int32
	for v := range home {
		clear(counts)
		near = nw.PUsNear(nw.SU[v], pcrRange, near[:0])
		for _, pu := range near {
			counts[int(pu)%channels]++
		}
		best := v % channels
		for c := range channels {
			if cand := (v + c) % channels; counts[cand] < counts[best] {
				best = cand
			}
		}
		home[v] = best
	}
	return home
}

// TestWorkspaceReuseAcrossRunShapes runs one workspace through runs of every
// shape a sweep or an addc-sim -runs loop can hand it in turn — channel
// counts, node and PU counts, fault and guard settings and MAC profiles —
// and requires each to match a fresh run byte for byte. The MAC is
// renewed in place throughout, the second C = 4 run gets back the first
// one's trackers, and the last run renews the deafness tables of the run
// before it.
func TestWorkspaceReuseAcrossRunShapes(t *testing.T) {
	guard := func(c *CollectConfig) { c.Guard = true }
	shapes := []shapeRun{
		{name: "c4-least-pu", seed: 41, n: 120, numPU: 8, area: 65, channels: 4, collectCfg: guard},
		{name: "c1-faults-guards", seed: 42, n: 120, numPU: 4, area: 65, collectCfg: func(c *CollectConfig) {
			c.Faults = equivalenceSpec()
			c.Guard = true
		}},
		{name: "smaller-n", seed: 43, n: 80, numPU: 4, area: 55, collectCfg: guard},
		{name: "generic-csma-coolest", seed: 44, n: 120, numPU: 6, area: 65, coolest: true, collectCfg: func(c *CollectConfig) {
			c.GenericCSMA = true
		}},
		{name: "c4-again", seed: 46, n: 120, numPU: 8, area: 65, channels: 4, collectCfg: guard},
		{name: "c2-smaller-n", seed: 47, n: 80, numPU: 4, area: 55, channels: 2, collectCfg: guard},
	}
	ws := NewWorkspace()
	var m *mac.MAC
	var c4Trackers []*spectrum.Tracker
	for _, s := range shapes {
		freshRes, freshTrace, freshSnap := s.run(t, nil)
		reuseRes, reuseTrace, reuseSnap := s.run(t, ws)
		if !reflect.DeepEqual(freshRes, reuseRes) {
			t.Errorf("%s: Results diverge:\n fresh: %+v\n reuse: %+v", s.name, freshRes, reuseRes)
		}
		if !bytes.Equal(freshTrace, reuseTrace) {
			t.Errorf("%s: JSONL trace streams diverge (%d vs %d bytes)", s.name, len(freshTrace), len(reuseTrace))
		}
		if !bytes.Equal(freshSnap, reuseSnap) {
			t.Errorf("%s: metrics snapshots diverge:\n fresh: %s\n reuse: %s", s.name, freshSnap, reuseSnap)
		}
		if len(freshTrace) == 0 || freshRes.Delivered == 0 {
			t.Fatalf("%s: empty trace or nothing delivered; comparison is vacuous", s.name)
		}

		if m == nil {
			m = ws.m
		} else if ws.m != m {
			t.Errorf("%s: the workspace's MAC was rebuilt instead of renewed", s.name)
		}
		if s.channels == 4 {
			trs := ws.m.Trackers()
			if len(trs) != 4 {
				t.Fatalf("%s: MAC has %d trackers, want 4", s.name, len(trs))
			}
			if c4Trackers == nil {
				c4Trackers = slices.Clone(trs)
			} else if !slices.Equal(trs, c4Trackers) {
				t.Errorf("%s: the C = 4 trackers were rebuilt instead of renewed", s.name)
			}
		}
	}
	if c4Trackers == nil {
		t.Fatal("no C = 4 run; the channel-count path is untested")
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
