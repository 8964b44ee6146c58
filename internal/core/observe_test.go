package core

import (
	"bytes"
	"testing"
	"time"

	"addcrn/internal/cds"
	"addcrn/internal/fault"
	"addcrn/internal/metrics"
	"addcrn/internal/netmodel"
	"addcrn/internal/trace"
)

// treeStats recomputes the realized tree statistics the way RunContext does.
func treeStats(nw *netmodel.Network, tree *cds.Tree) cds.Stats {
	return tree.ComputeStats(nw.Adjacency())
}

// instrumentedRun performs one fully instrumented collection (metrics
// registry, JSONL sink, MAC-level tracing) and returns the result, the
// deterministic snapshot bytes and the raw JSONL stream.
func instrumentedRun(t *testing.T, seed uint64, faults *fault.Spec) (*Result, []byte, []byte) {
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
	reg := metrics.NewRegistry()
	var buf bytes.Buffer
	sink := trace.NewJSONLSink(&buf)
	res, err := Collect(nw, tree.Parent, CollectConfig{
		Seed:      seed,
		TreeStats: treeStats(nw, tree),
		Tree:      tree,
		Faults:    faults,
		Metrics:   reg,
		Sink:      sink,
		TraceMAC:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	snap, err := reg.Snapshot().MarshalDeterministic()
	if err != nil {
		t.Fatal(err)
	}
	return res, snap, buf.Bytes()
}

func TestInstrumentedRunDeterministic(t *testing.T) {
	// Equal seeds must produce byte-identical JSONL trace streams and
	// byte-identical deterministic metric snapshots — the acceptance bar
	// for the observability layer.
	spec := &fault.Spec{CrashFrac: 0.05, RecoverAfter: 2 * time.Second, LinkLoss: 0.02, RetryCap: 8}
	resA, snapA, traceA := instrumentedRun(t, 60, spec)
	resB, snapB, traceB := instrumentedRun(t, 60, spec)
	if !bytes.Equal(traceA, traceB) {
		t.Error("equal seeds produced different JSONL trace streams")
	}
	if !bytes.Equal(snapA, snapB) {
		t.Errorf("equal seeds produced different metric snapshots:\nA=%s\nB=%s", snapA, snapB)
	}
	if resA.Delay != resB.Delay || resA.Delivered != resB.Delivered {
		t.Error("equal seeds produced different results")
	}
	if len(traceA) == 0 {
		t.Error("TraceMAC run emitted no trace records")
	}
}

func TestInstrumentationDoesNotPerturbRun(t *testing.T) {
	// The observability layer must be read-only: an instrumented run and a
	// bare run with the same seed report identical physics.
	instr, _, _ := instrumentedRun(t, 61, nil)
	opts := smallOptions(61)
	nw, err := BuildNetwork(opts)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := BuildTree(nw)
	if err != nil {
		t.Fatal(err)
	}
	bare, err := Collect(nw, tree.Parent, CollectConfig{Seed: 61, TreeStats: treeStats(nw, tree), Tree: tree})
	if err != nil {
		t.Fatal(err)
	}
	if instr.Delay != bare.Delay {
		t.Errorf("instrumentation changed the run: delay %v vs %v", instr.Delay, bare.Delay)
	}
	if instr.Delivered != bare.Delivered || instr.TotalTransmissions != bare.TotalTransmissions {
		t.Error("instrumentation changed delivery or transmission counts")
	}
}

func TestTheoryReportBoundHolds(t *testing.T) {
	res, _, _ := instrumentedRun(t, 62, nil)
	th := res.Theory
	if th == nil {
		t.Fatal("fault-free run produced no TheoryReport")
	}
	if th.Theorem1Slots <= 0 {
		t.Fatalf("nonpositive Theorem 1 bound: %v", th.Theorem1Slots)
	}
	if !th.RealizedDegree {
		t.Error("run with TreeStats did not use the realized-degree bound")
	}
	if th.ServiceTightness <= 0 {
		t.Errorf("service tightness %v, want > 0", th.ServiceTightness)
	}
	// Theorem 1 is an upper bound: the observed worst service must not
	// exceed it (small slack for boundary rounding).
	if th.ServiceTightness > 1.05 {
		t.Errorf("observed service exceeded Theorem 1 bound: tightness %v", th.ServiceTightness)
	}
	if th.PerHopTightness <= 0 {
		t.Errorf("per-hop tightness %v, want > 0", th.PerHopTightness)
	}
	if th.MeanPerHopWaitSlots <= 0 || th.MeanPerHopWaitSlots > th.MaxPerHopWaitSlots {
		t.Errorf("mean per-hop wait %v inconsistent with max %v", th.MeanPerHopWaitSlots, th.MaxPerHopWaitSlots)
	}
}

func TestTheoryReportWithoutRegistry(t *testing.T) {
	// The comparator is part of the Result, not the metrics layer: bare runs
	// report it too.
	opts := smallOptions(63)
	nw, err := BuildNetwork(opts)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := BuildTree(nw)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Collect(nw, tree.Parent, CollectConfig{Seed: 63, TreeStats: treeStats(nw, tree)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Theory == nil {
		t.Fatal("uninstrumented run lost its TheoryReport")
	}
}

func TestMetricsSnapshotContents(t *testing.T) {
	_, snap, _ := instrumentedRun(t, 64, nil)
	for _, want := range []string{
		"core_deliveries_total",
		"core_delivery_latency_slots",
		"core_per_hop_wait_slots",
		"mac_backoff_draw_slots",
		"mac_contention_wins_total",
		"mac_transmissions_total",
		"dominatee",
		"spectrum_pu_busy_fraction",
		"theory_theorem1_bound_slots",
		"theory_service_tightness",
		"phase_virtual_us",
		"collect",
	} {
		if !bytes.Contains(snap, []byte(want)) {
			t.Errorf("snapshot missing %q", want)
		}
	}
	// Wall-clock timings must NOT appear in the deterministic form.
	if bytes.Contains(snap, []byte(`"wall"`)) {
		t.Error("deterministic snapshot leaked wall-clock timings")
	}
}

func TestBusyFractionReported(t *testing.T) {
	opts := smallOptions(65)
	nw, err := BuildNetwork(opts)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := BuildTree(nw)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	if _, err := Collect(nw, tree.Parent, CollectConfig{Seed: 65, Metrics: reg}); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	found := false
	for _, g := range snap.Gauges {
		if g.Name == "spectrum_pu_busy_fraction" {
			found = true
			pt := opts.Params.ActiveProb
			if g.Value < 0 || g.Value > 1 {
				t.Errorf("busy fraction %v outside [0,1]", g.Value)
			}
			// The empirical busy fraction should sit near p_t for the exact
			// model over a long run (loose tolerance: finite horizon).
			if g.Value < pt/4 || g.Value > pt*4 {
				t.Errorf("busy fraction %v implausible for p_t=%v", g.Value, pt)
			}
		}
	}
	if !found {
		t.Error("spectrum_pu_busy_fraction gauge missing")
	}
}
