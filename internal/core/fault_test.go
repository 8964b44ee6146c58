package core

import (
	"errors"
	"slices"
	"testing"
	"time"

	"addcrn/internal/cds"
	"addcrn/internal/fault"
	"addcrn/internal/netmodel"
	"addcrn/internal/trace"
)

// TestGracefulDegradation is the acceptance scenario of the fault subsystem:
// 10% of SUs crash and 5% of transmissions are lost, and the run must still
// terminate cleanly — no error, every packet accounted for, a delivery ratio
// strictly below 1, and per-node fault counters in the report.
func TestGracefulDegradation(t *testing.T) {
	opts := smallOptions(101)
	// Compress the crash window so the crashes land while packets are still
	// in flight (the default 10s window outlives this small run).
	opts.Faults = &fault.Spec{CrashFrac: 0.10, LinkLoss: 0.05, CrashWindow: 500 * time.Millisecond}
	res, err := Run(opts)
	if err != nil {
		t.Fatalf("faulty run errored instead of degrading: %v", err)
	}
	if res.Outcome != OutcomePartial {
		t.Errorf("outcome %v, want partial", res.Outcome)
	}
	if res.Delivered+res.Lost != res.Expected {
		t.Errorf("unaccounted packets: %d delivered + %d lost != %d expected",
			res.Delivered, res.Lost, res.Expected)
	}
	if res.DeliveryRatio >= 1 || res.DeliveryRatio <= 0 {
		t.Errorf("delivery ratio %v, want in (0,1)", res.DeliveryRatio)
	}
	fr := res.Fault
	if fr == nil {
		t.Fatal("faulty run produced no fault report")
	}
	wantCrashes := int(0.10*float64(res.Expected) + 0.5)
	if fr.Crashes != wantCrashes {
		t.Errorf("%d crashes, want %d", fr.Crashes, wantCrashes)
	}
	if fr.LinkLosses == 0 {
		t.Error("5% link loss produced zero losses")
	}
	if fr.Retries == 0 {
		t.Error("losses produced zero retries")
	}
	if len(fr.PerNode) == 0 {
		t.Fatal("no per-node fault stats")
	}
	downs := 0
	for i, ns := range fr.PerNode {
		if i > 0 && ns.Node <= fr.PerNode[i-1].Node {
			t.Fatal("per-node stats not ordered by id")
		}
		if ns.Down {
			downs++
		}
		if ns.Crashes+ns.LinkLosses+ns.AckLosses+ns.Retries+ns.Drops+ns.Repairs == 0 {
			t.Errorf("node %d listed with all-zero counters", ns.Node)
		}
	}
	if downs != wantCrashes {
		t.Errorf("%d nodes down at end, want %d (no recovery configured)", downs, wantCrashes)
	}
}

// TestZeroFaultSpecIdentity pins the degradation contract: attaching a zero
// fault spec must reproduce the fault-free run bit for bit.
func TestZeroFaultSpecIdentity(t *testing.T) {
	plain, err := Run(smallOptions(102))
	if err != nil {
		t.Fatal(err)
	}
	opts := smallOptions(102)
	opts.Faults = &fault.Spec{}
	zeroed, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Delay != zeroed.Delay || plain.EngineSteps != zeroed.EngineSteps ||
		plain.TotalTransmissions != zeroed.TotalTransmissions ||
		plain.TotalAborts != zeroed.TotalAborts {
		t.Errorf("zero fault spec perturbed the run:\nplain:  delay=%v steps=%d tx=%d aborts=%d\nzeroed: delay=%v steps=%d tx=%d aborts=%d",
			plain.Delay, plain.EngineSteps, plain.TotalTransmissions, plain.TotalAborts,
			zeroed.Delay, zeroed.EngineSteps, zeroed.TotalTransmissions, zeroed.TotalAborts)
	}
	if zeroed.Outcome != OutcomeComplete || zeroed.DeliveryRatio != 1 {
		t.Errorf("clean run reported outcome=%v ratio=%v", zeroed.Outcome, zeroed.DeliveryRatio)
	}
	if zeroed.Fault != nil {
		t.Error("zero fault spec produced a fault report")
	}
}

// sliceSink keeps every record a run emits, in order.
type sliceSink []trace.Record

func (s *sliceSink) Add(r trace.Record) { *s = append(*s, r) }

// TestFaultTraceByteIdentical asserts the determinism contract end to end:
// same seed, same fault spec, byte-identical trace — crashes, repairs,
// losses, bursts and deliveries all land at identical virtual times.
func TestFaultTraceByteIdentical(t *testing.T) {
	spec := &fault.Spec{
		CrashFrac:    0.10,
		LinkLoss:     0.05,
		AckLoss:      0.02,
		RecoverAfter: 5 * time.Second,
		Bursts:       2,
	}
	run := func() sliceSink {
		opts := smallOptions(103)
		nw, err := BuildNetwork(opts)
		if err != nil {
			t.Fatal(err)
		}
		tree, err := BuildTree(nw)
		if err != nil {
			t.Fatal(err)
		}
		var buf sliceSink
		_, err = Collect(nw, tree.Parent, CollectConfig{
			Seed:   103,
			Faults: spec,
			Tree:   tree,
			Sink:   &buf,
		})
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("faulty run recorded nothing")
	}
	if !slices.Equal(a, b) {
		t.Error("equal seeds and fault specs produced different traces")
	}
}

// TestDeadlineExceededTyped asserts the typed deadline error carries the
// partial delivery stats.
func TestDeadlineExceededTyped(t *testing.T) {
	opts := smallOptions(104)
	opts.MaxVirtualTime = 3 * time.Millisecond
	res, err := Run(opts)
	if err == nil {
		t.Fatal("tight deadline did not error")
	}
	var dl *DeadlineExceededError
	if !errors.As(err, &dl) {
		t.Fatalf("error %T does not unwrap to *DeadlineExceededError", err)
	}
	if !errors.Is(err, ErrDeadline) {
		t.Error("typed error does not wrap the ErrDeadline sentinel")
	}
	if dl.Delivered != res.Delivered || dl.Expected != res.Expected || dl.Lost != res.Lost {
		t.Errorf("error stats %d/%d (%d lost) disagree with result %d/%d (%d lost)",
			dl.Delivered, dl.Expected, dl.Lost, res.Delivered, res.Expected, res.Lost)
	}
	if dl.Elapsed <= 0 {
		t.Error("elapsed time not recorded")
	}
	if res.Outcome != OutcomeDeadline {
		t.Errorf("outcome %v, want deadline", res.Outcome)
	}
}

// TestRepairSurvivesDominatorLayerCrash stresses the self-healing rule with
// a worst-case correlated failure: every dominator on one BFS layer of the
// CDS tree crashes at once. Every live node that still has a live path to
// the base station in the unit-disk graph must end up re-anchored, and the
// repaired parent array must stay acyclic and rooted at the base station.
func TestRepairSurvivesDominatorLayerCrash(t *testing.T) {
	opts := smallOptions(105)
	nw, err := BuildNetwork(opts)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := BuildTree(nw)
	if err != nil {
		t.Fatal(err)
	}
	adj := nw.Adjacency()

	// Pick the BFS layer holding the most dominators (so the crash actually
	// tears a hole in the backbone).
	layerCount := map[int]int{}
	for v := 1; v < nw.NumNodes(); v++ {
		if tree.Role[v] == cds.RoleDominator {
			layerCount[tree.Level[v]]++
		}
	}
	layer, best := -1, 0
	for l, c := range layerCount {
		if c > best || (c == best && l < layer) {
			layer, best = l, c
		}
	}
	if best == 0 {
		t.Fatal("tree has no dominators outside the root")
	}

	rep := newRepairer(nw, tree, tree.Parent, nil)
	crashed := map[int32]bool{}
	for v := 1; v < nw.NumNodes(); v++ {
		id := int32(v)
		if tree.Role[v] == cds.RoleDominator && tree.Level[v] == layer {
			crashed[id] = true
			rep.nodeCrashed(id, 0)
		}
	}
	t.Logf("crashed %d dominators on layer %d", len(crashed), layer)

	// Reachability in the live unit-disk graph: which nodes CAN still reach
	// the base station?
	reachable := make([]bool, nw.NumNodes())
	reachable[netmodel.BaseStationID] = true
	queue := []int32{netmodel.BaseStationID}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, w := range adj[u] {
			if crashed[w] || reachable[w] {
				continue
			}
			reachable[w] = true
			queue = append(queue, w)
		}
	}

	repairs := 0
	for v := 1; v < nw.NumNodes(); v++ {
		id := int32(v)
		repairs += rep.repairs[v]
		if crashed[id] {
			continue
		}
		if !reachable[v] {
			if rep.anchored[v] {
				t.Errorf("node %d anchored despite having no live path to the root", v)
			}
			continue
		}
		// Walk the repaired parent chain: it must reach the root over live
		// in-range nodes without cycling.
		u, hops := id, 0
		for u != int32(netmodel.BaseStationID) {
			if hops++; hops > nw.NumNodes() {
				t.Fatalf("parent chain from %d cycles", v)
			}
			p := rep.parent[u]
			if p < 0 {
				t.Fatalf("chain from %d dead-ends at %d (parent -1)", v, u)
			}
			if crashed[p] {
				t.Fatalf("node %d still routes through crashed node %d", u, p)
			}
			inRange := false
			for _, w := range adj[u] {
				if w == p {
					inRange = true
					break
				}
			}
			if !inRange {
				t.Fatalf("repair gave %d the out-of-range parent %d", u, p)
			}
			u = p
		}
	}
	if repairs == 0 {
		t.Error("dominator-layer crash triggered zero repairs")
	}
}
