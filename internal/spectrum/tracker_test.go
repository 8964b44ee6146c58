package spectrum

import (
	"testing"

	"addcrn/internal/netmodel"
	"addcrn/internal/rng"
	"addcrn/internal/sim"
)

// recordingObserver logs transitions for assertions.
type recordingObserver struct {
	busy    []int32
	free    []int32
	arrived []int32
	// reenter, when set, is invoked on the first SpectrumFree delivery
	// (for reentrancy tests).
	reenter func(node int32)
}

func (o *recordingObserver) SpectrumBusy(node int32, _ sim.Time) { o.busy = append(o.busy, node) }
func (o *recordingObserver) SpectrumFree(node int32, _ sim.Time) {
	o.free = append(o.free, node)
	if o.reenter != nil {
		f := o.reenter
		o.reenter = nil
		f(node)
	}
}
func (o *recordingObserver) PUArrived(node int32, _ sim.Time) { o.arrived = append(o.arrived, node) }

func testNetwork(t *testing.T, seed uint64) *netmodel.Network {
	t.Helper()
	p := netmodel.ScaledDefaultParams()
	p.NumSU = 120
	p.Area = 70
	p.NumPU = 6
	nw, err := netmodel.Deploy(p, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

// TestTrackersShareNetworkTables: trackers over one network — the channels
// of a multichannel MAC, a tracker renewed for the next run, one renewed
// onto a WithParams copy — all walk the CSR tables and, filtered, their
// rank-bitset encodings that the network memoizes instead of building their
// own.
func TestTrackersShareNetworkTables(t *testing.T) {
	nw := testNetwork(t, 21)
	const puRange, suRange = 25.0, 20.0
	wantSU, err := nw.SUNeighborTable(suRange)
	if err != nil {
		t.Fatal(err)
	}
	wantPU, err := nw.PUNeighborTable(puRange)
	if err != nil {
		t.Fatal(err)
	}
	wantSUBits, err := nw.SUNeighborBits(suRange)
	if err != nil {
		t.Fatal(err)
	}
	wantPUBits, err := nw.PUNeighborBits(puRange)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := nw.WithParams(nw.Params)
	if err != nil {
		t.Fatal(err)
	}
	var trs []*Tracker
	for range 2 {
		tr, err := NewTracker(nw, puRange, suRange, &recordingObserver{})
		if err != nil {
			t.Fatal(err)
		}
		trs = append(trs, tr)
	}
	for _, target := range []*netmodel.Network{nw, cp} {
		for c, tr := range trs {
			if err := tr.Renew(target, puRange, suRange, &recordingObserver{}); err != nil {
				t.Fatal(err)
			}
			tr.AddSUTransmitter(1, 0)
			tr.AddPUTransmitter(0, 0)
			if tr.suTable != wantSU || tr.puTable != wantPU {
				t.Fatalf("tracker %d walks tables other than the network's memo", c)
			}
			tr.FilterTransitions(true)
			tr.AddSUTransmitter(1, 0)
			tr.AddPUTransmitter(0, 0)
			if tr.suBits != wantSUBits || tr.puBits != wantPUBits {
				t.Fatalf("filtered tracker %d walks bitsets other than the network's memo", c)
			}
		}
	}
}

func TestTrackerValidation(t *testing.T) {
	nw := testNetwork(t, 1)
	if _, err := NewTracker(nw, 0, 10, &recordingObserver{}); err == nil {
		t.Error("zero PU range accepted")
	}
	if _, err := NewTracker(nw, 10, -1, &recordingObserver{}); err == nil {
		t.Error("negative SU range accepted")
	}
	if _, err := NewTracker(nw, 10, 10, nil); err == nil {
		t.Error("nil observer accepted")
	}
}

func TestTrackerBusyCountsMatchBruteForce(t *testing.T) {
	nw := testNetwork(t, 2)
	obs := &recordingObserver{}
	tr, err := NewTracker(nw, 30, 20, obs)
	if err != nil {
		t.Fatal(err)
	}
	// Add a PU transmitter and an SU transmitter; verify every node's
	// count against direct distance computation.
	puPos := nw.PU[0]
	suID := int32(5)
	tr.AddTransmitter(puPos, TxPU, -1, 0)
	tr.AddTransmitter(nw.SU[suID], TxSU, suID, 0)
	for v := 0; v < nw.NumNodes(); v++ {
		want := int32(0)
		if nw.SU[v].Dist(puPos) <= 30 {
			want++
		}
		if int32(v) != suID && nw.SU[v].Dist(nw.SU[suID]) <= 20 {
			want++
		}
		if got := tr.BusyCount(int32(v)); got != want {
			t.Fatalf("node %d: busy %d, want %d", v, got, want)
		}
		if tr.Busy(int32(v)) != (want > 0) {
			t.Fatalf("node %d: Busy() inconsistent", v)
		}
	}
	// Remove both; all counters must return to zero.
	tr.RemoveTransmitter(puPos, TxPU, -1, 1)
	tr.RemoveTransmitter(nw.SU[suID], TxSU, suID, 1)
	for v := 0; v < nw.NumNodes(); v++ {
		if tr.BusyCount(int32(v)) != 0 {
			t.Fatalf("node %d: residual busy count %d", v, tr.BusyCount(int32(v)))
		}
	}
}

func TestTrackerKindSelectsRange(t *testing.T) {
	nw := testNetwork(t, 3)
	obs := &recordingObserver{}
	tr, err := NewTracker(nw, 40, 15, obs)
	if err != nil {
		t.Fatal(err)
	}
	if tr.PURange() != 40 || tr.SURange() != 15 {
		t.Fatalf("ranges %v/%v", tr.PURange(), tr.SURange())
	}
	pos := nw.Bounds().Center()
	tr.AddTransmitter(pos, TxSU, -1, 0)
	suAffected := 0
	for v := 0; v < nw.NumNodes(); v++ {
		if tr.Busy(int32(v)) {
			suAffected++
			if nw.SU[v].Dist(pos) > 15 {
				t.Fatalf("SU transmitter froze node %d beyond SU range", v)
			}
		}
	}
	tr.RemoveTransmitter(pos, TxSU, -1, 1)
	tr.AddTransmitter(pos, TxPU, -1, 2)
	puAffected := 0
	for v := 0; v < nw.NumNodes(); v++ {
		if tr.Busy(int32(v)) {
			puAffected++
		}
	}
	if puAffected <= suAffected {
		t.Errorf("PU range (40) affected %d nodes, SU range (15) affected %d", puAffected, suAffected)
	}
}

func TestTrackerTransitionsAndPUArrived(t *testing.T) {
	nw := testNetwork(t, 4)
	obs := &recordingObserver{}
	tr, err := NewTracker(nw, 25, 25, obs)
	if err != nil {
		t.Fatal(err)
	}
	pos := nw.Bounds().Center()
	tr.AddTransmitter(pos, TxPU, -1, 0)
	nBusy, nArrived := len(obs.busy), len(obs.arrived)
	if nBusy == 0 || nArrived == 0 {
		t.Fatal("no transitions delivered")
	}
	if nBusy != nArrived {
		t.Errorf("busy %d != arrived %d on first PU", nBusy, nArrived)
	}
	// Second PU at the same spot: no new busy transitions (already busy),
	// but PUArrived fires again.
	tr.AddTransmitter(pos, TxPU, -1, 1)
	if len(obs.busy) != nBusy {
		t.Errorf("redundant busy transitions: %d -> %d", nBusy, len(obs.busy))
	}
	if len(obs.arrived) != 2*nArrived {
		t.Errorf("PUArrived count %d, want %d", len(obs.arrived), 2*nArrived)
	}
	// Remove one: still busy, no free transitions.
	tr.RemoveTransmitter(pos, TxPU, -1, 2)
	if len(obs.free) != 0 {
		t.Errorf("premature free transitions: %v", obs.free)
	}
	tr.RemoveTransmitter(pos, TxPU, -1, 3)
	if len(obs.free) != nBusy {
		t.Errorf("free count %d, want %d", len(obs.free), nBusy)
	}
}

func TestTrackerExclusion(t *testing.T) {
	nw := testNetwork(t, 5)
	obs := &recordingObserver{}
	tr, err := NewTracker(nw, 25, 25, obs)
	if err != nil {
		t.Fatal(err)
	}
	suID := int32(7)
	tr.AddTransmitter(nw.SU[suID], TxSU, suID, 0)
	if tr.Busy(suID) {
		t.Error("transmitter froze itself")
	}
	tr.RemoveTransmitter(nw.SU[suID], TxSU, suID, 1)
	if tr.BusyCount(suID) != 0 {
		t.Error("exclusion asymmetry left residual count")
	}
}

func TestBlockUnblockNode(t *testing.T) {
	nw := testNetwork(t, 6)
	obs := &recordingObserver{}
	tr, err := NewTracker(nw, 25, 25, obs)
	if err != nil {
		t.Fatal(err)
	}
	tr.BlockNode(3, 0)
	if !tr.Busy(3) {
		t.Error("blocked node not busy")
	}
	if len(obs.busy) != 1 || obs.busy[0] != 3 {
		t.Errorf("busy transitions %v", obs.busy)
	}
	if len(obs.arrived) != 1 {
		t.Errorf("arrived transitions %v", obs.arrived)
	}
	// Other nodes unaffected.
	for v := 0; v < nw.NumNodes(); v++ {
		if int32(v) != 3 && tr.Busy(int32(v)) {
			t.Fatalf("BlockNode leaked to node %d", v)
		}
	}
	tr.UnblockNode(3, 1)
	if tr.Busy(3) {
		t.Error("unblocked node still busy")
	}
	if len(obs.free) != 1 {
		t.Errorf("free transitions %v", obs.free)
	}
}

func TestTrackerReentrantCallback(t *testing.T) {
	// During RemoveTransmitter's callback phase, the observer registers a
	// new transmitter (a resumed node starting to transmit). Counters must
	// stay consistent and no stale SpectrumFree may be delivered for nodes
	// the reentrant registration re-raised.
	nw := testNetwork(t, 7)
	obs := &recordingObserver{}
	tr, err := NewTracker(nw, 25, 25, obs)
	if err != nil {
		t.Fatal(err)
	}
	pos := nw.Bounds().Center()
	obs.reenter = func(node int32) {
		tr.AddTransmitter(pos, TxSU, -1, 1)
	}
	tr.AddTransmitter(pos, TxPU, -1, 0)
	busyNodes := append([]int32(nil), obs.busy...)
	obs.busy, obs.free = nil, nil
	tr.RemoveTransmitter(pos, TxPU, -1, 1)
	// The reentrant SU transmitter occupies the same spot, so every node
	// that was busy must still be busy now.
	for _, v := range busyNodes {
		if !tr.Busy(v) {
			t.Fatalf("node %d lost busy state despite reentrant transmitter", v)
		}
	}
	// No node may have received a SpectrumFree after being re-raised
	// without a matching later transition: since the medium never became
	// free for them, at most one node (the reentry trigger itself) saw
	// free->busy; for every free there must be a later busy.
	frees := map[int32]int{}
	for _, v := range obs.free {
		frees[v]++
	}
	busies := map[int32]int{}
	for _, v := range obs.busy {
		busies[v]++
	}
	for v, c := range frees {
		if busies[v] < c {
			t.Fatalf("node %d: %d frees but %d busies during reentrant removal", v, c, busies[v])
		}
	}
}

func TestTrackerPanicsOnNegativeCount(t *testing.T) {
	nw := testNetwork(t, 8)
	tr, err := NewTracker(nw, 25, 25, &recordingObserver{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("unbalanced remove did not panic")
		}
	}()
	tr.RemoveTransmitter(nw.Bounds().Center(), TxPU, -1, 0)
}

func TestModelKindString(t *testing.T) {
	if ModelExact.String() != "exact" || ModelAggregate.String() != "aggregate" {
		t.Error("model kind strings wrong")
	}
	if ModelKind(9).String() != "unknown" {
		t.Error("unknown model kind string wrong")
	}
}

// BusyCount returns node's total busy count: its counter plus, on the lazy
// path, the active SU and PU transmitters covering it.
func (t *Tracker) BusyCount(node int32) int32 {
	return t.busy[node] + int32(t.suCount(node)+t.puCount(node))
}

// SURange returns the secondary-coordination sensing range.
func (t *Tracker) SURange() float64 { return t.suRange }
