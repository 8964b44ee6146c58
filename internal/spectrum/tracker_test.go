package spectrum

import (
	"testing"

	"addcrn/internal/geom"
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
// onto a WithParams copy — all walk the rank-bitset rows the network
// memoizes instead of building their own.
func TestTrackersShareNetworkTables(t *testing.T) {
	nw := testNetwork(t, 21)
	const puRange, suRange = 25.0, 20.0
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
			if tr.suBits != wantSUBits || tr.puBits != wantPUBits {
				t.Fatalf("tracker %d walks bitsets other than the network's memo", c)
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
	tr.AddPUTransmitter(0, 0)
	tr.AddSUTransmitter(suID, 0)
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
	tr.RemovePUTransmitter(0, 1)
	tr.RemoveSUTransmitter(suID, 1)
	for v := 0; v < nw.NumNodes(); v++ {
		if tr.BusyCount(int32(v)) != 0 {
			t.Fatalf("node %d: residual busy count %d", v, tr.BusyCount(int32(v)))
		}
	}
}

// TestTrackerKindSelectsRange: an SU transmitter makes busy exactly the
// other SUs within the SU range of it, and a PU exactly the SUs within the
// PU range, so the wider PU range reaches more nodes.
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
	affected := func(pos geom.Point, radius float64, self int32) int {
		n := 0
		for v := range int32(nw.NumNodes()) {
			want := v != self && nw.SU[v].Dist(pos) <= radius
			if tr.Busy(v) != want {
				t.Fatalf("node %d at %.2f m: busy %v, want %v", v, nw.SU[v].Dist(pos), tr.Busy(v), want)
			}
			if want {
				n++
			}
		}
		return n
	}
	su := nearestSU(nw, nw.PU[0])
	tr.AddSUTransmitter(su, 0)
	suAffected := affected(nw.SU[su], 15, su)
	tr.RemoveSUTransmitter(su, 1)
	tr.AddPUTransmitter(0, 2)
	puAffected := affected(nw.PU[0], 40, -1)
	if puAffected <= suAffected {
		t.Errorf("PU range (40) affected %d nodes, SU range (15) affected %d", puAffected, suAffected)
	}
}

// nearestSU returns the secondary node closest to pos.
func nearestSU(nw *netmodel.Network, pos geom.Point) int32 {
	best := int32(0)
	for v := range int32(nw.NumNodes()) {
		if nw.SU[v].Dist2(pos) < nw.SU[best].Dist2(pos) {
			best = v
		}
	}
	return best
}

// markAll sets every node's busy and free eligibility mark but skip's, so
// tr delivers every busy and free transition to the others.
func markAll(tr *Tracker, skip int32) {
	elig := tr.Eligibility()
	for v := range int32(len(tr.busy)) {
		elig.Set(v, v != skip, v != skip)
	}
}

// TestTrackerTransitionsAndPUArrived drives the eager reference with two
// PUs at the same spot: the first makes its whole row busy and arrives at
// every node, the second changes no busy state but arrives again, and the
// row frees only when both have left.
func TestTrackerTransitionsAndPUArrived(t *testing.T) {
	base := testNetwork(t, 4)
	c := base.Bounds().Center()
	p := base.Params
	p.NumPU = 2
	nw, err := netmodel.NewCustomNetwork(p, base.SU, []geom.Point{c, c})
	if err != nil {
		t.Fatal(err)
	}
	obs := &recordingObserver{}
	tr := newEagerTracker(nw, 25, 25, obs)
	tr.AddPUTransmitter(0, 0)
	nBusy, nArrived := len(obs.busy), len(obs.arrived)
	if nBusy == 0 || nArrived == 0 {
		t.Fatal("no transitions delivered")
	}
	if nBusy != nArrived {
		t.Errorf("busy %d != arrived %d on first PU", nBusy, nArrived)
	}
	// Second PU at the same spot: no new busy transitions (already busy),
	// but PUArrived fires again.
	tr.AddPUTransmitter(1, 1)
	if len(obs.busy) != nBusy {
		t.Errorf("redundant busy transitions: %d -> %d", nBusy, len(obs.busy))
	}
	if len(obs.arrived) != 2*nArrived {
		t.Errorf("PUArrived count %d, want %d", len(obs.arrived), 2*nArrived)
	}
	// Remove one: still busy, no free transitions.
	tr.RemovePUTransmitter(0, 2)
	if len(obs.free) != 0 {
		t.Errorf("premature free transitions: %v", obs.free)
	}
	tr.RemovePUTransmitter(1, 3)
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
	tr.AddSUTransmitter(suID, 0)
	if tr.Busy(suID) {
		t.Error("transmitter froze itself")
	}
	tr.RemoveSUTransmitter(suID, 1)
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
	// During a PU removal's callbacks, the observer registers a new
	// transmitter (a resumed node starting to transmit). The medium must
	// stay consistent and no stale SpectrumFree may be delivered for nodes
	// the reentrant registration re-raised. The PU sits on SU s, which
	// carries no marks (it is about to transmit); every other node is
	// marked both ways.
	base := testNetwork(t, 7)
	s := nearestSU(base, base.Bounds().Center())
	p := base.Params
	p.NumPU = 1
	nw, err := netmodel.NewCustomNetwork(p, base.SU, []geom.Point{base.SU[s]})
	if err != nil {
		t.Fatal(err)
	}
	obs := &recordingObserver{}
	tr, err := NewTracker(nw, 25, 25, obs)
	if err != nil {
		t.Fatal(err)
	}
	markAll(tr, s)
	obs.reenter = func(node int32) {
		tr.AddSUTransmitter(s, 1)
	}
	tr.AddPUTransmitter(0, 0)
	busyNodes := append([]int32(nil), obs.busy...)
	obs.busy, obs.free = nil, nil
	tr.RemovePUTransmitter(0, 1)
	if len(busyNodes) == 0 || obs.reenter != nil {
		t.Fatalf("the PU froze %d nodes and its removal freed none; the test is vacuous", len(busyNodes))
	}
	// The reentrant SU transmitter occupies the PU's spot, so every node
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

// TestTrackerPanicsOnNegativeCount: unbalanced bookkeeping — a block lifted
// that was never imposed, an SU removed that is not registered, an SU
// registered twice — panics instead of corrupting the medium.
func TestTrackerPanicsOnNegativeCount(t *testing.T) {
	nw := testNetwork(t, 8)
	for name, op := range map[string]func(tr *Tracker){
		"unblocked node":  func(tr *Tracker) { tr.UnblockNode(3, 0) },
		"unregistered SU": func(tr *Tracker) { tr.RemoveSUTransmitter(3, 0) },
		"SU twice":        func(tr *Tracker) { tr.AddSUTransmitter(3, 0); tr.AddSUTransmitter(3, 0) },
	} {
		tr, err := NewTracker(nw, 25, 25, &recordingObserver{})
		if err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			op(tr)
		}()
	}
}

func TestModelKindString(t *testing.T) {
	if ModelExact.String() != "exact" {
		t.Error("exact model kind string wrong")
	}
	if ModelKind(9).String() != "unknown" {
		t.Error("unknown model kind string wrong")
	}
}

// BusyCount returns node's total busy count: its blocks plus the active SU
// and PU transmitters covering it.
func (t *Tracker) BusyCount(node int32) int32 {
	return t.busy[node] + int32(t.suCount(node)+t.puCount(node))
}

// PURange returns the primary-protection sensing range.
func (t *Tracker) PURange() float64 { return t.puRange }

// SURange returns the secondary-coordination sensing range.
func (t *Tracker) SURange() float64 { return t.suRange }
