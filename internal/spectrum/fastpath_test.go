package spectrum

import (
	"math"
	"reflect"
	"testing"

	"addcrn/internal/geom"
	"addcrn/internal/netmodel"
	"addcrn/internal/pcr"
	"addcrn/internal/rng"
	"addcrn/internal/sim"
)

// AddTransmitter is the grid reference for the CSR fast path: it registers
// an active transmitter at an arbitrary position via a live grid range
// query. exclude names a secondary node whose own counter must not change
// (the transmitter itself when an SU transmits); pass -1 for primary
// transmitters. kind controls whether PUArrived fires and which sensing
// radius applies. It drives unfiltered trackers only.
func (t *Tracker) AddTransmitter(pos geom.Point, kind TxKind, exclude int32, now sim.Time) {
	buf := t.gridQuery(pos, kind)
	t.addNeighbors(buf, kind, exclude, now)
	t.putBuf(buf)
}

// RemoveTransmitter unregisters a transmitter previously added with the
// same position, kind and exclusion.
func (t *Tracker) RemoveTransmitter(pos geom.Point, kind TxKind, exclude int32, now sim.Time) {
	buf := t.gridQuery(pos, kind)
	t.removeNeighbors(buf, now, exclude)
	t.putBuf(buf)
}

func (t *Tracker) gridQuery(pos geom.Point, kind TxKind) []int32 {
	if t.filtered {
		panic("spectrum: the grid reference needs an unfiltered tracker")
	}
	radius := t.suRange
	if kind == TxPU {
		radius = t.puRange
	}
	return t.nw.SUGrid.Within(pos, radius, t.takeBuf())
}

// trackerOps abstracts how a transmitter script reaches the tracker, so the
// same script can run on the CSR fast path and on a locally reimplemented
// grid reference.
type trackerOps struct {
	addSU, removeSU func(id int32, now sim.Time)
	addPU, removePU func(i int32, now sim.Time)
}

// csrOps drives the indexed fast path.
func csrOps(tr *Tracker) trackerOps {
	return trackerOps{
		addSU:    tr.AddSUTransmitter,
		removeSU: tr.RemoveSUTransmitter,
		addPU:    tr.AddPUTransmitter,
		removePU: tr.RemovePUTransmitter,
	}
}

// gridOps is the reference implementation: a live grid range query per
// transition through the arbitrary-position entry points, exactly what the
// indexed path's precomputed CSR rows must replicate.
func gridOps(tr *Tracker) trackerOps {
	nw := tr.nw
	return trackerOps{
		addSU:    func(id int32, now sim.Time) { tr.AddTransmitter(nw.SU[id], TxSU, id, now) },
		removeSU: func(id int32, now sim.Time) { tr.RemoveTransmitter(nw.SU[id], TxSU, id, now) },
		addPU:    func(i int32, now sim.Time) { tr.AddTransmitter(nw.PU[i], TxPU, -1, now) },
		removePU: func(i int32, now sim.Time) { tr.RemoveTransmitter(nw.PU[i], TxPU, -1, now) },
	}
}

// TestIndexedPathMatchesGridPath drives an identical add/remove script
// through the CSR fast path and the grid-query reference and requires the
// observer callback streams — content AND order — to be identical. This is
// the unit-level half of the bit-identity guarantee; the core-level
// equivalence tests cover whole runs.
func TestIndexedPathMatchesGridPath(t *testing.T) {
	script := func(ops trackerOps) {
		now := sim.Time(0)
		for step := 0; step < 4; step++ {
			for id := int32(1); id < 40; id += 3 {
				ops.addSU(id, now)
				now++
			}
			for i := int32(0); i < 6; i++ {
				ops.addPU(i, now)
				now++
			}
			for id := int32(1); id < 40; id += 3 {
				ops.removeSU(id, now)
				now++
			}
			for i := int32(0); i < 6; i++ {
				ops.removePU(i, now)
				now++
			}
		}
	}

	run := func(grid bool) (*recordingObserver, *Tracker) {
		nw := testNetwork(t, 11)
		obs := &recordingObserver{}
		tr, err := NewTracker(nw, 28, 22, obs)
		if err != nil {
			t.Fatal(err)
		}
		if grid {
			script(gridOps(tr))
		} else {
			script(csrOps(tr))
		}
		return obs, tr
	}

	gridObs, gridTr := run(true)
	csrObs, csrTr := run(false)
	if !reflect.DeepEqual(gridObs.busy, csrObs.busy) {
		t.Fatalf("SpectrumBusy streams diverge:\n grid %v\n csr  %v", gridObs.busy, csrObs.busy)
	}
	if !reflect.DeepEqual(gridObs.free, csrObs.free) {
		t.Fatalf("SpectrumFree streams diverge:\n grid %v\n csr  %v", gridObs.free, csrObs.free)
	}
	if !reflect.DeepEqual(gridObs.arrived, csrObs.arrived) {
		t.Fatalf("PUArrived streams diverge:\n grid %v\n csr  %v", gridObs.arrived, csrObs.arrived)
	}
	for id := int32(0); id < int32(gridTr.nw.NumNodes()); id++ {
		if gridTr.BusyCount(id) != csrTr.BusyCount(id) {
			t.Fatalf("node %d: busy count grid=%d csr=%d", id, gridTr.BusyCount(id), csrTr.BusyCount(id))
		}
	}
	if len(gridObs.busy) == 0 || len(gridObs.arrived) == 0 {
		t.Fatal("script produced no transitions; test is vacuous")
	}
}

// TestIndexedSUTransitionAllocates0: the steady-state CSR add/remove cycle
// must not allocate (pooled rise/fall buffers, immutable rows).
func TestIndexedSUTransitionAllocates0(t *testing.T) {
	nw := testNetwork(t, 12)
	tr, err := NewTracker(nw, 25, 25, &recordingObserver{})
	if err != nil {
		t.Fatal(err)
	}
	// Warm the CSR tables and the buffer pool.
	tr.AddSUTransmitter(1, 0)
	tr.RemoveSUTransmitter(1, 0)
	tr.AddPUTransmitter(0, 0)
	tr.RemovePUTransmitter(0, 0)
	id := int32(1)
	allocs := testing.AllocsPerRun(200, func() {
		tr.AddSUTransmitter(id, 0)
		tr.RemoveSUTransmitter(id, 0)
		id = id%int32(nw.NumNodes()-1) + 1
	})
	if allocs != 0 {
		t.Fatalf("CSR transition allocates %v/op, want 0", allocs)
	}
}

// countingObserver counts deliveries and acts on none of them.
type countingObserver struct{ busy, free, arrived int }

func (o *countingObserver) SpectrumBusy(int32, sim.Time) { o.busy++ }
func (o *countingObserver) SpectrumFree(int32, sim.Time) { o.free++ }
func (o *countingObserver) PUArrived(int32, sim.Time)    { o.arrived++ }

// filteredScaledTracker builds a filtered tracker at the n = 300 scaled
// operating point with the derived PCR as both sensing ranges, in the
// medium mix a running collection shows: about 4% of the nodes mid-backoff
// and 4% frozen — some 8 of the ~99 in a PCR row — two SUs transmitting
// and one PU active. It returns the SUs a benchmark may register: every
// node but the base station and the background transmitters.
func filteredScaledTracker(tb testing.TB, obs Observer) (*Tracker, []int32) {
	p := netmodel.ScaledDefaultParams()
	nw, err := netmodel.Deploy(p, rng.New(1))
	if err != nil {
		tb.Fatal(err)
	}
	consts, err := pcr.Compute(p)
	if err != nil {
		tb.Fatal(err)
	}
	tr, err := NewTracker(nw, consts.Range, consts.Range, obs)
	if err != nil {
		tb.Fatal(err)
	}
	tr.FilterTransitions(true)
	elig := tr.Eligibility()
	src := rng.New(2)
	var ids []int32
	for v := int32(1); v < int32(nw.NumNodes()); v++ {
		switch k := src.Intn(25); {
		case k == 0:
			elig.Set(v, true, false)
		case k == 1:
			elig.Set(v, false, true)
		case k == 2 && tr.nSuTx < 2:
			tr.AddSUTransmitter(v, 0)
			continue
		}
		ids = append(ids, v)
	}
	tr.AddPUTransmitter(0, 0)
	return tr, ids
}

// TestFilteredSUTransitionAllocates0: the filtered add/remove pair, walking
// rank bitsets with a stack-allocated visit closure, must not allocate.
func TestFilteredSUTransitionAllocates0(t *testing.T) {
	obs := &countingObserver{}
	tr, ids := filteredScaledTracker(t, obs)
	tr.AddSUTransmitter(ids[0], 0)
	tr.RemoveSUTransmitter(ids[0], 0)
	k := 0
	allocs := testing.AllocsPerRun(200, func() {
		tr.AddSUTransmitter(ids[k], 0)
		tr.RemoveSUTransmitter(ids[k], 0)
		k = (k + 1) % len(ids)
	})
	if allocs != 0 {
		t.Fatalf("filtered SU transition allocates %v/op, want 0", allocs)
	}
	if obs.busy == 0 || obs.free == 0 {
		t.Fatalf("the pairs delivered %d busy and %d free callbacks; the eligibility mix is vacuous", obs.busy, obs.free)
	}
}

// BenchmarkSUTransition measures one filtered SU register/unregister pair
// — the spectrum tracker's share of every transmission start and end in
// the MAC — at the n = 300 scaled operating point (see
// filteredScaledTracker), cycling the transmitter over the deployment.
func BenchmarkSUTransition(b *testing.B) {
	b.ReportAllocs()
	tr, ids := filteredScaledTracker(b, &countingObserver{})
	k := 0
	b.ResetTimer()
	for range b.N {
		tr.AddSUTransmitter(ids[k], 0)
		tr.RemoveSUTransmitter(ids[k], 0)
		k++
		if k == len(ids) {
			k = 0
		}
	}
}

// TestIndexedPathReentrancy mirrors the grid path's reentrancy test on the
// CSR path: an observer that registers a new transmitter from inside a
// SpectrumFree callback must see consistent counters and no panic.
func TestIndexedPathReentrancy(t *testing.T) {
	nw := testNetwork(t, 13)
	obs := &recordingObserver{}
	tr, err := NewTracker(nw, 30, 30, obs)
	if err != nil {
		t.Fatal(err)
	}
	obs.reenter = func(node int32) {
		tr.AddSUTransmitter(node, 1)
	}
	tr.AddPUTransmitter(0, 0)
	tr.RemovePUTransmitter(0, 1)
	// The reentrant SU registration must be reflected in busy counters:
	// at least the re-registered node's neighbors are busy again.
	anyBusy := false
	for id := int32(0); id < int32(nw.NumNodes()); id++ {
		if tr.Busy(id) {
			anyBusy = true
			break
		}
	}
	if len(obs.free) == 0 {
		t.Skip("PU 0 froze no nodes in this deployment; nothing to verify")
	}
	if !anyBusy {
		t.Fatal("reentrant AddSUTransmitter left no busy counters")
	}
}

// BenchmarkPUFreeWalk measures the free walk of a filtered PU removal at
// the n = 300 scaled operating point: every node in the leaving PU's row
// is frozen (free-eligible), about half of them stay covered by a second
// active PU, and two SUs outside the row transmit, so each remaining node
// pays the SU check. One op is an add/remove pair of the first PU; the
// add visits nothing (no node is busy-eligible), so the removal's walk is
// the cost measured.
func BenchmarkPUFreeWalk(b *testing.B) {
	p := netmodel.ScaledDefaultParams()
	nw, err := netmodel.Deploy(p, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	consts, err := pcr.Compute(p)
	if err != nil {
		b.Fatal(err)
	}
	obs := &countingObserver{}
	tr, err := NewTracker(nw, consts.Range, consts.Range, obs)
	if err != nil {
		b.Fatal(err)
	}
	tr.FilterTransitions(true)
	tab, err := nw.PUNeighborTable(consts.Range)
	if err != nil {
		b.Fatal(err)
	}
	// The pair (leaving, staying) whose rows' overlap is closest to half
	// of the leaving PU's row.
	leaving, staying, best := int32(-1), int32(-1), 2.0
	for i := range int32(len(nw.PU)) {
		in := map[int32]bool{}
		for _, v := range tab.Row(i) {
			in[v] = true
		}
		for j := range int32(len(nw.PU)) {
			shared := 0
			for _, v := range tab.Row(j) {
				if in[v] {
					shared++
				}
			}
			if d := math.Abs(float64(shared)/float64(len(in)) - 0.5); j != i && len(in) > 0 && d < best {
				leaving, staying, best = i, j, d
			}
		}
	}
	elig := tr.Eligibility()
	inRow := map[int32]bool{}
	for _, v := range tab.Row(leaving) {
		elig.Set(v, false, true)
		inRow[v] = true
	}
	for v, sent := int32(1), 0; sent < 2; v++ {
		if !inRow[v] {
			tr.AddSUTransmitter(v, 0)
			sent++
		}
	}
	tr.AddPUTransmitter(staying, 0)
	b.ResetTimer()
	for range b.N {
		tr.AddPUTransmitter(leaving, 0)
		tr.RemovePUTransmitter(leaving, 0)
	}
	b.StopTimer()
	if obs.free == 0 {
		b.Fatal("no SpectrumFree delivered; the walk is vacuous")
	}
}
