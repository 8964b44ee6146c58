package spectrum

import (
	"math"
	"testing"

	"addcrn/internal/netmodel"
	"addcrn/internal/pcr"
	"addcrn/internal/rng"
	"addcrn/internal/sim"
)

// TestIndexedSUTransitionAllocates0: steady-state SU and PU add/remove
// cycles with every eligibility mark set must not allocate (immutable rows,
// stack-allocated visit closures).
func TestIndexedSUTransitionAllocates0(t *testing.T) {
	nw := testNetwork(t, 12)
	obs := &countingObserver{}
	tr, err := NewTracker(nw, 25, 25, obs)
	if err != nil {
		t.Fatal(err)
	}
	markAll(tr, -1)
	// Fetch the network's rows and size puOn.
	tr.AddSUTransmitter(1, 0)
	tr.RemoveSUTransmitter(1, 0)
	tr.AddPUTransmitter(0, 0)
	tr.RemovePUTransmitter(0, 0)
	id, pu := int32(1), int32(0)
	allocs := testing.AllocsPerRun(200, func() {
		tr.AddSUTransmitter(id, 0)
		tr.AddPUTransmitter(pu, 0)
		tr.RemoveSUTransmitter(id, 0)
		tr.RemovePUTransmitter(pu, 0)
		id = id%int32(nw.NumNodes()-1) + 1
		pu = (pu + 1) % int32(len(nw.PU))
	})
	if allocs != 0 {
		t.Fatalf("SU and PU transitions allocate %v/op, want 0", allocs)
	}
	if obs.busy == 0 || obs.free == 0 || obs.arrived == 0 {
		t.Fatalf("the cycles delivered %+v; the test is vacuous", *obs)
	}
}

// countingObserver counts deliveries and acts on none of them.
type countingObserver struct{ busy, free, arrived int }

func (o *countingObserver) SpectrumBusy(int32, sim.Time) { o.busy++ }
func (o *countingObserver) SpectrumFree(int32, sim.Time) { o.free++ }
func (o *countingObserver) PUArrived(int32, sim.Time)    { o.arrived++ }

// scaledTracker builds a tracker at the n = 300 scaled operating point with the derived PCR as both sensing ranges, in the
// medium mix a running collection shows: about 4% of the nodes mid-backoff
// and 4% frozen — some 8 of the ~99 in a PCR row — two SUs transmitting
// and one PU active. It returns the SUs a benchmark may register: every
// node but the base station and the background transmitters.
func scaledTracker(tb testing.TB, obs Observer) (*Tracker, []int32) {
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

// TestFilteredSUTransitionAllocates0: the SU add/remove pair in a running
// collection's eligibility mix, walking rank bitsets with a stack-allocated
// visit closure, must not allocate.
func TestFilteredSUTransitionAllocates0(t *testing.T) {
	obs := &countingObserver{}
	tr, ids := scaledTracker(t, obs)
	tr.AddSUTransmitter(ids[0], 0)
	tr.RemoveSUTransmitter(ids[0], 0)
	k := 0
	allocs := testing.AllocsPerRun(200, func() {
		tr.AddSUTransmitter(ids[k], 0)
		tr.RemoveSUTransmitter(ids[k], 0)
		k = (k + 1) % len(ids)
	})
	if allocs != 0 {
		t.Fatalf("SU transition allocates %v/op, want 0", allocs)
	}
	if obs.busy == 0 || obs.free == 0 {
		t.Fatalf("the pairs delivered %d busy and %d free callbacks; the eligibility mix is vacuous", obs.busy, obs.free)
	}
}

// BenchmarkSUTransition measures one SU register/unregister pair — the
// spectrum tracker's share of every transmission start and end in the MAC
// — at the n = 300 scaled operating point (see scaledTracker), cycling the
// transmitter over the deployment.
func BenchmarkSUTransition(b *testing.B) {
	b.ReportAllocs()
	tr, ids := scaledTracker(b, &countingObserver{})
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

// TestIndexedPathReentrancy: an observer that registers a new transmitter
// from inside a SpectrumFree callback of a PU removal, with every
// eligibility mark set, must leave the medium busy around it and see no
// panic.
func TestIndexedPathReentrancy(t *testing.T) {
	nw := testNetwork(t, 13)
	obs := &recordingObserver{}
	tr, err := NewTracker(nw, 30, 30, obs)
	if err != nil {
		t.Fatal(err)
	}
	markAll(tr, -1)
	obs.reenter = func(node int32) {
		tr.AddSUTransmitter(node, 1)
	}
	tr.AddPUTransmitter(0, 0)
	tr.RemovePUTransmitter(0, 1)
	// The reentrant SU registration must be reflected in the medium: at
	// least the re-registered node's neighbors are busy again.
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
		t.Fatal("reentrant AddSUTransmitter left no node busy")
	}
}

// BenchmarkPUFreeWalk measures the free walk of a PU removal at the n = 300
// scaled operating point: every node in the leaving PU's row
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
	rows := bruteRows(nw, nw.PU, consts.Range)
	// The pair (leaving, staying) whose rows' overlap is closest to half
	// of the leaving PU's row.
	leaving, staying, best := int32(-1), int32(-1), 2.0
	for i := range int32(len(nw.PU)) {
		in := map[int32]bool{}
		for _, v := range rows[i] {
			in[v] = true
		}
		for j := range int32(len(nw.PU)) {
			shared := 0
			for _, v := range rows[j] {
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
	for _, v := range rows[leaving] {
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
