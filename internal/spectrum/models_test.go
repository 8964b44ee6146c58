package spectrum

import (
	"math"
	"testing"

	"addcrn/internal/netmodel"
	"addcrn/internal/rng"
	"addcrn/internal/sim"
)

// nullObserver ignores transitions (models are exercised through state
// accessors in these tests).
type nullObserver struct{}

func (nullObserver) SpectrumBusy(int32, sim.Time) {}
func (nullObserver) SpectrumFree(int32, sim.Time) {}
func (nullObserver) PUArrived(int32, sim.Time)    {}

func modelFixture(t *testing.T, seed uint64, pt float64) (*netmodel.Network, *Tracker) {
	t.Helper()
	p := netmodel.ScaledDefaultParams()
	p.NumSU = 80
	p.Area = 60
	p.NumPU = 12
	p.ActiveProb = pt
	nw, err := netmodel.Deploy(p, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewTracker(nw, 30, 30, nullObserver{})
	if err != nil {
		t.Fatal(err)
	}
	return nw, tr
}

func TestExactModelMarginalActivity(t *testing.T) {
	// Sample PU 0's state at many slot midpoints; the fraction active must
	// approach p_t (the i.i.d. Bernoulli marginal).
	nw, tr := modelFixture(t, 1, 0.3)
	m := RenewExactModel(nil, nw, []*Tracker{tr}, rng.New(2))
	eng := sim.New()
	m.Start(eng)
	slot := sim.FromDuration(nw.Params.Slot)
	active := 0
	const slots = 20000
	for s := 0; s < slots; s++ {
		eng.RunUntil(sim.Time(s)*slot + slot/2)
		if m.IsActive(0) {
			active++
		}
	}
	frac := float64(active) / slots
	if math.Abs(frac-0.3) > 0.02 {
		t.Errorf("PU 0 active fraction %v, want ~0.3", frac)
	}
}

func TestExactModelActiveCountConsistent(t *testing.T) {
	nw, tr := modelFixture(t, 3, 0.4)
	m := RenewExactModel(nil, nw, []*Tracker{tr}, rng.New(4))
	eng := sim.New()
	m.Start(eng)
	slot := sim.FromDuration(nw.Params.Slot)
	for s := 0; s < 500; s++ {
		eng.RunUntil(sim.Time(s) * slot)
		count := 0
		var ids []int32
		ids = m.ActivePUs(ids)
		for _, id := range ids {
			if !m.IsActive(int(id)) {
				t.Fatal("ActivePUs lists inactive PU")
			}
			count++
		}
		if count != m.ActiveCount() {
			t.Fatalf("slot %d: ActiveCount %d, listed %d", s, m.ActiveCount(), count)
		}
	}
}

func TestExactModelMeanActiveMatchesExpectation(t *testing.T) {
	nw, tr := modelFixture(t, 5, 0.25)
	m := RenewExactModel(nil, nw, []*Tracker{tr}, rng.New(6))
	eng := sim.New()
	m.Start(eng)
	slot := sim.FromDuration(nw.Params.Slot)
	var sum float64
	const slots = 5000
	for s := 0; s < slots; s++ {
		eng.RunUntil(sim.Time(s)*slot + slot/2)
		sum += float64(m.ActiveCount())
	}
	mean := sum / slots
	want := 0.25 * float64(len(nw.PU))
	if math.Abs(mean-want) > 0.15*want {
		t.Errorf("mean active PUs %v, want ~%v", mean, want)
	}
}

func TestExactModelSilentAndSaturated(t *testing.T) {
	nwSilent, trSilent := modelFixture(t, 7, 0)
	silent := RenewExactModel(nil, nwSilent, []*Tracker{trSilent}, rng.New(8))
	engS := sim.New()
	silent.Start(engS)
	engS.RunUntil(100 * sim.Millisecond)
	if silent.ActiveCount() != 0 {
		t.Errorf("p_t=0 model has %d active PUs", silent.ActiveCount())
	}
	if engS.Step() {
		t.Error("p_t=0 model scheduled an event")
	}

	nwFull, trFull := modelFixture(t, 9, 1)
	full := RenewExactModel(nil, nwFull, []*Tracker{trFull}, rng.New(10))
	engF := sim.New()
	full.Start(engF)
	if full.ActiveCount() != len(nwFull.PU) {
		t.Errorf("p_t=1 model has %d active PUs, want all %d", full.ActiveCount(), len(nwFull.PU))
	}
	engF.RunUntil(100 * sim.Millisecond)
	if full.ActiveCount() != len(nwFull.PU) {
		t.Error("p_t=1 model deactivated a PU")
	}
}

func TestExactModelReceiversWithinRadius(t *testing.T) {
	nw, tr := modelFixture(t, 11, 0.3)
	m := RenewExactModel(nil, nw, []*Tracker{tr}, rng.New(12))
	for i := range nw.PU {
		d := nw.PU[i].Dist(m.Receiver(i))
		if d > nw.Params.RadiusPU+1e-9 {
			t.Errorf("PU %d receiver at distance %v > R=%v", i, d, nw.Params.RadiusPU)
		}
	}
}

func TestExactModelSlotAligned(t *testing.T) {
	// All state-change events must land on slot boundaries.
	nw, tr := modelFixture(t, 13, 0.5)
	m := RenewExactModel(nil, nw, []*Tracker{tr}, rng.New(14))
	eng := sim.New()
	m.Start(eng)
	slot := sim.FromDuration(nw.Params.Slot)
	prev := m.ActiveCount()
	for steps := 0; steps < 2000 && eng.Step(); steps++ {
		if m.ActiveCount() != prev {
			if eng.Now()%slot != 0 {
				t.Fatalf("state change at %d, not slot aligned", eng.Now())
			}
			prev = m.ActiveCount()
		}
	}
}

// ActiveCount returns how many PUs are currently transmitting.
func (m *ExactModel) ActiveCount() int { return m.numActive }

// IsActive reports whether PU i currently transmits.
func (m *ExactModel) IsActive(i int) bool { return m.active[i] }

// ActivePUs appends the indices of active PUs to dst.
func (m *ExactModel) ActivePUs(dst []int32) []int32 {
	for i, a := range m.active {
		if a {
			dst = append(dst, int32(i))
		}
	}
	return dst
}
