package spectrum

import (
	"math"
	"math/rand"
	"testing"

	"addcrn/internal/geom"
	"addcrn/internal/interference"
)

func TestMonitorSingleLinkClean(t *testing.T) {
	m := RenewRxMonitor(nil, 4)
	tx := m.AddTransmitter(geom.Point{X: 0, Y: 0}, 10)
	rx := m.BeginReception(geom.Point{X: 5, Y: 0}, geom.Point{X: 0, Y: 0}, 10, 6.3, tx)
	if m.Ongoing() != 1 || m.ActiveTransmitters() != 1 {
		t.Fatalf("counts: rx=%d tx=%d", m.Ongoing(), m.ActiveTransmitters())
	}
	if !m.EndReception(rx) {
		t.Error("lone transmission corrupted")
	}
	m.RemoveTransmitter(tx)
	if m.ActiveTransmitters() != 0 {
		t.Error("transmitter not removed")
	}
}

func TestMonitorCollisionFromLateInterferer(t *testing.T) {
	m := RenewRxMonitor(nil, 4)
	tx := m.AddTransmitter(geom.Point{X: 0, Y: 0}, 10)
	rx := m.BeginReception(geom.Point{X: 10, Y: 0}, geom.Point{X: 0, Y: 0}, 10, 6.3, tx)
	// A second transmitter right next to the receiver arrives mid-flight.
	jam := m.AddTransmitter(geom.Point{X: 11, Y: 0}, 10)
	if m.EndReception(rx) {
		t.Error("jammed reception survived")
	}
	m.RemoveTransmitter(jam)
	m.RemoveTransmitter(tx)
}

func TestMonitorCorruptionIsSticky(t *testing.T) {
	m := RenewRxMonitor(nil, 4)
	tx := m.AddTransmitter(geom.Point{X: 0, Y: 0}, 10)
	rx := m.BeginReception(geom.Point{X: 10, Y: 0}, geom.Point{X: 0, Y: 0}, 10, 6.3, tx)
	jam := m.AddTransmitter(geom.Point{X: 11, Y: 0}, 10)
	m.RemoveTransmitter(jam) // interferer leaves again
	if m.EndReception(rx) {
		t.Error("corruption healed after interferer left")
	}
	m.RemoveTransmitter(tx)
}

func TestMonitorPreexistingInterferer(t *testing.T) {
	m := RenewRxMonitor(nil, 4)
	jam := m.AddTransmitter(geom.Point{X: 11, Y: 0}, 10)
	tx := m.AddTransmitter(geom.Point{X: 0, Y: 0}, 10)
	rx := m.BeginReception(geom.Point{X: 10, Y: 0}, geom.Point{X: 0, Y: 0}, 10, 6.3, tx)
	if m.EndReception(rx) {
		t.Error("reception started under interference survived")
	}
	m.RemoveTransmitter(tx)
	m.RemoveTransmitter(jam)
}

func TestMonitorOwnSignalNotInterference(t *testing.T) {
	m := RenewRxMonitor(nil, 4)
	// Register transmitter BEFORE reception (the MAC's order): the
	// reception must not count its own signal as interference.
	tx := m.AddTransmitter(geom.Point{X: 0, Y: 0}, 10)
	rx := m.BeginReception(geom.Point{X: 1, Y: 0}, geom.Point{X: 0, Y: 0}, 10, 1000, tx)
	if !m.EndReception(rx) {
		t.Error("own signal counted as interference")
	}
	m.RemoveTransmitter(tx)
}

func TestMonitorDistantInterfererHarmless(t *testing.T) {
	m := RenewRxMonitor(nil, 4)
	tx := m.AddTransmitter(geom.Point{X: 0, Y: 0}, 10)
	rx := m.BeginReception(geom.Point{X: 5, Y: 0}, geom.Point{X: 0, Y: 0}, 10, 6.3, tx)
	far := m.AddTransmitter(geom.Point{X: 500, Y: 0}, 10)
	if !m.EndReception(rx) {
		t.Error("distant interferer corrupted reception")
	}
	m.RemoveTransmitter(far)
	m.RemoveTransmitter(tx)
}

func TestMonitorEndUnknownToken(t *testing.T) {
	m := RenewRxMonitor(nil, 4)
	if m.EndReception(12345) {
		t.Error("unknown reception token reported success")
	}
	m.RemoveTransmitter(999) // must not panic
}

// TestMonitorMatchesBatchSIR cross-validates the incremental monitor
// against the batch SIR evaluation of internal/interference on randomized
// static scenarios (all transmitters present for the whole reception).
func TestMonitorMatchesBatchSIR(t *testing.T) {
	rnd := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		alpha := 2.5 + rnd.Float64()*2
		eta := math.Pow(10, 0.4+rnd.Float64())
		k := 2 + rnd.Intn(8)
		txs := make([]interference.Transmitter, k)
		for i := range txs {
			txs[i] = interference.Transmitter{
				Pos:   geom.Point{X: rnd.Float64() * 100, Y: rnd.Float64() * 100},
				Power: 1 + rnd.Float64()*20,
			}
		}
		rxPos := geom.Point{X: rnd.Float64() * 100, Y: rnd.Float64() * 100}
		wantOK := interference.SIR(txs, 0, rxPos, alpha) >= eta

		m := RenewRxMonitor(nil, alpha)
		tokens := make([]int64, k)
		for i, tx := range txs {
			tokens[i] = m.AddTransmitter(tx.Pos, tx.Power)
		}
		rx := m.BeginReception(rxPos, txs[0].Pos, txs[0].Power, eta, tokens[0])
		gotOK := m.EndReception(rx)
		if gotOK != wantOK {
			t.Fatalf("trial %d: monitor=%v batch=%v (alpha=%v eta=%v)", trial, gotOK, wantOK, alpha, eta)
		}
	}
}

func TestMonitorIncrementalOrderIrrelevant(t *testing.T) {
	// Adding interferers before vs after BeginReception must agree for a
	// non-corrupting scenario.
	mk := func(before bool) bool {
		m := RenewRxMonitor(nil, 3)
		var jam int64
		if before {
			jam = m.AddTransmitter(geom.Point{X: 80, Y: 0}, 5)
		}
		tx := m.AddTransmitter(geom.Point{X: 0, Y: 0}, 10)
		rx := m.BeginReception(geom.Point{X: 3, Y: 0}, geom.Point{X: 0, Y: 0}, 10, 4, tx)
		if !before {
			jam = m.AddTransmitter(geom.Point{X: 80, Y: 0}, 5)
		}
		_ = jam
		return m.EndReception(rx)
	}
	if mk(true) != mk(false) {
		t.Error("interferer arrival order changed a static outcome")
	}
}

// AddTransmitter is AddTransmitterNode for a transmitter registered by
// position only.
func (m *RxMonitor) AddTransmitter(pos geom.Point, power float64) int64 {
	return m.AddTransmitterNode(-1, pos, power)
}

// BeginReception is BeginReceptionNode with both endpoints registered by
// position only.
func (m *RxMonitor) BeginReception(rxPos geom.Point, txPos geom.Point, txPower float64, eta float64, ownTx int64) int64 {
	return m.BeginReceptionNode(-1, rxPos, -1, txPos, txPower, eta, ownTx)
}

// Ongoing returns the number of ongoing receptions.
func (m *RxMonitor) Ongoing() int { return len(m.rxs) }

// ActiveTransmitters returns the number of registered transmitters.
func (m *RxMonitor) ActiveTransmitters() int { return len(m.txs) }
