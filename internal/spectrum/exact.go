package spectrum

import (
	"math"

	"addcrn/internal/geom"
	"addcrn/internal/netmodel"
	"addcrn/internal/rng"
	"addcrn/internal/sim"
)

// ExactModel simulates every primary user's slot activity individually:
// during each slot of length tau a PU transmits with probability p_t,
// i.i.d. across slots and PUs (paper Section III). Consecutive identical
// slots are generated as geometric run lengths, so the event cost is
// proportional to state changes rather than slots. With one tracker per
// channel (a C-channel MAC), PU i is licensed to channel i mod C and
// registers on that channel's tracker only.
type ExactModel struct {
	nw       *netmodel.Network
	trackers []*Tracker
	src      *rng.Source
	rcvSrc   *rng.Source
	slot     sim.Time

	active []bool
	// receivers[i] is a synthetic intended receiver for PU i, uniformly
	// within distance R; the physical-interference validation tests check
	// SIR at these points (the MAC itself never reads them).
	receivers []geom.Point
	numActive int

	// eng is bound at Start; toggles[i] is PU i's event body (see toggle).
	eng     *sim.Engine
	toggles []sim.EventFunc

	monitor   *RxMonitor
	monTokens []int64
	busy      busyIntegral
}

// RenewExactModel builds the exact per-PU activity model over one tracker
// per channel, reusing prev's allocations when prev is non-nil: the activity
// masks, receiver points, toggle closures and both child randomness
// sources, resized when the PU count changed. A renewed model is
// observationally identical to a fresh one.
func RenewExactModel(prev *ExactModel, nw *netmodel.Network, trackers []*Tracker, src *rng.Source) *ExactModel {
	m := prev
	if m == nil {
		m = &ExactModel{}
	}
	n := len(nw.PU)
	*m = ExactModel{
		nw:        nw,
		trackers:  trackers,
		src:       rng.ReseedChild(m.src, src, "spectrum/exact"),
		rcvSrc:    rng.ReseedChild(m.rcvSrc, src, "spectrum/receivers"),
		slot:      sim.FromDuration(nw.Params.Slot),
		active:    zeroed(m.active, n),
		receivers: zeroed(m.receivers, n),
		toggles:   m.toggles,
		monTokens: m.monTokens,
	}
	for i := len(m.toggles); i < n; i++ {
		m.toggles = append(m.toggles, m.toggle(int32(i)))
	}
	m.toggles = m.toggles[:n]
	m.drawReceivers()
	return m
}

// toggle returns PU i's event body: flip its state and re-arm itself, so the
// steady-state activity process schedules events without allocating a
// closure per toggle.
func (m *ExactModel) toggle(i int32) sim.EventFunc {
	return func(now sim.Time) {
		if m.active[i] {
			m.deactivate(i, now)
		} else {
			m.activate(i, now)
		}
		m.scheduleToggle(i)
	}
}

// drawReceivers samples each PU's synthetic intended receiver from the
// run's receiver stream (uniform direction, uniform radius within R).
func (m *ExactModel) drawReceivers() {
	for i, pos := range m.nw.PU {
		theta := m.rcvSrc.Float64() * 2 * math.Pi
		dist := m.rcvSrc.Float64() * m.nw.Params.RadiusPU
		m.receivers[i] = pos.Add(dist*math.Cos(theta), dist*math.Sin(theta))
	}
}

// AttachMonitor registers PU transmissions with an RxMonitor so primary
// interference participates in SIR collision checking. Call before Start.
func (m *ExactModel) AttachMonitor(mon *RxMonitor) {
	m.monitor = mon
	m.monTokens = zeroed(m.monTokens, len(m.nw.PU))
}

// Start samples each PU's initial state and schedules its first toggle.
func (m *ExactModel) Start(eng *sim.Engine) {
	m.eng = eng
	pt := m.nw.Params.ActiveProb
	for i := range m.nw.PU {
		if pt <= 0 {
			continue // silent forever
		}
		if m.src.Bernoulli(pt) {
			m.activate(int32(i), eng.Now())
		}
		if pt >= 1 {
			continue // active forever; no toggles
		}
		m.scheduleToggle(int32(i))
	}
}

// Receiver returns the synthetic intended receiver of PU i.
func (m *ExactModel) Receiver(i int) geom.Point { return m.receivers[i] }

// BusyFraction returns the time-averaged fraction of PUs that were
// transmitting through virtual time now, the empirical p_t. It is 0 before
// any time has elapsed.
func (m *ExactModel) BusyFraction(now sim.Time) float64 {
	return m.busy.fraction(now, m.numActive, len(m.nw.PU))
}

func (m *ExactModel) activate(i int32, now sim.Time) {
	m.busy.update(now, m.numActive)
	m.active[i] = true
	m.numActive++
	if m.monitor != nil {
		m.monTokens[i] = m.monitor.AddTransmitterNode(int32(m.nw.NumNodes())+i, m.nw.PU[i], m.nw.Params.PowerPU)
	}
	m.tracker(i).AddPUTransmitter(i, now)
}

func (m *ExactModel) deactivate(i int32, now sim.Time) {
	m.busy.update(now, m.numActive)
	m.active[i] = false
	m.numActive--
	if m.monitor != nil {
		m.monitor.RemoveTransmitter(m.monTokens[i])
	}
	m.tracker(i).RemovePUTransmitter(i, now)
}

// tracker returns the tracker of PU i's licensed channel. One channel
// skips the division: toggles are most of a run's events.
func (m *ExactModel) tracker(i int32) *Tracker {
	if len(m.trackers) == 1 {
		return m.trackers[0]
	}
	return m.trackers[int(i)%len(m.trackers)]
}

// scheduleToggle arms PU i's next state change after the remaining run of
// identical slots.
func (m *ExactModel) scheduleToggle(i int32) {
	pt := m.nw.Params.ActiveProb
	var runSlots int64
	if m.active[i] {
		// One active slot, plus a geometric number of consecutive
		// continuation successes with probability p_t each.
		runSlots = 1 + m.src.Geometric(1-pt)
	} else {
		runSlots = 1 + m.src.Geometric(pt)
	}
	m.eng.After(sim.Time(runSlots)*m.slot, m.toggles[i])
}
