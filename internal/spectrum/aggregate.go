package spectrum

import (
	"math"

	"addcrn/internal/netmodel"
	"addcrn/internal/rng"
	"addcrn/internal/sim"
)

// AggregateModel replaces the PUs around each secondary node with a single
// node-local on/off blocking process. During any slot, node i is blocked
// with probability
//
//	q_i = 1 - (1 - p_t)^{k_i},
//
// where k_i is the number of PUs within PCR of node i in the actual
// deployment — exactly the per-slot probability that at least one of those
// PUs transmits, i.e. the complement of Lemma 7's spectrum-opportunity
// probability evaluated against the realized PU positions.
//
// What the model gives up is correlation: two nearby SUs share PUs and in
// the exact model block together, whereas here they block independently.
// The aggregate model exists so the paper-scale parameter sweeps finish;
// internal/core's tests cross-validate it against ExactModel on small
// networks (matching means within statistical tolerance).
type AggregateModel struct {
	nw        *netmodel.Network
	tracker   *Tracker
	src       *rng.Source
	slot      sim.Time
	blockProb []float64
	blocked   []bool
	numActive int
	busy      busyIntegral

	// eng and toggles are bound at Start: toggles[node] flips the node's
	// blocking state and re-arms itself, allocation-free in steady state.
	eng     *sim.Engine
	toggles []sim.EventFunc
}

var _ PUModel = (*AggregateModel)(nil)

// NewAggregateModel derives each node's blocking probability from the PU
// deployment and the tracker's PCR.
func NewAggregateModel(nw *netmodel.Network, tracker *Tracker, src *rng.Source) *AggregateModel {
	m := &AggregateModel{
		nw:        nw,
		tracker:   tracker,
		src:       src.Child("spectrum/aggregate"),
		slot:      sim.FromDuration(nw.Params.Slot),
		blockProb: make([]float64, nw.NumNodes()),
		blocked:   make([]bool, nw.NumNodes()),
	}
	pt := nw.Params.ActiveProb
	for node := 0; node < nw.NumNodes(); node++ {
		k := nw.PUGrid.CountWithin(nw.SU[node], tracker.PURange())
		m.blockProb[node] = 1 - math.Pow(1-pt, float64(k))
	}
	return m
}

// Start samples each node's initial blocking state and schedules toggles.
func (m *AggregateModel) Start(eng *sim.Engine) {
	m.eng = eng
	m.toggles = make([]sim.EventFunc, m.nw.NumNodes())
	for node := range m.toggles {
		node := int32(node)
		m.toggles[node] = func(now sim.Time) {
			if m.blocked[node] {
				m.unblock(node, now)
			} else {
				m.block(node, now)
			}
			m.scheduleToggle(node)
		}
	}
	for node := 0; node < m.nw.NumNodes(); node++ {
		q := m.blockProb[node]
		if q <= 0 {
			continue // never blocked
		}
		if m.src.Bernoulli(q) {
			m.block(int32(node), eng.Now())
		}
		if q >= 1 {
			continue // blocked forever
		}
		m.scheduleToggle(int32(node))
	}
}

// ActiveCount returns the number of currently blocked nodes (each blocked
// node counts as one virtual primary transmitter).
func (m *AggregateModel) ActiveCount() int { return m.numActive }

// BusyFraction implements PUModel: the time-averaged fraction of nodes that
// were inside a blocking period.
func (m *AggregateModel) BusyFraction(now sim.Time) float64 {
	return m.busy.fraction(now, m.numActive, m.nw.NumNodes())
}

func (m *AggregateModel) block(node int32, now sim.Time) {
	m.busy.update(now, m.numActive)
	m.blocked[node] = true
	m.numActive++
	m.tracker.BlockNode(node, now)
}

func (m *AggregateModel) unblock(node int32, now sim.Time) {
	m.busy.update(now, m.numActive)
	m.blocked[node] = false
	m.numActive--
	m.tracker.UnblockNode(node, now)
}

func (m *AggregateModel) scheduleToggle(node int32) {
	q := m.blockProb[node]
	var runSlots int64
	if m.blocked[node] {
		runSlots = 1 + m.src.Geometric(1-q)
	} else {
		runSlots = 1 + m.src.Geometric(q)
	}
	m.eng.After(sim.Time(runSlots)*m.slot, m.toggles[node])
}
