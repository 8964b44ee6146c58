package spectrum

import (
	"math"

	"addcrn/internal/geom"
)

// RxMonitor tracks every ongoing reception's signal-to-interference ratio
// incrementally under the physical interference model. Each registered
// transmitter contributes P*d^-alpha of interference at every ongoing
// receiver (except its own); a reception whose SIR ever dips below its
// threshold is marked corrupted and the packet is lost (collision).
//
// Two uses:
//
//   - validation: under ADDC's PCR, Lemmas 2-3 guarantee no reception is
//     ever corrupted — integration tests assert zero collisions;
//   - baseline realism: the generic-CSMA profile the Coolest comparison
//     runs on uses a naive sensing range, so collisions actually occur and
//     cost retransmissions.
//
// The active sets are token-ordered slices, not maps: at any instant only a
// handful of transmissions overlap, so linear scans beat hashing, and
// iterating transmitters in registration order makes every interference sum
// a deterministic function of the operation history. With a GainTable
// attached (see SetGainTable), pathloss between table-indexed points is
// computed once per pair instead of once per encounter.
type RxMonitor struct {
	alpha float64
	gt    *GainTable
	txs   []monTx
	rxs   []monRx
	next  int64
}

type monTx struct {
	token int64
	node  int32 // GainTable index, -1 when registered by position only
	pos   geom.Point
	power float64
}

type monRx struct {
	token     int64
	node      int32 // GainTable index of the receiver, -1 when unknown
	rxPos     geom.Point
	signal    float64
	eta       float64
	ownTx     int64
	interf    float64
	corrupted bool
}

// RenewRxMonitor returns a monitor for path loss exponent alpha, reusing
// prev's slice capacity when prev is non-nil. Any gain table must be
// (re-)attached: topologies change between runs.
func RenewRxMonitor(prev *RxMonitor, alpha float64) *RxMonitor {
	m := prev
	if m == nil {
		m = &RxMonitor{}
	}
	*m = RxMonitor{alpha: alpha, txs: m.txs[:0], rxs: m.rxs[:0]}
	return m
}

// SetGainTable attaches a memoized pathloss table. Node-registered endpoints
// (AddTransmitterNode, BeginReceptionNode) then resolve their pairwise gains
// through it; position-only registrations keep computing pathloss directly.
func (m *RxMonitor) SetGainTable(gt *GainTable) { m.gt = gt }

// gainBetween resolves the tx→rx pathloss gain, through the table when both
// endpoints carry table indices and a table is attached.
func (m *RxMonitor) gainBetween(txNode int32, txPos geom.Point, rxNode int32, rxPos geom.Point) float64 {
	if m.gt != nil && txNode >= 0 && rxNode >= 0 {
		return m.gt.Gain(txNode, rxNode)
	}
	return pathGain(txPos, rxPos, m.alpha)
}

// AddTransmitterNode registers an active transmitter at GainTable index
// node (a node id, or NumNodes()+i for PU i; -1 registers it by position
// only) and returns its token. Every ongoing reception (except the
// transmitter's own) accrues its interference immediately.
func (m *RxMonitor) AddTransmitterNode(node int32, pos geom.Point, power float64) int64 {
	m.next++
	token := m.next
	m.txs = append(m.txs, monTx{token: token, node: node, pos: pos, power: power})
	for i := range m.rxs {
		rx := &m.rxs[i]
		if rx.ownTx == token {
			continue
		}
		rx.interf += scaledPower(power, m.gainBetween(node, pos, rx.node, rx.rxPos))
		if !rx.corrupted && rx.signal < rx.eta*rx.interf {
			rx.corrupted = true
		}
	}
	return token
}

// RemoveTransmitter unregisters a transmitter. Interference subtractions
// cannot un-corrupt a reception.
func (m *RxMonitor) RemoveTransmitter(token int64) {
	ti := -1
	for i := range m.txs {
		if m.txs[i].token == token {
			ti = i
			break
		}
	}
	if ti < 0 {
		return
	}
	tx := m.txs[ti]
	m.txs = append(m.txs[:ti], m.txs[ti+1:]...)
	for i := range m.rxs {
		rx := &m.rxs[i]
		if rx.ownTx == token {
			continue
		}
		rx.interf -= scaledPower(tx.power, m.gainBetween(tx.node, tx.pos, rx.node, rx.rxPos))
		if rx.interf < 0 {
			rx.interf = 0 // floating point dust
		}
	}
}

// BeginReceptionNode registers an ongoing reception: receiver rxNode at
// rxPos decoding txNode's transmission, identified by ownTx (already or
// about-to-be registered), with the given received-signal parameters and
// linear SIR threshold eta. Endpoints are GainTable indices, -1 for
// position-only. The initial interference sum excludes the transmission
// identified by ownTx, so it may be called before or after
// AddTransmitterNode for the same transmission. It returns a reception
// token.
func (m *RxMonitor) BeginReceptionNode(rxNode int32, rxPos geom.Point, txNode int32, txPos geom.Point, txPower float64, eta float64, ownTx int64) int64 {
	m.next++
	token := m.next
	rx := monRx{
		token:  token,
		node:   rxNode,
		rxPos:  rxPos,
		signal: scaledPower(txPower, m.gainBetween(txNode, txPos, rxNode, rxPos)),
		eta:    eta,
		ownTx:  ownTx,
	}
	for i := range m.txs {
		tx := &m.txs[i]
		if tx.token == ownTx {
			continue
		}
		rx.interf += scaledPower(tx.power, m.gainBetween(tx.node, tx.pos, rxNode, rxPos))
	}
	if rx.signal < rx.eta*rx.interf {
		rx.corrupted = true
	}
	m.rxs = append(m.rxs, rx)
	return token
}

// EndReception removes the reception and reports whether it survived
// uncorrupted.
func (m *RxMonitor) EndReception(token int64) (ok bool) {
	for i := range m.rxs {
		if m.rxs[i].token == token {
			ok = !m.rxs[i].corrupted
			m.rxs = append(m.rxs[:i], m.rxs[i+1:]...)
			return ok
		}
	}
	return false
}

func receivedPower(txPos geom.Point, power float64, rxPos geom.Point, alpha float64) float64 {
	d := txPos.Dist(rxPos)
	if d == 0 {
		return math.Inf(1)
	}
	return power * math.Pow(d, -alpha)
}
