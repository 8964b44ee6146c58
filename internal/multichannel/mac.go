package multichannel

import (
	"fmt"

	"addcrn/internal/mac"
	"addcrn/internal/netmodel"
	"addcrn/internal/rng"
	"addcrn/internal/sim"
	"addcrn/internal/spectrum"
	"addcrn/internal/stats"
)

type chState uint8

const (
	chIdle chState = iota + 1
	chBackoffRunning
	chBackoffFrozen
	chAwaiting
	chTransmitting
	chPostWait
)

type chNode struct {
	st        chState
	queue     []mac.Packet
	head      int
	draw      sim.Time
	remaining sim.Time
	timer     sim.Timer
	doomed    bool // parent transmitted during our transmission (deafness)

	// expireFn, endTxFn and postWaitFn are this node's event bodies, bound
	// once at construction so arming a timer allocates no closure.
	expireFn   sim.EventFunc
	endTxFn    sim.EventFunc
	postWaitFn sim.EventFunc

	transmissions int
	aborts        int
	deafLosses    int
	perChannelTx  []int
}

func (n *chNode) queueLen() int { return len(n.queue) - n.head }
func (n *chNode) push(p mac.Packet) {
	n.queue = append(n.queue, p)
}
func (n *chNode) pop() mac.Packet {
	p := n.queue[n.head]
	n.head++
	if n.head > 64 && n.head*2 >= len(n.queue) {
		n.queue = append(n.queue[:0], n.queue[n.head:]...)
		n.head = 0
	}
	return p
}

type macConfig struct {
	nw        *netmodel.Network
	parent    []int32
	channels  int
	home      []int
	puChannel []int
	pcrRange  float64
	eng       *sim.Engine
	src       *rng.Source
	// tables, when non-nil, supplies the CSR neighbor tables (a shared
	// topology); otherwise one pair is built for the run.
	tables spectrum.NeighborTables
}

// chMAC is the multi-channel CSMA state machine: each node contends on its
// parent's home channel with ADDC's backoff/freeze/fairness rules. It is
// the observer of every channel's tracker; the per-channel delivery filters
// route each transition only to nodes transmitting on that channel.
type chMAC struct {
	cfg      macConfig
	trackers []*spectrum.Tracker
	nodes    []chNode
	backoff  *rng.Source
	puSrc    *rng.Source

	// busyElig[c]/freeElig[c] are channel c's tracker delivery filters:
	// busyElig[c][id] is true exactly when node id transmits on c and its
	// backoff runs, freeElig[c][id] when it transmits on c and is frozen or
	// awaiting. setState keeps them current.
	busyElig [][]bool
	freeElig [][]bool

	// puActive[i] is PU i's current state; toggles[i] flips it and re-arms
	// itself, so the activity process allocates no closure per toggle.
	puActive []bool
	toggles  []sim.EventFunc

	slot   sim.Time
	window sim.Time
	root   int32

	// activeSenders[p] lists nodes currently transmitting toward p;
	// deafness marks them doomed when p itself starts transmitting.
	activeSenders [][]int32

	delivered int
	expected  int
	latHops   []float64
}

func newMAC(cfg macConfig) (*chMAC, error) {
	nn := cfg.nw.NumNodes()
	if len(cfg.parent) != nn || len(cfg.home) != nn {
		return nil, fmt.Errorf("multichannel: parent/home slices must cover %d nodes", nn)
	}
	root := int32(-1)
	for v, p := range cfg.parent {
		if p == -1 {
			root = int32(v)
		}
	}
	if root == -1 {
		return nil, fmt.Errorf("multichannel: no root")
	}
	m := &chMAC{
		cfg:           cfg,
		nodes:         make([]chNode, nn),
		backoff:       cfg.src.Child("multichannel/backoff"),
		puSrc:         cfg.src.Child("multichannel/pu"),
		slot:          sim.FromDuration(cfg.nw.Params.Slot),
		window:        sim.FromDuration(cfg.nw.Params.ContentionWindow),
		root:          root,
		activeSenders: make([][]int32, nn),
		expected:      nn - 1,
	}
	perChannelTx := make([]int, nn*cfg.channels)
	for i := range m.nodes {
		n := &m.nodes[i]
		n.st = chIdle
		n.perChannelTx = perChannelTx[i*cfg.channels : (i+1)*cfg.channels : (i+1)*cfg.channels]
		id := int32(i)
		n.expireFn = func(t sim.Time) { m.expire(id, t) }
		n.endTxFn = func(t sim.Time) { m.endTx(id, t) }
		n.postWaitFn = func(t sim.Time) { m.postWaitDone(id, t) }
	}
	tables := cfg.tables
	if tables == nil {
		su, err := cfg.nw.SUNeighborTable(cfg.pcrRange)
		if err != nil {
			return nil, err
		}
		pu, err := cfg.nw.PUNeighborTable(cfg.pcrRange)
		if err != nil {
			return nil, err
		}
		tables = &tablePair{su: su, pu: pu}
	}
	masks := make([]bool, 2*cfg.channels*nn)
	m.busyElig = make([][]bool, cfg.channels)
	m.freeElig = make([][]bool, cfg.channels)
	m.trackers = make([]*spectrum.Tracker, cfg.channels)
	for c := 0; c < cfg.channels; c++ {
		m.busyElig[c], masks = masks[:nn:nn], masks[nn:]
		m.freeElig[c], masks = masks[:nn:nn], masks[nn:]
		tr, err := spectrum.NewTracker(cfg.nw, cfg.pcrRange, cfg.pcrRange, m)
		if err != nil {
			return nil, err
		}
		tr.SetTables(tables)
		// PUArrived only acts on a transmitting node, and a node registers
		// with exactly its transmit channel's tracker. With both transition
		// filters installed too, the tracker keeps PUs on lazy cover counts.
		tr.FilterPUArrivals(true)
		tr.FilterTransitions(m.busyElig[c], m.freeElig[c])
		m.trackers[c] = tr
	}
	return m, nil
}

// tablePair serves one SU and one PU CSR table, built once per run at the
// PCR, to all C trackers (each senses both kinds at the PCR).
type tablePair struct{ su, pu *netmodel.CSRTable }

func (p *tablePair) SUNeighborTable(float64) (*netmodel.CSRTable, error) { return p.su, nil }
func (p *tablePair) PUNeighborTable(float64) (*netmodel.CSRTable, error) { return p.pu, nil }

func (m *chMAC) done() bool { return m.delivered >= m.expected }

// txChannel returns the channel node id transmits on: its parent's home.
func (m *chMAC) txChannel(id int32) int { return m.cfg.home[m.cfg.parent[id]] }

// setState writes node id's state and keeps its transmit channel's
// delivery filters in lockstep. Every state change of a non-root node must
// go through here; the root never leaves chIdle.
func (m *chMAC) setState(id int32, st chState) {
	m.nodes[id].st = st
	ch := m.txChannel(id)
	m.busyElig[ch][id] = st == chBackoffRunning
	m.freeElig[ch][id] = st == chBackoffFrozen || st == chAwaiting
}

// startPUs launches each PU's Bernoulli slot process on its licensed
// channel (the same run-length construction as spectrum.ExactModel).
func (m *chMAC) startPUs() {
	pt := m.cfg.nw.Params.ActiveProb
	if pt <= 0 {
		return
	}
	npu := len(m.cfg.nw.PU)
	m.puActive = make([]bool, npu)
	m.toggles = make([]sim.EventFunc, npu)
	for i := range npu {
		i := int32(i)
		m.toggles[i] = func(now sim.Time) {
			tr := m.trackers[m.cfg.puChannel[i]]
			if m.puActive[i] {
				tr.RemovePUTransmitter(i, now)
			} else {
				tr.AddPUTransmitter(i, now)
			}
			m.puActive[i] = !m.puActive[i]
			m.schedulePUToggle(i)
		}
		if m.puSrc.Bernoulli(pt) {
			m.puActive[i] = true
			m.trackers[m.cfg.puChannel[i]].AddPUTransmitter(i, 0)
		}
		if pt >= 1 {
			continue
		}
		m.schedulePUToggle(i)
	}
}

// schedulePUToggle arms PU i's next state change after the remaining run
// of identical slots.
func (m *chMAC) schedulePUToggle(i int32) {
	pt := m.cfg.nw.Params.ActiveProb
	var runSlots int64
	if m.puActive[i] {
		runSlots = 1 + m.puSrc.Geometric(1-pt)
	} else {
		runSlots = 1 + m.puSrc.Geometric(pt)
	}
	m.cfg.eng.After(sim.Time(runSlots)*m.slot, m.toggles[i])
}

// startSnapshot queues one packet per node and begins contention.
func (m *chMAC) startSnapshot() {
	now := m.cfg.eng.Now()
	for v := range m.nodes {
		if int32(v) == m.root {
			continue
		}
		m.enqueue(int32(v), mac.Packet{Origin: int32(v), Born: now})
	}
}

func (m *chMAC) enqueue(id int32, pkt mac.Packet) {
	now := m.cfg.eng.Now()
	if id == m.root {
		m.delivered++
		m.latHops = append(m.latHops, float64(pkt.Hops))
		return
	}
	n := &m.nodes[id]
	n.push(pkt)
	if n.st == chIdle {
		m.startContending(id, now)
	}
}

func (m *chMAC) startContending(id int32, now sim.Time) {
	n := &m.nodes[id]
	n.draw = sim.Time(m.backoff.UniformInt(1, int64(m.window)))
	n.remaining = n.draw
	if m.trackers[m.txChannel(id)].Busy(id) {
		m.setState(id, chBackoffFrozen)
		return
	}
	m.armBackoff(id)
}

func (m *chMAC) armBackoff(id int32) {
	n := &m.nodes[id]
	m.setState(id, chBackoffRunning)
	n.timer = m.cfg.eng.After(n.remaining, n.expireFn)
}

func (m *chMAC) expire(id int32, now sim.Time) {
	n := &m.nodes[id]
	if n.st != chBackoffRunning {
		return
	}
	n.remaining = 0
	if m.trackers[m.txChannel(id)].Busy(id) {
		m.setState(id, chAwaiting)
		return
	}
	m.beginTx(id, now)
}

func (m *chMAC) beginTx(id int32, now sim.Time) {
	n := &m.nodes[id]
	m.setState(id, chTransmitting)
	n.doomed = false
	parent := m.cfg.parent[id]
	// Deafness, direction 1: the parent is already transmitting.
	if m.nodes[parent].st == chTransmitting && parent != m.root {
		n.doomed = true
	}
	m.activeSenders[parent] = append(m.activeSenders[parent], id)
	// Deafness, direction 2: we are the parent of in-flight senders.
	for _, u := range m.activeSenders[id] {
		m.nodes[u].doomed = true
	}
	m.trackers[m.txChannel(id)].AddSUTransmitter(id, now)
	n.timer = m.cfg.eng.After(m.slot, n.endTxFn)
}

func (m *chMAC) removeSender(parent, id int32) {
	senders := m.activeSenders[parent]
	for i, u := range senders {
		if u == id {
			senders[i] = senders[len(senders)-1]
			m.activeSenders[parent] = senders[:len(senders)-1]
			return
		}
	}
}

func (m *chMAC) endTx(id int32, now sim.Time) {
	n := &m.nodes[id]
	if n.st != chTransmitting {
		return
	}
	ch := m.txChannel(id)
	parent := m.cfg.parent[id]
	m.trackers[ch].RemoveSUTransmitter(id, now)
	m.removeSender(parent, id)
	if n.doomed {
		n.deafLosses++
		m.enterPostWait(id)
		return
	}
	pkt := n.pop()
	pkt.Hops++
	n.transmissions++
	n.perChannelTx[ch]++
	m.enqueue(parent, pkt)
	m.enterPostWait(id)
}

func (m *chMAC) abortTx(id int32, now sim.Time) {
	n := &m.nodes[id]
	n.timer.Cancel()
	m.trackers[m.txChannel(id)].RemoveSUTransmitter(id, now)
	m.removeSender(m.cfg.parent[id], id)
	n.aborts++
	m.enterPostWait(id)
}

func (m *chMAC) enterPostWait(id int32) {
	n := &m.nodes[id]
	m.setState(id, chPostWait)
	n.timer = m.cfg.eng.After(m.window-n.draw, n.postWaitFn)
}

func (m *chMAC) postWaitDone(id int32, now sim.Time) {
	n := &m.nodes[id]
	if n.st != chPostWait {
		return
	}
	if n.queueLen() == 0 {
		m.setState(id, chIdle)
		return
	}
	m.startContending(id, now)
}

// SpectrumBusy implements spectrum.Observer: freeze a running backoff.
// Channel c's tracker delivers only to nodes transmitting on c.
func (m *chMAC) SpectrumBusy(id int32, now sim.Time) {
	n := &m.nodes[id]
	if n.st != chBackoffRunning {
		return
	}
	n.remaining = n.timer.When() - now
	if n.remaining < 0 {
		n.remaining = 0
	}
	n.timer.Cancel()
	m.setState(id, chBackoffFrozen)
}

// SpectrumFree implements spectrum.Observer: resume a frozen backoff, or
// transmit if it had already expired.
func (m *chMAC) SpectrumFree(id int32, now sim.Time) {
	n := &m.nodes[id]
	switch n.st {
	case chBackoffFrozen:
		if n.remaining <= 0 {
			m.beginTx(id, now)
			return
		}
		m.armBackoff(id)
	case chAwaiting:
		m.beginTx(id, now)
	default:
	}
}

// PUArrived implements spectrum.Observer: spectrum handoff. Arrivals reach
// only nodes registered as transmitters, and a node registers with its
// transmit channel's tracker alone.
func (m *chMAC) PUArrived(id int32, now sim.Time) {
	if m.nodes[id].st == chTransmitting {
		m.abortTx(id, now)
	}
}

func (m *chMAC) result(nw *netmodel.Network, eng *sim.Engine) *Result {
	res := &Result{
		Delivered:   m.delivered,
		Expected:    m.expected,
		ChannelLoad: make([]float64, m.cfg.channels),
		HopStats:    stats.Summarize(m.latHops),
	}
	res.DelaySlots = float64(eng.Now()) / float64(m.slot)
	if eng.Now() > 0 {
		res.Capacity = float64(m.delivered) * nw.Params.PacketBits / eng.Now().Duration().Seconds()
	}
	total := 0
	for v := range m.nodes {
		n := &m.nodes[v]
		res.Transmissions += n.transmissions
		res.Aborts += n.aborts
		res.DeafnessLosses += n.deafLosses
		for c, k := range n.perChannelTx {
			res.ChannelLoad[c] += float64(k)
			total += k
		}
	}
	if total > 0 {
		for c := range res.ChannelLoad {
			res.ChannelLoad[c] /= float64(total)
		}
	}
	return res
}
