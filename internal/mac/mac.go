// Package mac implements the carrier-sense multiple access state machine of
// ADDC (paper Algorithm 1). Every secondary node with queued data:
//
//  1. draws a backoff t_i uniformly from (0, tau_c];
//  2. counts the timer down only while the spectrum within its PCR is free,
//     freezing it otherwise;
//  3. on expiry, transmits one packet to its routing parent as soon as a
//     spectrum opportunity appears;
//  4. then waits tau_c - t_i before contending again (the fairness wait);
//  5. hands off the spectrum immediately — aborting the transmission — if a
//     primary user becomes active within its PCR mid-transmission.
//
// The MAC is routing-agnostic and profile-configurable: ADDC runs it over
// the CDS tree with PCR sensing and the fairness wait; the generic-CSMA
// baseline profile (naive SU sensing, SIR-decided collisions, exponential
// backoff, no fairness wait) models the conventional MAC the Coolest
// comparison runs on; a routing-only ablation puts Coolest's tree on
// ADDC's profile (see DESIGN.md Section 6).
//
// The licensed spectrum is one channel by default, as in the paper. With
// Config.Channels = C > 1 it is split into C orthogonal channels: every node
// receives on a home channel, transmits on its parent's, carrier-senses only
// that channel (one tracker per channel), and obeys the single-radio
// deafness rule.
package mac

import (
	"errors"
	"fmt"
	"math/bits"

	"addcrn/internal/netmodel"
	"addcrn/internal/rng"
	"addcrn/internal/sim"
	"addcrn/internal/spectrum"
)

// ErrRetriesExhausted is the cause reported through Config.OnPacketLost when
// a packet burns through the bounded-retry budget and is dropped.
var ErrRetriesExhausted = errors.New("mac: retry cap exhausted")

// ErrNodeCrashed is the cause reported through Config.OnPacketLost when a
// packet is destroyed because the node holding it crashed (or a packet was
// handed to a crashed node).
var ErrNodeCrashed = errors.New("mac: node crashed")

// Packet is one snapshot datum traveling toward the base station.
type Packet struct {
	// Origin is the secondary node that produced the packet.
	Origin int32
	// Born is the virtual time the packet was produced.
	Born sim.Time
	// Hops counts completed transmissions so far.
	Hops uint16
}

// state enumerates the per-node MAC states.
type state uint8

const (
	stateIdle state = iota + 1
	stateBackoffRunning
	stateBackoffFrozen
	stateAwaiting // backoff expired while busy; transmit on next free
	stateTransmitting
	statePostWait
	stateDown // crashed; inert until Recover
)

func (s state) String() string {
	switch s {
	case stateIdle:
		return "idle"
	case stateBackoffRunning:
		return "backoff-running"
	case stateBackoffFrozen:
		return "backoff-frozen"
	case stateAwaiting:
		return "awaiting-opportunity"
	case stateTransmitting:
		return "transmitting"
	case statePostWait:
		return "post-wait"
	case stateDown:
		return "down"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// NodeStats aggregates one node's MAC activity over a run.
type NodeStats struct {
	// Transmissions is the number of successfully completed packet
	// transmissions.
	Transmissions int
	// Aborts is the number of transmissions aborted by PU handoff.
	Aborts int
	// Collisions is the number of transmissions that completed but were
	// corrupted at the receiver (SIR below threshold); only possible when
	// the MAC runs with an RxMonitor.
	Collisions int
	// DeafnessLosses counts transmissions lost because the receiver was
	// itself transmitting; only possible on more than one channel.
	DeafnessLosses int
	// FrozenTime is total time spent with a frozen backoff timer.
	FrozenTime sim.Time
	// MaxServiceTime is the longest span from starting to contend for a
	// packet until its transmission completed (Theorem 1's quantity).
	MaxServiceTime sim.Time

	// The remaining counters are only non-zero when a FaultProfile is
	// attached (see Config.Faults).
	//
	// LinkLosses counts data frames lost in flight or sent to a crashed
	// receiver; AckLosses counts exchanges voided by a lost acknowledgement.
	LinkLosses int
	AckLosses  int
	// Retries counts retransmission attempts charged against the bounded
	// retry budget; Drops counts packets abandoned at the cap.
	Retries int
	Drops   int
	// Crashes counts how many times this node crashed.
	Crashes int
}

type node struct {
	down  bool
	queue []Packet
	head  int

	// retries counts bounded-retry attempts charged to the head packet
	// (fault profile only; zero otherwise).
	retries int

	draw      sim.Time // t_i of the current contention round
	remaining sim.Time // backoff left when frozen
	timer     sim.Timer

	serviceStart  sim.Time
	serviceActive bool
	frozenSince   sim.Time

	// cwScale multiplies the contention window under exponential backoff.
	cwScale int64
	// txToken and rxToken are RxMonitor handles for the ongoing
	// transmission, when a monitor is attached.
	txToken int64
	rxToken int64

	// expireFn, endTxFn and postWaitFn are this node's event bodies, bound
	// once at construction so arming a timer on the hot path allocates no
	// closure.
	expireFn   sim.EventFunc
	endTxFn    sim.EventFunc
	postWaitFn sim.EventFunc

	stats NodeStats
}

func (n *node) queueLen() int { return len(n.queue) - n.head }

func (n *node) push(p Packet) { n.queue = append(n.queue, p) }

func (n *node) pop() Packet {
	p := n.queue[n.head]
	n.head++
	if n.head > 64 && n.head*2 >= len(n.queue) {
		n.queue = append(n.queue[:0], n.queue[n.head:]...)
		n.head = 0
	}
	return p
}

// Config assembles a MAC instance.
type Config struct {
	// Network is the deployment. The carrier-sense trackers walk the CSR
	// neighbor tables it memoizes, so every channel and every run over the
	// same deployment shares one SU and one PU table.
	Network *netmodel.Network
	// Parent is the routing tree: Parent[v] is v's next hop, -1 for the
	// base station (root). All parent chains must reach the root.
	Parent []int32
	// PUSenseRange is the primary-protection sensing range: an active PU
	// within it freezes the node and aborts its transmission. Every
	// algorithm must honor the same protection distance (the derived PCR).
	PUSenseRange float64
	// SUSenseRange is the secondary-coordination sensing range: ADDC sets
	// it to the PCR (interference-free concurrency, Lemmas 2-3); the
	// generic-CSMA baseline uses a conventional 2r guard.
	SUSenseRange float64
	// Engine is the event engine the MAC schedules on.
	Engine *sim.Engine
	// Rand seeds the backoff draws.
	Rand *rng.Source
	// OnDeliver fires when a packet reaches the base station.
	OnDeliver func(pkt Packet, now sim.Time)
	// OnTxStart and OnTxEnd observe transmissions; ended reports whether
	// the transmission completed (true) or was aborted by handoff (false).
	// Either may be nil.
	OnTxStart func(node int32, now sim.Time)
	OnTxEnd   func(node int32, now sim.Time, completed bool)
	// DisableHandoff turns off the abort-on-PU-arrival rule: transmissions
	// always run to completion, as the paper's analysis implicitly assumes.
	// The default (false) is the conservative CRN behavior of Section I —
	// an SU immediately hands off the spectrum when a PU returns.
	DisableHandoff bool

	// Monitor, when non-nil, evaluates every transmission's SIR at the
	// receiver under the physical interference model; corrupted packets
	// are lost and retransmitted. Under ADDC's PCR this is pure validation
	// (Lemmas 2-3 promise zero collisions); the generic-CSMA baseline
	// profile depends on it for collision realism.
	Monitor *spectrum.RxMonitor
	// NoFairnessWait skips Algorithm 1's tau_c - t_i post-transmission
	// wait, modeling a plain CSMA that re-contends immediately.
	NoFairnessWait bool
	// ExpBackoff enables binary exponential backoff: the contention window
	// doubles (up to 64x) after a collision or handoff and resets after a
	// success. Plain CSMA needs it to escape hidden-terminal livelock;
	// ADDC does not use it.
	ExpBackoff bool

	// Metrics, when non-nil, drives the observability instruments (backoff
	// draws, freezes, contention wins/losses, retries) on the hot path; see
	// NewMetrics. Nil costs nothing.
	Metrics *Metrics
	// OnBackoffDraw observes every contention draw (trace sinks use it);
	// nil costs nothing.
	OnBackoffDraw func(node int32, draw, now sim.Time)

	// Faults, when non-nil, attaches the bounded-retry fault machine: data
	// frames are lost with FaultProfile.LinkLoss probability (or always,
	// when the receiver is down), acknowledgements with AckLoss, and the
	// sender retries with an exponentially growing contention window until
	// RetryCap attempts are burned, at which point the packet is dropped
	// with ErrRetriesExhausted. Nil leaves every legacy code path
	// bit-identical to the pre-fault MAC.
	Faults *FaultProfile
	// OnPacketLost fires when a packet is irrecoverably destroyed: its
	// retry budget ran out (cause ErrRetriesExhausted) or the node holding
	// it crashed (cause ErrNodeCrashed). May be nil.
	OnPacketLost func(pkt Packet, node int32, now sim.Time, cause error)

	// Channels is the number C of orthogonal licensed channels; zero or
	// one means the paper's single channel. With C > 1 node v receives on channel Home[v] and transmits on
	// its parent's home channel, so routing must stay fixed (SetParent would
	// move a node between channels). A single radio cannot receive while it
	// transmits: a transmission whose receiver is on the air at any point
	// of it is lost (NodeStats.DeafnessLosses) and retried after the
	// fairness wait.
	Channels int
	// Home[v] is node v's receive channel in [0, Channels). Required when
	// Channels > 1; ignored on one channel.
	Home []int
}

// FaultProfile parameterizes the bounded-retry fault machine (Config.Faults).
type FaultProfile struct {
	// LinkLoss is the per-transmission probability a data frame vanishes.
	LinkLoss float64
	// AckLoss is the per-transmission probability the acknowledgement of a
	// delivered frame vanishes; the exchange then fails at both ends.
	AckLoss float64
	// RetryCap bounds attempts per packet; <= 0 means DefaultRetryCap.
	RetryCap int
}

// DefaultRetryCap is the retry budget per packet when the profile leaves
// RetryCap unset.
const DefaultRetryCap = 8

// maxCWScale caps binary exponential backoff growth.
const maxCWScale = 64

// MAC runs Algorithm 1's contention logic for every secondary node.
type MAC struct {
	cfg Config
	// trackers[c] carrier-senses channel c; a node registers and senses on
	// its transmit channel's tracker only.
	trackers []*spectrum.Tracker
	nodes    []node
	src      *rng.Source

	// sts holds every node's MAC state in one dense array. The spectrum
	// observer callbacks fire millions of times per run and usually
	// early-out on the state check alone, so keeping the states packed —
	// instead of strided across the ~200-byte node structs — keeps that
	// check inside a handful of cache lines.
	sts []state
	// elig[c] is channel c's tracker eligibility bitsets, which setState
	// keeps current.
	elig []spectrum.Eligibility

	// home is Config.Home on more than one channel and nil on one; deaf
	// applies the single-radio deafness rule, and is nil on one channel.
	home []int
	deaf *deafness

	// parent is the MAC's own routing view, a copy of Config.Parent so that
	// self-healing repair (SetParent) never mutates the caller's tree.
	parent []int32
	// subtree holds each node's subtree packet bound (queue pre-sizing);
	// retained so Renew can re-derive queue capacities without reallocating.
	subtree []int32

	slot   sim.Time
	window sim.Time // tau_c in microseconds
	root   int32
	// etaSU is the SU SIR threshold η_SU as a linear ratio, the reception
	// criterion beginTx hands the monitor (a math.Pow, so derived once).
	etaSU float64

	// Bounded-retry fault machine (zero-valued when Config.Faults is nil).
	// lossSrc is the "mac/loss" child of Config.Rand: apart from the
	// backoff stream, so a zero-probability profile perturbs nothing.
	lossSrc  *rng.Source
	retryCap int
}

var _ spectrum.Observer = (*MAC)(nil)

// validateConfig runs Renew's full validation of cfg and returns the root
// and the contention window.
func validateConfig(cfg Config) (root int32, window sim.Time, err error) {
	if cfg.Network == nil || cfg.Engine == nil || cfg.Rand == nil {
		return 0, 0, fmt.Errorf("mac: Network, Engine and Rand are required")
	}
	nn := cfg.Network.NumNodes()
	if len(cfg.Parent) != nn {
		return 0, 0, fmt.Errorf("mac: parent slice has %d entries, want %d", len(cfg.Parent), nn)
	}
	root = -1
	for v, p := range cfg.Parent {
		if p == -1 {
			if root != -1 {
				return 0, 0, fmt.Errorf("mac: multiple roots (%d and %d)", root, v)
			}
			root = int32(v)
			continue
		}
		if p < 0 || int(p) >= nn {
			return 0, 0, fmt.Errorf("mac: node %d has out-of-range parent %d", v, p)
		}
	}
	if root == -1 {
		return 0, 0, fmt.Errorf("mac: no root in parent slice")
	}
	for v := range cfg.Parent {
		u := int32(v)
		for steps := 0; u != root; steps++ {
			if steps > nn {
				return 0, 0, fmt.Errorf("mac: parent chain from node %d never reaches root", v)
			}
			u = cfg.Parent[u]
		}
	}
	if f := cfg.Faults; f != nil {
		if f.LinkLoss < 0 || f.LinkLoss > 1 || f.AckLoss < 0 || f.AckLoss > 1 {
			return 0, 0, fmt.Errorf("mac: fault probabilities outside [0,1]: link=%v ack=%v", f.LinkLoss, f.AckLoss)
		}
	}
	if cfg.Channels > 1 || cfg.Home != nil {
		if len(cfg.Home) != nn {
			return 0, 0, fmt.Errorf("mac: home slice has %d entries, want %d", len(cfg.Home), nn)
		}
		for v, c := range cfg.Home {
			if c < 0 || c >= channelCount(cfg) {
				return 0, 0, fmt.Errorf("mac: node %d has home channel %d outside [0, %d)", v, c, channelCount(cfg))
			}
		}
	}
	window = sim.FromDuration(cfg.Network.Params.ContentionWindow)
	if window < 1 {
		return 0, 0, fmt.Errorf("mac: contention window shorter than 1us")
	}
	return root, window, nil
}

// channelCount returns the number of channels cfg describes (at least one).
func channelCount(cfg Config) int { return max(cfg.Channels, 1) }

// subtreeCounts adds to dst[v] the number of nodes in v's subtree,
// excluding the root itself (dst[root] gets only contributions of
// descendants passing through); dst must start zeroed.
func subtreeCounts(parent []int32, root int32, dst []int32) {
	for v := range parent {
		if int32(v) == root {
			continue
		}
		for u := int32(v); u != root; u = parent[u] {
			dst[u]++
		}
	}
}

// New validates cfg, builds the trackers (with the MAC as their observer)
// and returns the MAC ready to Start.
func New(cfg Config) (*MAC, error) { return Renew(nil, cfg) }

// Renew builds a MAC for cfg, reusing prev's allocations when prev is
// non-nil: node structs and their queue backing arrays, the dense state
// array, the carrier-sense trackers and the deafness tables, at any node or
// channel count. It validates cfg before touching prev, so a rejected config
// leaves prev as it was. A renewed MAC is observationally identical to a
// fresh one: every piece of per-run state restarts from its constructed
// value and the backoff/loss streams are derived from cfg.Rand under the
// same labels.
func Renew(prev *MAC, cfg Config) (*MAC, error) {
	root, window, err := validateConfig(cfg)
	if err != nil {
		return nil, err
	}
	m := prev
	if m == nil {
		m = &MAC{}
	}
	// Trackers beyond the previous run's channel count stay in the backing
	// array, so a sweep alternating channel counts keeps every one of them.
	channels := channelCount(cfg)
	trackers := m.trackers[:min(channels, cap(m.trackers))]
	for c := range channels {
		if c == len(trackers) {
			trackers = append(trackers, nil)
		}
		if trackers[c] == nil {
			trackers[c], err = spectrum.NewTracker(cfg.Network, cfg.PUSenseRange, cfg.SUSenseRange, m)
		} else {
			err = trackers[c].Renew(cfg.Network, cfg.PUSenseRange, cfg.SUSenseRange, m)
		}
		if err != nil {
			return nil, err
		}
	}
	m.trackers = trackers

	nn := cfg.Network.NumNodes()
	m.cfg = cfg
	m.src = rng.ReseedChild(m.src, cfg.Rand, "mac/backoff")
	m.parent = append(m.parent[:0], cfg.Parent...)
	m.slot = sim.FromDuration(cfg.Network.Params.Slot)
	m.window = window
	m.root = root
	m.etaSU = cfg.Network.Params.EtaSU()
	m.lossSrc, m.retryCap = nil, 0
	if f := cfg.Faults; f != nil {
		m.retryCap = f.RetryCap
		if m.retryCap <= 0 {
			m.retryCap = DefaultRetryCap
		}
		m.lossSrc = cfg.Rand.Child("mac/loss")
	}
	m.home = nil
	if channels > 1 {
		m.home = cfg.Home
	}
	m.deaf = m.deaf.renew(nn, channels)

	if cap(m.nodes) < nn {
		m.nodes = make([]node, nn)
		for i := range m.nodes {
			// Bind the node's event bodies once; arming a timer on the hot
			// path then allocates nothing.
			n, id := &m.nodes[i], int32(i)
			n.expireFn = func(t sim.Time) { m.expire(id, t) }
			n.endTxFn = func(t sim.Time) { m.endTx(id, t) }
			n.postWaitFn = func(t sim.Time) { m.postWaitDone(id, t) }
		}
	}
	m.nodes = m.nodes[:nn]
	m.sts = zeroed(m.sts, nn)
	m.subtree = zeroed(m.subtree, nn)
	// Every packet that will ever transit node v is one of its own or one
	// produced in its subtree, so sizing each queue to the subtree's node
	// count up front makes steady-state pushes allocation-free (repair
	// re-parenting can exceed the static bound; append then simply grows).
	subtreeCounts(m.parent, root, m.subtree)
	for i := range m.nodes {
		n := &m.nodes[i]
		q := n.queue[:0]
		if c := int(m.subtree[i]); cap(q) < c {
			// Round up to the next power of two: subtree sizes jitter from
			// topology to topology, and exact-fit capacities would reallocate
			// on every renewal that lands on a slightly larger deployment.
			q = make([]Packet, 0, 1<<bits.Len(uint(c-1)))
		}
		*n = node{queue: q, cwScale: 1, expireFn: n.expireFn, endTxFn: n.endTxFn, postWaitFn: n.postWaitFn}
		m.sts[i] = stateIdle
	}
	// PUArrived only matters to a transmitting node (the handoff abort),
	// SpectrumBusy to one mid-backoff, SpectrumFree to one frozen or
	// awaiting; the trackers skip the no-op deliveries (setState keeps the
	// eligibility marks current).
	m.elig = m.elig[:0]
	for _, tr := range m.trackers {
		m.elig = append(m.elig, tr.Eligibility())
	}
	return m, nil
}

// Trackers returns the carrier-sense trackers, one per channel (to wire a
// PU model against).
func (m *MAC) Trackers() []*spectrum.Tracker { return m.trackers }

// Channel returns the channel node id transmits on: its parent's home
// channel, always 0 on a single channel. The root has no transmit channel.
func (m *MAC) Channel(id int32) int {
	if m.home == nil {
		return 0
	}
	return m.home[m.parent[id]]
}

// tracker returns the tracker of node id's transmit channel.
func (m *MAC) tracker(id int32) *spectrum.Tracker { return m.trackers[m.Channel(id)] }

// Root returns the base station node id.
func (m *MAC) Root() int32 { return m.root }

// Parent returns node id's current routing parent (-1 at the root). It
// reflects repair re-parenting, unlike the Config.Parent slice.
func (m *MAC) Parent(id int32) int32 { return m.parent[id] }

// SetParent re-points node id's routing parent; the self-healing repair rule
// in internal/core calls it after a crash re-parents an orphaned subtree.
// The caller is responsible for keeping the routing graph acyclic and rooted,
// and must not re-parent on more than one channel (see Config.Channels).
func (m *MAC) SetParent(id, parent int32) { m.parent[id] = parent }

// Down reports whether node id is currently crashed.
func (m *MAC) Down(id int32) bool { return m.nodes[id].down }

// Crash takes node id off the air: any ongoing transmission is torn down,
// every queued packet is destroyed (reported through OnPacketLost with cause
// ErrNodeCrashed), and the node ignores all spectrum activity until Recover.
// Crashing the base station is refused; crashing a crashed node is a no-op.
// It reports whether the node transitioned.
func (m *MAC) Crash(id int32, now sim.Time) bool {
	if id == m.root {
		return false
	}
	n := &m.nodes[id]
	if n.down {
		return false
	}
	wasTransmitting := m.sts[id] == stateTransmitting
	n.timer.Cancel()
	m.setState(id, stateDown)
	n.down = true
	n.stats.Crashes++
	n.serviceActive = false
	n.retries = 0
	if wasTransmitting {
		// Same teardown order as endTx: finalize the monitor before the
		// medium release so reentrant transmission starts are not
		// misattributed.
		if mon := m.cfg.Monitor; mon != nil {
			mon.EndReception(n.rxToken)
			mon.RemoveTransmitter(n.txToken)
		}
		// Report the end before the release: the release can reentrantly
		// start other transmissions, which observers must not see overlap
		// with this one.
		if m.cfg.OnTxEnd != nil {
			m.cfg.OnTxEnd(id, now, false)
		}
		m.deaf.end(id, m.parent[id])
		m.tracker(id).RemoveSUTransmitter(id, now)
	}
	for n.queueLen() > 0 {
		pkt := n.pop()
		if m.cfg.OnPacketLost != nil {
			m.cfg.OnPacketLost(pkt, id, now, ErrNodeCrashed)
		}
	}
	return true
}

// Recover brings a crashed node back as an empty-handed relay: its snapshot
// queue stayed lost, but it resumes forwarding traffic enqueued to it. It
// reports whether the node transitioned.
func (m *MAC) Recover(id int32, now sim.Time) bool {
	n := &m.nodes[id]
	if !n.down {
		return false
	}
	n.down = false
	m.setState(id, stateIdle)
	if n.queueLen() > 0 {
		m.startContending(id, now)
	}
	return true
}

// Start injects the snapshot: every node except the root produces one
// packet at the current virtual time and begins contending.
func (m *MAC) Start() {
	now := m.cfg.Engine.Now()
	for v := range m.nodes {
		if int32(v) == m.root {
			continue
		}
		m.Enqueue(int32(v), Packet{Origin: int32(v), Born: now})
	}
}

// Enqueue hands a packet to node's transmit queue, waking the node if idle.
// Enqueueing at the root delivers immediately.
func (m *MAC) Enqueue(id int32, pkt Packet) {
	now := m.cfg.Engine.Now()
	if id == m.root {
		if m.cfg.OnDeliver != nil {
			m.cfg.OnDeliver(pkt, now)
		}
		return
	}
	n := &m.nodes[id]
	if n.down {
		// Handing a packet to a crashed node destroys it; endTx guards the
		// normal path, so this only covers callers enqueueing directly.
		if m.cfg.OnPacketLost != nil {
			m.cfg.OnPacketLost(pkt, id, now, ErrNodeCrashed)
		}
		return
	}
	n.push(pkt)
	if m.sts[id] == stateIdle {
		m.startContending(id, now)
	}
}

// QueueLen returns the number of packets queued at node id.
func (m *MAC) QueueLen(id int32) int { return m.nodes[id].queueLen() }

// Stats returns node id's accumulated statistics.
func (m *MAC) Stats(id int32) NodeStats { return m.nodes[id].stats }

// setState writes node id's MAC state and keeps its transmit channel's
// tracker eligibility marks in lockstep: SpectrumBusy acts on a running
// backoff, SpectrumFree on a frozen or awaiting one. Every state change must
// go through here.
func (m *MAC) setState(id int32, st state) {
	old := m.sts[id]
	m.sts[id] = st
	busy, free := st == stateBackoffRunning, st == stateBackoffFrozen || st == stateAwaiting
	if busy != (old == stateBackoffRunning) || free != (old == stateBackoffFrozen || old == stateAwaiting) {
		m.elig[m.Channel(id)].Set(id, busy, free)
	}
}

// startContending draws a fresh backoff for the head-of-queue packet.
func (m *MAC) startContending(id int32, now sim.Time) {
	n := &m.nodes[id]
	window := int64(m.window)
	if m.cfg.ExpBackoff {
		window *= n.cwScale
	}
	if m.cfg.Faults != nil && n.retries > 0 {
		// Exponential backoff on repeated loss: each failed attempt doubles
		// the contention window, capped at maxCWScale.
		shift := n.retries
		if shift > 6 {
			shift = 6 // 1<<6 == maxCWScale
		}
		window *= int64(1) << uint(shift)
	}
	n.draw = sim.Time(m.src.UniformInt(1, window))
	n.remaining = n.draw
	if mm := m.cfg.Metrics; mm != nil {
		mm.BackoffDraws.Observe(float64(n.draw) / float64(m.slot))
	}
	if m.cfg.OnBackoffDraw != nil {
		m.cfg.OnBackoffDraw(id, n.draw, now)
	}
	// Service time spans all retries of the head packet: the clock starts
	// at its first contention round only.
	if !n.serviceActive {
		n.serviceActive = true
		n.serviceStart = now
	}
	if m.tracker(id).Busy(id) {
		m.setState(id, stateBackoffFrozen)
		n.frozenSince = now
		if mm := m.cfg.Metrics; mm != nil {
			mm.Freezes.Inc()
		}
		return
	}
	m.armBackoff(id)
}

// armBackoff schedules the expiry of the remaining backoff.
func (m *MAC) armBackoff(id int32) {
	n := &m.nodes[id]
	m.setState(id, stateBackoffRunning)
	n.timer = m.cfg.Engine.After(n.remaining, n.expireFn)
}

func (m *MAC) expire(id int32, now sim.Time) {
	n := &m.nodes[id]
	if m.sts[id] != stateBackoffRunning {
		// A same-tick busy transition should have canceled us; be safe.
		return
	}
	n.remaining = 0
	if m.tracker(id).Busy(id) {
		m.setState(id, stateAwaiting)
		n.frozenSince = now
		if mm := m.cfg.Metrics; mm != nil {
			mm.Freezes.Inc()
		}
		return
	}
	m.beginTx(id, now)
}

func (m *MAC) beginTx(id int32, now sim.Time) {
	n := &m.nodes[id]
	m.setState(id, stateTransmitting)
	if mon := m.cfg.Monitor; mon != nil {
		selfPos := m.cfg.Network.SU[id]
		rxPos := m.cfg.Network.SU[m.parent[id]]
		power := m.cfg.Network.Params.PowerSU
		n.txToken = mon.AddTransmitterNode(id, selfPos, power)
		n.rxToken = mon.BeginReceptionNode(m.parent[id], rxPos, id, selfPos, power, m.etaSU, n.txToken)
	}
	m.deaf.begin(id, m.parent[id])
	m.tracker(id).AddSUTransmitter(id, now)
	if m.cfg.OnTxStart != nil {
		m.cfg.OnTxStart(id, now)
	}
	n.timer = m.cfg.Engine.After(m.slot, n.endTxFn)
}

func (m *MAC) endTx(id int32, now sim.Time) {
	n := &m.nodes[id]
	if m.sts[id] != stateTransmitting {
		return
	}
	// Finalize the monitor BEFORE releasing the medium: the tracker's
	// removal callbacks can reentrantly start new transmissions, which must
	// not be counted against this already-finished reception (or vice
	// versa).
	received := true
	if mon := m.cfg.Monitor; mon != nil {
		received = mon.EndReception(n.rxToken)
		mon.RemoveTransmitter(n.txToken)
	}
	// Classify the exchange and report OnTxEnd (and any retry-cap packet
	// drop) BEFORE releasing the medium: the release below can reentrantly
	// start other transmissions, and observers — invariant guards, trace
	// sinks, test hooks — must see this transmission end before any
	// transmission its release unblocks starts. No randomness is drawn
	// between here and the release, so event streams stay deterministic.
	success := received
	deaf := m.deaf.end(id, m.parent[id])
	switch {
	case !received:
		// Collision: the packet stays at the head of the queue.
		n.stats.Collisions++
		if mm := m.cfg.Metrics; mm != nil {
			mm.Losses.Inc()
		}
		if m.cfg.ExpBackoff && n.cwScale < maxCWScale {
			n.cwScale *= 2
		}
	case deaf:
		// The parent transmitted during the exchange: the packet stays at
		// the head of the queue.
		success = false
		n.stats.DeafnessLosses++
		if mm := m.cfg.Metrics; mm != nil {
			mm.Losses.Inc()
		}
	case m.cfg.Faults != nil && !m.faultOutcome(id):
		// Lost frame or ACK: charge the bounded retry budget; drop the
		// packet once it is burned.
		success = false
		m.failTx(id, now)
	default:
		n.stats.Transmissions++
		if mm := m.cfg.Metrics; mm != nil {
			mm.Wins.Inc()
		}
		n.cwScale = 1
		n.retries = 0
		n.serviceActive = false
		if svc := now - n.serviceStart; svc > n.stats.MaxServiceTime {
			n.stats.MaxServiceTime = svc
		}
	}
	if m.cfg.OnTxEnd != nil {
		m.cfg.OnTxEnd(id, now, success)
	}
	m.tracker(id).RemoveSUTransmitter(id, now)
	if success {
		pkt := n.pop()
		pkt.Hops++
		m.Enqueue(m.parent[id], pkt)
	}
	m.enterPostWait(id, now)
}

// faultOutcome rolls the fault dice for a transmission that survived the
// physical layer: a crashed receiver or a link-loss draw voids the data
// frame, a lost acknowledgement voids the exchange. It reports whether the
// exchange succeeded, charging the loss counters otherwise.
func (m *MAC) faultOutcome(id int32) bool {
	n := &m.nodes[id]
	parent := m.parent[id]
	if parent != m.root && m.nodes[parent].down {
		n.stats.LinkLosses++
		return false
	}
	f := m.cfg.Faults
	if m.lossSrc.Bernoulli(f.LinkLoss) {
		n.stats.LinkLosses++
		return false
	}
	if m.lossSrc.Bernoulli(f.AckLoss) {
		n.stats.AckLosses++
		return false
	}
	return true
}

// failTx charges one retry for the head packet and drops it with
// ErrRetriesExhausted once the bounded budget is burned. The caller (endTx)
// reports OnTxEnd and runs the fairness wait afterwards.
func (m *MAC) failTx(id int32, now sim.Time) {
	n := &m.nodes[id]
	n.retries++
	n.stats.Retries++
	if mm := m.cfg.Metrics; mm != nil {
		mm.Losses.Inc()
		mm.Retries.Inc()
	}
	if n.retries >= m.retryCap {
		pkt := n.pop()
		n.stats.Drops++
		if mm := m.cfg.Metrics; mm != nil {
			mm.Drops.Inc()
		}
		n.retries = 0
		n.serviceActive = false
		if m.cfg.OnPacketLost != nil {
			m.cfg.OnPacketLost(pkt, id, now, ErrRetriesExhausted)
		}
	}
}

// abortTx implements spectrum handoff: the packet stays queued and will be
// retransmitted after the fairness wait.
func (m *MAC) abortTx(id int32, now sim.Time) {
	n := &m.nodes[id]
	n.timer.Cancel()
	if mon := m.cfg.Monitor; mon != nil {
		mon.EndReception(n.rxToken)
		mon.RemoveTransmitter(n.txToken)
	}
	n.stats.Aborts++
	if mm := m.cfg.Metrics; mm != nil {
		mm.Handoffs.Inc()
		mm.Losses.Inc()
	}
	if m.cfg.ExpBackoff && n.cwScale < maxCWScale {
		n.cwScale *= 2
	}
	// Report the end before the release (see endTx): reentrant starts
	// triggered by the release must not appear to overlap this one.
	if m.cfg.OnTxEnd != nil {
		m.cfg.OnTxEnd(id, now, false)
	}
	m.deaf.end(id, m.parent[id])
	m.tracker(id).RemoveSUTransmitter(id, now)
	m.enterPostWait(id, now)
}

// enterPostWait applies the fairness wait tau_c - t_i (Algorithm 1 line
// 12), or re-contends immediately when the profile disables it.
func (m *MAC) enterPostWait(id int32, now sim.Time) {
	n := &m.nodes[id]
	if m.cfg.NoFairnessWait {
		if n.queueLen() == 0 {
			m.setState(id, stateIdle)
			return
		}
		m.startContending(id, now)
		return
	}
	m.setState(id, statePostWait)
	wait := m.window - n.draw
	n.timer = m.cfg.Engine.After(wait, n.postWaitFn)
}

func (m *MAC) postWaitDone(id int32, now sim.Time) {
	n := &m.nodes[id]
	if m.sts[id] != statePostWait {
		return
	}
	if n.queueLen() == 0 {
		m.setState(id, stateIdle)
		return
	}
	m.startContending(id, now)
}

// SpectrumBusy implements spectrum.Observer: freeze a running backoff.
func (m *MAC) SpectrumBusy(id int32, now sim.Time) {
	if m.sts[id] != stateBackoffRunning {
		return
	}
	n := &m.nodes[id]
	n.remaining = n.timer.When() - now
	if n.remaining < 0 {
		n.remaining = 0
	}
	n.timer.Cancel()
	m.setState(id, stateBackoffFrozen)
	n.frozenSince = now
	if mm := m.cfg.Metrics; mm != nil {
		mm.Freezes.Inc()
	}
}

// SpectrumFree implements spectrum.Observer: resume a frozen backoff, or
// transmit if the backoff had already expired.
func (m *MAC) SpectrumFree(id int32, now sim.Time) {
	switch m.sts[id] {
	case stateBackoffFrozen, stateAwaiting:
	default:
		return
	}
	n := &m.nodes[id]
	switch m.sts[id] {
	case stateBackoffFrozen:
		n.stats.FrozenTime += now - n.frozenSince
		if mm := m.cfg.Metrics; mm != nil {
			mm.FrozenSlots.Observe(float64(now-n.frozenSince) / float64(m.slot))
		}
		if n.remaining <= 0 {
			m.beginTx(id, now)
			return
		}
		m.armBackoff(id)
	case stateAwaiting:
		n.stats.FrozenTime += now - n.frozenSince
		if mm := m.cfg.Metrics; mm != nil {
			mm.FrozenSlots.Observe(float64(now-n.frozenSince) / float64(m.slot))
		}
		m.beginTx(id, now)
	default:
	}
}

// PUArrived implements spectrum.Observer: spectrum handoff mid-transmission.
func (m *MAC) PUArrived(id int32, now sim.Time) {
	if m.sts[id] != stateTransmitting || m.cfg.DisableHandoff {
		return
	}
	m.abortTx(id, now)
}

// deafness applies the single-radio rule on more than one channel: a node
// cannot receive while it transmits. A transmission is lost when its
// receiver was on the air as it began, or began transmitting before it
// ended. A nil *deafness (one channel) loses nothing.
type deafness struct {
	// seq numbers transmission starts; start[v] is the number of node v's
	// latest start.
	seq   uint64
	start []uint64
	// onAir[v] is whether v transmits and has not yet begun releasing the
	// medium; deaf[v] whether v's receiver was on the air as v began.
	onAir []bool
	deaf  []bool
}

// renew returns the deafness tables for a run over nn nodes on the given
// number of channels: nil on one channel, else d cleared in place (or new,
// when d is nil).
func (d *deafness) renew(nn, channels int) *deafness {
	if channels == 1 {
		return nil
	}
	if d == nil {
		d = &deafness{}
	}
	*d = deafness{start: zeroed(d.start, nn), onAir: zeroed(d.onAir, nn), deaf: zeroed(d.deaf, nn)}
	return d
}

// zeroed returns s resized to n zero elements, reusing its backing array
// when the capacity fits.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// begin records node id starting a transmission toward parent.
func (d *deafness) begin(id, parent int32) {
	if d == nil {
		return
	}
	d.seq++
	d.start[id] = d.seq
	d.deaf[id] = d.onAir[parent]
	d.onAir[id] = true
}

// end takes node id off the air and reports whether its transmission toward
// parent was lost to deafness. Call it before the medium release: the
// release can reentrantly start the parent or a child, and their begin must
// not see this transmission on the air.
func (d *deafness) end(id, parent int32) bool {
	if d == nil {
		return false
	}
	d.onAir[id] = false
	return d.deaf[id] || d.start[parent] > d.start[id]
}
