// Package spectrum models the shared radio medium: which transmitters (PU
// or SU) are active, and what each secondary node's carrier sensor observes
// within its Proper Carrier-sensing Range (PCR).
//
// A node senses the medium busy while it is blocked, an active SU
// transmitter other than itself has it in range, or an active PU covers it.
// The transitions of that predicate drive the MAC: busy freezes a backoff,
// free resumes it, and a PU arrival during a transmission forces the
// spectrum handoff the paper's Section I requires.
//
// Because the deployment never moves, the set of nodes a transmitter
// touches is a pure function of its identity. The tracker therefore works
// from neighbor rows the netmodel.Network builds once per radius (SU→SU
// within the coordination range, PU→SU within the protection range) and
// shares with every tracker, channel and run over the same deployment,
// WithParams copies included. Each row is a bitset over the SU grid's rank
// order, so its set bits run in the order a grid query returns the same
// neighbors. A transition flips the transmitter's bit in a bitset of active
// SUs or PUs, then walks its row ANDed with the few nodes whose callback
// would act (see Eligibility). Only node-local blocks live in counters.
package spectrum

import (
	"fmt"
	"math/bits"

	"addcrn/internal/netmodel"
	"addcrn/internal/sim"
)

// Observer receives carrier-sense transitions for secondary nodes, narrowed
// to the nodes its eligibility marks name (see Tracker). The MAC implements
// this interface.
type Observer interface {
	// SpectrumBusy fires when a busy-eligible node's medium turns busy.
	SpectrumBusy(node int32, now sim.Time)
	// SpectrumFree fires when a free-eligible node's medium turns free.
	SpectrumFree(node int32, now sim.Time)
	// PUArrived fires at each registered SU transmitter within range of a
	// primary transmitter that becomes active, and at every BlockNode,
	// regardless of the prior medium. A transmitting node must abort
	// (handoff) on this signal.
	PUArrived(node int32, now sim.Time)
}

// Tracker tracks the medium each SU senses over a fixed deployment.
//
// Two sensing radii exist because primary protection and secondary
// coordination are different obligations: an active PU freezes every SU
// within puRange (the PCR-derived protection distance — mandatory for every
// algorithm, since SUs must never disturb PUs), while an active SU freezes
// SUs within suRange (ADDC sets it to the PCR; the generic-CSMA baseline
// uses a conventional 2r guard and pays for it in collisions).
//
// Delivery is narrowed to the callbacks that can act: SpectrumBusy to the
// nodes the observer marked busy-eligible, SpectrumFree to those it marked
// free-eligible (see Eligibility), and PUArrived to the registered SU
// transmitters. The observer must keep each mark equal to "would my
// callback do anything for this node right now?" at every point a callback
// could fire — for the MAC that means one Eligibility.Set on every state
// write that changes the answer. SpectrumBusy must not mutate the tracker,
// and PUArrived must be a no-op for every non-transmitting node (both true
// for the MAC, whose only responses are a freeze and the spectrum handoff
// abort). BlockNode and UnblockNode deliver to their node regardless of
// its marks. An SU must not be registered twice at once.
//
// Observer callbacks may reenter the tracker (a resumed node can start a
// transmission, which registers a new transmitter). Each mutating call
// therefore flips its transmitter's bit before delivering any callback,
// and the walks re-read the live bitsets after every callback; the rows
// themselves are immutable.
type Tracker struct {
	nw       *netmodel.Network
	puRange  float64
	suRange  float64
	observer Observer
	// busy[id] counts id's BlockNode blocks; the SU and PU terms of its
	// medium live in suTx and puOn.
	busy []int32

	// rank[id] is SU id's position in the SU grid's cell order and order
	// is its inverse: the grid's own geom.Grid.Ranks and Order slices. A
	// rank bit maps back to its node through order.
	rank  []int32
	order []int32
	// elig holds the eligibility marks the observer writes (see
	// Eligibility).
	// suTx is a rank bitset of the registered SU transmitters, and nSuTx
	// counts them so an empty medium skips the SU term and the arrival scan
	// outright.
	elig  Eligibility
	suTx  []uint64
	nSuTx int
	// suBits and puBits are the network's rank-bitset rows, fetched on the
	// first SU and PU toggle. puOn is a bitset of the active primary users
	// (puBits.CoverWords words); until the first PU toggle it is empty and
	// no primary user covers any node.
	suBits *netmodel.RankBits
	puBits *netmodel.RankBits
	puOn   []uint64
}

// NewTracker builds a tracker for network nw with PU-protection sensing
// range puRange and SU-coordination sensing range suRange, delivering
// transitions to observer.
func NewTracker(nw *netmodel.Network, puRange, suRange float64, observer Observer) (*Tracker, error) {
	t := &Tracker{}
	if err := t.Renew(nw, puRange, suRange, observer); err != nil {
		return nil, err
	}
	return t, nil
}

// Renew returns t to its just-constructed state over network nw with new
// sensing ranges and observer, reusing every backing array whose capacity
// still fits. A renewed tracker is observationally identical to a fresh
// one: blocks, transmitters and eligibility marks restart cleared, and the
// network's rows are re-fetched on next use.
func (t *Tracker) Renew(nw *netmodel.Network, puRange, suRange float64, observer Observer) error {
	if puRange <= 0 || suRange <= 0 {
		return fmt.Errorf("spectrum: sensing ranges must be positive, got pu=%v su=%v", puRange, suRange)
	}
	if observer == nil {
		return fmt.Errorf("spectrum: nil observer")
	}
	t.nw = nw
	t.puRange = puRange
	t.suRange = suRange
	t.observer = observer
	n := nw.NumNodes()
	w := (n + 63) / 64
	t.busy = zeroed(t.busy, n)
	t.rank = nw.SUGrid.Ranks()
	t.order = nw.SUGrid.Order()
	t.elig = Eligibility{rank: t.rank, busy: zeroed(t.elig.busy, w), free: zeroed(t.elig.free, w)}
	t.suTx = zeroed(t.suTx, w)
	t.nSuTx = 0
	t.puOn = t.puOn[:0]
	t.suBits = nil
	t.puBits = nil
	return nil
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

// Eligibility holds the marks an observer keeps current: whether
// SpectrumBusy, and whether SpectrumFree, would act on each node. Every
// mark starts cleared. The observer writes them directly — one Set per
// state change, with no call into the tracker — and the tracker reads them
// in its walks. Each answer is a bit of a rank bitset, which the walks AND
// with a transmitter's row a word at a time.
type Eligibility struct {
	rank       []int32
	busy, free []uint64
}

// Eligibility returns the tracker's eligibility bitsets. The value stays
// valid until the next Renew.
func (t *Tracker) Eligibility() Eligibility { return t.elig }

// Set records whether SpectrumBusy (busy) and SpectrumFree (free) would act
// on node right now.
func (e *Eligibility) Set(node int32, busy, free bool) {
	r := e.rank[node]
	w, bit := r>>6, uint64(1)<<(r&63)
	b, f := e.busy[w]&^bit, e.free[w]&^bit
	if busy {
		b |= bit
	}
	if free {
		f |= bit
	}
	e.busy[w], e.free[w] = b, f
}

// suCount returns how many registered SU transmitters other than node
// itself have node in range: by symmetry, the transmitters in
// node's own row.
func (t *Tracker) suCount(node int32) int {
	if t.nSuTx == 0 {
		return 0
	}
	b := t.suBits
	row := b.Rows[int(node)*b.Words:]
	c := 0
	for k := b.Span[2*node]; k < b.Span[2*node+1]; k++ {
		c += bits.OnesCount64(row[k] & t.suTx[k])
	}
	return c
}

// suNear reports whether suCount(node) > 0.
func (t *Tracker) suNear(node int32) bool {
	if t.nSuTx == 0 {
		return false
	}
	b := t.suBits
	row := b.Rows[int(node)*b.Words:]
	for k := b.Span[2*node]; k < b.Span[2*node+1]; k++ {
		if row[k]&t.suTx[k] != 0 {
			return true
		}
	}
	return false
}

// puNear reports whether any active primary user covers node.
func (t *Tracker) puNear(node int32) bool {
	on := t.puOn
	if len(on) == 0 {
		return false
	}
	mask := t.puBits.Cover[int(node)*len(on):]
	if len(on) == 1 {
		return mask[0]&on[0] != 0
	}
	for w, x := range on {
		if mask[w]&x != 0 {
			return true
		}
	}
	return false
}

// puCount returns how many active primary users cover node.
func (t *Tracker) puCount(node int32) int {
	on := t.puOn
	if len(on) == 0 {
		return 0
	}
	mask := t.puBits.Cover[int(node)*len(on):]
	c := 0
	for w, x := range on {
		c += bits.OnesCount64(mask[w] & x)
	}
	return c
}

// Busy reports whether node currently senses the spectrum busy.
func (t *Tracker) Busy(node int32) bool {
	return t.busy[node] > 0 || t.puNear(node) || t.suNear(node)
}

// walk calls visit for every node whose bit is set both in source i's row
// of b and in set, in ascending rank order — the order a grid query
// returns the row's nodes in. The word of set under the walk is re-read above the current bit
// after every visit, so a bit a callback flips for a later node is seen
// exactly as a per-node read on a row walk would see it.
func (t *Tracker) walk(b *netmodel.RankBits, i int32, set []uint64, visit func(node int32)) {
	row := b.Rows[int(i)*b.Words:]
	order := t.order
	for k := b.Span[2*i]; k < b.Span[2*i+1]; k++ {
		for x := row[k] & set[k]; x != 0; {
			bit := bits.TrailingZeros64(x)
			visit(order[int(k)<<6|bit])
			x = row[k] & set[k] & (^uint64(0) << (bit + 1))
		}
	}
}

// AddSUTransmitter registers secondary node id as an active transmitter
// (id's own medium is unaffected). It sets id's suTx bit and visits only
// the row's busy-eligible nodes — at n = 300 a handful out of ~100. A
// skipped node is exactly one whose callback would have returned at once,
// the visits keep row order, and since SpectrumBusy callbacks never mutate
// the tracker, a visited node's medium turned busy exactly when it is
// unblocked, uncovered by active PUs and id is its only active SU in range.
func (t *Tracker) AddSUTransmitter(id int32, now sim.Time) {
	r := t.rank[id]
	w, bit := r>>6, uint64(1)<<(r&63)
	if t.suTx[w]&bit != 0 {
		panic(fmt.Sprintf("spectrum: SU %d registered twice", id))
	}
	t.suTx[w] |= bit
	t.nSuTx++
	b := t.suRowBits()
	busy := t.busy
	t.walk(b, id, t.elig.busy, func(node int32) {
		if busy[node] == 0 && !t.puNear(node) && t.suCount(node) == 1 {
			t.observer.SpectrumBusy(node, now)
		}
	})
}

// RemoveSUTransmitter reverses AddSUTransmitter, visiting the row's
// free-eligible nodes.
func (t *Tracker) RemoveSUTransmitter(id int32, now sim.Time) {
	r := t.rank[id]
	w, bit := r>>6, uint64(1)<<(r&63)
	if t.suTx[w]&bit == 0 {
		panic(fmt.Sprintf("spectrum: SU %d is not registered", id))
	}
	t.suTx[w] &^= bit
	t.nSuTx--
	t.walkFree(t.suBits, id, now)
}

// suRowBits returns the SU rows' rank bitsets, fetching them from the
// network on first use.
func (t *Tracker) suRowBits() *netmodel.RankBits {
	if t.suBits == nil {
		b, err := t.nw.SUNeighborBits(t.suRange)
		if err != nil {
			panic(fmt.Sprintf("spectrum: SU neighbor table: %v", err))
		}
		t.suBits = b
	}
	return t.suBits
}

// puRowBits returns the PU rows' rank bitsets, fetching them from the
// network and sizing puOn on the first PU toggle.
func (t *Tracker) puRowBits() *netmodel.RankBits {
	if len(t.puOn) == 0 {
		b, err := t.nw.PUNeighborBits(t.puRange)
		if err != nil {
			panic(fmt.Sprintf("spectrum: PU neighbor table: %v", err))
		}
		t.puBits = b
		t.puOn = zeroed(t.puOn, b.CoverWords)
	}
	return t.puBits
}

// AddPUTransmitter registers primary user i as an active transmitter. It
// sets i's bit in puOn and visits only the row's busy-eligible nodes and,
// for the handoff, the row's registered SU transmitters; like the SU walk,
// a visited node's medium turned busy exactly when i is the only active
// contribution to it. Double-registration bookkeeping is the caller's: the
// PU models strictly alternate add/remove per user.
func (t *Tracker) AddPUTransmitter(i int32, now sim.Time) {
	b := t.puRowBits()
	t.puOn[i>>6] |= 1 << (i & 63)
	busy := t.busy
	t.walk(b, i, t.elig.busy, func(node int32) {
		if busy[node] == 0 && t.puCount(node) == 1 && !t.suNear(node) {
			t.observer.SpectrumBusy(node, now)
		}
	})
	// Arrival scan, kept as a second walk so every busy transition lands
	// before any handoff abort reenters the tracker; an abort clears only
	// its own suTx bit.
	if t.nSuTx > 0 {
		t.walk(b, i, t.suTx, func(node int32) { t.observer.PUArrived(node, now) })
	}
}

// RemovePUTransmitter reverses AddPUTransmitter, visiting the row's
// free-eligible nodes.
func (t *Tracker) RemovePUTransmitter(i int32, now sim.Time) {
	b := t.puRowBits()
	t.puOn[i>>6] &^= 1 << (i & 63)
	t.walkFree(b, i, now)
}

// walkFree delivers SpectrumFree along source i's row of b after its
// transmitter left the medium: a visited node's medium returned to zero
// iff it is unblocked and no active SU or PU covers it. It walks the row
// ANDed with elig.free like walk, but first clears, per word, the ranks
// an active PU still covers (puCover): at n = 300 about three in four
// free-eligible nodes of a row are frozen under another PU, and those now
// cost no per-node check. No callback toggles a PU, so one cover word
// holds for the whole word. The SU term stays a live per-node check: a
// reentrant transmission started by an earlier resume covers later nodes
// before they are visited, and they then stay busy.
func (t *Tracker) walkFree(b *netmodel.RankBits, i int32, now sim.Time) {
	row := b.Rows[int(i)*b.Words:]
	free, busy, order := t.elig.free, t.busy, t.order
	for k := b.Span[2*i]; k < b.Span[2*i+1]; k++ {
		if row[k]&free[k] == 0 {
			continue
		}
		open := row[k] &^ t.puCover(int(k))
		for x := open & free[k]; x != 0; {
			bit := bits.TrailingZeros64(x)
			if node := order[int(k)<<6|bit]; busy[node] == 0 && !t.suNear(node) {
				t.observer.SpectrumFree(node, now)
			}
			x = open & free[k] & (^uint64(0) << (bit + 1))
		}
	}
}

// puCover returns word k of the rank bitset of nodes an active primary
// user covers: the OR of row word k over the active PUs whose row touches
// that word.
func (t *Tracker) puCover(k int) uint64 {
	on := t.puOn
	if len(on) == 0 {
		return 0
	}
	b := t.puBits
	touch := b.Touch[k*len(on):]
	var c uint64
	for w, x := range on {
		for x &= touch[w]; x != 0; x &= x - 1 {
			c |= b.Rows[(w<<6|bits.TrailingZeros64(x))*b.Words+k]
		}
	}
	return c
}

// BlockNode raises node's busy counter by one without a spatial query; fault
// bursts use it to impose a node-local blocking period.
func (t *Tracker) BlockNode(node int32, now sim.Time) {
	t.busy[node]++
	if t.busy[node] == 1 && !t.puNear(node) && !t.suNear(node) {
		t.observer.SpectrumBusy(node, now)
	}
	t.observer.PUArrived(node, now)
}

// UnblockNode reverses BlockNode.
func (t *Tracker) UnblockNode(node int32, now sim.Time) {
	t.busy[node]--
	if t.busy[node] == 0 && !t.puNear(node) && !t.suNear(node) {
		t.observer.SpectrumFree(node, now)
	}
	if t.busy[node] < 0 {
		panic(fmt.Sprintf("spectrum: negative busy count at node %d", node))
	}
}
