// Package spectrum models the shared radio medium: which transmitters (PU
// or SU) are active, and what each secondary node's carrier sensor observes
// within its Proper Carrier-sensing Range (PCR).
//
// The core abstraction is a per-SU busy count — the number of active
// transmitters within PCR of that SU, plus node-local blocks. Its
// transitions drive the MAC: 0 -> 1 freezes a backoff, -> 0 resumes it, and
// a PU arrival during a transmission forces the spectrum handoff the
// paper's Section I requires.
//
// Because the deployment never moves, the set of nodes a transmitter
// touches is a pure function of its identity. The tracker therefore works
// from CSR-packed neighbor tables (SU→SU within the coordination range,
// PU→SU within the protection range) — the static-topology fast path. The
// tables belong to the netmodel.Network, which builds each once per radius
// and shares it with every tracker, channel and run over the same
// deployment (WithParams copies included). A CSR row stores exactly the
// grid's result sequence for the same query, so a row walk is bit-identical
// to a per-event grid query (the tests keep such a grid reference).
//
// The tracker has two paths over those tables. The eager one, the default,
// keeps every count in a counter and walks a transmitter's whole row per
// transition. The lazy one, which the MAC selects with FilterTransitions,
// keeps only the blocks in counters: a transition flips the transmitter's
// bit in a bitset of active SUs or PUs and walks the row, re-encoded by the
// network as a bitset over grid rank, ANDed with the few nodes whose
// callback would act. The eager path stays as the reference the lazy one is
// tested against.
package spectrum

import (
	"fmt"
	"math/bits"

	"addcrn/internal/netmodel"
	"addcrn/internal/sim"
)

// Observer receives carrier-sense transitions for secondary nodes. The MAC
// implements this interface.
type Observer interface {
	// SpectrumBusy fires when node's busy count rises from zero.
	SpectrumBusy(node int32, now sim.Time)
	// SpectrumFree fires when node's busy count returns to zero.
	SpectrumFree(node int32, now sim.Time)
	// PUArrived fires when a primary transmitter becomes active within
	// node's PCR, regardless of the prior busy count. A transmitting node
	// must abort (handoff) on this signal.
	PUArrived(node int32, now sim.Time)
}

// TxKind distinguishes primary from secondary transmitters.
type TxKind uint8

// Transmitter kinds.
const (
	TxPU TxKind = iota + 1
	TxSU
)

// Tracker maintains per-SU busy counters over a fixed deployment.
//
// Two sensing radii exist because primary protection and secondary
// coordination are different obligations: an active PU freezes every SU
// within puRange (the PCR-derived protection distance — mandatory for every
// algorithm, since SUs must never disturb PUs), while an active SU freezes
// SUs within suRange (ADDC sets it to the PCR; the generic-CSMA baseline
// uses a conventional 2r guard and pays for it in collisions).
//
// Observer callbacks may reenter the tracker (a resumed node can start a
// transmission, which registers a new transmitter). Each mutating call
// therefore applies all of its medium updates before delivering any
// callback. The eager walks record crossings in a pooled buffer of their
// own rather than shared scratch space, the lazy walks re-read the live
// bitsets after every callback, and the rows both walk are immutable, which
// is reentrancy-safe without any copy.
type Tracker struct {
	nw       *netmodel.Network
	puRange  float64
	suRange  float64
	observer Observer
	// busy[id] is id's busy counter. Unfiltered, it counts every active
	// transmitter within range plus the BlockNode blocks; filtered, it
	// counts the blocks alone, and the SU and PU terms live in suTx and
	// puOn.
	busy []int32
	pool [][]int32

	// filtered selects the filtered delivery path with lazy accounting (see
	// FilterTransitions). The fields below, up to the CSR tables, serve that
	// path alone.
	filtered bool
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
	// suBits and puBits are the network's rank-bitset encodings of the SU
	// and PU tables, fetched on the first SU and PU toggle. puOn is a bitset
	// of the active primary users (puBits.CoverWords words); until the first
	// PU toggle it is empty and no primary user covers any node.
	suBits *netmodel.RankBits
	puBits *netmodel.RankBits
	puOn   []uint64

	// suTable and puTable are the CSR neighbor tables behind the eager
	// path, fetched lazily from the network on first use.
	suTable *netmodel.CSRTable
	puTable *netmodel.CSRTable
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
// sensing ranges and observer, keeping the buffer pool and reusing every
// backing array whose capacity still fits. The filter resets to its
// default (re-install it as after NewTracker). A renewed tracker is
// observationally identical to a fresh one: counters and the filtered
// path's bitsets restart from zero, and the network's tables are re-fetched
// on next use.
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
	t.busy = zeroed(t.busy, nw.NumNodes())
	t.rank = nw.SUGrid.Ranks()
	t.order = nw.SUGrid.Order()
	t.filtered = false
	t.nSuTx = 0
	t.puOn = t.puOn[:0]
	t.suBits = nil
	t.puBits = nil
	t.suTable = nil
	t.puTable = nil
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

// FilterTransitions(true) narrows delivery to the callbacks that can act:
// SpectrumBusy to nodes the observer marked busy-eligible, SpectrumFree to
// nodes it marked free-eligible (both in the tracker's Eligibility), and
// PUArrived to nodes that are registered SU transmitters at arrival time.
// The observer must keep each mark equal to "would my callback do anything
// for this node right now?" at every point a callback could fire — for the
// MAC that means one Eligibility.Set on every state write that changes the
// answer — SpectrumBusy must not mutate the tracker, and PUArrived must be a
// no-op for every non-transmitting node (all true for the MAC, whose only
// responses are a freeze and the spectrum handoff abort). Under that
// contract the skipped calls are exactly the callbacks that would have
// returned immediately, so results are bit-identical while a transition
// stops paying one interface call per indifferent neighbor. Every mark
// starts cleared. false restores unconditional delivery — the default, and
// what recording observers (tests, tracing) need.
//
// With the filter on, transmitters switch to lazy accounting: an SU or PU
// toggle flips the transmitter's bit in suTx or puOn instead of touching
// the busy counters, and walks only the bits of its row that are also
// eligible (see walk). A node's medium is then busy iff it is blocked, an
// active SU transmitter other than itself has it in range, or an active PU
// covers it. An SU must not be registered twice at once. Call it before
// the simulation starts: the representations must not change under
// registered transmitters.
func (t *Tracker) FilterTransitions(on bool) {
	t.filtered = on
	t.puOn = t.puOn[:0]
	t.nSuTx = 0
	if !on {
		return
	}
	w := (t.nw.NumNodes() + 63) / 64
	t.elig = Eligibility{
		rank: t.rank,
		busy: zeroed(t.elig.busy, w),
		free: zeroed(t.elig.free, w),
	}
	t.suTx = zeroed(t.suTx, w)
}

// Eligibility holds what an observer keeps current under
// FilterTransitions(true): whether SpectrumBusy, and whether SpectrumFree,
// would act on each node. The observer writes it directly — one Set per
// state change, with no call into the tracker — and the tracker reads it in
// its walks. Each answer is a bit of a rank bitset, which the walks AND
// with a transmitter's row a word at a time.
type Eligibility struct {
	rank       []int32
	busy, free []uint64
}

// Eligibility returns the tracker's eligibility bitsets. The value stays
// valid until the next FilterTransitions or Renew.
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
// itself have node in range (lazy path): by symmetry, the transmitters in
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

// puNear reports whether any active primary user covers node (lazy path).
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

// puCount returns how many active primary users cover node (lazy path).
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

// PURange returns the primary-protection sensing range.
func (t *Tracker) PURange() float64 { return t.puRange }

func (t *Tracker) takeBuf() []int32 {
	if n := len(t.pool); n > 0 {
		buf := t.pool[n-1]
		t.pool = t.pool[:n-1]
		return buf[:0]
	}
	return make([]int32, 0, 64)
}

func (t *Tracker) putBuf(buf []int32) {
	t.pool = append(t.pool, buf)
}

// suRow returns SU id's CSR neighbor row, fetching the table from the
// network on first use.
func (t *Tracker) suRow(id int32) []int32 {
	if t.suTable == nil {
		tab, err := t.nw.SUNeighborTable(t.suRange)
		if err != nil {
			panic(fmt.Sprintf("spectrum: SU neighbor table: %v", err))
		}
		t.suTable = tab
	}
	return t.suTable.Row(id)
}

// puTab returns the PU CSR table, fetching it from the network on first
// use.
func (t *Tracker) puTab() *netmodel.CSRTable {
	if t.puTable == nil {
		tab, err := t.nw.PUNeighborTable(t.puRange)
		if err != nil {
			panic(fmt.Sprintf("spectrum: PU neighbor table: %v", err))
		}
		t.puTable = tab
	}
	return t.puTable
}

// addNeighbors applies one transmitter registration over an explicit
// neighbor sequence on the eager (unfiltered) path. nbrs is borrowed, never
// retained, and never written: CSR rows pass their immutable backing array
// directly.
func (t *Tracker) addNeighbors(nbrs []int32, kind TxKind, exclude int32, now sim.Time) {
	rose := t.takeBuf()
	// Phase 1: apply every counter update so the medium state is
	// consistent before any observer reacts. The local busy slice and
	// counter keep the compiler from re-loading t.busy[node] after the
	// store (it cannot prove rose does not alias the tracker).
	busy := t.busy
	for _, node := range nbrs {
		if node == exclude {
			continue
		}
		c := busy[node] + 1
		busy[node] = c
		if c == 1 {
			rose = append(rose, node)
		}
	}
	// Phase 2: callbacks (may reenter the tracker). A reentrant call may
	// have changed a counter again, so re-verify the level each callback
	// reports; the reentrant call delivered its own transitions.
	for _, node := range rose {
		if busy[node] > 0 {
			t.observer.SpectrumBusy(node, now)
		}
	}
	if kind == TxPU {
		for _, node := range nbrs {
			if node != exclude {
				t.observer.PUArrived(node, now)
			}
		}
	}
	t.putBuf(rose)
}

// removeNeighbors reverses addNeighbors over the same neighbor sequence.
func (t *Tracker) removeNeighbors(nbrs []int32, now sim.Time, exclude int32) {
	fell := t.takeBuf()
	busy := t.busy
	for _, node := range nbrs {
		if node == exclude {
			continue
		}
		c := busy[node] - 1
		busy[node] = c
		if c <= 0 {
			if c < 0 {
				panic(fmt.Sprintf("spectrum: negative busy count at node %d", node))
			}
			fell = append(fell, node)
		}
	}
	for _, node := range fell {
		// Re-verify: a reentrant registration during an earlier callback
		// may have re-raised this node's counter.
		if busy[node] == 0 {
			t.observer.SpectrumFree(node, now)
		}
	}
	t.putBuf(fell)
}

// walk calls visit for every node whose bit is set both in source i's row
// of b and in set, in ascending rank order — which is the CSR row's own
// order. The word of set under the walk is re-read above the current bit
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
// (the node's own counter is excluded). Unfiltered, it walks id's CSR row
// eagerly; filtered, it sets id's suTx bit and visits only the row's
// busy-eligible nodes — at n = 300 a handful out of ~100. That is
// bit-identical to the eager walk: a skipped node is exactly one whose
// callback would have returned immediately, the visits keep row order, and
// since SpectrumBusy callbacks never mutate the tracker under the filter
// contract, a visited node's medium crossed 0→1 exactly when it is
// unblocked, uncovered by active PUs and id is its only active SU in range.
func (t *Tracker) AddSUTransmitter(id int32, now sim.Time) {
	if !t.filtered {
		t.addNeighbors(t.suRow(id), TxSU, id, now)
		return
	}
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
// free-eligible nodes on the filtered path.
func (t *Tracker) RemoveSUTransmitter(id int32, now sim.Time) {
	if !t.filtered {
		t.removeNeighbors(t.suRow(id), now, id)
		return
	}
	r := t.rank[id]
	w, bit := r>>6, uint64(1)<<(r&63)
	if t.suTx[w]&bit == 0 {
		panic(fmt.Sprintf("spectrum: SU %d is not registered", id))
	}
	t.suTx[w] &^= bit
	t.nSuTx--
	t.walkFree(t.suBits, id, now)
}

// suRowBits returns the SU table's rank bitsets, fetching them from the
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

// puRowBits returns the PU table's rank bitsets, fetching them from the
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

// AddPUTransmitter registers primary user i as an active transmitter,
// delivering PUArrived to every secondary node within the protection range.
// Filtered, it sets i's bit in puOn and visits only the row's busy-eligible
// nodes and, for the handoff, its registered SU transmitters; like the
// lazy SU walk, a visited node crossed 0→1 exactly when i is the only
// active contribution to its medium. Double-registration bookkeeping is
// the caller's: the PU models strictly alternate add/remove per user.
func (t *Tracker) AddPUTransmitter(i int32, now sim.Time) {
	if !t.filtered {
		t.addNeighbors(t.puTab().Row(i), TxPU, -1, now)
		return
	}
	b := t.puRowBits()
	t.puOn[i>>6] |= 1 << (i & 63)
	busy := t.busy
	t.walk(b, i, t.elig.busy, func(node int32) {
		if busy[node] == 0 && t.puCount(node) == 1 && !t.suNear(node) {
			t.observer.SpectrumBusy(node, now)
		}
	})
	// Arrival scan, mirroring the eager kind==TxPU delivery. Kept as a
	// second walk so every busy transition lands before any handoff abort
	// reenters the tracker; an abort clears only its own suTx bit.
	if t.nSuTx > 0 {
		t.walk(b, i, t.suTx, func(node int32) { t.observer.PUArrived(node, now) })
	}
}

// RemovePUTransmitter reverses AddPUTransmitter, visiting the row's
// free-eligible nodes on the filtered path.
func (t *Tracker) RemovePUTransmitter(i int32, now sim.Time) {
	if !t.filtered {
		t.removeNeighbors(t.puTab().Row(i), now, -1)
		return
	}
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
// before they are visited, failing the check exactly like the eager
// delivery re-verify would.
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

// BlockNode raises node's busy counter by one without a spatial query; the
// aggregate PU model and fault bursts use it to impose a node-local
// blocking period.
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
