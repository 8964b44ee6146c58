// Package spectrum models the shared radio medium: which transmitters (PU
// or SU) are active, and what each secondary node's carrier sensor observes
// within its Proper Carrier-sensing Range (PCR).
//
// The core abstraction is a per-SU busy counter — the number of active
// transmitters within PCR of that SU — maintained incrementally. Counter
// transitions drive the MAC: 0 -> 1 freezes a backoff, -> 0 resumes it, and
// a PU arrival during a transmission forces the spectrum handoff the
// paper's Section I requires.
//
// Because the deployment never moves, the set of nodes a transmitter
// touches is a pure function of its identity. The tracker therefore works
// from CSR-packed neighbor tables (SU→SU within the coordination range,
// PU→SU within the protection range) and walks one contiguous row per
// transition — the static-topology fast path. The tables belong to the
// netmodel.Network, which builds each once per radius and shares it with
// every tracker, channel and run over the same deployment (WithParams
// copies included). A CSR row stores exactly the grid's result sequence for
// the same query, so the row walk is bit-identical to a per-event grid
// query (the tests keep such a grid reference).
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
// therefore applies all of its counter updates before delivering any
// callback. The SU walks record crossings in a pooled buffer of their own
// rather than shared scratch space, and the rows they walk are immutable,
// which is reentrancy-safe without any copy.
type Tracker struct {
	nw       *netmodel.Network
	puRange  float64
	suRange  float64
	observer Observer
	busy     []int32
	pool     [][]int32

	// filtered selects the filtered delivery path with lazy primary-user
	// accounting (see FilterTransitions). The fields below, up to the CSR
	// tables, serve that path alone.
	filtered bool
	// rank[id] is SU id's position in the SU grid's cell order and order
	// is its inverse: the grid's own geom.Grid.Ranks and Order slices.
	// Every CSR row is strictly increasing in rank, so visiting the set bits
	// of a rank bitset in ascending order visits nodes in row order.
	rank  []int32
	order []int32
	// elig holds the eligibility marks the observer writes (see
	// Eligibility).
	// suTx is a rank bitset of the registered SU transmitters, and nSuTx
	// counts them so an empty medium skips the arrival scan outright.
	elig  Eligibility
	suTx  []uint64
	nSuTx int
	// puRows[i*w:(i+1)*w] is PU i's CSR row as a rank bitset, and words
	// puSpan[2i] up to puSpan[2i+1] are the ones it touches.
	// puMask[id*m:(id+1)*m] holds the primary users whose protection range
	// covers SU id, and puOn the active ones (m = len(puOn) words). The PU
	// bitsets are built with the PU table on the first toggle; until then
	// puOn is empty and no primary user covers any node.
	puRows []uint64
	puSpan []int32
	puMask []uint64
	puOn   []uint64

	// suTable and puTable are the CSR neighbor tables behind the indexed
	// fast path, fetched lazily from the network on first use.
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
// path's bitsets restart from zero, and the CSR tables are re-fetched from
// the network on next use.
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
// answer — and PUArrived must be a no-op for every non-transmitting node
// (true for the MAC, whose only response is the spectrum handoff abort).
// Under that contract the skipped calls are exactly the callbacks that
// would have returned immediately, so results are bit-identical while a
// transition stops paying one interface call per indifferent neighbor.
// Every mark starts cleared. false restores unconditional delivery — the
// default, and what recording observers (tests, tracing) need.
//
// With the filter on, primary users switch to lazy accounting: a PU toggle
// flips the user's bit in puOn instead of touching the busy counters, and
// walks only the row's bits that are also eligible (see addPULazy). Call
// it before the simulation starts: the representations must not change
// under registered transmitters.
func (t *Tracker) FilterTransitions(on bool) {
	t.filtered = on
	t.puOn = t.puOn[:0]
	if !on {
		return
	}
	nn := t.nw.NumNodes()
	w := (nn + 63) / 64
	t.elig = Eligibility{
		rank:  t.rank,
		busy:  zeroed(t.elig.busy, w),
		free:  zeroed(t.elig.free, w),
		flags: zeroed(t.elig.flags, nn),
	}
	t.suTx = zeroed(t.suTx, w)
	t.nSuTx = 0
}

// Eligibility holds what an observer keeps current under
// FilterTransitions(true): whether SpectrumBusy, and whether SpectrumFree,
// would act on each node. The observer writes it directly — one Set per
// state change, with no call into the tracker — and the tracker reads it in
// its walks. Each answer is stored twice, as a bit of a rank bitset for
// the PU walks, which skip whole words of them, and as a bit of a per-node
// byte for the SU walks, which probe every entry of a row and would
// otherwise pay a rank lookup per entry.
type Eligibility struct {
	rank       []int32
	busy, free []uint64
	// flags[id] has eligBusy and eligFree set like id's bits in busy and
	// free.
	flags []uint8
}

// Eligibility.flags bits.
const (
	eligBusy uint8 = 1 << iota
	eligFree
)

// Eligibility returns the tracker's eligibility bitsets. The value stays
// valid until the next FilterTransitions or Renew.
func (t *Tracker) Eligibility() Eligibility { return t.elig }

// Set records whether SpectrumBusy (busy) and SpectrumFree (free) would act
// on node right now.
func (e *Eligibility) Set(node int32, busy, free bool) {
	r := e.rank[node]
	w, bit := r>>6, uint64(1)<<(r&63)
	b, f := e.busy[w]&^bit, e.free[w]&^bit
	var fl uint8
	if busy {
		b |= bit
		fl = eligBusy
	}
	if free {
		f |= bit
		fl |= eligFree
	}
	e.busy[w], e.free[w], e.flags[node] = b, f, fl
}

// puNear reports whether any active primary user covers node (lazy path).
func (t *Tracker) puNear(node int32) bool {
	on := t.puOn
	if len(on) == 1 {
		return t.puMask[node]&on[0] != 0
	}
	mask := t.puMask[int(node)*len(on):]
	for w, x := range on {
		if mask[w]&x != 0 {
			return true
		}
	}
	return false
}

// puCount returns how many active primary users cover node (lazy path).
func (t *Tracker) puCount(node int32) int32 {
	on := t.puOn
	mask := t.puMask[int(node)*len(on):]
	c := 0
	for w, x := range on {
		c += bits.OnesCount64(mask[w] & x)
	}
	return int32(c)
}

// Busy reports whether node currently senses the spectrum busy.
func (t *Tracker) Busy(node int32) bool {
	return t.busy[node] > 0 || t.puNear(node)
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

// buildPUBits fills the lazy path's PU bitsets from the PU table.
func (t *Tracker) buildPUBits() {
	tab := t.puTab()
	np := tab.NumRows()
	w := len(t.suTx)
	m := (np + 63) / 64
	t.puRows = zeroed(t.puRows, np*w)
	t.puSpan = zeroed(t.puSpan, 2*np)
	t.puMask = zeroed(t.puMask, len(t.rank)*m)
	for i := range np {
		row := tab.Row(int32(i))
		set := t.puRows[i*w : (i+1)*w]
		prev := int32(-1)
		for _, id := range row {
			r := t.rank[id]
			if r <= prev {
				panic(fmt.Sprintf("spectrum: PU %d's neighbor row is not in grid rank order", i))
			}
			prev = r
			set[r>>6] |= 1 << (r & 63)
			t.puMask[int(id)*m+i>>6] |= 1 << (i & 63)
		}
		if len(row) > 0 {
			t.puSpan[2*i] = t.rank[row[0]] >> 6
			t.puSpan[2*i+1] = prev>>6 + 1
		}
	}
	t.puOn = zeroed(t.puOn, m)
}

// addNeighbors applies one transmitter registration over an explicit
// neighbor sequence. nbrs is borrowed, never retained, and never written:
// CSR rows pass their immutable backing array directly.
func (t *Tracker) addNeighbors(nbrs []int32, kind TxKind, exclude int32, now sim.Time) {
	rose := t.takeBuf()
	// Phase 1: apply every counter update so the medium state is
	// consistent before any observer reacts. The local busy slice and
	// counter keep the compiler from re-loading t.busy[node] after the
	// store (it cannot prove rose does not alias the tracker).
	busy := t.busy
	if t.filtered {
		// With the filter on, record only eligible crossings: delivery
		// re-checks eligibility anyway, and a node that gains eligibility
		// between here and delivery can only do so inside a callback of this
		// batch — none of which (freezes) touch another node's eligibility —
		// so the thinned buffer drops no delivery.
		flags := t.elig.flags
		for _, node := range nbrs {
			if node == exclude {
				continue
			}
			c := busy[node] + 1
			busy[node] = c
			// Under lazy PU accounting `busy` carries only secondary
			// contributions, so a 0→1 here is a real medium transition only
			// if no active primary already covers the node. PU bits cannot
			// change inside this walk (toggles come from model events, never
			// callbacks), so the check holds through delivery too.
			if c == 1 && flags[node]&eligBusy != 0 && !t.puNear(node) {
				rose = append(rose, node)
			}
		}
	} else {
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
	}
	// Phase 2: callbacks (may reenter the tracker). A reentrant call may
	// have changed a counter again, so re-verify the level each callback
	// reports; the reentrant call delivered its own transitions. Eligibility
	// is read per callback, not snapshotted: a reentrant state change keeps
	// the marks current.
	if t.filtered {
		flags := t.elig.flags
		for _, node := range rose {
			if flags[node]&eligBusy != 0 && busy[node] > 0 {
				t.observer.SpectrumBusy(node, now)
			}
		}
	} else {
		for _, node := range rose {
			if busy[node] > 0 {
				t.observer.SpectrumBusy(node, now)
			}
		}
	}
	// Filtered trackers route primary users through addPULazy, so a PU
	// registration here is always delivered unfiltered.
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
	if t.filtered {
		// Filtered recording, mirroring addNeighbors: a node that becomes
		// free-eligible during this batch's callbacks froze against a medium
		// those same callbacks made busy, so its delivery-time level check
		// (busy == 0) fails regardless — skipping it here changes nothing.
		flags := t.elig.flags
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
				if flags[node]&eligFree != 0 && !t.puNear(node) {
					fell = append(fell, node)
				}
			}
		}
		for _, node := range fell {
			if flags[node]&eligFree != 0 && busy[node] == 0 {
				t.observer.SpectrumFree(node, now)
			}
		}
	} else {
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
	}
	t.putBuf(fell)
}

// AddSUTransmitter registers secondary node id as an active transmitter
// (the node's own counter is excluded). This is the indexed fast path: it
// walks id's precomputed CSR row.
func (t *Tracker) AddSUTransmitter(id int32, now sim.Time) {
	if t.filtered {
		r := t.rank[id]
		if w, bit := r>>6, uint64(1)<<(r&63); t.suTx[w]&bit == 0 {
			t.suTx[w] |= bit
			t.nSuTx++
		}
	}
	t.addNeighbors(t.suRow(id), TxSU, id, now)
}

// RemoveSUTransmitter reverses AddSUTransmitter.
func (t *Tracker) RemoveSUTransmitter(id int32, now sim.Time) {
	if t.filtered {
		r := t.rank[id]
		if w, bit := r>>6, uint64(1)<<(r&63); t.suTx[w]&bit != 0 {
			t.suTx[w] &^= bit
			t.nSuTx--
		}
	}
	t.removeNeighbors(t.suRow(id), now, id)
}

// AddPUTransmitter registers primary user i as an active transmitter,
// delivering PUArrived to every secondary node within the protection range.
func (t *Tracker) AddPUTransmitter(i int32, now sim.Time) {
	if t.filtered {
		t.addPULazy(i, now)
		return
	}
	t.addNeighbors(t.puTab().Row(i), TxPU, -1, now)
}

// RemovePUTransmitter reverses AddPUTransmitter.
func (t *Tracker) RemovePUTransmitter(i int32, now sim.Time) {
	if t.filtered {
		t.removePULazy(i, now)
		return
	}
	t.removeNeighbors(t.puTab().Row(i), now, -1)
}

// walkPU calls visit for every node whose bit is set both in PU i's row and
// in set, in ascending rank order — which is the CSR row's own order. The
// word of set under the walk is re-read above the current bit after every
// visit, so a bit a callback flips for a later node is seen exactly as a
// per-node read on a row walk would see it.
func (t *Tracker) walkPU(i int32, set []uint64, visit func(node int32)) {
	w := len(set)
	row := t.puRows[int(i)*w : (int(i)+1)*w]
	order := t.order
	lo, hi := t.puSpan[2*i], t.puSpan[2*i+1]
	for k := lo; k < hi; k++ {
		for x := row[k] & set[k]; x != 0; {
			b := bits.TrailingZeros64(x)
			visit(order[int(k)<<6|b])
			x = row[k] & set[k] & (^uint64(0) << (b + 1))
		}
	}
}

// addPULazy registers primary user i on the filtered path: it sets i's bit
// in puOn and visits only the row's busy-eligible nodes and, for the
// handoff, its registered SU transmitters — at n = 300 a handful out of
// ~100 covered nodes. Bit-identical to the eager walk: a skipped node is
// exactly one whose callback would have returned immediately, the visits
// keep row order, and for an eligible node the split total (busy plus
// covering active PUs) crosses 0→1 exactly when the eager counter would,
// since SpectrumBusy callbacks never mutate the tracker under the filter
// contract. Double-registration bookkeeping is the caller's: the PU models
// strictly alternate add/remove per user.
func (t *Tracker) addPULazy(i int32, now sim.Time) {
	if len(t.puOn) == 0 {
		t.buildPUBits()
	}
	t.puOn[i>>6] |= 1 << (i & 63)
	busy := t.busy
	t.walkPU(i, t.elig.busy, func(node int32) {
		// The total count crossed 0→1 iff no secondary contribution and i
		// is the only active PU covering node.
		if busy[node] == 0 && t.puCount(node) == 1 {
			t.observer.SpectrumBusy(node, now)
		}
	})
	// Arrival scan, mirroring the eager kind==TxPU delivery. Kept as a
	// second walk so every busy transition lands before any handoff abort
	// reenters the tracker; an abort clears only its own suTx bit.
	if t.nSuTx > 0 {
		t.walkPU(i, t.suTx, func(node int32) { t.observer.PUArrived(node, now) })
	}
}

// removePULazy reverses addPULazy, visiting the row's free-eligible nodes.
func (t *Tracker) removePULazy(i int32, now sim.Time) {
	if len(t.puOn) == 0 {
		t.buildPUBits()
	}
	t.puOn[i>>6] &^= 1 << (i & 63)
	busy := t.busy
	t.walkPU(i, t.elig.free, func(node int32) {
		// The total count returned to zero iff both contributions are now
		// zero. A reentrant AddSUTransmitter from an earlier resume raises
		// busy before later nodes are visited, failing this check exactly
		// like the eager delivery re-verify would.
		if busy[node] == 0 && !t.puNear(node) {
			t.observer.SpectrumFree(node, now)
		}
	})
}

// BlockNode raises node's busy counter by one without a spatial query; the
// aggregate PU model uses it to impose a node-local primary blocking period.
func (t *Tracker) BlockNode(node int32, now sim.Time) {
	t.busy[node]++
	if t.busy[node] == 1 && !t.puNear(node) {
		t.observer.SpectrumBusy(node, now)
	}
	t.observer.PUArrived(node, now)
}

// UnblockNode reverses BlockNode.
func (t *Tracker) UnblockNode(node int32, now sim.Time) {
	t.busy[node]--
	if t.busy[node] == 0 && !t.puNear(node) {
		t.observer.SpectrumFree(node, now)
	}
	if t.busy[node] < 0 {
		panic(fmt.Sprintf("spectrum: negative busy count at node %d", node))
	}
}
