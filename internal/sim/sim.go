// Package sim is a deterministic discrete-event simulation engine. Virtual
// time is an int64 microsecond counter; events scheduled for equal times
// fire in scheduling order (a strictly increasing sequence number breaks
// ties), so a run is exactly reproducible from its inputs.
//
// The engine is intentionally single-threaded: cognitive-radio MAC behavior
// depends on a total order of carrier-sense observations, and a
// deterministic order is what makes the reproduction's integration tests
// meaningful. Parallelism lives one level up (independent repetitions of an
// experiment run on separate engines; see internal/experiment).
//
// The event queue is a timing wheel with one FIFO bucket per microsecond,
// backed by a 4-ary overflow heap. The paper's model is slotted (τ = 1 ms,
// τ_c = 0.5 ms), so nearly every event falls within a few slots of the
// clock and many share a microsecond. The wheel covers the wheelSpan
// microseconds starting at its cursor: scheduling there appends to an
// intrusive list threaded through the pooled entry arena and sets one
// occupancy bit, and popping takes a bucket's head. Canceling a wheel entry
// unlinks it at once and recycles its slot, so the wheel holds only live
// events: when the cursor's bucket drains, the occupancy bitmap locates the
// next live event with a word scan and bits.TrailingZeros64. Events due at
// or beyond the span — long PU runs, fault-plan events — wait in the
// overflow heap, keyed by (time, sequence); a canceled heap entry is only
// marked, and dropped when it reaches the heap's top.
//
// Pop order is exactly (time, sequence) with no sort. A bucket holds a
// single timestamp, and its entries arrive in sequence order. An overflow
// entry for time t was scheduled before any wheel entry for t, because the
// cursor only moves forward; so when the cursor reaches t, t's overflow
// entries are spliced in front of the bucket's list, and later pushes at t
// append behind it. RunUntil reads the next pending time without moving the
// cursor, so the cursor never passes the clock and no event is scheduled
// below it. Because the order is the same strict total order, every
// simulation result is identical to the binary container/heap
// implementation this engine started from. The arena recycles freed slots
// through a free list, so scheduling in steady state allocates nothing.

package sim

import (
	"errors"
	"math"
	"math/bits"
	"time"
)

// Time is virtual time in microseconds since the start of the run.
type Time int64

// Common time constants.
const (
	Millisecond Time = 1000
	Second      Time = 1000 * 1000

	// MaxTime is the largest representable virtual time.
	MaxTime Time = math.MaxInt64
)

// FromDuration converts a wall-clock duration to virtual microseconds,
// truncating sub-microsecond precision.
func FromDuration(d time.Duration) Time { return Time(d.Microseconds()) }

// Duration converts virtual time to a time.Duration.
func (t Time) Duration() time.Duration { return time.Duration(t) * time.Microsecond }

// Seconds returns t in seconds as a float64.
func (t Time) Seconds() float64 { return float64(t) / 1e6 }

// EventFunc is an event body; it runs with the engine clock set to the
// event's scheduled time.
type EventFunc func(now Time)

// Timer is a handle to a scheduled event, usable to cancel it. The handle
// stays valid (and inert) after the event fires or is canceled: the arena
// slot it names is generation-checked, so a handle to a recycled slot never
// touches the slot's new occupant.
type Timer struct {
	eng *Engine
	idx int32
	gen uint32
}

// Cancel prevents the event from firing. Canceling an already-fired or
// already-canceled timer is a no-op. Cancel on a zero Timer is a no-op.
//
// A wheel entry is unlinked from its bucket and its slot recycled at once,
// so the pop loop never meets it: canceled timers are overwhelmingly
// near-future backoffs (carrier-sense freezes), 71% of all events a
// small-grid sweep schedules. A bucket holds a single time and seldom more
// than one entry, so the predecessor of a non-head entry is found by a walk
// from the bucket's head rather than through a back link on every entry.
// An entry in the overflow heap is only marked dead; it is released when it
// reaches the heap's top or when its time's entries are spliced into a
// bucket.
func (t Timer) Cancel() {
	e := t.eng
	if e == nil {
		return
	}
	en := &e.arena[t.idx]
	if en.gen != t.gen || en.fn == nil {
		return // already fired or already canceled
	}
	if en.next == inHeap {
		en.fn = nil
		return
	}
	e.unlink(t.idx)
	e.release(t.idx)
}

// When returns the scheduled fire time (meaningful only while the event is
// pending).
func (t Timer) When() Time {
	if t.eng == nil {
		return 0
	}
	en := &t.eng.arena[t.idx]
	if en.gen != t.gen {
		return 0
	}
	return en.at
}

// entry is one arena slot. gen increments every time the slot is released to
// the free list, invalidating outstanding Timer handles. A nil fn while the
// entry is still queued marks a canceled overflow-heap entry, discarded when
// it reaches the heap's top. next links a wheel entry to its successor in
// its bucket, or holds listEnd at the bucket's tail; it holds inHeap while
// the entry waits in the overflow heap.
type entry struct {
	at   Time
	fn   EventFunc
	gen  uint32
	next int32
}

// Link values of entry.next besides arena indices.
const (
	listEnd int32 = -1
	inHeap  int32 = -2
)

// The wheel spans wheelSpan = 4096 µs, just over four of the paper's 1 ms
// slots, so slot-aligned toggles and sub-slot backoffs land in buckets while
// multi-slot PU runs and fault-plan events overflow. The span sets speed
// only; pop order does not depend on it.
const (
	wheelBits  = 12
	wheelSpan  = 1 << wheelBits
	wheelMask  = wheelSpan - 1
	wheelWords = wheelSpan / 64
)

// bucket is the FIFO of entries due at one wheel time, linked through
// entry.next. head and tail are valid only while the bucket's occupancy bit
// is set.
type bucket struct {
	head, tail int32
}

// hkey is an overflow-heap sort key: events fire in (at, seq) order. Keys are
// stored densely by heap position so sift comparisons stay on hot cache
// lines.
type hkey struct {
	at  Time
	seq uint64
}

func (k hkey) less(o hkey) bool {
	return k.at < o.at || (k.at == o.at && k.seq < o.seq)
}

// Engine is the event queue and virtual clock.
type Engine struct {
	now    Time
	seq    uint64
	nsteps uint64

	// arena holds every entry ever allocated; free lists recycled slots.
	arena []entry
	free  []int32

	// The wheel holds the events due in [cursor, cursor+wheelSpan), bucket
	// t&wheelMask holding those due at t. occ has bit b set while bucket b
	// is non-empty. Every wheel entry is live: Cancel unlinks its entry.
	cursor  Time
	buckets [wheelSpan]bucket
	occ     [wheelWords]uint64

	// heap is the overflow queue: a 4-ary min-heap of arena indices ordered
	// by (at, seq), with keys mirroring each position's sort key. It holds
	// the events due at or beyond the wheel's span when scheduled, and may
	// hold lazily canceled entries awaiting their pop.
	heap []int32
	keys []hkey

	// Cooperative interrupt: poll is consulted every pollEvery executed
	// events; a non-nil error stops the engine (see SetInterrupt).
	poll          func() error
	pollEvery     uint64
	pollCountdown uint64
	interruptErr  error
}

// New returns an engine with the clock at zero and an empty queue.
func New() *Engine { return &Engine{} }

// Reset returns the engine to its initial state — clock at zero, empty
// queue, no interrupt poll — while keeping the arena, free-list, and heap
// backing arrays for the next run. Every arena slot's
// generation is bumped, so Timer handles issued before the Reset go
// permanently inert instead of aliasing events scheduled after it. The free
// list is rebuilt so slots are handed out in ascending index order, exactly
// as a fresh engine appends them; since event order depends only on
// (time, sequence), a reset engine is observationally identical to one
// returned by New.
func (e *Engine) Reset() {
	for i := range e.arena {
		en := &e.arena[i]
		en.fn = nil
		en.gen++
	}
	e.free = e.free[:0]
	for i := len(e.arena) - 1; i >= 0; i-- {
		e.free = append(e.free, int32(i))
	}
	e.cursor = 0
	e.occ = [wheelWords]uint64{}
	e.heap = e.heap[:0]
	e.keys = e.keys[:0]
	e.now = 0
	e.seq = 0
	e.nsteps = 0
	e.poll = nil
	e.pollEvery = 0
	e.pollCountdown = 0
	e.interruptErr = nil
}

// Now returns the current virtual time: the time of the most recently
// executed event.
func (e *Engine) Now() Time { return e.now }

// Steps returns the number of events executed so far.
func (e *Engine) Steps() uint64 { return e.nsteps }

// SetInterrupt installs a cooperative cancellation poll: fn is consulted
// every `every` executed events (every <= 0 means every event), and the
// first non-nil error it returns stops the engine — Step and RunUntil
// refuse to execute further events and the error is retained for
// InterruptErr. Passing context.Context.Err as fn gives a simulation run
// cancellation and wall-clock deadlines at event-loop granularity without
// any per-event overhead beyond a counter decrement. A nil fn removes the
// poll; installing a new poll clears a previously retained error.
func (e *Engine) SetInterrupt(every uint64, fn func() error) {
	if every == 0 {
		every = 1
	}
	e.poll = fn
	e.pollEvery = every
	e.pollCountdown = every
	e.interruptErr = nil
}

// InterruptErr returns the error that interrupted the engine, or nil when
// no interrupt poll has fired. A stopped engine stays stopped until
// SetInterrupt is called again.
func (e *Engine) InterruptErr() error { return e.interruptErr }

// ErrPast is returned by At when scheduling before the current time.
var ErrPast = errors.New("sim: event scheduled in the past")

var errNilEvent = errors.New("sim: nil event function")

// At schedules fn at absolute virtual time t; t may equal Now (the event
// fires after all currently queued events at the same time).
func (e *Engine) At(t Time, fn EventFunc) (Timer, error) {
	if t < e.now {
		return Timer{}, ErrPast
	}
	if fn == nil {
		return Timer{}, errNilEvent
	}
	var idx int32
	if n := len(e.free); n > 0 {
		idx = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		e.arena = append(e.arena, entry{})
		idx = int32(len(e.arena) - 1)
	}
	en := &e.arena[idx]
	en.at = t
	en.fn = fn
	if t-e.cursor < wheelSpan {
		e.bucketPush(int(t&wheelMask), idx)
	} else {
		en.next = inHeap
		e.heapPush(idx, hkey{at: t, seq: e.seq})
	}
	e.seq++
	return Timer{eng: e, idx: idx, gen: en.gen}, nil
}

// After schedules fn d microseconds from now; negative d is clamped to 0.
func (e *Engine) After(d Time, fn EventFunc) Timer {
	if d < 0 {
		d = 0
	}
	t, err := e.At(e.now+d, fn)
	if err != nil {
		// Unreachable: e.now+d >= e.now and fn nil-ness is the caller's
		// bug; surface it loudly in tests.
		panic(err)
	}
	return t
}

// release returns arena slot idx to the free list, bumping its generation so
// outstanding Timer handles to it go inert.
func (e *Engine) release(idx int32) {
	en := &e.arena[idx]
	en.fn = nil
	en.gen++
	e.free = append(e.free, idx)
}

// Step executes the single earliest pending event (by (time, sequence)) and
// returns true, or returns false when the queue is empty. When an interrupt
// poll (SetInterrupt) has fired — now or on an earlier call — Step executes
// nothing and returns false; distinguish the interrupted case from queue
// exhaustion via InterruptErr.
func (e *Engine) Step() bool {
	if !e.polled() {
		return false
	}
	t, ok := e.next()
	if !ok {
		return false
	}
	e.fire(t)
	return true
}

// RunUntil executes events until the queue is exhausted, an interrupt poll
// fires (see SetInterrupt and InterruptErr), or the next event is scheduled
// strictly after deadline; the clock never passes deadline. It returns the
// number of events executed.
func (e *Engine) RunUntil(deadline Time) uint64 {
	start := e.nsteps
	for {
		t, ok := e.next()
		if !ok || t > deadline || !e.polled() {
			break
		}
		e.fire(t)
	}
	return e.nsteps - start
}

// Run executes events until the queue is exhausted and returns the number
// executed. Use RunUntil with a budget when events can re-arm forever.
func (e *Engine) Run() uint64 {
	return e.RunUntil(MaxTime)
}

// polled reports whether the engine may execute another event: no interrupt
// has fired, and the poll, when this is its turn, returns nil.
func (e *Engine) polled() bool {
	if e.interruptErr != nil {
		return false
	}
	if e.poll != nil {
		e.pollCountdown--
		if e.pollCountdown == 0 {
			e.pollCountdown = e.pollEvery
			if err := e.poll(); err != nil {
				e.interruptErr = err
				return false
			}
		}
	}
	return true
}

// next returns the earliest pending time without moving the cursor: the
// cursor's own when its bucket is occupied, else the sooner of the next
// occupied bucket and the overflow heap's first live entry, releasing the
// canceled heap entries ahead of that one. ok is false when no live event is
// pending.
func (e *Engine) next() (Time, bool) {
	if e.occupied(int(e.cursor & wheelMask)) {
		return e.cursor, true
	}
	for len(e.heap) > 0 && e.arena[e.heap[0]].fn == nil {
		e.release(e.heapPop())
	}
	t, ok := e.nextOccupied()
	if len(e.heap) > 0 && (!ok || e.keys[0].at < t) {
		t, ok = e.keys[0].at, true
	}
	return t, ok
}

// fire moves the cursor to t, the time next returned, and removes and
// executes the first event due then.
func (e *Engine) fire(t Time) {
	if t != e.cursor {
		e.advance(t)
	}
	idx := e.buckets[t&wheelMask].head
	e.unlink(idx)
	en := &e.arena[idx]
	fn := en.fn
	// Recycle the slot before running the body: the event is no longer
	// pending, its Timer handles must read inactive, and the body is free to
	// reuse the slot for the events it schedules.
	e.release(idx)
	e.now = t
	e.nsteps++
	fn(t)
}

// advance moves the cursor from its empty bucket to next, the earliest
// pending time, and splices the live overflow entries due then in front of
// that time's bucket, releasing the canceled ones.
func (e *Engine) advance(next Time) {
	e.cursor = next
	if len(e.heap) == 0 || e.keys[0].at != next {
		return
	}
	// The overflow entries due at next were scheduled before every wheel
	// entry for next, and the heap yields them in sequence order.
	first := e.heapPop()
	last := first
	for len(e.heap) > 0 && e.keys[0].at == next {
		idx := e.heapPop()
		if e.arena[idx].fn == nil {
			e.release(idx)
			continue
		}
		e.arena[last].next = idx
		last = idx
	}
	b := int(next & wheelMask)
	bk := &e.buckets[b]
	if e.occupied(b) {
		e.arena[last].next = bk.head
	} else {
		e.arena[last].next = listEnd
		bk.tail = last
		e.occ[b>>6] |= 1 << (b & 63)
	}
	bk.head = first
}

// nextOccupied returns the time of the first occupied bucket after the
// cursor's, which must be empty.
func (e *Engine) nextOccupied() (Time, bool) {
	p := int(e.cursor & wheelMask)
	w := p >> 6
	if m := e.occ[w] >> (p & 63); m != 0 {
		return e.cursor + Time(bits.TrailingZeros64(m)), true
	}
	// Wrapping around to w itself finds its buckets below p, which lie a
	// full turn ahead.
	for i := 1; i <= wheelWords; i++ {
		ww := (w + i) & (wheelWords - 1)
		if m := e.occ[ww]; m != 0 {
			b := ww<<6 + bits.TrailingZeros64(m)
			return e.cursor + Time((b-p)&wheelMask), true
		}
	}
	return 0, false
}

// occupied reports whether bucket b holds entries.
func (e *Engine) occupied(b int) bool { return e.occ[b>>6]&(1<<(b&63)) != 0 }

// bucketPush appends arena entry idx to bucket b.
func (e *Engine) bucketPush(b int, idx int32) {
	bk := &e.buckets[b]
	if e.occupied(b) {
		e.arena[bk.tail].next = idx
	} else {
		bk.head = idx
		e.occ[b>>6] |= 1 << (b & 63)
	}
	e.arena[idx].next = listEnd
	bk.tail = idx
}

// unlink removes wheel entry idx from its bucket, clearing the bucket's
// occupancy bit when idx was its only entry. A bucket's entries share one
// time and are few, so the predecessor of a non-head entry is found by a
// walk from the head.
func (e *Engine) unlink(idx int32) {
	b := int(e.arena[idx].at & wheelMask)
	bk := &e.buckets[b]
	next := e.arena[idx].next
	if bk.head == idx {
		if next == listEnd {
			e.occ[b>>6] &^= 1 << (b & 63)
		} else {
			bk.head = next
		}
		return
	}
	p := bk.head
	for e.arena[p].next != idx {
		p = e.arena[p].next
	}
	e.arena[p].next = next
	if next == listEnd {
		bk.tail = p
	}
}

// The overflow heap is 4-ary: parent of i is (i-1)/4, children are
// 4i+1..4i+4. A wider node halves the tree height against a binary heap, and
// because the four children's keys are adjacent in the dense key array, one
// comparison round reads a single cache line.

func (e *Engine) heapPush(idx int32, k hkey) {
	e.heap = append(e.heap, idx)
	e.keys = append(e.keys, k)
	e.siftUp(len(e.heap) - 1)
}

func (e *Engine) heapPop() int32 {
	h := e.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	e.keys[0] = e.keys[last]
	e.heap = h[:last]
	e.keys = e.keys[:last]
	if last > 0 {
		e.siftDown(0)
	}
	return top
}

// Both sifts move a hole instead of swapping: the displaced element's key is
// loaded once into registers, ancestors/children shift into the hole, and the
// element lands in its final slot with a single write. The comparisons — and
// therefore the resulting heap layout — are exactly those of the classic
// swap-at-every-level formulation.

func (e *Engine) siftUp(i int) {
	h, k := e.heap, e.keys
	moving, mk := h[i], k[i]
	for i > 0 {
		p := (i - 1) / 4
		if !mk.less(k[p]) {
			break
		}
		h[i], k[i] = h[p], k[p]
		i = p
	}
	h[i], k[i] = moving, mk
}

func (e *Engine) siftDown(i int) {
	h, k := e.heap, e.keys
	n := len(h)
	moving, mk := h[i], k[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		bk := k[first]
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if k[c].less(bk) {
				best, bk = c, k[c]
			}
		}
		if !bk.less(mk) {
			break
		}
		h[i], k[i] = h[best], k[best]
		i = best
	}
	h[i], k[i] = moving, mk
}
