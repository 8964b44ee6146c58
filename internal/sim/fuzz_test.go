package sim

import "testing"

// refQueue is a deliberately naive event queue: an unsorted slice scanned for
// the minimum (time, sequence) on every pop. It shares nothing with the
// engine's wheel or heap, so FuzzEngineOrder checks the engine against the
// ordering contract itself rather than against an earlier engine.
type refQueue struct {
	now  Time
	seq  uint64
	evs  []refEvent
	live map[int]bool // ids still pending
}

type refEvent struct {
	at  Time
	seq uint64
	id  int
}

func newRefQueue() *refQueue { return &refQueue{live: map[int]bool{}} }

func (q *refQueue) schedule(at Time, id int) {
	q.evs = append(q.evs, refEvent{at: at, seq: q.seq, id: id})
	q.seq++
	q.live[id] = true
}

func (q *refQueue) cancel(id int) { delete(q.live, id) }

// next returns the position of the earliest live event, dropping canceled
// ones, or -1 when none is pending.
func (q *refQueue) next() int {
	best := -1
	for i := 0; i < len(q.evs); i++ {
		ev := q.evs[i]
		if !q.live[ev.id] {
			q.evs = append(q.evs[:i], q.evs[i+1:]...)
			i--
			continue
		}
		if best < 0 || ev.at < q.evs[best].at || (ev.at == q.evs[best].at && ev.seq < q.evs[best].seq) {
			best = i
		}
	}
	return best
}

func (q *refQueue) pop() (refEvent, bool) {
	i := q.next()
	if i < 0 {
		return refEvent{}, false
	}
	ev := q.evs[i]
	q.evs = append(q.evs[:i], q.evs[i+1:]...)
	delete(q.live, ev.id)
	q.now = ev.at
	return ev, true
}

// script hands out the fuzz input one byte at a time, then zeros.
type script struct{ b []byte }

func (s *script) byte() byte {
	if len(s.b) == 0 {
		return 0
	}
	c := s.b[0]
	s.b = s.b[1:]
	return c
}

func (s *script) u16() uint16 { return uint16(s.byte())<<8 | uint16(s.byte()) }

// delay draws a scheduling delay that straddles the wheel's boundaries:
// same-time, sub-slot, slot-aligned, the last in-span microsecond, the span
// itself and one past it, multi-span runs and very large jumps.
func (s *script) delay() Time {
	switch s.byte() % 9 {
	case 0:
		return 0
	case 1:
		return Time(s.byte())
	case 2:
		return Time(s.u16() % 1000)
	case 3:
		return Millisecond * Time(s.byte()%8)
	case 4:
		return wheelSpan - 1
	case 5:
		return wheelSpan
	case 6:
		return wheelSpan + 1
	case 7:
		return Time(s.u16()) * 3
	default:
		return Time(1)<<40 + Time(s.u16())
	}
}

// maxFuzzEvents bounds the events one script may schedule, so reentrant
// bodies cannot re-arm forever.
const maxFuzzEvents = 400

// engineSeeds is FuzzEngineOrder's seed corpus. Together the seeds must
// cancel a non-head bucket entry and an overflow entry spliced into a
// bucket (FuzzEngineOrder checks), the two unlinks a head-only queue never
// performs.
var engineSeeds = [][]byte{
	{0, 0, 0, 1, 2, 2, 2},
	{0, 4, 0, 0, 5, 0, 0, 6, 0, 0, 0, 3, 3, 2, 2, 2, 2},
	{0, 8, 1, 2, 0, 2, 10, 4, 3, 1, 200, 0, 1, 5, 0, 2, 2, 2},
	{0, 7, 255, 255, 3, 2, 0, 3, 0, 1, 50, 3, 1, 3, 4, 0, 0, 0, 2, 2},
	{3, 5, 7, 9, 3, 4, 5, 6},
	// Minimized failures of deliberately broken engines: overflow entries
	// spliced behind a bucket's wheel entries, a delay of exactly the span
	// kept on the wheel, and events scheduled below a cursor that RunUntil
	// had moved past the clock not taken first.
	[]byte("0102211X1"),
	[]byte("01272"),
	[]byte("X19Z0"),
	// Three entries at time 0, then the middle and the tail are canceled.
	{0, 0, 0, 0, 0, 0, 1, 1, 1, 2, 2},
	// Two overflow entries due one past the span; a Step splices both into
	// a bucket and fires the first, whose body cancels the second.
	{0, 6, 0, 6, 2, 2, 1, 2},
}

// scriptCover records which kinds of cancel a script performed.
type scriptCover struct {
	nonHead bool // a wheel entry behind its bucket's head
	spliced bool // a wheel entry that was scheduled into the overflow heap
}

// FuzzEngineOrder runs random scripts against both the engine and refQueue
// in lockstep: top-level schedules, cancels (of pending, fired and pre-Reset
// timers), Steps, RunUntil deadlines that stop short of the next event
// followed by schedules just past the clock, and Resets; event bodies
// schedule and cancel reentrantly. Every fired event's id and time, the
// clock and the pending count must match the reference exactly, and the
// wheel's cursor must never pass the clock.
func FuzzEngineOrder(f *testing.F) {
	var cov scriptCover
	for _, seed := range engineSeeds {
		f.Add(seed)
		c := runEngineScript(f, seed)
		cov.nonHead = cov.nonHead || c.nonHead
		cov.spliced = cov.spliced || c.spliced
	}
	if !cov.nonHead || !cov.spliced {
		f.Fatalf("seed scripts cancel a non-head bucket entry: %v, a spliced overflow entry: %v; want both", cov.nonHead, cov.spliced)
	}
	f.Fuzz(func(t *testing.T, data []byte) { runEngineScript(t, data) })
}

// runEngineScript runs one FuzzEngineOrder script and reports the kinds of
// cancel it performed.
func runEngineScript(t testing.TB, data []byte) (cov scriptCover) {
	if len(data) > 512 {
		data = data[:512]
	}
	s := &script{b: data}
	e := New()
	ref := newRefQueue()
	var timers []Timer
	var overflowed []bool // by id: the timer's entry was scheduled into the heap
	created := 0

	cancel := func(id int) {
		tm := timers[id]
		if en := &e.arena[tm.idx]; tm.Active() && en.next != inHeap {
			cov.nonHead = cov.nonHead || e.buckets[en.at&wheelMask].head != tm.idx
			cov.spliced = cov.spliced || overflowed[id]
		}
		tm.Cancel()
		ref.cancel(id)
	}
	var schedule func(d Time)
	body := func(id int) EventFunc {
		return func(now Time) {
			ev, ok := ref.pop()
			if !ok || ev.id != id || ev.at != now {
				t.Fatalf("engine fired id %d at %d; reference wants %+v (ok=%v)", id, now, ev, ok)
			}
			switch s.byte() % 4 {
			case 1:
				schedule(s.delay())
			case 2:
				if len(timers) > 0 {
					cancel(int(s.byte()) % len(timers))
				}
			case 3:
				schedule(s.delay())
				schedule(s.delay())
			}
		}
	}
	schedule = func(d Time) {
		if created >= maxFuzzEvents {
			return
		}
		created++
		id := len(timers)
		ref.schedule(e.Now()+d, id)
		tm := e.After(d, body(id))
		timers = append(timers, tm)
		overflowed = append(overflowed, e.arena[tm.idx].next == inHeap)
	}
	check := func(op string) {
		t.Helper()
		if e.Now() != ref.now {
			t.Fatalf("after %s: clock %d, reference %d", op, e.Now(), ref.now)
		}
		if got, want := e.Pending(), len(ref.live); got != want {
			t.Fatalf("after %s: %d pending, reference %d", op, got, want)
		}
		if e.cursor > e.Now() {
			t.Fatalf("after %s: wheel cursor %d is past the clock %d", op, e.cursor, e.Now())
		}
	}

	for len(s.b) > 0 {
		switch s.byte() % 6 {
		case 0:
			schedule(s.delay())
			check("schedule")
		case 1:
			if len(timers) > 0 {
				cancel(int(s.byte()) % len(timers))
			}
			check("cancel")
		case 2:
			want := ref.next() >= 0
			if got := e.Step(); got != want {
				t.Fatalf("Step = %v, reference has an event: %v", got, want)
			}
			check("Step")
		case 3:
			deadline := ref.now + s.delay()
			e.RunUntil(deadline)
			if e.Now() > deadline {
				t.Fatalf("RunUntil(%d) moved the clock to %d", deadline, e.Now())
			}
			if i := ref.next(); i >= 0 && ref.evs[i].at <= deadline {
				t.Fatalf("RunUntil(%d) left event %+v due", deadline, ref.evs[i])
			}
			check("RunUntil")
		case 4:
			// Schedule just past the clock: after a RunUntil that
			// stopped short, this would land below a cursor that had
			// moved past the clock.
			schedule(Time(s.byte() % 4))
			check("schedule below cursor")
		case 5:
			if s.byte()%4 != 0 {
				continue
			}
			e.Reset()
			*ref = *newRefQueue()
			// Handles issued before the Reset stay in timers: canceling
			// them must not touch the events scheduled after it.
			check("Reset")
		}
	}
	e.Run()
	if i := ref.next(); i >= 0 {
		t.Fatalf("Run returned with reference event %+v pending", ref.evs[i])
	}
	check("Run")
	return cov
}
