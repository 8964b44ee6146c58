package sim

import "testing"

// TestTimerHandleSurvivesSlotReuse: a Timer whose entry fired and whose
// arena slot was recycled for a new event must stay inert — Cancel on the
// stale handle must not cancel the slot's new occupant.
func TestTimerHandleSurvivesSlotReuse(t *testing.T) {
	e := New()
	var fired []int
	old := e.After(1, func(Time) { fired = append(fired, 1) })
	if !e.Step() {
		t.Fatal("first event did not run")
	}
	// The slot freed by the first event is recycled here.
	e.After(1, func(Time) { fired = append(fired, 2) })
	if old.Active() {
		t.Fatal("fired timer reports active after slot reuse")
	}
	old.Cancel() // must not touch the new occupant
	if old.When() != 0 {
		t.Fatalf("stale When = %v, want 0", old.When())
	}
	e.Run()
	if len(fired) != 2 || fired[1] != 2 {
		t.Fatalf("fired = %v, want [1 2]", fired)
	}
}

// TestPopOrderMatchesTotalOrder: equal-time events fire in scheduling order
// and different times fire chronologically, across enough events to exercise
// equal-time buckets and free-list reuse.
func TestPopOrderMatchesTotalOrder(t *testing.T) {
	const rounds = 5
	for round := 0; round < rounds; round++ {
		e := New()
		var got []int
		times := []Time{30, 10, 20, 10, 30, 20, 10}
		for i, at := range times {
			i := i
			if _, err := e.At(at, func(Time) { got = append(got, i) }); err != nil {
				t.Fatal(err)
			}
		}
		e.Run()
		want := []int{1, 3, 6, 2, 5, 0, 4} // by (time, scheduling order)
		if len(got) != len(want) {
			t.Fatalf("round %d: got %v", round, got)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("round %d: pop order %v, want %v", round, got, want)
			}
		}
	}
}

// TestSteadyStateSchedulingAllocates0: once the arena has grown to the
// working set, the schedule/fire cycle performs no allocations.
func TestSteadyStateSchedulingAllocates0(t *testing.T) {
	e := New()
	var rearm EventFunc
	n := 0
	rearm = func(Time) {
		n++
		if n < 10000 {
			e.After(3, rearm)
		}
	}
	e.After(3, rearm)
	// Warm up arena, wheel and free list.
	for i := 0; i < 16 && e.Step(); i++ {
	}
	allocs := testing.AllocsPerRun(100, func() {
		e.After(5, rearm)
		e.Step()
	})
	if allocs != 0 {
		t.Fatalf("steady-state schedule+step allocates %v/op, want 0", allocs)
	}
}

// TestCancelInertAcrossGenerations: canceling a timer, draining it, then
// reusing its slot many times never resurrects the canceled event.
func TestCancelInertAcrossGenerations(t *testing.T) {
	e := New()
	canceledRan := false
	tm := e.After(2, func(Time) { canceledRan = true })
	tm.Cancel()
	ran := 0
	for i := 0; i < 50; i++ {
		e.After(Time(i+3), func(Time) { ran++ })
	}
	e.Run()
	if canceledRan {
		t.Fatal("canceled event ran")
	}
	if ran != 50 {
		t.Fatalf("ran %d events, want 50", ran)
	}
	if tm.Active() {
		t.Fatal("canceled timer reports active")
	}
}

// bucketLen returns the number of entries queued in the wheel bucket of
// time t, walking its list.
func bucketLen(e *Engine, t Time) int {
	b := int(t & wheelMask)
	if !e.occupied(b) {
		return 0
	}
	n := 0
	for idx := e.buckets[b].head; idx != listEnd; idx = e.arena[idx].next {
		n++
	}
	return n
}

// TestCancelUnlinksWheelEntries: canceling the head, a middle entry and the
// tail of multi-entry buckets, a bucket's only entries, and overflow entries
// after they were spliced into a bucket removes each from the wheel at once
// (Pending falls, the bucket shrinks, an emptied bucket loses its occupancy
// bit), and the survivors fire in (time, sequence) order.
func TestCancelUnlinksWheelEntries(t *testing.T) {
	e := New()
	var got []int
	rec := func(id int) EventFunc { return func(Time) { got = append(got, id) } }
	cancel := func(tm Timer, at Time, pending, queued int) {
		t.Helper()
		tm.Cancel()
		if p := e.Pending(); p != pending {
			t.Fatalf("Pending = %d after a cancel, want %d", p, pending)
		}
		if n := bucketLen(e, at); n != queued {
			t.Fatalf("bucket of %d holds %d entries after a cancel, want %d", at, n, queued)
		}
	}

	// Bucket 10: ids 0..4; cancel the head, a middle entry and the tail.
	var ten [5]Timer
	for i := range ten {
		ten[i] = e.After(10, rec(i))
	}
	// Bucket 20: two entries, both canceled.
	a, b := e.After(20, rec(10)), e.After(20, rec(11))
	// Overflow: ids 20..22 due beyond the span, spliced in front of id 23,
	// which an event at 100 schedules for the same time once the wheel
	// reaches it. id 20 fires first and cancels the spliced entry behind it
	// and the wheel entry, leaving id 21.
	late := Time(wheelSpan + 50)
	var over [3]Timer
	var w Timer
	over[0] = e.After(late, func(now Time) {
		got = append(got, 20)
		if n := bucketLen(e, now); n != 3 {
			t.Fatalf("spliced bucket holds %d entries, want 3", n)
		}
		cancel(over[2], now, 2, 2)
		cancel(w, now, 1, 1)
	})
	over[1] = e.After(late, rec(21))
	over[2] = e.After(late, rec(22))
	for _, o := range over {
		if e.arena[o.idx].next != inHeap {
			t.Fatal("entry due beyond the span is not in the overflow heap")
		}
	}
	e.After(100, func(Time) {
		got = append(got, 30)
		w = e.After(late-100, rec(23))
	})

	cancel(ten[0], 10, 10, 4)
	cancel(ten[2], 10, 9, 3)
	cancel(ten[4], 10, 8, 2)
	cancel(a, 20, 7, 1)
	cancel(b, 20, 6, 0)
	if e.occupied(20) {
		t.Fatal("emptied bucket still marked occupied")
	}
	e.Run()
	want := []int{1, 3, 30, 20, 21}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
}

// TestFreezeChurnKeepsArenaAtLiveSize: a freeze/resume churn — cancel a
// pending backoff, schedule its replacement — with no event ever fired
// reuses the canceled entries' slots, so the arena stays at the number of
// live timers.
func TestFreezeChurnKeepsArenaAtLiveSize(t *testing.T) {
	e := New()
	nop := func(Time) {}
	const live = 64
	timers := make([]Timer, live)
	for j := range timers {
		timers[j] = e.After(Time(1+j*13%512), nop)
	}
	for i := 0; i < 10000; i++ {
		j := i % live
		timers[j].Cancel()
		timers[j] = e.After(Time(1+(i*37)%512), nop)
	}
	if n := len(e.arena); n != live {
		t.Fatalf("arena holds %d slots after the churn, want %d", n, live)
	}
	if p := e.Pending(); p != live {
		t.Fatalf("Pending = %d, want %d", p, live)
	}
	if n := e.Run(); n != live {
		t.Fatalf("Run fired %d events, want %d", n, live)
	}
}
