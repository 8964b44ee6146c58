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
