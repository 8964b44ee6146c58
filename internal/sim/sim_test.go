package sim

import (
	"testing"
	"time"
)

func TestTimeConversions(t *testing.T) {
	if FromDuration(time.Millisecond) != Millisecond {
		t.Error("FromDuration(1ms) != Millisecond")
	}
	if Millisecond.Duration() != time.Millisecond {
		t.Error("Millisecond.Duration() != 1ms")
	}
	if Second.Seconds() != 1 {
		t.Errorf("Second.Seconds() = %v", Second.Seconds())
	}
	if got := Time(2500).Slots(1000); got != 2 {
		t.Errorf("Slots = %d, want 2", got)
	}
}

func TestScheduleAndRun(t *testing.T) {
	e := New()
	var order []int
	e.After(30, func(Time) { order = append(order, 3) })
	e.After(10, func(Time) { order = append(order, 1) })
	e.After(20, func(Time) { order = append(order, 2) })
	if n := e.Run(); n != 3 {
		t.Errorf("Run executed %d events", n)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
	if e.Now() != 30 {
		t.Errorf("clock at %d, want 30", e.Now())
	}
}

func TestTieBreakFIFO(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.After(5, func(Time) { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("ties not FIFO: %v", order)
		}
	}
}

func TestClockMonotonic(t *testing.T) {
	e := New()
	last := Time(-1)
	var schedule func(depth int)
	schedule = func(depth int) {
		if depth == 0 {
			return
		}
		e.After(Time(depth*3%7), func(now Time) {
			if now < last {
				t.Errorf("clock went backwards: %d after %d", now, last)
			}
			last = now
			schedule(depth - 1)
		})
	}
	schedule(50)
	e.Run()
}

func TestAtPastRejected(t *testing.T) {
	e := New()
	e.After(10, func(Time) {})
	e.Run()
	if _, err := e.At(5, func(Time) {}); err != ErrPast {
		t.Errorf("scheduling in the past: %v", err)
	}
	if _, err := e.At(e.Now(), func(Time) {}); err != nil {
		t.Errorf("scheduling at now rejected: %v", err)
	}
}

func TestNilEventRejected(t *testing.T) {
	e := New()
	if _, err := e.At(1, nil); err == nil {
		t.Error("nil event accepted")
	}
}

func TestAfterNegativeClamps(t *testing.T) {
	e := New()
	fired := false
	e.After(-5, func(now Time) {
		fired = true
		if now != 0 {
			t.Errorf("fired at %d, want 0", now)
		}
	})
	e.Run()
	if !fired {
		t.Error("clamped event did not fire")
	}
}

func TestCancel(t *testing.T) {
	e := New()
	fired := false
	timer := e.After(10, func(Time) { fired = true })
	if !timer.Active() {
		t.Error("fresh timer not active")
	}
	timer.Cancel()
	if timer.Active() {
		t.Error("canceled timer still active")
	}
	timer.Cancel() // double cancel is a no-op
	e.Run()
	if fired {
		t.Error("canceled event fired")
	}
	var zero Timer
	zero.Cancel() // zero timer cancel must not panic
	if zero.Active() {
		t.Error("zero timer active")
	}
	if zero.When() != 0 {
		t.Error("zero timer When != 0")
	}
}

func TestCancelSkipsWithoutCountingSteps(t *testing.T) {
	e := New()
	a := e.After(1, func(Time) {})
	e.After(2, func(Time) {})
	a.Cancel()
	e.Run()
	if e.Steps() != 1 {
		t.Errorf("Steps = %d, want 1", e.Steps())
	}
}

func TestTimerWhen(t *testing.T) {
	e := New()
	timer := e.After(25, func(Time) {})
	if timer.When() != 25 {
		t.Errorf("When = %d, want 25", timer.When())
	}
}

func TestRunUntil(t *testing.T) {
	e := New()
	var fired []Time
	for _, at := range []Time{5, 10, 15, 20} {
		e.After(at, func(now Time) { fired = append(fired, now) })
	}
	n := e.RunUntil(12)
	if n != 2 {
		t.Errorf("RunUntil executed %d events, want 2", n)
	}
	if len(fired) != 2 || fired[1] != 10 {
		t.Errorf("fired = %v", fired)
	}
	if e.Pending() != 2 {
		t.Errorf("Pending = %d, want 2", e.Pending())
	}
	e.Run()
	if len(fired) != 4 {
		t.Errorf("remaining events not run: %v", fired)
	}
}

func TestStepEmptyQueue(t *testing.T) {
	e := New()
	if e.Step() {
		t.Error("Step on empty queue returned true")
	}
}

func TestRescheduleFromEvent(t *testing.T) {
	e := New()
	count := 0
	var rearm func(now Time)
	rearm = func(now Time) {
		count++
		if count < 5 {
			e.After(7, rearm)
		}
	}
	e.After(7, rearm)
	e.Run()
	if count != 5 {
		t.Errorf("re-armed event fired %d times, want 5", count)
	}
	if e.Now() != 35 {
		t.Errorf("clock at %d, want 35", e.Now())
	}
}

func TestDeterminism(t *testing.T) {
	runOnce := func() []Time {
		e := New()
		var log []Time
		for i := 0; i < 100; i++ {
			d := Time((i * 37) % 13)
			e.After(d, func(now Time) { log = append(log, now) })
		}
		e.Run()
		return log
	}
	a, b := runOnce(), runOnce()
	if len(a) != len(b) {
		t.Fatal("run lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at event %d", i)
		}
	}
}

func TestCancelDuringSameTick(t *testing.T) {
	// An event at time T cancels another event also scheduled at T but
	// later in FIFO order; the second must not fire.
	e := New()
	fired := false
	var victim Timer
	e.After(10, func(Time) { victim.Cancel() })
	victim = e.After(10, func(Time) { fired = true })
	e.Run()
	if fired {
		t.Error("same-tick canceled event fired")
	}
}

// Slots returns how many whole slots of length slot have fully elapsed at t.
func (t Time) Slots(slot Time) int64 { return int64(t / slot) }

// Active reports whether the event is still pending.
func (t Timer) Active() bool {
	if t.eng == nil {
		return false
	}
	en := &t.eng.arena[t.idx]
	return en.gen == t.gen && en.fn != nil
}

// Pending returns the number of queued events: the arena entries that still
// hold a body. Lazily canceled and released entries do not count.
func (e *Engine) Pending() int {
	n := 0
	for i := range e.arena {
		if e.arena[i].fn != nil {
			n++
		}
	}
	return n
}
