package sim

import (
	"sort"
	"testing"
	"testing/quick"
)

// quickDelay spreads a raw delay over 0–8671 µs, past two wheel spans, in
// 300 distinct values so equal times still occur in small batches.
func quickDelay(d uint16) Time { return Time(d%300) * 29 }

// TestQuickExecutionOrder property-tests the engine's core contract: for
// any batch of scheduled delays, events fire in nondecreasing time order,
// with FIFO order among equal times, and the clock ends at the maximum.
func TestQuickExecutionOrder(t *testing.T) {
	f := func(rawDelays []uint16) bool {
		e := New()
		type fired struct {
			at  Time
			seq int
		}
		var log []fired
		for i, d := range rawDelays {
			i := i
			e.After(quickDelay(d), func(now Time) {
				log = append(log, fired{at: now, seq: i})
			})
		}
		e.Run()
		if len(log) != len(rawDelays) {
			return false
		}
		// Sorted by (time, then insertion sequence).
		ok := sort.SliceIsSorted(log, func(a, b int) bool {
			if log[a].at != log[b].at {
				return log[a].at < log[b].at
			}
			return log[a].seq < log[b].seq
		})
		if !ok {
			return false
		}
		var maxT Time
		for _, d := range rawDelays {
			if quickDelay(d) > maxT {
				maxT = quickDelay(d)
			}
		}
		return len(log) == 0 || e.Now() == maxT
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickCancellation property-tests that canceling an arbitrary subset
// leaves exactly the complement to fire. Delays reach 9435 µs, past two
// wheel spans.
func TestQuickCancellation(t *testing.T) {
	f := func(delays []uint8, cancelMask []bool) bool {
		e := New()
		firedCount := 0
		var timers []Timer
		for _, d := range delays {
			timers = append(timers, e.After(Time(d)*37, func(Time) { firedCount++ }))
		}
		want := len(delays)
		for i, timer := range timers {
			if i < len(cancelMask) && cancelMask[i] {
				timer.Cancel()
				want--
			}
		}
		e.Run()
		return firedCount == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
