package spectrum

import (
	"addcrn/internal/sim"
)

// busyIntegral accumulates ∫ numActive dt incrementally: the PU model calls
// update with the pre-transition active count at each state change, and
// fraction divides the integral by capacity·elapsed to yield the
// time-averaged fraction of transmitters that were busy. The arithmetic is
// pure integer (transmitter-microseconds), so the observed busy fraction is
// exactly reproducible across runs.
type busyIntegral struct {
	last sim.Time
	acc  int64 // transmitter-microseconds
}

// update advances the integral to now with active transmitters busy since
// the last update.
func (b *busyIntegral) update(now sim.Time, active int) {
	b.acc += int64(now-b.last) * int64(active)
	b.last = now
}

// fraction finalizes the integral at now (with active currently busy) and
// returns acc / (capacity * now); zero capacity or zero elapsed time yields 0.
func (b *busyIntegral) fraction(now sim.Time, active, capacity int) float64 {
	b.update(now, active)
	if capacity <= 0 || now <= 0 {
		return 0
	}
	return float64(b.acc) / (float64(capacity) * float64(now))
}
