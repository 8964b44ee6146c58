package sim

import "testing"

// BenchmarkScheduleAndRun measures raw event throughput: schedule and drain
// 1024 events per iteration.
func BenchmarkScheduleAndRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := New()
		for j := 0; j < 1024; j++ {
			e.After(Time(j*37%4096), func(Time) {})
		}
		e.Run()
	}
}

// BenchmarkRearm measures the self-rescheduling pattern every PU activity
// process and backoff timer uses.
func BenchmarkRearm(b *testing.B) {
	e := New()
	count := 0
	var rearm func(now Time)
	rearm = func(now Time) {
		count++
		if count < b.N {
			e.After(7, rearm)
		}
	}
	e.After(7, rearm)
	b.ResetTimer()
	e.Run()
}

// BenchmarkArenaChurn measures the cancel/re-arm pair the carrier-sense
// freeze path drives constantly: every iteration cancels a pending timer
// (unlinking it from its bucket and freeing its slot) and schedules a
// replacement, which reuses that slot. Every 64 iterations a RunUntil
// advances the clock by 64 µs — a no-op event pins it to the deadline —
// and fires the timers that came due, so the queue holds about the 256
// live timers and B/op reads 0.
func BenchmarkArenaChurn(b *testing.B) {
	e := New()
	nop := func(Time) {}
	const live = 256 // one backoff timer per node at a mid-size operating point
	timers := make([]Timer, live)
	for j := range timers {
		timers[j] = e.After(Time(1000+j*13%512), nop)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var until Time
	for i := 0; i < b.N; i++ {
		j := i % live
		timers[j].Cancel()
		timers[j] = e.After(Time(1000+(i*37)%512), nop)
		if i%64 == 63 {
			until += 64
			e.After(until-e.Now(), nop)
			e.RunUntil(until)
		}
	}
}

// BenchmarkResetReuse measures workspace-style engine recycling: fill the
// arena, drain it, Reset, repeat. The arena, free list, and overflow heap
// backings must be retained across iterations.
func BenchmarkResetReuse(b *testing.B) {
	e := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 512; j++ {
			e.After(Time(j%97), func(Time) {})
		}
		e.Run()
		e.Reset()
	}
}

// BenchmarkSlotted drives the event shape of a collection run, one Step per
// op: 32 PUs toggle on 1 ms slot boundaries after runs of 1–8 slots (the
// longer runs overflow the wheel), and 256 SUs each hold a sub-slot backoff
// that re-arms when it fires. Every PU toggle freezes its 20 neighboring
// SUs: their backoffs are canceled and re-armed from the next slot, so
// the engine unlinks about 0.7 canceled entries per fired event (reported
// as cancels/step).
func BenchmarkSlotted(b *testing.B) {
	const pus, sus, freeze, slot = 32, 256, 20, Millisecond
	e := New()
	x := uint64(0x9e3779b97f4a7c15)
	draw := func(n Time) Time {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return Time(x % uint64(n))
	}
	backoff := make([]Timer, sus)
	suFn := make([]EventFunc, sus)
	for i := range suFn {
		suFn[i] = func(now Time) { backoff[i] = e.After(slot/2+draw(slot/2), suFn[i]) }
		backoff[i] = e.After(draw(slot/2), suFn[i])
	}
	canceled := 0
	puFn := make([]EventFunc, pus)
	for j := range puFn {
		puFn[j] = func(now Time) {
			next := (now/slot + 1) * slot
			e.At(next+slot*draw(8), puFn[j])
			for k := 0; k < freeze; k++ {
				i := (j*freeze + k) % sus
				if backoff[i].Active() {
					canceled++
				}
				backoff[i].Cancel()
				backoff[i], _ = e.At(next+draw(slot/2), suFn[i])
			}
		}
		e.At(slot*(1+draw(8)), puFn[j])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
	b.ReportMetric(float64(canceled)/float64(b.N), "cancels/step")
}
