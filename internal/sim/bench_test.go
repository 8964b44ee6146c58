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

// BenchmarkArenaChurn measures the cancel/re-arm cycle the carrier-sense
// freeze path drives constantly: every iteration cancels a pending timer
// (eager heap removal + slot release) and schedules a replacement (slot
// reuse off the free list). Steady state must not allocate.
func BenchmarkArenaChurn(b *testing.B) {
	e := New()
	const live = 256 // one backoff timer per node at a mid-size operating point
	timers := make([]Timer, live)
	for j := range timers {
		timers[j] = e.After(Time(1000+j*13%512), func(Time) {})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % live
		timers[j].Cancel()
		timers[j] = e.After(Time(1000+(i*37)%512), func(Time) {})
	}
}

// BenchmarkResetReuse measures workspace-style engine recycling: fill the
// arena, drain it, Reset, repeat. The arena, free list, and heap backings
// must be retained across iterations.
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
