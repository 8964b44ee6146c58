package experiment

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestFaultSweep(t *testing.T) {
	s := FaultSweep{
		Base:        tinyBase(),
		CrashFracs:  []float64{0, 0.2},
		LinkLoss:    0.05,
		CrashWindow: 300 * time.Millisecond,
		Reps:        2,
		Seed:        5,
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("points: %d", len(res.Points))
	}
	clean, faulty := res.Points[0], res.Points[1]
	if clean.Delivery.N != 2 || faulty.Delivery.N != 2 {
		t.Fatalf("missing repetitions: %+v / %+v", clean.Delivery, faulty.Delivery)
	}
	if clean.Delivery.Mean != 1 {
		t.Errorf("crash-free point delivered %v, want 1", clean.Delivery.Mean)
	}
	if faulty.Delivery.Mean >= 1 || faulty.Delivery.Mean <= 0 {
		t.Errorf("20%% crash point delivery %v, want in (0,1)", faulty.Delivery.Mean)
	}
	table := res.FormatTable()
	if !strings.Contains(table, "crash-frac") || !strings.Contains(table, "ext2") {
		t.Errorf("table malformed:\n%s", table)
	}
}

func TestFaultSweepDeterministic(t *testing.T) {
	s := FaultSweep{
		Base:        tinyBase(),
		CrashFracs:  []float64{0.2},
		LinkLoss:    0.05,
		CrashWindow: 300 * time.Millisecond,
		Reps:        2,
		Seed:        7,
	}
	a, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if a.Points[0].Delivery != b.Points[0].Delivery || a.Points[0].Delay != b.Points[0].Delay {
		t.Errorf("fault sweep not deterministic:\n%+v\n%+v", a.Points[0], b.Points[0])
	}
}

func TestFaultSweepEmpty(t *testing.T) {
	s := FaultSweep{Base: tinyBase()}
	if _, err := s.Run(); err == nil {
		t.Error("empty fault sweep accepted")
	}
}

// TestExtensionSweepsWorkerInvariant: the ext1 and ext2 summaries must not
// depend on how many workers ran the pairs or in which order they finished.
// Floating-point sums are order-sensitive, so the points summarize in
// repetition order regardless of completion order.
func TestExtensionSweepsWorkerInvariant(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		var chPoints [2][]ChannelPoint
		var faultPoints [2][]FaultPoint
		for i, workers := range []int{1, 4} {
			ch := ChannelSweep{Base: tinyBase(), Channels: []int{1, 3}, Reps: 8, Seed: seed, Workers: workers}
			chRes, err := ch.Run()
			if err != nil {
				t.Fatal(err)
			}
			fs := FaultSweep{
				Base:        tinyBase(),
				CrashFracs:  []float64{0.1, 0.25},
				LinkLoss:    0.05,
				CrashWindow: 300 * time.Millisecond,
				Reps:        8,
				Seed:        seed,
				Workers:     workers,
			}
			fsRes, err := fs.Run()
			if err != nil {
				t.Fatal(err)
			}
			chPoints[i], faultPoints[i] = chRes.Points, fsRes.Points
		}
		if !reflect.DeepEqual(chPoints[0], chPoints[1]) {
			t.Errorf("seed %d: channel sweep points differ between Workers=1 and Workers=4:\n%+v\n%+v", seed, chPoints[0], chPoints[1])
		}
		if !reflect.DeepEqual(faultPoints[0], faultPoints[1]) {
			t.Errorf("seed %d: fault sweep points differ between Workers=1 and Workers=4:\n%+v\n%+v", seed, faultPoints[0], faultPoints[1])
		}
	}
}

// pastDeadlineCtx is a context whose deadline has passed but whose timer has
// not fired yet: Deadline reports the past, Err still reports nil — the
// window ctxErr exists for.
type pastDeadlineCtx struct{ context.Context }

func (pastDeadlineCtx) Deadline() (time.Time, bool) { return time.Now().Add(-time.Second), true }

// TestFaultSweepHonorsLaggingDeadline: an expired deadline must stop the
// sweep before any pair runs even when ctx.Err() has not caught up, and the
// run must report the overrun instead of a clean result.
func TestFaultSweepHonorsLaggingDeadline(t *testing.T) {
	s := FaultSweep{
		Base:        tinyBase(),
		CrashFracs:  []float64{0, 0.2},
		CrashWindow: 300 * time.Millisecond,
		Reps:        2,
		Seed:        5,
	}
	res, err := s.RunContext(pastDeadlineCtx{context.Background()})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want one wrapping context.DeadlineExceeded", err)
	}
	for _, p := range res.Points {
		if p.Delivery.N != 0 || p.Failed != 0 || p.Deadlines != 0 {
			t.Fatalf("point f=%v ran pairs past the deadline: %+v", p.CrashFrac, p)
		}
	}
}
