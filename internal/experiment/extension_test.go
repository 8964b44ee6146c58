package experiment

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"addcrn/internal/geom"
	"addcrn/internal/rng"
)

// extensionTestSweep returns the ext1 or ext2 figure at the tiny operating
// point over xs, with two repetitions.
func extensionTestSweep(t *testing.T, id string, seed uint64, xs ...float64) *Sweep {
	t.Helper()
	s, err := NewFigureSweep(id, tinyBase(), seed)
	if err != nil {
		t.Fatal(err)
	}
	s.Xs = xs
	s.Reps = 2
	return s
}

func TestChannelSweep(t *testing.T) {
	s := extensionTestSweep(t, "ext1", 5, 1, 2)
	s.Checkpoint = filepath.Join(t.TempDir(), "cp.jsonl")
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("points: %d", len(res.Points))
	}
	for _, p := range res.Points {
		if p.ADDCDelay.N != 2 || p.ADDCDelay.Mean <= 0 || p.CoolestDelay.N != 0 {
			t.Errorf("C=%v: ADDC %+v, Coolest %+v", p.X, p.ADDCDelay, p.CoolestDelay)
		}
		if p.ADDCDelivery.Mean != 1 {
			t.Errorf("C=%v: fault-free delivery %v, want 1", p.X, p.ADDCDelivery.Mean)
		}
	}
	if res.Points[0].ADDCDeafness.Mean != 0 || res.Points[1].ADDCDeafness.Mean == 0 {
		t.Errorf("deafness losses: C=1 %v (want 0), C=2 %v (want > 0)",
			res.Points[0].ADDCDeafness.Mean, res.Points[1].ADDCDeafness.Mean)
	}
	jr, err := LoadJournal(s.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	if jr.Len() != 4 {
		t.Fatalf("journal holds %d entries, want one ADDC entry per pair (4)", jr.Len())
	}
	table := res.FormatTable()
	if !strings.Contains(table, "channels") || !strings.Contains(table, "ext1") || strings.Contains(table, "Coolest") {
		t.Errorf("table malformed:\n%s", table)
	}
}

func TestChannelSweepEmpty(t *testing.T) {
	if _, err := extensionTestSweep(t, "ext1", 5).Run(); err == nil {
		t.Error("empty channel sweep accepted")
	}
}

func TestFaultSweep(t *testing.T) {
	res, err := extensionTestSweep(t, "ext2", 5, 0, 0.2).Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("points: %d", len(res.Points))
	}
	clean, faulty := res.Points[0], res.Points[1]
	if clean.ADDCDelivery.N != 2 || faulty.ADDCDelivery.N != 2 {
		t.Fatalf("missing repetitions: %+v / %+v", clean.ADDCDelivery, faulty.ADDCDelivery)
	}
	if clean.ADDCDelivery.Mean != 1 {
		t.Errorf("crash-free point delivered %v, want 1", clean.ADDCDelivery.Mean)
	}
	if faulty.ADDCDelivery.Mean >= 1 || faulty.ADDCDelivery.Mean <= 0 {
		t.Errorf("20%% crash point delivery %v, want in (0,1)", faulty.ADDCDelivery.Mean)
	}
	if faulty.ADDCRepairs.Mean == 0 {
		t.Error("20% crash point made no repairs")
	}
	table := res.FormatTable()
	if !strings.Contains(table, "crash-frac") || !strings.Contains(table, "ext2") {
		t.Errorf("table malformed:\n%s", table)
	}
	csv := res.FormatCSV()
	if !strings.HasPrefix(csv, "x,addc_delay_mean,addc_delay_ci95,addc_delivery_mean,") || strings.Contains(csv, "coolest") {
		t.Errorf("CSV malformed:\n%s", csv)
	}
}

func TestFaultSweepDeterministic(t *testing.T) {
	a, err := extensionTestSweep(t, "ext2", 7, 0.2).Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := extensionTestSweep(t, "ext2", 7, 0.2).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Points, b.Points) {
		t.Errorf("fault sweep not deterministic:\n%+v\n%+v", a.Points, b.Points)
	}
}

func TestFaultSweepEmpty(t *testing.T) {
	if _, err := extensionTestSweep(t, "ext2", 5).Run(); err == nil {
		t.Error("empty fault sweep accepted")
	}
}

// TestExtensionSweepsWorkerInvariant: the ext1 and ext2 summaries must not
// depend on how many workers ran the pairs or in which order they finished.
// Floating-point sums are order-sensitive, so the points summarize in
// repetition order regardless of completion order.
func TestExtensionSweepsWorkerInvariant(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		for _, fig := range []struct {
			id string
			xs []float64
		}{{"ext1", []float64{1, 3}}, {"ext2", []float64{0.1, 0.25}}} {
			var points [2][]PointResult
			for i, workers := range []int{1, 4} {
				s := extensionTestSweep(t, fig.id, seed, fig.xs...)
				s.Reps = 8
				s.Workers = workers
				res, err := s.Run()
				if err != nil {
					t.Fatal(err)
				}
				points[i] = res.Points
			}
			if !reflect.DeepEqual(points[0], points[1]) {
				t.Errorf("seed %d: %s points differ between Workers=1 and Workers=4:\n%+v\n%+v",
					seed, fig.id, points[0], points[1])
			}
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
	res, err := extensionTestSweep(t, "ext2", 5, 0, 0.2).RunContext(pastDeadlineCtx{context.Background()})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want one wrapping context.DeadlineExceeded", err)
	}
	for _, p := range res.Points {
		if p.ADDCDelay.N != 0 || p.Failed != 0 {
			t.Fatalf("point f=%v ran pairs past the deadline: %+v", p.X, p)
		}
	}
}

// TestSharedTopologyImmutable pins the contract topo.go rests on: a
// ShareTopology ext2 sweep whose crashes force self-healing repairs leaves
// the cached Topology's routing tree and node positions untouched.
func TestSharedTopologyImmutable(t *testing.T) {
	s := extensionTestSweep(t, "ext2", 3, 0.2, 0.3)
	s.ShareTopology = true
	cache := newTopoCache()
	var topos []*Topology
	var parents [][]int32
	var sus [][]geom.Point
	for rep := 0; rep < s.Reps; rep++ {
		topo, err := cache.get(s.Base, rng.ChildSeedN(s.Seed, "sweep/ext2/topo", rep))
		if err != nil {
			t.Fatal(err)
		}
		topos = append(topos, topo)
		parents = append(parents, append([]int32(nil), topo.Tree.Parent...))
		sus = append(sus, append([]geom.Point(nil), topo.NW.SU...))
	}
	res, err := s.runWith(context.Background(), cache)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Points {
		if p.ADDCDelay.N != s.Reps || p.ADDCRepairs.Min == 0 {
			t.Fatalf("crash fraction %v: repairs %+v over %d reps; immutability coverage is vacuous", p.X, p.ADDCRepairs, p.ADDCDelay.N)
		}
	}
	if st := cache.stats(); st.Misses != int64(s.Reps) {
		t.Fatalf("cache stats %+v: the sweep built its own topologies instead of sharing the cached ones", st)
	}
	for rep, topo := range topos {
		if !reflect.DeepEqual(parents[rep], topo.Tree.Parent) {
			t.Errorf("rep %d: fault runs mutated the cached routing tree's parent slice", rep)
		}
		if !reflect.DeepEqual(sus[rep], topo.NW.SU) {
			t.Errorf("rep %d: fault runs mutated the cached network's positions", rep)
		}
	}
}
