package experiment

import (
	"math"
	"strings"
	"testing"
	"time"

	"addcrn/internal/netmodel"
)

func tinyBase() netmodel.Params {
	p := netmodel.ScaledDefaultParams()
	p.NumSU = 80
	p.Area = 55
	p.NumPU = 3
	return p
}

func TestNewFigureSweepAll(t *testing.T) {
	base := tinyBase()
	for _, id := range FigureIDs {
		s, err := NewFigureSweep(id, base, 1)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if s.Title == "" || s.XLabel == "" || len(s.Xs) < 3 || s.Apply == nil {
			t.Errorf("%s: incomplete sweep definition %+v", id, s)
		}
		// Apply must change exactly the intended knob.
		p := s.Apply(base, s.Xs[0])
		if p == base && s.Xs[0] != sweepCurrent(base, id) {
			t.Errorf("%s: Apply had no effect", id)
		}
	}
}

func sweepCurrent(p netmodel.Params, id string) float64 {
	switch id {
	case "6a":
		return float64(p.NumPU)
	case "6b":
		return float64(p.NumSU)
	case "6c":
		return p.ActiveProb
	case "6d":
		return p.Alpha
	case "6e":
		return p.PowerPU
	case "6f":
		return p.PowerSU
	}
	return math.NaN()
}

// Every figure's own axis is a valid grid at both operating points, so the
// grid check refuses only what a caller put there; a count axis refuses a
// fraction, every axis a non-finite x, and a limit what lies beyond it.
func TestCheckGrid(t *testing.T) {
	ids := append(append([]string(nil), FigureIDs...), "ext1", "ext2")
	for _, base := range []netmodel.Params{netmodel.ScaledDefaultParams(), netmodel.DefaultParams()} {
		for _, id := range ids {
			s, err := NewFigureSweep(id, base, 1)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.CheckGrid(Limits{}); err != nil {
				t.Errorf("%s at n = %d: default axis refused: %v", id, base.NumSU, err)
			}
		}
	}
	for _, tc := range []struct {
		id  string
		x   float64
		lim Limits
		ok  bool
	}{
		{"6a", 3, Limits{}, true},
		{"6a", 2.5, Limits{}, false},
		{"6a", 4, Limits{NumPU: 3}, false},
		{"6b", 80, Limits{NumSU: 80}, true},
		{"6b", 81, Limits{NumSU: 80}, false},
		{"6b", 1e12, Limits{}, false},
		{"6c", 0.25, Limits{}, true},
		{"6c", math.NaN(), Limits{}, false},
		{"6c", math.Inf(-1), Limits{}, false},
		{"6c", 0.25, Limits{GridCells: 10}, false},
		{"ext1", 4, Limits{Channels: 4}, true},
		{"ext1", 5, Limits{Channels: 4}, false},
		{"ext1", 0, Limits{}, false},
		{"ext1", 1.5, Limits{}, false},
		{"ext2", 0.15, Limits{}, true},
		{"ext2", 1.5, Limits{}, false},
		{"ext2", -0.05, Limits{}, false},
	} {
		s, err := NewFigureSweep(tc.id, tinyBase(), 1)
		if err != nil {
			t.Fatal(err)
		}
		s.Xs = []float64{tc.x}
		if err := s.CheckGrid(tc.lim); (err == nil) != tc.ok {
			t.Errorf("%s x = %v under %+v: CheckGrid = %v, want accepted = %v", tc.id, tc.x, tc.lim, err, tc.ok)
		}
	}
}

func TestNewFigureSweepUnknown(t *testing.T) {
	if _, err := NewFigureSweep("9z", tinyBase(), 1); err == nil {
		t.Error("unknown figure accepted")
	}
}

func TestSweepRunTiny(t *testing.T) {
	s := &Sweep{
		ID:     "tiny",
		Title:  "tiny sweep",
		XLabel: "p_t",
		Base:   tinyBase(),
		Xs:     []float64{0.1, 0.2},
		Apply: func(p netmodel.Params, x float64) netmodel.Params {
			p.ActiveProb = x
			return p
		},
		Reps:           2,
		Seed:           1,
		MaxVirtualTime: 10 * time.Minute,
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("points: %d", len(res.Points))
	}
	for _, p := range res.Points {
		if p.ADDCDelay.N != 2 || p.CoolestDelay.N != 2 {
			t.Errorf("x=%v: reps addc=%d coolest=%d failed=%d",
				p.X, p.ADDCDelay.N, p.CoolestDelay.N, p.Failed)
		}
		if p.ADDCDelay.Mean <= 0 || p.CoolestDelay.Mean <= 0 {
			t.Errorf("x=%v: non-positive delays", p.X)
		}
		if r := p.DelayRatio(); math.IsNaN(r) || r <= 0 {
			t.Errorf("x=%v: ratio %v", p.X, r)
		}
		if p.ADDCTightness.N != 2 || p.ADDCTightness.Mean <= 0 || p.ADDCTightness.Mean > 1.05 {
			t.Errorf("x=%v: tightness summary %+v", p.X, p.ADDCTightness)
		}
		if p.ADDCPUBusy.N != 2 || p.ADDCPUBusy.Mean < 0 || p.ADDCPUBusy.Mean > 1 {
			t.Errorf("x=%v: pu-busy summary %+v", p.X, p.ADDCPUBusy)
		}
		if p.ADDCFairness.N != 2 || p.ADDCFairness.Mean <= 0 || p.ADDCFairness.Mean > 1 {
			t.Errorf("x=%v: fairness summary %+v", p.X, p.ADDCFairness)
		}
	}
	if res.MeanDelayRatio() <= 0 {
		t.Error("mean ratio non-positive")
	}

	table := res.FormatTable()
	if !strings.Contains(table, "tiny sweep") || !strings.Contains(table, "p_t") {
		t.Errorf("table missing headers:\n%s", table)
	}
	csv := res.FormatCSV()
	if !strings.HasPrefix(csv, "x,") || strings.Count(csv, "\n") != 3 {
		t.Errorf("csv malformed:\n%s", csv)
	}
}

func TestSweepRunDeterministic(t *testing.T) {
	mk := func() *SweepResult {
		s := &Sweep{
			ID:     "det",
			Title:  "det",
			XLabel: "x",
			Base:   tinyBase(),
			Xs:     []float64{0.15},
			Apply: func(p netmodel.Params, x float64) netmodel.Params {
				p.ActiveProb = x
				return p
			},
			Reps: 2,
			Seed: 7,
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := mk(), mk()
	if a.Points[0].ADDCDelay.Mean != b.Points[0].ADDCDelay.Mean {
		t.Error("sweep not deterministic across runs")
	}
}

func TestSweepSameMACMode(t *testing.T) {
	s := &Sweep{
		ID:     "ablate",
		Title:  "routing-only ablation",
		XLabel: "x",
		Base:   tinyBase(),
		Xs:     []float64{0.2},
		Apply: func(p netmodel.Params, x float64) netmodel.Params {
			p.ActiveProb = x
			return p
		},
		Reps:    2,
		Seed:    3,
		SameMAC: true,
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Points[0].CoolestDelay.N == 0 {
		t.Error("same-MAC sweep produced no Coolest results")
	}
}

func TestSweepNoXs(t *testing.T) {
	s := &Sweep{ID: "empty", Base: tinyBase()}
	if _, err := s.Run(); err == nil {
		t.Error("empty sweep accepted")
	}
}

func TestBoundsCheck(t *testing.T) {
	check := BoundsCheck{
		Base:       tinyBase(),
		StandAlone: true,
		Reps:       2,
		Seed:       1,
	}
	res, err := check.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxServiceSlots.Max > res.Theorem1Slots {
		t.Errorf("Theorem 1 violated: %v > %v", res.MaxServiceSlots.Max, res.Theorem1Slots)
	}
	if res.DelaySlots.Max > res.Theorem2Slots {
		t.Errorf("Theorem 2 violated: %v > %v", res.DelaySlots.Max, res.Theorem2Slots)
	}
	if res.Capacity.Mean < res.CapacityLower {
		t.Errorf("capacity below order-optimal lower bound: %v < %v",
			res.Capacity.Mean, res.CapacityLower)
	}
	if res.Capacity.Mean > res.CapacityUpper {
		t.Errorf("capacity above W: %v > %v", res.Capacity.Mean, res.CapacityUpper)
	}
	out := res.Format()
	if !strings.Contains(out, "Theorem 1") || !strings.Contains(out, "Theorem 2") {
		t.Errorf("format incomplete:\n%s", out)
	}
}

func TestBoundsCheckWithPUs(t *testing.T) {
	check := BoundsCheck{Base: tinyBase(), Reps: 2, Seed: 2}
	res, err := check.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxTreeDegree <= 0 {
		t.Error("no realized tree degree")
	}
}

func TestSweepSVG(t *testing.T) {
	s := &Sweep{
		ID:     "svg",
		Title:  "svg sweep",
		XLabel: "x",
		Base:   tinyBase(),
		Xs:     []float64{0.1, 0.2},
		Apply: func(p netmodel.Params, x float64) netmodel.Params {
			p.ActiveProb = x
			return p
		},
		Reps: 1,
		Seed: 9,
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	svg, err := res.SVG()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"<svg", "ADDC", "Coolest", "svg sweep"} {
		if !strings.Contains(svg, want) {
			t.Errorf("SVG missing %q", want)
		}
	}
}

func TestDeliveryCurves(t *testing.T) {
	svg, err := DeliveryCurves(tinyBase(), 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"<svg", "ADDC", "Coolest", "packets delivered"} {
		if !strings.Contains(svg, want) {
			t.Errorf("delivery curve SVG missing %q", want)
		}
	}
}
