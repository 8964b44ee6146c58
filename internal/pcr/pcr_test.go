package pcr

import (
	"math"
	"testing"

	"addcrn/internal/geom"
	"addcrn/internal/netmodel"
)

// compute is Compute for parameter sets the test knows valid.
func compute(t *testing.T, p netmodel.Params) Constants {
	t.Helper()
	c, err := Compute(p)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestC2Corrected(t *testing.T) {
	// alpha=4: c2 = 6 + 6*(2/sqrt(3))^4 / 2 = 6 + 6*(16/9)/2 = 6 + 16/3.
	want := 6 + 16.0/3
	if got := C2(4); math.Abs(got-want) > 1e-12 {
		t.Errorf("C2(4) = %v, want %v", got, want)
	}
	// The paper's printed (typo) form would be negative here; the
	// corrected constant must always be positive and exceed the first
	// layer's contribution of 6.
	for _, alpha := range []float64{2.1, 2.5, 3, 3.5, 4, 5, 6} {
		if c := C2(alpha); c <= 6 {
			t.Errorf("C2(%v) = %v, want > 6", alpha, c)
		}
	}
}

func TestC2DecreasesInAlpha(t *testing.T) {
	prev := math.Inf(1)
	for alpha := 2.2; alpha <= 6; alpha += 0.2 {
		c := C2(alpha)
		if c >= prev {
			t.Errorf("C2 not strictly decreasing at alpha=%v: %v >= %v", alpha, c, prev)
		}
		prev = c
	}
}

func TestComputeDefaults(t *testing.T) {
	p := Fig4Defaults()
	c, err := Compute(p)
	if err != nil {
		t.Fatal(err)
	}
	if c.C1 != 1 || c.C3 != 1 {
		t.Errorf("equal powers: c1=%v c3=%v, want 1, 1", c.C1, c.C3)
	}
	// kappa = max((1+(c2*eta)^(1/4))*1.2, 1+(c2*eta)^(1/4)) with R/r=1.2.
	eta := math.Pow(10, 1.0)
	base := 1 + math.Pow(C2(4)*eta, 0.25)
	wantKappa := base * 1.2
	if math.Abs(c.Kappa-wantKappa) > 1e-9 {
		t.Errorf("Kappa = %v, want %v", c.Kappa, wantKappa)
	}
	if math.Abs(c.Range-c.Kappa*p.RadiusSU) > 1e-9 {
		t.Errorf("Range = %v, want kappa*r = %v", c.Range, c.Kappa*p.RadiusSU)
	}
}

func TestComputeRejectsInvalid(t *testing.T) {
	p := Fig4Defaults()
	p.Alpha = 2
	if _, err := Compute(p); err == nil {
		t.Error("alpha=2 accepted")
	}
}

func TestKappaAsymmetricPowers(t *testing.T) {
	p := Fig4Defaults()
	p.PowerPU = 40 // PU louder than SU
	c := compute(t, p)
	if c.C1 != 1 {
		t.Errorf("c1 = %v, want 1 when P_p is max", c.C1)
	}
	if math.Abs(c.C3-10.0/40) > 1e-12 {
		t.Errorf("c3 = %v, want 0.25", c.C3)
	}
	// Louder PUs mean SU receivers need more protection: kappaSU grows.
	base := compute(t, Fig4Defaults())
	if c.KappaSU <= base.KappaSU {
		t.Errorf("KappaSU %v did not grow with PU power (base %v)", c.KappaSU, base.KappaSU)
	}
}

func TestRangeMonotoneInThresholds(t *testing.T) {
	// The paper notes PCR is non-decreasing in eta_p and eta_s.
	base := Fig4Defaults()
	prev := 0.0
	for etaDB := 2.0; etaDB <= 14; etaDB += 2 {
		p := base
		p.SIRThresholdPUdB = etaDB
		p.SIRThresholdSUdB = etaDB
		c := compute(t, p)
		if c.Range < prev {
			t.Errorf("PCR decreased at eta=%vdB: %v < %v", etaDB, c.Range, prev)
		}
		prev = c.Range
	}
}

func TestRangeMonotoneInRadii(t *testing.T) {
	base := Fig4Defaults()
	prev := 0.0
	for r := 6.0; r <= 16; r += 2 {
		p := base
		p.RadiusPU = r
		c := compute(t, p)
		if c.Range < prev {
			t.Errorf("PCR decreased in R at %v", r)
		}
		prev = c.Range
	}
}

func TestAlphaEffectMatchesPaper(t *testing.T) {
	// Paper (Fig. 4 discussion): the PCR is bigger at alpha=3 than at
	// alpha=4 because weaker path loss spreads interference farther.
	p3, p4 := Fig4Defaults(), Fig4Defaults()
	p3.Alpha = 3
	c3, c4 := compute(t, p3), compute(t, p4)
	if c3.Range <= c4.Range {
		t.Errorf("PCR(alpha=3)=%v not larger than PCR(alpha=4)=%v", c3.Range, c4.Range)
	}
}

// TestC2BoundsHexagonInterference verifies the corrected c2 really upper
// bounds the interference sum over the proof's worst-case hexagon packing:
// transmitters on a triangular lattice with spacing exactly R_cs, receiver
// within R of the central transmitter.
func TestC2BoundsHexagonInterference(t *testing.T) {
	for _, alpha := range []float64{2.5, 3, 3.5, 4, 5} {
		for _, rcs := range []float64{20.0, 40, 80} {
			recvR := 10.0 // receiver distance from its transmitter
			f := rcs - recvR
			bound := HexagonInterferenceBound(alpha, f)

			// Build a triangular lattice (hexagon packing) of transmitters
			// around the origin with spacing rcs, 40 layers deep.
			var sum float64
			rx := geom.Point{X: recvR, Y: 0} // worst case: receiver toward the ring
			const layers = 40
			for i := -layers; i <= layers; i++ {
				for j := -layers; j <= layers; j++ {
					if i == 0 && j == 0 {
						continue // the central transmitter is the signal
					}
					// Triangular lattice basis vectors of length rcs.
					x := (float64(i) + float64(j)/2) * rcs
					y := float64(j) * math.Sqrt(3) / 2 * rcs
					sum += math.Pow(geom.Point{X: x, Y: y}.Dist(rx), -alpha)
				}
			}
			if sum > bound {
				t.Errorf("alpha=%v rcs=%v: lattice interference %v exceeds c2 bound %v",
					alpha, rcs, sum, bound)
			}
			// The bound should not be absurdly loose either (within ~300x
			// guards against regressions that inflate c2).
			if bound > sum*300 {
				t.Errorf("alpha=%v rcs=%v: bound %v implausibly loose vs %v", alpha, rcs, bound, sum)
			}
		}
	}
}

func TestFig4Series(t *testing.T) {
	base := Fig4Defaults()
	xs := []float64{5, 10, 15}
	series, err := Fig4Series(base, SweepPowerPU, xs, []float64{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 || len(series[0]) != 3 {
		t.Fatalf("series shape %dx%d", len(series), len(series[0]))
	}
	for ai, alpha := range []float64{3, 4} {
		for i, x := range xs {
			pt := series[ai][i]
			if pt.X != x || pt.Alpha != alpha {
				t.Errorf("point labels wrong: %+v", pt)
			}
			p := base
			p.PowerPU = x
			p.Alpha = alpha
			want := compute(t, p)
			if pt.PCR != want.Range || pt.Kappa != want.Kappa {
				t.Errorf("series value mismatch at x=%v alpha=%v", x, alpha)
			}
		}
	}
}

func TestFig4SeriesRejectsInvalid(t *testing.T) {
	base := Fig4Defaults()
	if _, err := Fig4Series(base, SweepRadiusSU, []float64{0}, []float64{4}); err == nil {
		t.Error("r=0 accepted")
	}
}

func TestSweepVarApplyAndString(t *testing.T) {
	base := Fig4Defaults()
	tests := []struct {
		v   SweepVar
		get func(netmodel.Params) float64
	}{
		{SweepPowerPU, func(p netmodel.Params) float64 { return p.PowerPU }},
		{SweepPowerSU, func(p netmodel.Params) float64 { return p.PowerSU }},
		{SweepEtaPU, func(p netmodel.Params) float64 { return p.SIRThresholdPUdB }},
		{SweepEtaSU, func(p netmodel.Params) float64 { return p.SIRThresholdSUdB }},
		{SweepRadiusPU, func(p netmodel.Params) float64 { return p.RadiusPU }},
		{SweepRadiusSU, func(p netmodel.Params) float64 { return p.RadiusSU }},
	}
	for _, tt := range tests {
		got := tt.v.apply(base, 42)
		if tt.get(got) != 42 {
			t.Errorf("%v.apply did not set the field", tt.v)
		}
		if tt.v.String() == "" {
			t.Errorf("empty string for %d", tt.v)
		}
	}
	if SweepVar(99).String() == "" {
		t.Error("unknown sweep var has empty string")
	}
}
