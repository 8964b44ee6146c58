package theory

import (
	"math"
	"testing"

	"addcrn/internal/netmodel"
	"addcrn/internal/pcr"
)

func TestBetaValues(t *testing.T) {
	// beta_0 = 1; beta_1 = 2pi/sqrt(3) + pi + 1.
	if got := Beta(0); math.Abs(got-1) > 1e-12 {
		t.Errorf("Beta(0) = %v", got)
	}
	want := 2*math.Pi/math.Sqrt(3) + math.Pi + 1
	if got := Beta(1); math.Abs(got-want) > 1e-12 {
		t.Errorf("Beta(1) = %v, want %v", got, want)
	}
}

func TestBetaMonotone(t *testing.T) {
	prev := 0.0
	for x := 0.0; x < 20; x += 0.5 {
		b := Beta(x)
		if b <= prev {
			t.Fatalf("Beta not increasing at %v", x)
		}
		prev = b
	}
}

func TestBetaIsPackingBound(t *testing.T) {
	// A hexagonal packing of unit-spaced points inside a disk of radius x
	// must contain at most Beta(x) points (Lemma 4).
	for _, x := range []float64{2, 5, 10} {
		count := 0
		limit := int(x) + 2
		for i := -2 * limit; i <= 2*limit; i++ {
			for j := -2 * limit; j <= 2*limit; j++ {
				px := float64(i) + float64(j)/2
				py := float64(j) * math.Sqrt(3) / 2
				if px*px+py*py <= x*x {
					count++
				}
			}
		}
		if float64(count) > Beta(x) {
			t.Errorf("x=%v: hex packing holds %d points, Beta says %v", x, count, Beta(x))
		}
	}
}

func TestOpportunityProb(t *testing.T) {
	p := netmodel.ScaledDefaultParams()
	consts, err := pcr.Compute(p)
	if err != nil {
		t.Fatal(err)
	}
	po := OpportunityProb(p, consts.Kappa)
	if po <= 0 || po >= 1 {
		t.Fatalf("p_o = %v out of (0,1)", po)
	}
	// Hand computation.
	expPUs := math.Pi * math.Pow(consts.Kappa*p.RadiusSU, 2) * float64(p.NumPU) / p.AreaSize()
	want := math.Pow(1-p.ActiveProb, expPUs)
	if math.Abs(po-want) > 1e-12 {
		t.Errorf("p_o = %v, want %v", po, want)
	}
	// No PUs => certain opportunity.
	p0 := p
	p0.NumPU = 0
	if got := OpportunityProb(p0, consts.Kappa); got != 1 {
		t.Errorf("p_o with N=0 is %v, want 1", got)
	}
	// Saturated PUs => zero opportunity.
	pSat := p
	pSat.ActiveProb = 1
	if got := OpportunityProb(pSat, consts.Kappa); got != 0 {
		t.Errorf("p_o with p_t=1 is %v, want 0", got)
	}
}

func TestMaxDegreeBound(t *testing.T) {
	p := netmodel.ScaledDefaultParams()
	got := MaxDegreeBound(p)
	want := math.Log(float64(p.NumSU)) +
		math.Pi*p.RadiusSU*p.RadiusSU*(math.E*math.E-1)/(2*p.C0())
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("Delta bound = %v, want %v", got, want)
	}
}

func TestComputeBounds(t *testing.T) {
	p := netmodel.ScaledDefaultParams()
	b, err := ComputeBounds(p)
	if err != nil {
		t.Fatal(err)
	}
	if b.Kappa <= 1 || b.PCR != b.Kappa*p.RadiusSU {
		t.Errorf("kappa/PCR: %v/%v", b.Kappa, b.PCR)
	}
	if b.Theorem1Slots <= 0 || b.Theorem2Slots <= b.Theorem1Slots {
		t.Errorf("theorem bounds: t1=%v t2=%v", b.Theorem1Slots, b.Theorem2Slots)
	}
	if b.Lemma8Slots >= b.Theorem1Slots {
		t.Errorf("Lemma 8 bound %v not tighter than Theorem 1 %v", b.Lemma8Slots, b.Theorem1Slots)
	}
	if b.CapacityLower <= 0 || b.CapacityLower >= b.CapacityUpper {
		t.Errorf("capacity bounds: [%v, %v]", b.CapacityLower, b.CapacityUpper)
	}
	// Theorem 1 formula check.
	want := (2*b.DeltaBound*b.BetaKappa + 24*b.BetaKappa1 - 1) / b.OpportunityProb
	if math.Abs(b.Theorem1Slots-want) > 1e-9 {
		t.Errorf("Theorem1Slots = %v, want %v", b.Theorem1Slots, want)
	}
}

func TestComputeBoundsSaturated(t *testing.T) {
	p := netmodel.ScaledDefaultParams()
	p.ActiveProb = 1
	b, err := ComputeBounds(p)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(b.Theorem1Slots, 1) || !math.IsInf(b.Theorem2Slots, 1) {
		t.Error("saturated network should have infinite delay bounds")
	}
}

func TestComputeBoundsInvalid(t *testing.T) {
	p := netmodel.ScaledDefaultParams()
	p.Alpha = 2
	if _, err := ComputeBounds(p); err == nil {
		t.Error("alpha=2 accepted")
	}
	if _, err := ComputeBoundsWithDegree(p, 5); err == nil {
		t.Error("ComputeBoundsWithDegree accepted alpha=2")
	}
}

func TestComputeBoundsWithDegree(t *testing.T) {
	p := netmodel.ScaledDefaultParams()
	generic, err := ComputeBounds(p)
	if err != nil {
		t.Fatal(err)
	}
	tight, err := ComputeBoundsWithDegree(p, 10)
	if err != nil {
		t.Fatal(err)
	}
	if tight.DeltaBound != 10 {
		t.Errorf("DeltaBound = %v, want 10", tight.DeltaBound)
	}
	if generic.DeltaBound <= 10 {
		t.Skip("Lemma 6 bound unexpectedly small; tightening not observable")
	}
	if tight.Theorem1Slots >= generic.Theorem1Slots {
		t.Errorf("realized-degree bound %v not tighter than Lemma 6 bound %v",
			tight.Theorem1Slots, generic.Theorem1Slots)
	}
}

// TestTheorem2CapacityOrderOptimal sanity-checks the order-optimality
// statement: the capacity lower bound is a constant fraction of W for
// fixed parameters, independent of n (only p_o depends on n through
// density, which the scaled point holds fixed).
func TestTheorem2CapacityOrderOptimal(t *testing.T) {
	base := netmodel.ScaledDefaultParams()
	b1, err := ComputeBounds(base)
	if err != nil {
		t.Fatal(err)
	}
	big := base
	big.NumSU *= 4
	big.Area *= 2 // same density, same PU density per area
	big.NumPU *= 4
	b2, err := ComputeBounds(big)
	if err != nil {
		t.Fatal(err)
	}
	r1 := b1.CapacityLower / b1.CapacityUpper
	r2 := b2.CapacityLower / b2.CapacityUpper
	if math.Abs(math.Log(r1/r2)) > 0.7 {
		t.Errorf("capacity fraction changed with n at fixed density: %v vs %v", r1, r2)
	}
}
