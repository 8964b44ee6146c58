// Package theory implements the paper's analytical quantities (Section
// IV-D): the disk-packing function beta, the maximum-degree bound of Lemma
// 6, the spectrum-opportunity probability of Lemma 7, and the delay and
// capacity bounds of Theorem 1, Lemma 8 and Theorem 2. The experiment
// harness prints these next to measured values so EXPERIMENTS.md can record
// paper-vs-measured for every bound.
package theory

import (
	"math"

	"addcrn/internal/netmodel"
	"addcrn/internal/pcr"
)

// Beta is the disk-packing count of Lemma 4:
// beta_x = 2*pi*x^2/sqrt(3) + pi*x + 1, the maximum number of points with
// mutual distance >= 1 inside a disk of radius x.
func Beta(x float64) float64 {
	return 2*math.Pi*x*x/math.Sqrt(3) + math.Pi*x + 1
}

// MaxDegreeBound is Lemma 6's high-probability bound on the maximum degree
// of the CDS-based data collection tree:
// Delta <= log n + pi*r^2*(e^2-1)/(2*c0).
func MaxDegreeBound(p netmodel.Params) float64 {
	r := p.RadiusSU
	return math.Log(float64(p.NumSU)) + math.Pi*r*r*(math.E*math.E-1)/(2*p.C0())
}

// OpportunityProb is Lemma 7's expected probability that an SU has a
// spectrum opportunity during a time slot:
// p_o = (1 - p_t)^{pi*(kappa*r)^2 * N / (c0*n)}.
// The exponent is the expected number of PUs within one PCR disk.
func OpportunityProb(p netmodel.Params, kappa float64) float64 {
	area := p.AreaSize()
	expPUs := math.Pi * math.Pow(kappa*p.RadiusSU, 2) * float64(p.NumPU) / area
	return math.Pow(1-p.ActiveProb, expPUs)
}

// Bounds gathers every analytical quantity for one parameter set.
type Bounds struct {
	// Kappa and PCR restate the carrier-sensing derivation.
	Kappa float64
	PCR   float64
	// BetaKappa and BetaKappa1 are beta_kappa and beta_{kappa+1}.
	BetaKappa  float64
	BetaKappa1 float64
	// DeltaBound is Lemma 6's maximum tree degree bound.
	DeltaBound float64
	// OpportunityProb is Lemma 7's p_o.
	OpportunityProb float64
	// Theorem1Slots bounds the per-packet service time of any SU in slots:
	// (2*Delta*beta_kappa + 24*beta_{kappa+1} - 1) / p_o.
	Theorem1Slots float64
	// Lemma8Slots bounds the per-packet service time of a CDS node after
	// the dominatee phase: (2*beta_kappa + 24*beta_{kappa+1} - 1) / p_o.
	Lemma8Slots float64
	// Theorem2Slots bounds the total data collection delay in slots:
	// Theorem1Slots + (n - Delta_b) * Lemma8Slots with Delta_b >= 1.
	Theorem2Slots float64
	// CapacityLower is Theorem 2's achievable capacity lower bound in bits
	// per second: p_o / (2*beta_kappa + 24*beta_{kappa+1} - 1) * W.
	CapacityLower float64
	// CapacityUpper is the trivial upper bound W = B/tau.
	CapacityUpper float64
}

// ComputeBounds evaluates every bound for parameters p. The kappa used is
// the PCR derivation's (corrected-c2) value.
func ComputeBounds(p netmodel.Params) (Bounds, error) {
	consts, err := pcr.Compute(p)
	if err != nil {
		return Bounds{}, err
	}
	return computeBounds(p, consts), nil
}

func computeBounds(p netmodel.Params, consts pcr.Constants) Bounds {
	b := Bounds{
		Kappa:           consts.Kappa,
		PCR:             consts.Range,
		BetaKappa:       Beta(consts.Kappa),
		BetaKappa1:      Beta(consts.Kappa + 1),
		DeltaBound:      MaxDegreeBound(p),
		OpportunityProb: OpportunityProb(p, consts.Kappa),
		CapacityUpper:   p.Bandwidth(),
	}
	po := b.OpportunityProb
	if po <= 0 {
		b.Theorem1Slots = math.Inf(1)
		b.Lemma8Slots = math.Inf(1)
		b.Theorem2Slots = math.Inf(1)
		return b
	}
	b.Theorem1Slots = (2*b.DeltaBound*b.BetaKappa + 24*b.BetaKappa1 - 1) / po
	b.Lemma8Slots = (2*b.BetaKappa + 24*b.BetaKappa1 - 1) / po
	b.Theorem2Slots = b.Theorem1Slots + float64(p.NumSU-1)*b.Lemma8Slots
	b.CapacityLower = po / (2*b.BetaKappa + 24*b.BetaKappa1 - 1) * p.Bandwidth()
	return b
}

// ComputeBoundsWithDegree is ComputeBounds with Lemma 6's Delta bound
// replaced by the realized maximum tree degree, giving a tighter Theorem 1
// bound for a concrete deployment.
func ComputeBoundsWithDegree(p netmodel.Params, maxDegree int) (Bounds, error) {
	b, err := ComputeBounds(p)
	if err != nil {
		return Bounds{}, err
	}
	po := b.OpportunityProb
	if po > 0 {
		delta := float64(maxDegree)
		b.DeltaBound = delta
		b.Theorem1Slots = (2*delta*b.BetaKappa + 24*b.BetaKappa1 - 1) / po
		b.Theorem2Slots = b.Theorem1Slots + float64(p.NumSU-1)*b.Lemma8Slots
	}
	return b, nil
}
