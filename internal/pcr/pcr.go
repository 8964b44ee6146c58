// Package pcr implements the Proper Carrier-sensing Range derivation of the
// paper (Section IV-B, Lemmas 2 and 3): the smallest carrier-sensing range
// R_cs = kappa * r such that any set of simultaneous transmitters with
// pairwise distance >= R_cs is a concurrent set under the physical
// interference model.
//
// Correction applied (documented in DESIGN.md): the paper prints
//
//	c2 = 6 + 6*(sqrt(3)/2)^(-alpha) * (1/(alpha-2) - 1)
//
// justified by "zeta(x) <= 1/(x-1)", which is false (zeta > 1 everywhere on
// x > 1, while 1/(x-1) < 1 for x > 2; the printed c2 even turns negative at
// alpha = 4). The correct bound zeta(x) <= 1 + 1/(x-1) yields
// zeta(alpha-1) - 1 <= 1/(alpha-2) and therefore
//
//	c2 = 6 + 6*(sqrt(3)/2)^(-alpha) * 1/(alpha-2),
//
// which this package implements. TestC2BoundsHexagonInterference verifies
// the corrected constant really upper-bounds the hexagon-packing
// interference sum the proof constructs.
package pcr

import (
	"math"

	"addcrn/internal/netmodel"
)

// Constants holds every derived quantity of the PCR computation for one
// parameter set; field names follow the paper.
type Constants struct {
	// C1 = P_p / max{P_p, P_s} (Lemma 2).
	C1 float64
	// C2 = 6 + 6*(sqrt(3)/2)^(-alpha)/(alpha-2) (Lemma 2, corrected).
	C2 float64
	// C3 = P_s / max{P_p, P_s} (Lemma 3).
	C3 float64
	// KappaPU is the PU-protection factor (1 + (c2*eta_p/c1)^(1/alpha))*R/r.
	KappaPU float64
	// KappaSU is the SU-success factor 1 + (c2*eta_s/c3)^(1/alpha).
	KappaSU float64
	// Kappa = max(KappaPU, KappaSU) (Equation 16).
	Kappa float64
	// Range is the PCR itself: Kappa * r.
	Range float64
}

// Compute derives the PCR constants for parameters p. It returns an error
// when p violates the model constraints (alpha <= 2 in particular, since c2
// diverges there).
func Compute(p netmodel.Params) (Constants, error) {
	if err := p.Validate(); err != nil {
		return Constants{}, err
	}
	return computeUnchecked(p), nil
}

func computeUnchecked(p netmodel.Params) Constants {
	maxPower := math.Max(p.PowerPU, p.PowerSU)
	c := Constants{
		C1: p.PowerPU / maxPower,
		C2: C2(p.Alpha),
		C3: p.PowerSU / maxPower,
	}
	etaP := p.EtaPU()
	etaS := p.EtaSU()
	c.KappaPU = (1 + math.Pow(c.C2*etaP/c.C1, 1/p.Alpha)) * p.RadiusPU / p.RadiusSU
	c.KappaSU = 1 + math.Pow(c.C2*etaS/c.C3, 1/p.Alpha)
	c.Kappa = math.Max(c.KappaPU, c.KappaSU)
	c.Range = c.Kappa * p.RadiusSU
	return c
}

// C2 returns the corrected interference-packing constant
// 6 + 6*(sqrt(3)/2)^(-alpha)/(alpha-2) for alpha > 2.
func C2(alpha float64) float64 {
	return 6 + 6*math.Pow(math.Sqrt(3)/2, -alpha)/(alpha-2)
}

// HexagonInterferenceBound returns the proof's layered upper bound on
// sum_{U != S_i} D(U, S_i')^(-alpha) for an R-set with F = R_cs - R:
// c2 * F^(-alpha). Exposed so tests can compare it against explicitly
// constructed hexagon packings.
func HexagonInterferenceBound(alpha, f float64) float64 {
	return C2(alpha) * math.Pow(f, -alpha)
}
