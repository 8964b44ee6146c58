package experiment

import (
	"fmt"

	"addcrn/internal/netmodel"
)

// FigureIDs lists the delay sweeps of the paper's Fig. 6 in order.
var FigureIDs = []string{"6a", "6b", "6c", "6d", "6e", "6f"}

// NewFigureSweep returns the sweep definition regenerating one panel of the
// paper's Fig. 6, or one of the extension figures ext1 and ext2 (see
// extension.go), at the given operating point (use
// netmodel.ScaledDefaultParams for the feasibility-scaled point or
// netmodel.DefaultParams for the paper's nominal one). Swept ranges scale
// with the base parameters so both operating points exercise the same
// relative span the paper plots.
func NewFigureSweep(id string, base netmodel.Params, seed uint64) (*Sweep, error) {
	s := &Sweep{ID: id, Base: base, Seed: seed}
	switch id {
	case "6a":
		s.Title = "Data collection delay vs number of PUs (Fig. 6a)"
		s.XLabel = "N (PUs)"
		s.Xs = scaleInts(base.NumPU, []float64{0.25, 0.5, 0.75, 1.0, 1.25, 1.5})
		s.Apply = func(p netmodel.Params, x float64) netmodel.Params {
			p.NumPU = int(x)
			return p
		}
	case "6b":
		s.Title = "Data collection delay vs number of SUs (Fig. 6b)"
		s.XLabel = "n (SUs)"
		s.Xs = scaleInts(base.NumSU, []float64{0.7, 0.85, 1.0, 1.15, 1.3, 1.5})
		s.Apply = func(p netmodel.Params, x float64) netmodel.Params {
			p.NumSU = int(x)
			return p
		}
	case "6c":
		s.Title = "Data collection delay vs PU activity probability (Fig. 6c)"
		s.XLabel = "p_t"
		s.Xs = []float64{0.1, 0.2, 0.3, 0.4, 0.5}
		s.Apply = func(p netmodel.Params, x float64) netmodel.Params {
			p.ActiveProb = x
			return p
		}
	case "6d":
		s.Title = "Data collection delay vs path loss exponent (Fig. 6d)"
		s.XLabel = "alpha"
		s.Xs = []float64{3.0, 3.5, 4.0, 4.5, 5.0}
		s.Apply = func(p netmodel.Params, x float64) netmodel.Params {
			p.Alpha = x
			return p
		}
	case "6e":
		s.Title = "Data collection delay vs PU power (Fig. 6e)"
		s.XLabel = "P_p"
		s.Xs = scale(base.PowerPU, []float64{1.0, 1.5, 2.0, 2.5, 3.0})
		s.Apply = func(p netmodel.Params, x float64) netmodel.Params {
			p.PowerPU = x
			return p
		}
	case "6f":
		s.Title = "Data collection delay vs SU power (Fig. 6f)"
		s.XLabel = "P_s"
		s.Xs = scale(base.PowerSU, []float64{1.0, 1.5, 2.0, 2.5, 3.0})
		s.Apply = func(p netmodel.Params, x float64) netmodel.Params {
			p.PowerSU = x
			return p
		}
	default:
		if !extensionSweep(s, id) {
			return nil, fmt.Errorf("experiment: unknown figure %q (want 6a..6f, ext1 or ext2)", id)
		}
	}
	return s, nil
}

func scale(base float64, factors []float64) []float64 {
	out := make([]float64, len(factors))
	for i, f := range factors {
		out[i] = base * f
	}
	return out
}

func scaleInts(base int, factors []float64) []float64 {
	out := make([]float64, len(factors))
	for i, f := range factors {
		v := float64(base) * f
		out[i] = float64(int(v + 0.5))
	}
	return out
}
