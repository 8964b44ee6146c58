package experiment

import (
	"fmt"
	"math"

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
		s.axis = axisCount
		s.Xs = scaleInts(base.NumPU, []float64{0.25, 0.5, 0.75, 1.0, 1.25, 1.5})
		s.Apply = func(p netmodel.Params, x float64) netmodel.Params {
			p.NumPU = int(x)
			return p
		}
	case "6b":
		s.Title = "Data collection delay vs number of SUs (Fig. 6b)"
		s.XLabel = "n (SUs)"
		s.axis = axisCount
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

// axis is what a sweep's x values are.
type axis int

const (
	axisReal      axis = iota // a real parameter: p_t, α, a power, a fraction
	axisCount                 // a node count, truncated to int by Apply (6a, 6b)
	axisChannels              // ext1's licensed channel count C
	axisCrashFrac             // ext2's SU crash fraction
)

// Limits caps the grid points CheckGrid accepts; a zero field sets no cap.
type Limits struct {
	// NumSU and NumPU cap n and N.
	NumSU, NumPU int
	// GridCells caps the cells of the deployment's spatial indexes: the
	// SU grid at cell size r_SU plus the PU grid at r_PU.
	GridCells int
	// Channels caps ext1's licensed channel count.
	Channels int
}

// CheckGrid refuses, before anything runs, an x value that cannot be a grid
// point of s: a non-finite x on any axis, a count (N, n or C) that is not a
// whole number, parameters that fail Params.Validate, a crash fraction whose
// fault spec fails fault.Spec.Validate, or a point beyond lim. Without it
// such a point runs and fails every pair — or, at a count axis, runs int(x)
// while the table prints x.
func (s *Sweep) CheckGrid(lim Limits) error {
	for _, x := range s.Xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("experiment: fig %s: x = %v is not finite", s.ID, x)
		}
		if (s.axis == axisCount || s.axis == axisChannels) && (x != math.Trunc(x) || x < 0 || x > math.MaxInt32) {
			return fmt.Errorf("experiment: fig %s: %s = %v is not a whole number in [0, 2^31)", s.ID, s.XLabel, x)
		}
		if s.axis == axisChannels && x < 1 {
			return fmt.Errorf("experiment: fig %s: %v channels; at least one is needed", s.ID, x)
		}
		if s.axis == axisChannels && lim.Channels > 0 && x > float64(lim.Channels) {
			return fmt.Errorf("experiment: fig %s: %v channels exceed the limit of %d", s.ID, x, lim.Channels)
		}
		if s.axis == axisCrashFrac {
			if err := crashFaults(x).Validate(); err != nil {
				return fmt.Errorf("experiment: fig %s at x = %v: %w", s.ID, x, err)
			}
		}
		p := s.Apply(s.Base, x)
		if err := p.Validate(); err != nil {
			return fmt.Errorf("experiment: fig %s at x = %v: %w", s.ID, x, err)
		}
		switch cells := gridCells(p.Area, p.RadiusSU) + gridCells(p.Area, p.RadiusPU); {
		case lim.NumSU > 0 && p.NumSU > lim.NumSU:
			return fmt.Errorf("experiment: fig %s at x = %v: %d SUs exceed the limit of %d", s.ID, x, p.NumSU, lim.NumSU)
		case lim.NumPU > 0 && p.NumPU > lim.NumPU:
			return fmt.Errorf("experiment: fig %s at x = %v: %d PUs exceed the limit of %d", s.ID, x, p.NumPU, lim.NumPU)
		case lim.GridCells > 0 && cells > float64(lim.GridCells):
			return fmt.Errorf("experiment: fig %s at x = %v: area %v makes %.3g grid cells, more than the limit of %d",
				s.ID, x, p.Area, cells, lim.GridCells)
		}
	}
	return nil
}

// gridCells is the cell count of a spatial grid over the area×area square
// at the given cell size (see geom.NewGrid), as a float so that it cannot
// overflow.
func gridCells(area, cell float64) float64 {
	side := math.Max(1, math.Ceil(area/cell))
	return side * side
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
