// Package netmodel defines the system model of the paper (Section III): the
// coexisting primary and secondary networks, their parameters, and random
// deployment of both over a square area.
package netmodel

import (
	"fmt"
	"math"
	"time"
)

// Params collects every system parameter of the paper's model. Field names
// follow the paper's notation; see DESIGN.md for the mapping to figures.
type Params struct {
	// Area is the side length of the square deployment area; the paper's A
	// is Area*Area (default 250x250).
	Area float64
	// Alpha is the path loss exponent, > 2.
	Alpha float64

	// NumPU is N, the number of primary users.
	NumPU int
	// PowerPU is P_p, the fixed transmission power of PUs.
	PowerPU float64
	// RadiusPU is R, the maximum transmission radius of PUs.
	RadiusPU float64
	// SIRThresholdPUdB is eta_p in decibels (the paper quotes dB values).
	SIRThresholdPUdB float64
	// ActiveProb is p_t, the per-slot probability that a PU transmits.
	ActiveProb float64

	// NumSU is n, the number of secondary users (excluding the base station).
	NumSU int
	// PowerSU is P_s, the working power of SUs.
	PowerSU float64
	// RadiusSU is r, the maximum transmission radius of SUs.
	RadiusSU float64
	// SIRThresholdSUdB is eta_s in decibels.
	SIRThresholdSUdB float64

	// Slot is tau, the duration of a time slot (default 1ms); one packet
	// transmission occupies one slot.
	Slot time.Duration
	// ContentionWindow is tau_c, the backoff contention window
	// (default 0.5ms); must be < Slot.
	ContentionWindow time.Duration
	// PacketBits is B, the packet size in bits. It only scales capacity
	// figures (W = B/tau); it does not affect scheduling.
	PacketBits float64
}

// DefaultParams returns the paper's Fig. 6 default settings: A = 250x250,
// alpha = 4, N = 400, P_p = 10, R = 10, eta_p = 8dB, p_t = 0.3, n = 2000,
// P_s = 10, r = 10, eta_s = 8dB, tau = 1ms, tau_c = 0.5ms.
func DefaultParams() Params {
	return Params{
		Area:             250,
		Alpha:            4,
		NumPU:            400,
		PowerPU:          10,
		RadiusPU:         10,
		SIRThresholdPUdB: 8,
		ActiveProb:       0.3,
		NumSU:            2000,
		PowerSU:          10,
		RadiusSU:         10,
		SIRThresholdSUdB: 8,
		Slot:             time.Millisecond,
		ContentionWindow: 500 * time.Microsecond,
		PacketBits:       1 << 10,
	}
}

// ScaledDefaultParams returns a feasibility-scaled operating point: the
// same radii, powers, thresholds and SU density as DefaultParams (so the
// unit-disk graph stays connected), but a smaller area with proportionally
// fewer SUs, and a PU population chosen so Lemma 7's spectrum-opportunity
// probability stays bounded away from zero (see DESIGN.md "Scaling note";
// at the paper's nominal N the expected PU count per PCR disk is ~30 and
// p_o ~ 2e-5, which starves every operating point).
func ScaledDefaultParams() Params {
	p := DefaultParams()
	p.Area = 100
	p.NumSU = 300
	p.NumPU = 8
	return p
}

// EtaPU returns eta_p as a linear SIR ratio.
func (p Params) EtaPU() float64 { return dbToLinear(p.SIRThresholdPUdB) }

// EtaSU returns eta_s as a linear SIR ratio.
func (p Params) EtaSU() float64 { return dbToLinear(p.SIRThresholdSUdB) }

// AreaSize returns A, the deployment area in square meters.
func (p Params) AreaSize() float64 { return p.Area * p.Area }

// C0 returns c_0 = A/n, the area per secondary user (the paper deploys in
// an area of size A = c0*n).
func (p Params) C0() float64 {
	if p.NumSU == 0 {
		return math.Inf(1)
	}
	return p.AreaSize() / float64(p.NumSU)
}

// Bandwidth returns W = B/tau in bits per second, the capacity upper bound.
func (p Params) Bandwidth() float64 {
	return p.PacketBits / p.Slot.Seconds()
}

// Validate reports the first violated model constraint, or nil. Each float
// check is written so that NaN fails it, and area, α, powers, radii and
// packet size must also be finite.
func (p Params) Validate() error {
	switch {
	case !positiveFinite(p.Area):
		return fmt.Errorf("netmodel: area side must be positive and finite, got %v", p.Area)
	case !(p.Alpha > 2 && p.Alpha <= math.MaxFloat64):
		return fmt.Errorf("netmodel: path loss exponent must be finite and exceed 2, got %v", p.Alpha)
	case p.NumPU < 0:
		return fmt.Errorf("netmodel: number of PUs must be non-negative, got %d", p.NumPU)
	case !positiveFinite(p.PowerPU):
		return fmt.Errorf("netmodel: PU power must be positive and finite, got %v", p.PowerPU)
	case !positiveFinite(p.RadiusPU):
		return fmt.Errorf("netmodel: PU radius must be positive and finite, got %v", p.RadiusPU)
	case !finite(p.SIRThresholdPUdB):
		return fmt.Errorf("netmodel: PU SIR threshold must be finite, got %v dB", p.SIRThresholdPUdB)
	case !(p.ActiveProb >= 0 && p.ActiveProb <= 1):
		return fmt.Errorf("netmodel: PU activity probability must lie in [0,1], got %v", p.ActiveProb)
	case p.NumSU <= 0:
		return fmt.Errorf("netmodel: number of SUs must be positive, got %d", p.NumSU)
	case !positiveFinite(p.PowerSU):
		return fmt.Errorf("netmodel: SU power must be positive and finite, got %v", p.PowerSU)
	case !positiveFinite(p.RadiusSU):
		return fmt.Errorf("netmodel: SU radius must be positive and finite, got %v", p.RadiusSU)
	case !finite(p.SIRThresholdSUdB):
		return fmt.Errorf("netmodel: SU SIR threshold must be finite, got %v dB", p.SIRThresholdSUdB)
	case p.Slot <= 0:
		return fmt.Errorf("netmodel: slot duration must be positive, got %v", p.Slot)
	case p.ContentionWindow <= 0:
		return fmt.Errorf("netmodel: contention window must be positive, got %v", p.ContentionWindow)
	case p.ContentionWindow >= p.Slot:
		return fmt.Errorf("netmodel: contention window %v must be shorter than slot %v",
			p.ContentionWindow, p.Slot)
	case !positiveFinite(p.PacketBits):
		return fmt.Errorf("netmodel: packet size must be positive and finite, got %v", p.PacketBits)
	}
	return nil
}

// positiveFinite reports 0 < x < +Inf; NaN fails.
func positiveFinite(x float64) bool { return x > 0 && x <= math.MaxFloat64 }

// finite reports that x is neither NaN nor infinite.
func finite(x float64) bool { return x >= -math.MaxFloat64 && x <= math.MaxFloat64 }

func dbToLinear(db float64) float64 {
	return math.Pow(10, db/10)
}
