package spectrum

import (
	"math"

	"addcrn/internal/geom"
	"addcrn/internal/netmodel"
)

// GainTable memoizes the pathloss gains d^-alpha between the fixed points of
// one deployment. Positions never move during a collection run, yet the SIR
// monitor recomputes the same Dist+Pow for every (transmitter, reception)
// encounter — tens of thousands of times per run over at most a few thousand
// distinct pairs. The table computes each pair's gain once, on first use, and
// serves every later encounter with an array load.
//
// Index space: SU node ids 0..NumNodes()-1, then the PU transmitters at
// NumNodes()..NumNodes()+len(PU)-1. Entries are lazily filled; 0 marks "not
// yet computed" (a real gain is always positive: distances are finite and
// far too small for d^-alpha to underflow, and d == 0 stores +Inf).
type GainTable struct {
	alpha float64
	pos   []geom.Point
	g     []float64
}

// RenewGainTable returns an empty gain table over nw's SU and PU
// positions. It resets prev in place, reusing its slice capacity, or builds
// a fresh table when prev is nil; either way every entry refills lazily.
func RenewGainTable(prev *GainTable, nw *netmodel.Network) *GainTable {
	if prev == nil {
		prev = &GainTable{}
	}
	n := nw.NumNodes() + len(nw.PU)
	prev.alpha = nw.Params.Alpha
	if cap(prev.g) < n*n {
		prev.g = make([]float64, n*n)
	} else {
		prev.g = prev.g[:n*n]
		clear(prev.g)
	}
	prev.pos = append(append(prev.pos[:0], nw.SU...), nw.PU...)
	return prev
}

// Gain returns the pathloss gain from point tx to point rx, bit-identical to
// computing math.Pow(dist, -alpha) directly.
func (t *GainTable) Gain(tx, rx int32) float64 {
	i := int(tx)*len(t.pos) + int(rx)
	if g := t.g[i]; g != 0 {
		return g
	}
	g := pathGain(t.pos[tx], t.pos[rx], t.alpha)
	t.g[i] = g
	return g
}

// pathGain is the d^-alpha pathloss between two points, +Inf at distance 0.
func pathGain(txPos, rxPos geom.Point, alpha float64) float64 {
	d := txPos.Dist(rxPos)
	if d == 0 {
		return math.Inf(1)
	}
	return math.Pow(d, -alpha)
}

// scaledPower applies a transmit power to a pathloss gain, preserving the
// d == 0 convention of receivedPower: infinite gain yields infinite received
// power regardless of the (possibly zero) transmit power.
func scaledPower(power, gain float64) float64 {
	if math.IsInf(gain, 1) {
		return math.Inf(1)
	}
	return power * gain
}
