package spectrum

import (
	"testing"

	"addcrn/internal/geom"
	"addcrn/internal/netmodel"
	"addcrn/internal/rng"
)

// A renewed gain table serves exactly the gains computed directly from the
// positions, also when the deployment is smaller, larger or uses another
// exponent than the one the table last served.
func TestRenewGainTable(t *testing.T) {
	deploy := func(numSU, numPU int, alpha float64, seed uint64) *netmodel.Network {
		p := netmodel.ScaledDefaultParams()
		p.NumSU, p.NumPU, p.Area, p.Alpha = numSU, numPU, 70, alpha
		nw, err := netmodel.Deploy(p, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		return nw
	}
	var gt *GainTable
	for i, nw := range []*netmodel.Network{
		deploy(120, 6, 4, 1),
		deploy(40, 2, 3.5, 2),
		deploy(120, 6, 4, 3),
		deploy(150, 8, 4, 4),
	} {
		gt = RenewGainTable(gt, nw)
		pos := append(append([]geom.Point(nil), nw.SU...), nw.PU...)
		for tx := range pos {
			for rx := range pos {
				if got, want := gt.Gain(int32(tx), int32(rx)), pathGain(pos[tx], pos[rx], nw.Params.Alpha); got != want {
					t.Fatalf("deployment %d: Gain(%d, %d) = %v after renewal, want %v", i, tx, rx, got, want)
				}
			}
		}
	}
}
