package netmodel

import (
	"errors"
	"math"
	"testing"
	"time"

	"addcrn/internal/rng"
)

func TestDefaultParamsValid(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Errorf("DefaultParams invalid: %v", err)
	}
	if err := ScaledDefaultParams().Validate(); err != nil {
		t.Errorf("ScaledDefaultParams invalid: %v", err)
	}
}

func TestDefaultParamsMatchPaper(t *testing.T) {
	p := DefaultParams()
	if p.Area != 250 || p.Alpha != 4 || p.NumPU != 400 || p.NumSU != 2000 {
		t.Errorf("defaults drifted from the paper's Fig. 6 settings: %+v", p)
	}
	if p.ActiveProb != 0.3 || p.SIRThresholdPUdB != 8 || p.SIRThresholdSUdB != 8 {
		t.Errorf("defaults drifted from the paper's Fig. 6 settings: %+v", p)
	}
	if p.Slot != time.Millisecond || p.ContentionWindow != 500*time.Microsecond {
		t.Errorf("timing defaults drifted: slot=%v window=%v", p.Slot, p.ContentionWindow)
	}
}

func TestValidateRejections(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*Params)
	}{
		{"zero area", func(p *Params) { p.Area = 0 }},
		{"alpha at 2", func(p *Params) { p.Alpha = 2 }},
		{"negative PUs", func(p *Params) { p.NumPU = -1 }},
		{"zero PU power", func(p *Params) { p.PowerPU = 0 }},
		{"zero PU radius", func(p *Params) { p.RadiusPU = 0 }},
		{"pt above 1", func(p *Params) { p.ActiveProb = 1.1 }},
		{"pt below 0", func(p *Params) { p.ActiveProb = -0.1 }},
		{"zero SUs", func(p *Params) { p.NumSU = 0 }},
		{"zero SU power", func(p *Params) { p.PowerSU = 0 }},
		{"zero SU radius", func(p *Params) { p.RadiusSU = 0 }},
		{"zero slot", func(p *Params) { p.Slot = 0 }},
		{"zero window", func(p *Params) { p.ContentionWindow = 0 }},
		{"window >= slot", func(p *Params) { p.ContentionWindow = p.Slot }},
		{"zero packet", func(p *Params) { p.PacketBits = 0 }},
		{"NaN area", func(p *Params) { p.Area = math.NaN() }},
		{"infinite area", func(p *Params) { p.Area = math.Inf(1) }},
		{"NaN alpha", func(p *Params) { p.Alpha = math.NaN() }},
		{"infinite alpha", func(p *Params) { p.Alpha = math.Inf(1) }},
		{"NaN PU power", func(p *Params) { p.PowerPU = math.NaN() }},
		{"infinite PU power", func(p *Params) { p.PowerPU = math.Inf(1) }},
		{"NaN PU radius", func(p *Params) { p.RadiusPU = math.NaN() }},
		{"infinite PU radius", func(p *Params) { p.RadiusPU = math.Inf(1) }},
		{"NaN PU SIR", func(p *Params) { p.SIRThresholdPUdB = math.NaN() }},
		{"infinite PU SIR", func(p *Params) { p.SIRThresholdPUdB = math.Inf(-1) }},
		{"NaN pt", func(p *Params) { p.ActiveProb = math.NaN() }},
		{"NaN SU power", func(p *Params) { p.PowerSU = math.NaN() }},
		{"infinite SU power", func(p *Params) { p.PowerSU = math.Inf(1) }},
		{"NaN SU radius", func(p *Params) { p.RadiusSU = math.NaN() }},
		{"infinite SU radius", func(p *Params) { p.RadiusSU = math.Inf(1) }},
		{"NaN SU SIR", func(p *Params) { p.SIRThresholdSUdB = math.NaN() }},
		{"infinite SU SIR", func(p *Params) { p.SIRThresholdSUdB = math.Inf(1) }},
		{"NaN packet", func(p *Params) { p.PacketBits = math.NaN() }},
		{"infinite packet", func(p *Params) { p.PacketBits = math.Inf(1) }},
	}
	for _, tt := range mutations {
		t.Run(tt.name, func(t *testing.T) {
			p := DefaultParams()
			tt.mut(&p)
			if err := p.Validate(); err == nil {
				t.Errorf("Validate accepted %s", tt.name)
			}
		})
	}
}

// FuzzParams: Validate never panics, and every Params it accepts has a
// finite positive area, powers and radii, a finite α above 2, finite SIR
// thresholds and p_t in [0, 1].
func FuzzParams(f *testing.F) {
	d := DefaultParams()
	f.Add(d.Area, d.Alpha, d.NumPU, d.PowerPU, d.RadiusPU, d.SIRThresholdPUdB, d.ActiveProb,
		d.NumSU, d.PowerSU, d.RadiusSU, d.SIRThresholdSUdB, int64(d.Slot), int64(d.ContentionWindow), d.PacketBits)
	f.Add(math.NaN(), math.NaN(), 0, math.Inf(1), math.NaN(), math.NaN(), math.NaN(),
		1, math.NaN(), math.Inf(1), math.Inf(-1), int64(1000), int64(500), math.NaN())
	f.Add(1e-300, 2.0000001, 1, 1e308, 1e-9, -1e308, 1.0, 1, 5e-324, 1e308, 0.0, int64(2), int64(1), 1.0)
	f.Fuzz(func(t *testing.T, area, alpha float64, numPU int, powerPU, radiusPU, sirPU, pt float64,
		numSU int, powerSU, radiusSU, sirSU float64, slot, window int64, packet float64) {
		p := Params{
			Area: area, Alpha: alpha,
			NumPU: numPU, PowerPU: powerPU, RadiusPU: radiusPU, SIRThresholdPUdB: sirPU, ActiveProb: pt,
			NumSU: numSU, PowerSU: powerSU, RadiusSU: radiusSU, SIRThresholdSUdB: sirSU,
			Slot: time.Duration(slot), ContentionWindow: time.Duration(window), PacketBits: packet,
		}
		if p.Validate() != nil {
			return
		}
		posFinite := func(x float64) bool { return x > 0 && !math.IsInf(x, 0) && !math.IsNaN(x) }
		for _, x := range []float64{p.Area, p.PowerPU, p.RadiusPU, p.PowerSU, p.RadiusSU, p.PacketBits} {
			if !posFinite(x) {
				t.Fatalf("accepted %+v with a non-finite or non-positive area, power, radius or packet size", p)
			}
		}
		if !posFinite(p.Alpha) || p.Alpha <= 2 {
			t.Fatalf("accepted alpha %v", p.Alpha)
		}
		if math.IsNaN(sirPU) || math.IsInf(sirPU, 0) || math.IsNaN(sirSU) || math.IsInf(sirSU, 0) {
			t.Fatalf("accepted SIR thresholds %v, %v dB", sirPU, sirSU)
		}
		if math.IsNaN(pt) || pt < 0 || pt > 1 {
			t.Fatalf("accepted p_t %v", pt)
		}
	})
}

func TestDerivedQuantities(t *testing.T) {
	p := DefaultParams()
	if got := p.EtaPU(); math.Abs(got-math.Pow(10, 0.8)) > 1e-9 {
		t.Errorf("EtaPU = %v", got)
	}
	if got := p.AreaSize(); got != 62500 {
		t.Errorf("AreaSize = %v", got)
	}
	if got := p.C0(); math.Abs(got-62500.0/2000) > 1e-9 {
		t.Errorf("C0 = %v", got)
	}
	if got := p.Bandwidth(); math.Abs(got-1024/0.001) > 1e-6 {
		t.Errorf("Bandwidth = %v", got)
	}
	zero := Params{}
	if !math.IsInf(zero.C0(), 1) {
		t.Errorf("C0 with zero SUs = %v, want +Inf", zero.C0())
	}
}

func testParams() Params {
	p := ScaledDefaultParams()
	p.NumSU = 150
	p.Area = 70
	p.NumPU = 5
	return p
}

func TestDeployBasics(t *testing.T) {
	p := testParams()
	nw, err := Deploy(p, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if nw.NumNodes() != p.NumSU+1 {
		t.Errorf("NumNodes = %d, want %d", nw.NumNodes(), p.NumSU+1)
	}
	if len(nw.PU) != p.NumPU {
		t.Errorf("PUs = %d, want %d", len(nw.PU), p.NumPU)
	}
	center := nw.Bounds().Center()
	if nw.SU[BaseStationID] != center {
		t.Errorf("base station at %v, want %v", nw.SU[BaseStationID], center)
	}
	bounds := nw.Bounds()
	for i, pt := range nw.SU {
		if !bounds.Contains(pt) {
			t.Errorf("SU %d outside bounds: %v", i, pt)
		}
	}
	for i, pt := range nw.PU {
		if !bounds.Contains(pt) {
			t.Errorf("PU %d outside bounds: %v", i, pt)
		}
	}
}

func TestDeployInvalidParams(t *testing.T) {
	p := testParams()
	p.Alpha = 1
	if _, err := Deploy(p, rng.New(1)); err == nil {
		t.Error("Deploy accepted invalid params")
	}
}

func TestDeployDeterministic(t *testing.T) {
	p := testParams()
	a, err := Deploy(p, rng.New(99))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Deploy(p, rng.New(99))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.SU {
		if a.SU[i] != b.SU[i] {
			t.Fatalf("SU %d differs between equal-seed deployments", i)
		}
	}
	for i := range a.PU {
		if a.PU[i] != b.PU[i] {
			t.Fatalf("PU %d differs between equal-seed deployments", i)
		}
	}
}

func TestDeploySeedsDiffer(t *testing.T) {
	p := testParams()
	a, _ := Deploy(p, rng.New(1))
	b, _ := Deploy(p, rng.New(2))
	same := 0
	for i := 1; i < len(a.SU); i++ {
		if a.SU[i] == b.SU[i] {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d SU positions identical across different seeds", same)
	}
}

func TestDeployConnected(t *testing.T) {
	p := testParams()
	nw, err := DeployConnected(p, rng.New(3), 50)
	if err != nil {
		t.Fatal(err)
	}
	if !nw.Connected() {
		t.Error("DeployConnected returned a disconnected network")
	}
}

func TestDeployConnectedFailure(t *testing.T) {
	p := testParams()
	p.Area = 500 // density far below the connectivity threshold
	p.NumSU = 50
	_, err := DeployConnected(p, rng.New(4), 3)
	if err == nil {
		t.Fatal("expected disconnection error")
	}
	if !errors.Is(err, ErrDisconnected) {
		t.Errorf("error %v does not wrap ErrDisconnected", err)
	}
}

func TestConnectedSmallCases(t *testing.T) {
	p := testParams()
	p.NumSU = 1
	p.NumPU = 0
	nw, err := Deploy(p, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	// Single SU: connected iff it is within r of the base station; verify
	// against the direct distance check.
	want := nw.SU[0].Dist(nw.SU[1]) <= p.RadiusSU
	if got := nw.Connected(); got != want {
		t.Errorf("Connected = %v, want %v", got, want)
	}
}

func TestSUNeighborsExcludesSelf(t *testing.T) {
	p := testParams()
	nw, err := DeployConnected(p, rng.New(6), 50)
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < nw.NumNodes(); id += 17 {
		nbrs := nw.SUNeighbors(id, p.RadiusSU, nil)
		for _, nb := range nbrs {
			if int(nb) == id {
				t.Fatalf("node %d listed as its own neighbor", id)
			}
			if nw.SU[id].Dist(nw.SU[nb]) > p.RadiusSU {
				t.Fatalf("neighbor %d of %d out of range", nb, id)
			}
		}
	}
}

func TestPUsNear(t *testing.T) {
	p := testParams()
	nw, err := Deploy(p, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	center := nw.Bounds().Center()
	got := nw.PUsNear(center, 40, nil)
	count := 0
	for _, pu := range nw.PU {
		if pu.Dist(center) <= 40 {
			count++
		}
	}
	if len(got) != count {
		t.Errorf("PUsNear found %d, brute force %d", len(got), count)
	}
}

func TestDeployZeroPUs(t *testing.T) {
	p := testParams()
	p.NumPU = 0
	nw, err := Deploy(p, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	if got := nw.PUsNear(nw.Bounds().Center(), 1000, nil); len(got) != 0 {
		t.Errorf("PUsNear on empty primary network returned %v", got)
	}
}

// SUNeighbors appends to dst the indices of secondary nodes within distance
// radius of the secondary node id (excluding id itself). The appended
// results keep the grid's scan order with the query node removed in place —
// no reordering — so equal deployments give downstream iteration a stable,
// reproducible neighbor sequence.
func (nw *Network) SUNeighbors(id int, radius float64, dst []int32) []int32 {
	base := len(dst)
	dst = nw.SUGrid.Within(nw.SU[id], radius, dst)
	// Remove the node itself from its neighborhood, preserving order.
	for i := base; i < len(dst); i++ {
		if int(dst[i]) == id {
			copy(dst[i:], dst[i+1:])
			return dst[:len(dst)-1]
		}
	}
	return dst
}
