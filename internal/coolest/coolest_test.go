package coolest

import (
	"math"
	"testing"

	"addcrn/internal/geom"
	"addcrn/internal/graphx"
	"addcrn/internal/netmodel"
	"addcrn/internal/pcr"
	"addcrn/internal/rng"
)

func fixture(t *testing.T, seed uint64) *netmodel.Network {
	t.Helper()
	p := netmodel.ScaledDefaultParams()
	p.NumSU = 200
	p.Area = 85
	p.NumPU = 10
	nw, err := netmodel.DeployConnected(p, rng.New(seed), 50)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func TestTemperaturesFormula(t *testing.T) {
	nw := fixture(t, 1)
	consts, err := pcr.Compute(nw.Params)
	if err != nil {
		t.Fatal(err)
	}
	sensing := consts.Range
	temps := Temperatures(nw, sensing)
	pt := nw.Params.ActiveProb
	for v := 0; v < nw.NumNodes(); v += 13 {
		k := 0
		for _, pu := range nw.PU {
			if pu.Dist(nw.SU[v]) <= sensing {
				k++
			}
		}
		want := 1 - math.Pow(1-pt, float64(k))
		if math.Abs(temps[v]-want) > 1e-12 {
			t.Fatalf("node %d temperature %v, want %v (k=%d)", v, temps[v], want, k)
		}
	}
}

func TestTemperaturesColdNetwork(t *testing.T) {
	nw := fixture(t, 2)
	cold := nw
	cold.Params.ActiveProb = 0
	for _, temp := range Temperatures(cold, 40) {
		if temp != 0 {
			t.Fatal("inactive PUs produced nonzero temperature")
		}
	}
}

func TestBuildParentsAllMetrics(t *testing.T) {
	nw := fixture(t, 3)
	consts, err := pcr.Compute(nw.Params)
	if err != nil {
		t.Fatal(err)
	}
	sensing := consts.Range
	for _, metric := range []Metric{MetricAccumulated, MetricHighest, MetricMixed} {
		parents, err := BuildParents(nw, sensing, metric)
		if err != nil {
			t.Fatalf("%v: %v", metric, err)
		}
		if parents[netmodel.BaseStationID] != -1 {
			t.Fatalf("%v: base station has parent %d", metric, parents[0])
		}
		// Every chain must reach the base station without cycles, over
		// graph edges only.
		adj, err := graphx.UnitDisk(nw.Bounds(), nw.SU, nw.Params.RadiusSU)
		if err != nil {
			t.Fatal(err)
		}
		for v := 1; v < nw.NumNodes(); v++ {
			u := int32(v)
			for steps := 0; u != netmodel.BaseStationID; steps++ {
				if steps > nw.NumNodes() {
					t.Fatalf("%v: node %d never reaches the base station", metric, v)
				}
				p := parents[u]
				if !adj.HasEdge(int(u), int(p)) {
					t.Fatalf("%v: tree edge %d->%d not a graph edge", metric, u, p)
				}
				u = p
			}
		}
	}
}

func TestBuildParentsUnknownMetric(t *testing.T) {
	nw := fixture(t, 4)
	if _, err := BuildParents(nw, 30, Metric(99)); err == nil {
		t.Error("unknown metric accepted")
	}
}

func TestBuildParentsDisconnected(t *testing.T) {
	p := netmodel.ScaledDefaultParams()
	p.NumSU = 2
	p.NumPU = 0
	p.Area = 250
	su := []geom.Point{{X: 125, Y: 125}, {X: 120, Y: 125}, {X: 5, Y: 5}} // node 2 isolated
	nw, err := netmodel.NewCustomNetwork(p, su, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildParents(nw, 30, MetricAccumulated); err == nil {
		t.Error("disconnected network accepted")
	}
}

func TestAccumulatedAvoidsHotNodes(t *testing.T) {
	// A 4-node diamond: routes from node 3 can go via hot node 1 or cold
	// node 2; the accumulated metric must pick the cold relay.
	p := netmodel.ScaledDefaultParams()
	p.Area = 250
	p.NumSU = 3
	p.NumPU = 1
	p.ActiveProb = 0.5
	// Layout (r = 10): base station at the center; relays 1 (hot, a PU on
	// top of it) and 2 (cold) both exactly 10 from the BS; source 3 at
	// distance 12 from the BS (out of range) and 7.2 from each relay.
	// With sensing radius 8, only relay 1 and the source see the PU.
	su := []geom.Point{
		{X: 125, Y: 125}, // base station
		{X: 133, Y: 131}, // hot relay
		{X: 133, Y: 119}, // cold relay
		{X: 137, Y: 125}, // source
	}
	nw, err := netmodel.NewCustomNetwork(p, su, []geom.Point{su[1]})
	if err != nil {
		t.Fatal(err)
	}
	parents, err := BuildParents(nw, 8, MetricAccumulated)
	if err != nil {
		t.Fatal(err)
	}
	if parents[3] != 2 {
		t.Errorf("source routed via node %d, want cold relay 2", parents[3])
	}
}

func TestMetricString(t *testing.T) {
	for _, m := range []Metric{MetricAccumulated, MetricHighest, MetricMixed, Metric(42)} {
		if m.String() == "" {
			t.Errorf("metric %d has empty string", m)
		}
	}
}

// BuildParents on a WithParams copy, whose adjacency the original already
// memoized, matches a build on a fresh network over the same positions.
func TestBuildParentsOnSharedAdjacency(t *testing.T) {
	nw := fixture(t, 5)
	nw.Adjacency()
	shared, err := nw.WithParams(nw.Params)
	if err != nil {
		t.Fatal(err)
	}
	a, err := BuildParents(shared, 30, MetricAccumulated)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := netmodel.NewCustomNetwork(nw.Params, nw.SU, nw.PU)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildParents(fresh, 30, MetricAccumulated)
	if err != nil {
		t.Fatal(err)
	}
	for v := range a {
		if a[v] != b[v] {
			t.Fatalf("shared-adjacency parents diverge at node %d", v)
		}
	}
}
