// Package coolest implements the comparison baseline of the paper's
// evaluation: the "Coolest Path" spectrum-mobility-aware routing metrics of
// Huang, Lu, Li and Fang (ICDCS 2011), adapted to data collection exactly
// as the paper describes ("the path with the most balanced and/or the
// lowest spectrum utilization by PUs is preferred"; every SU forwards its
// snapshot packet along its preferred path to the base station).
//
// The node's "spectrum temperature" is its per-slot probability of being
// blocked by primary activity — the spectrum utilization by PUs observed at
// the node:
//
//	temp(v) = 1 - (1 - p_t)^{k_v},
//
// with k_v the number of PUs within the node's carrier-sensing range.
// Three path metrics are provided, following the source paper:
//
//   - Accumulated: minimize the sum of temperatures along the path;
//   - Highest: minimize the maximum temperature along the path;
//   - Mixed: minimize the sum while penalizing hot spots (sum of
//     temperature plus a quadratic hot-spot penalty), a practical blend of
//     the other two.
//
// Routing uses the same physical topology G_s and the same CSMA MAC as
// ADDC; only the parent structure differs, so measured delay gaps isolate
// the routing decision (DESIGN.md Section 6).
package coolest

import (
	"fmt"
	"math"

	"addcrn/internal/graphx"
	"addcrn/internal/netmodel"
)

// Metric selects the Coolest path metric.
type Metric uint8

// Path metrics from the Coolest paper.
const (
	MetricAccumulated Metric = iota + 1
	MetricHighest
	MetricMixed
)

// String implements fmt.Stringer.
func (m Metric) String() string {
	switch m {
	case MetricAccumulated:
		return "accumulated"
	case MetricHighest:
		return "highest"
	case MetricMixed:
		return "mixed"
	default:
		return fmt.Sprintf("metric(%d)", uint8(m))
	}
}

// Temperatures computes the spectrum temperature of every secondary node
// for network nw with carrier-sensing range sensingRange.
func Temperatures(nw *netmodel.Network, sensingRange float64) []float64 {
	temps := make([]float64, nw.NumNodes())
	pt := nw.Params.ActiveProb
	for v := range temps {
		k := nw.PUGrid.CountWithin(nw.SU[v], sensingRange)
		temps[v] = 1 - math.Pow(1-pt, float64(k))
	}
	return temps
}

// BuildParents computes the Coolest routing tree: parent[v] is v's next hop
// toward the base station along its metric-optimal path; the base station's
// entry is -1. The epsilon hop cost added to each node weight breaks
// zero-temperature ties toward fewer hops (otherwise a cold network yields
// arbitrary-length zero-cost paths). Paths run over nw's unit-disk graph
// (nw.Adjacency), the same graph ADDC's CDS tree is built on.
func BuildParents(nw *netmodel.Network, sensingRange float64, metric Metric) ([]int32, error) {
	adj := nw.Adjacency()
	temps := Temperatures(nw, sensingRange)
	weight := make([]float64, len(temps))
	const hopEpsilon = 1e-6
	switch metric {
	case MetricAccumulated, MetricHighest:
		for v, t := range temps {
			weight[v] = t + hopEpsilon
		}
	case MetricMixed:
		for v, t := range temps {
			weight[v] = t + t*t + hopEpsilon
		}
	default:
		return nil, fmt.Errorf("coolest: unknown metric %v", metric)
	}

	var (
		spt *graphx.ShortestPathTree
		err error
	)
	if metric == MetricHighest {
		spt, err = adj.BottleneckDijkstra(netmodel.BaseStationID, weight)
	} else {
		spt, err = adj.SumDijkstra(netmodel.BaseStationID, weight)
	}
	if err != nil {
		return nil, fmt.Errorf("coolest: dijkstra: %w", err)
	}
	for v, p := range spt.Parent {
		if v != netmodel.BaseStationID && p == -1 {
			return nil, fmt.Errorf("coolest: node %d unreachable from base station", v)
		}
	}
	parent := make([]int32, len(spt.Parent))
	copy(parent, spt.Parent)
	return parent, nil
}
