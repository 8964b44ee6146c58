package netmodel

import (
	"errors"
	"fmt"

	"addcrn/internal/geom"
	"addcrn/internal/rng"
)

// ErrDisconnected is returned when the secondary network graph G_s is not
// connected. The paper assumes connectivity (Section III); deployment can
// resample until the assumption holds.
var ErrDisconnected = errors.New("netmodel: secondary network is disconnected")

// BaseStationID is the node index of the sink s_b in a Network's SU slice.
// SUs s_1..s_n occupy indices 1..n.
const BaseStationID = 0

// Network is one realized deployment: positions of the base station, the n
// SUs, and the N PUs, plus the parameters that generated it.
type Network struct {
	Params Params
	// SU[0] is the base station; SU[1..n] are the secondary users.
	SU []geom.Point
	// PU[0..N-1] are the primary users.
	PU []geom.Point

	// SUGrid indexes SU (including the base station) with cell size r.
	SUGrid *geom.Grid
	// PUGrid indexes PU with cell size R.
	PUGrid *geom.Grid

	// derived holds the graphs memoized from the positions (see
	// Adjacency); WithParams copies share it.
	derived *derived
}

// NumNodes returns the number of secondary nodes including the base station.
func (nw *Network) NumNodes() int { return len(nw.SU) }

// Bounds returns the deployment rectangle.
func (nw *Network) Bounds() geom.Rect { return geom.Square(nw.Params.Area) }

// WithParams returns a copy of nw that reports p as its parameters while
// sharing every topology structure — positions, spatial grids, and the
// memoized adjacency and neighbor tables — with nw. It is how a memoized
// deployment serves a whole sweep axis: the protocol knobs (slot length,
// contention window, activity probability, packet budget, ...) vary per
// grid point, the placement does not. Every field of p that shapes the
// deployment — NumSU, NumPU, Area, RadiusSU, RadiusPU — must equal nw's;
// WithParams refuses otherwise, since the shared grids, positions and
// graphs would silently describe a different network.
func (nw *Network) WithParams(p Params) (*Network, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	q := nw.Params
	if p.NumSU != q.NumSU || p.NumPU != q.NumPU || p.Area != q.Area ||
		p.RadiusSU != q.RadiusSU || p.RadiusPU != q.RadiusPU {
		return nil, fmt.Errorf("netmodel: WithParams changes the deployment geometry (n=%d→%d N=%d→%d area=%v→%v r=%v→%v R=%v→%v)",
			q.NumSU, p.NumSU, q.NumPU, p.NumPU, q.Area, p.Area, q.RadiusSU, p.RadiusSU, q.RadiusPU, p.RadiusPU)
	}
	cp := *nw
	cp.Params = p
	return &cp, nil
}

// Deploy places the base station at the area center and the SUs and PUs
// i.i.d. uniformly at random, then builds the spatial indexes. It does not
// check connectivity; see DeployConnected.
func Deploy(p Params, src *rng.Source) (*Network, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	bounds := geom.Square(p.Area)
	nw := &Network{
		Params: p,
		SU:     make([]geom.Point, p.NumSU+1),
		PU:     make([]geom.Point, p.NumPU),
	}
	nw.SU[BaseStationID] = bounds.Center()
	suSrc := src.Child("deploy/su")
	for i := 1; i <= p.NumSU; i++ {
		nw.SU[i] = uniformPoint(bounds, suSrc)
	}
	puSrc := src.Child("deploy/pu")
	for i := range nw.PU {
		nw.PU[i] = uniformPoint(bounds, puSrc)
	}
	if err := nw.buildGrids(); err != nil {
		return nil, err
	}
	return nw, nil
}

// NewCustomNetwork builds a Network from explicit positions instead of a
// random deployment: su[0] is the base station. Tests and examples use it
// to construct exact scenarios (hidden terminals, line topologies).
func NewCustomNetwork(p Params, su, pu []geom.Point) (*Network, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(su) != p.NumSU+1 {
		return nil, fmt.Errorf("netmodel: %d SU positions for n=%d (need n+1 with the base station)",
			len(su), p.NumSU)
	}
	if len(pu) != p.NumPU {
		return nil, fmt.Errorf("netmodel: %d PU positions for N=%d", len(pu), p.NumPU)
	}
	bounds := geom.Square(p.Area)
	for i, pt := range su {
		if !bounds.Contains(pt) {
			return nil, fmt.Errorf("netmodel: SU %d at %v outside %v", i, pt, bounds)
		}
	}
	for i, pt := range pu {
		if !bounds.Contains(pt) {
			return nil, fmt.Errorf("netmodel: PU %d at %v outside %v", i, pt, bounds)
		}
	}
	nw := &Network{
		Params: p,
		SU:     append([]geom.Point(nil), su...),
		PU:     append([]geom.Point(nil), pu...),
	}
	if err := nw.buildGrids(); err != nil {
		return nil, err
	}
	return nw, nil
}

// DeployAttempts is how many deployments every entry point samples before
// giving up on a connected one.
const DeployAttempts = 50

// DeployConnected deploys repeatedly (up to maxAttempts, each with a child
// seed) until the secondary network's unit-disk graph is connected, matching
// the paper's standing assumption. It returns ErrDisconnected (wrapped) when
// every attempt fails.
func DeployConnected(p Params, src *rng.Source, maxAttempts int) (*Network, error) {
	if maxAttempts < 1 {
		maxAttempts = 1
	}
	for attempt := 0; attempt < maxAttempts; attempt++ {
		nw, err := Deploy(p, src.ChildN("deploy/attempt", attempt))
		if err != nil {
			return nil, err
		}
		if nw.Connected() {
			return nw, nil
		}
	}
	return nil, fmt.Errorf("netmodel: %d deployment attempts: %w", maxAttempts, ErrDisconnected)
}

func (nw *Network) buildGrids() error {
	nw.derived = &derived{}
	bounds := nw.Bounds()
	var err error
	nw.SUGrid, err = geom.NewGrid(bounds, nw.Params.RadiusSU, nw.SU)
	if err != nil {
		return fmt.Errorf("netmodel: SU grid: %w", err)
	}
	// An empty primary network is legal (stand-alone secondary network used
	// in Theorem 1's proof); keep a grid over a single dummy-free point set.
	puCell := nw.Params.RadiusPU
	nw.PUGrid, err = geom.NewGrid(bounds, puCell, nw.PU)
	if err != nil {
		return fmt.Errorf("netmodel: PU grid: %w", err)
	}
	return nil
}

// Connected reports whether the SU unit-disk graph (communication radius r,
// base station included) is connected, via BFS over the grid index.
func (nw *Network) Connected() bool {
	n := nw.NumNodes()
	if n <= 1 {
		return true
	}
	visited := make([]bool, n)
	queue := make([]int32, 0, n)
	queue = append(queue, BaseStationID)
	visited[BaseStationID] = true
	seen := 1
	var buf []int32
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		buf = nw.SUGrid.Within(nw.SU[cur], nw.Params.RadiusSU, buf[:0])
		for _, nb := range buf {
			if !visited[nb] {
				visited[nb] = true
				seen++
				queue = append(queue, nb)
			}
		}
	}
	return seen == n
}

// PUsNear appends to dst the indices of primary users within distance radius
// of point pt.
func (nw *Network) PUsNear(pt geom.Point, radius float64, dst []int32) []int32 {
	return nw.PUGrid.Within(pt, radius, dst)
}

func uniformPoint(r geom.Rect, src *rng.Source) geom.Point {
	return geom.Point{
		X: r.MinX + src.Float64()*r.Width(),
		Y: r.MinY + src.Float64()*r.Height(),
	}
}
