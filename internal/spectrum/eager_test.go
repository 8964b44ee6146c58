package spectrum

import (
	"cmp"
	"fmt"
	"slices"

	"addcrn/internal/geom"
	"addcrn/internal/netmodel"
	"addcrn/internal/sim"
)

// medium is the carrier-sense surface a contract script drives: the
// production Tracker, or the eager reference it is checked against.
type medium interface {
	AddSUTransmitter(id int32, now sim.Time)
	RemoveSUTransmitter(id int32, now sim.Time)
	AddPUTransmitter(i int32, now sim.Time)
	RemovePUTransmitter(i int32, now sim.Time)
	BlockNode(node int32, now sim.Time)
	UnblockNode(node int32, now sim.Time)
	Busy(node int32) bool
	BusyCount(node int32) int32
}

// eagerTracker is the reference the production Tracker is checked against:
// the carrier-sense rule kept eagerly, with one busy counter per node that
// counts its blocks and every active transmitter in range. A toggle first
// updates every counter in the transmitter's row, then delivers
// SpectrumBusy to each node whose counter rose from zero, or SpectrumFree
// to each that fell to zero, re-reading the counter before each callback
// because an earlier callback may have reentered. A PU arrival (and a
// block) then delivers PUArrived to every node in its row. It reads no
// eligibility marks, and its rows come from a distance test over every SU,
// so it shares none of netmodel's tables or bitsets with the Tracker.
type eagerTracker struct {
	obs            Observer
	busy           []int32
	suRows, puRows [][]int32
}

func newEagerTracker(nw *netmodel.Network, puRange, suRange float64, obs Observer) *eagerTracker {
	return &eagerTracker{
		obs:    obs,
		busy:   make([]int32, nw.NumNodes()),
		suRows: bruteRows(nw, nw.SU, suRange),
		puRows: bruteRows(nw, nw.PU, puRange),
	}
}

// bruteRows returns, for each center, every SU within radius of it
// (boundary included, the SU at the center too), sorted by SU grid rank:
// the order the Tracker walks its rows in.
func bruteRows(nw *netmodel.Network, centers []geom.Point, radius float64) [][]int32 {
	rank := nw.SUGrid.Ranks()
	rows := make([][]int32, len(centers))
	for i, c := range centers {
		for v, p := range nw.SU {
			if p.Dist2(c) <= radius*radius {
				rows[i] = append(rows[i], int32(v))
			}
		}
		slices.SortFunc(rows[i], func(a, b int32) int { return cmp.Compare(rank[a], rank[b]) })
	}
	return rows
}

// add raises the counter of every node of row but exclude, then delivers.
func (t *eagerTracker) add(row []int32, exclude int32, arrival bool, now sim.Time) {
	var rose []int32
	for _, v := range row {
		if v == exclude {
			continue
		}
		if t.busy[v]++; t.busy[v] == 1 {
			rose = append(rose, v)
		}
	}
	for _, v := range rose {
		if t.busy[v] > 0 {
			t.obs.SpectrumBusy(v, now)
		}
	}
	if arrival {
		for _, v := range row {
			t.obs.PUArrived(v, now)
		}
	}
}

// remove reverses add.
func (t *eagerTracker) remove(row []int32, exclude int32, now sim.Time) {
	var fell []int32
	for _, v := range row {
		if v == exclude {
			continue
		}
		switch t.busy[v]--; {
		case t.busy[v] < 0:
			panic(fmt.Sprintf("eager reference: negative busy count at node %d", v))
		case t.busy[v] == 0:
			fell = append(fell, v)
		}
	}
	for _, v := range fell {
		if t.busy[v] == 0 {
			t.obs.SpectrumFree(v, now)
		}
	}
}

func (t *eagerTracker) AddSUTransmitter(id int32, now sim.Time) { t.add(t.suRows[id], id, false, now) }
func (t *eagerTracker) RemoveSUTransmitter(id int32, now sim.Time) {
	t.remove(t.suRows[id], id, now)
}
func (t *eagerTracker) AddPUTransmitter(i int32, now sim.Time)    { t.add(t.puRows[i], -1, true, now) }
func (t *eagerTracker) RemovePUTransmitter(i int32, now sim.Time) { t.remove(t.puRows[i], -1, now) }
func (t *eagerTracker) BlockNode(v int32, now sim.Time)           { t.add([]int32{v}, -1, true, now) }
func (t *eagerTracker) UnblockNode(v int32, now sim.Time)         { t.remove([]int32{v}, -1, now) }
func (t *eagerTracker) Busy(v int32) bool                         { return t.busy[v] > 0 }
func (t *eagerTracker) BusyCount(v int32) int32                   { return t.busy[v] }
