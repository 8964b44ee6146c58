// Package central implements the centralized, synchronized data collection
// scheduler the paper's order-optimality claim compares against (its
// references [12], [13], [23], [24] are centralized TDMA-style collection
// algorithms). With global knowledge and perfect slot synchronization, a
// scheduler picks, in every slot, a maximal set of ready tree links that
//
//   - are pairwise separated by at least the PCR (so the set is a
//     concurrent set under Lemmas 2-3), and
//   - have no active primary user within the PCR of the transmitter (the
//     same protection rule the distributed MAC enforces).
//
// Comparing ADDC's delay against this genie-aided lower baseline measures
// the constant factor the "order-optimal" claim hides: both are O(n)
// at fixed density, and the measured ratio is the price of asynchrony and
// carrier sensing.
package central

import (
	"fmt"
	"time"

	"addcrn/internal/core"
	"addcrn/internal/netmodel"
	"addcrn/internal/pcr"
	"addcrn/internal/rng"
	"addcrn/internal/stats"
)

// Options configures a centralized collection run.
type Options struct {
	// Params is the system model.
	Params netmodel.Params
	// Seed drives deployment and PU activity.
	Seed uint64
	// MaxSlots bounds the schedule length (default 10 million).
	MaxSlots int64
}

// Result reports a centralized run.
type Result struct {
	// DelaySlots is the number of slots until the sink held all packets.
	DelaySlots float64
	// Capacity is n*B / delay in bit/s.
	Capacity float64
	// Delivered and Expected count packets.
	Delivered int
	Expected  int
	// Transmissions counts successful link activations.
	Transmissions int
	// BlockedLinkSlots counts (link, slot) pairs skipped due to primary
	// activity.
	BlockedLinkSlots int
	// Concurrency summarizes the scheduled set size per busy slot.
	Concurrency stats.Summary
}

// Run deploys a network, builds the ADDC CDS tree and runs the centralized
// schedule to completion.
func Run(opts Options) (*Result, error) {
	src := rng.New(opts.Seed)
	nw, err := netmodel.DeployConnected(opts.Params, src, netmodel.DeployAttempts)
	if err != nil {
		return nil, err
	}
	tree, err := core.BuildTree(nw)
	if err != nil {
		return nil, err
	}
	return Collect(nw, tree.Parent, opts, src)
}

// Collect runs the centralized schedule over a prebuilt topology and
// routing tree.
func Collect(nw *netmodel.Network, parent []int32, opts Options, src *rng.Source) (*Result, error) {
	consts, err := pcr.Compute(nw.Params)
	if err != nil {
		return nil, err
	}
	maxSlots := opts.MaxSlots
	if maxSlots <= 0 {
		maxSlots = 10_000_000
	}
	n := nw.NumNodes() - 1
	res := &Result{Expected: n}

	queue := make([]int, nw.NumNodes()) // packets held per node
	for v := 1; v <= n; v++ {
		queue[v] = 1
	}

	// PU state evolves per slot with the usual geometric-run shortcut
	// flattened to per-slot resampling (slot loop is already O(slots)).
	puSrc := src.Child("central/pu")
	puActive := make([]bool, len(nw.PU))
	pt := nw.Params.ActiveProb

	// ready lists candidate transmitters each slot; order by node id keeps
	// the greedy deterministic. Rotating the start index spreads access
	// fairly so no region starves.
	var chosen []int32
	var puBuf []int32
	var concurrency []float64
	rotate := 0
	var slot int64
	for slot = 0; res.Delivered < n && slot < maxSlots; slot++ {
		for i := range puActive {
			puActive[i] = puSrc.Bernoulli(pt)
		}
		chosen = chosen[:0]
		for off := 0; off < n; off++ {
			v := int32(1 + (off+rotate)%n)
			if queue[v] == 0 {
				continue
			}
			// Primary protection: no active PU within PCR of the sender.
			puBuf = nw.PUsNear(nw.SU[v], consts.Range, puBuf[:0])
			blocked := false
			for _, pu := range puBuf {
				if puActive[pu] {
					blocked = true
					break
				}
			}
			if blocked {
				res.BlockedLinkSlots++
				continue
			}
			// Secondary separation: pairwise >= PCR against the set.
			ok := true
			for _, u := range chosen {
				if nw.SU[v].Dist(nw.SU[u]) < consts.Range {
					ok = false
					break
				}
			}
			if ok {
				chosen = append(chosen, v)
			}
		}
		if len(chosen) == 0 {
			continue
		}
		rotate = (rotate + 1) % n
		for _, v := range chosen {
			queue[v]--
			res.Transmissions++
			p := parent[v]
			if int(p) == netmodel.BaseStationID {
				res.Delivered++
			} else {
				queue[p]++
			}
		}
		concurrency = append(concurrency, float64(len(chosen)))
	}
	res.Concurrency = stats.Summarize(concurrency)
	if res.Delivered < n {
		return res, fmt.Errorf("central: %d/%d delivered within %d slots", res.Delivered, n, maxSlots)
	}
	res.DelaySlots = float64(slot)
	if slot > 0 {
		duration := time.Duration(slot) * nw.Params.Slot
		res.Capacity = float64(res.Delivered) * nw.Params.PacketBits / duration.Seconds()
	}
	return res, nil
}
