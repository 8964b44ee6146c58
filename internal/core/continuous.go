package core

import (
	"fmt"
	"time"

	"addcrn/internal/mac"
	"addcrn/internal/netmodel"
	"addcrn/internal/pcr"
	"addcrn/internal/rng"
	"addcrn/internal/sim"
	"addcrn/internal/spectrum"
	"addcrn/internal/stats"
)

// ContinuousOptions configures a continuous data collection run: the
// network produces a fresh snapshot (one packet per SU) every Interval, for
// Snapshots rounds, and ADDC drains them concurrently. This is the
// pipelined regime the paper's companion works ([12], [13], [23], [24] in
// its bibliography) study; the paper itself analyzes the single-snapshot
// case, so this is an extension, not a reproduced result.
type ContinuousOptions struct {
	// Options embeds the single-snapshot configuration (params, seed, PU
	// model, deployment attempts). MaxVirtualTime bounds the whole run.
	Options
	// Snapshots is the number of snapshot rounds (>= 1).
	Snapshots int
	// Interval is the period between snapshot generations; it must be
	// positive. If it is shorter than the per-snapshot drain time the
	// network backlogs and per-snapshot delay grows round over round.
	Interval time.Duration
}

// ContinuousResult reports a continuous collection run.
type ContinuousResult struct {
	// SnapshotDelaySlots summarizes, across snapshot rounds, the time from
	// a snapshot's generation to its last packet reaching the base
	// station, in slots.
	SnapshotDelaySlots stats.Summary
	// FirstDelaySlots and LastDelaySlots single out the first and final
	// rounds; LastDelaySlots >> FirstDelaySlots indicates backlog growth
	// (Interval below the sustainable rate).
	FirstDelaySlots float64
	LastDelaySlots  float64
	// SustainedCapacity is total delivered bits divided by the time from
	// the first generation to the last delivery.
	SustainedCapacity float64
	// Delivered counts packets received; Expected is Snapshots * n.
	Delivered int
	Expected  int
	// TotalTime is the virtual time when the final packet arrived.
	TotalTime sim.Time
}

// RunContinuous deploys a network, builds the ADDC tree, and collects
// Snapshots successive snapshots generated every Interval.
func RunContinuous(opts ContinuousOptions) (*ContinuousResult, error) {
	if opts.Snapshots < 1 {
		return nil, fmt.Errorf("core: snapshots must be >= 1, got %d", opts.Snapshots)
	}
	if opts.Interval <= 0 {
		return nil, fmt.Errorf("core: snapshot interval must be positive, got %v", opts.Interval)
	}
	nw, err := BuildNetwork(opts.Options)
	if err != nil {
		return nil, err
	}
	tree, err := BuildTree(nw)
	if err != nil {
		return nil, err
	}
	return CollectContinuous(nw, tree.Parent, opts)
}

// CollectContinuous is RunContinuous over a prebuilt topology and routing.
func CollectContinuous(nw *netmodel.Network, parent []int32, opts ContinuousOptions) (*ContinuousResult, error) {
	consts, err := pcr.Compute(nw.Params)
	if err != nil {
		return nil, err
	}
	if opts.MaxVirtualTime <= 0 {
		opts.MaxVirtualTime = 2 * time.Hour
	}
	if opts.PUModel == 0 {
		opts.PUModel = spectrum.ModelExact
	}

	eng := sim.New()
	src := rng.New(opts.Seed)
	n := nw.NumNodes() - 1
	interval := sim.FromDuration(opts.Interval)
	slot := sim.FromDuration(nw.Params.Slot)

	res := &ContinuousResult{Expected: n * opts.Snapshots}
	perRound := make([]int, opts.Snapshots)       // deliveries per round
	roundDone := make([]sim.Time, opts.Snapshots) // completion times
	done := false

	m, err := mac.New(mac.Config{
		Network:      nw,
		Parent:       parent,
		PUSenseRange: consts.Range,
		SUSenseRange: consts.Range,
		Engine:       eng,
		Rand:         src,
		OnDeliver: func(pkt mac.Packet, now sim.Time) {
			res.Delivered++
			round := int(int64(pkt.Born) / int64(interval))
			if round >= 0 && round < opts.Snapshots {
				perRound[round]++
				if perRound[round] == n {
					roundDone[round] = now
				}
			}
			if res.Delivered == res.Expected {
				res.TotalTime = now
				done = true
			}
		},
	})
	if err != nil {
		return nil, err
	}
	var model spectrum.PUModel
	switch opts.PUModel {
	case spectrum.ModelExact:
		model = spectrum.NewExactModel(nw, m.Trackers(), src)
	case spectrum.ModelAggregate:
		model = spectrum.NewAggregateModel(nw, m.Trackers()[0], src)
	default:
		return nil, fmt.Errorf("core: unknown PU model %v", opts.PUModel)
	}
	model.Start(eng)

	// Round 0 now, rounds 1..S-1 on the interval grid.
	for round := 0; round < opts.Snapshots; round++ {
		at := sim.Time(round) * interval
		round := round
		if _, err := eng.At(at, func(now sim.Time) {
			for v := 1; v <= n; v++ {
				m.Enqueue(int32(v), mac.Packet{Origin: int32(v), Born: now})
			}
			_ = round
		}); err != nil {
			return nil, err
		}
	}

	deadline := sim.FromDuration(opts.MaxVirtualTime)
	for !done {
		if !eng.Step() {
			return res, fmt.Errorf("core: continuous run stalled with %d/%d delivered", res.Delivered, res.Expected)
		}
		if eng.Now() > deadline {
			finishContinuous(res, nw, perRound, roundDone, interval, slot, opts.Snapshots)
			return res, fmt.Errorf("core: %d/%d delivered by %v: %w",
				res.Delivered, res.Expected, eng.Now().Duration(), ErrDeadline)
		}
	}
	finishContinuous(res, nw, perRound, roundDone, interval, slot, opts.Snapshots)
	return res, nil
}

func finishContinuous(res *ContinuousResult, nw *netmodel.Network,
	perRound []int, roundDone []sim.Time, interval, slot sim.Time, snapshots int) {
	n := nw.NumNodes() - 1
	delays := make([]float64, 0, snapshots)
	for round := 0; round < snapshots; round++ {
		if perRound[round] != n {
			continue // incomplete round (deadline path)
		}
		born := sim.Time(round) * interval
		delays = append(delays, float64(roundDone[round]-born)/float64(slot))
	}
	res.SnapshotDelaySlots = stats.Summarize(delays)
	if len(delays) > 0 {
		res.FirstDelaySlots = delays[0]
		res.LastDelaySlots = delays[len(delays)-1]
	}
	if res.TotalTime > 0 {
		res.SustainedCapacity = float64(res.Delivered) * nw.Params.PacketBits / res.TotalTime.Seconds()
	}
}
