// Package multichannel extends the reproduction beyond the paper: the
// licensed spectrum is split into C orthogonal channels, each primary user
// is licensed to one channel, and secondary users carrier-sense per
// channel. Routing still follows a data collection tree; each secondary
// node owns a home channel and is addressed on it (receiver-driven channel
// assignment, the standard single-radio convergecast discipline), so up to
// C transmissions can proceed inside one PCR disk.
//
// Single-radio deafness is modeled honestly: a transmission toward a parent
// that is itself transmitting (on its own parent's channel) is lost and
// retransmitted. The paper analyzes the single-channel case only; this
// package is marked as an extension in DESIGN.md and EXPERIMENTS.md.
//
// The package only assigns channels: the run itself is one core collection
// with CollectConfig.Channels set, on the same MAC as every other run (see
// mac.Config.Channels). At C = 1 it is therefore exactly core.Run.
package multichannel

import (
	"context"
	"fmt"
	"time"

	"addcrn/internal/core"
	"addcrn/internal/netmodel"
	"addcrn/internal/pcr"
	"addcrn/internal/stats"
)

// AssignMode selects how home channels are assigned to secondary nodes.
type AssignMode uint8

// Channel assignment policies.
const (
	// AssignRoundRobin gives node v channel v mod C — cheap and uniform.
	AssignRoundRobin AssignMode = iota + 1
	// AssignLeastPU gives each node the channel with the fewest PUs
	// within its PCR, maximizing its spectrum opportunity.
	AssignLeastPU
)

// String implements fmt.Stringer.
func (m AssignMode) String() string {
	switch m {
	case AssignRoundRobin:
		return "round-robin"
	case AssignLeastPU:
		return "least-pu"
	default:
		return fmt.Sprintf("assign(%d)", uint8(m))
	}
}

// Options configures a multi-channel collection run.
type Options struct {
	// Params is the system model (single-channel bandwidth W is split
	// evenly, so the per-channel slot length is unchanged and capacity
	// figures stay comparable).
	Params netmodel.Params
	// Channels is C >= 1.
	Channels int
	// Assign selects the home-channel policy (default least-PU).
	Assign AssignMode
	// Seed drives deployment, PU activity and backoffs.
	Seed uint64
	// MaxVirtualTime bounds the run (default 2 virtual hours).
	MaxVirtualTime time.Duration
}

// Result reports a multi-channel run.
type Result struct {
	// DelaySlots is the collection delay in slots.
	DelaySlots float64
	// Capacity is n*B / delay in bit/s.
	Capacity float64
	// Delivered and Expected count packets.
	Delivered int
	Expected  int
	// Transmissions, Aborts and DeafnessLosses aggregate MAC activity;
	// deafness losses are transmissions wasted because the parent was
	// itself transmitting.
	Transmissions  int
	Aborts         int
	DeafnessLosses int
	// ChannelLoad[c] is the fraction of completed transmissions that used
	// channel c.
	ChannelLoad []float64
	// HopStats summarizes per-packet hop counts.
	HopStats stats.Summary
}

// Run deploys a network, builds the ADDC CDS tree, assigns home channels
// and collects one snapshot over C channels.
func Run(opts Options) (*Result, error) {
	if opts.Channels < 1 {
		return nil, fmt.Errorf("multichannel: need at least one channel, got %d", opts.Channels)
	}
	if opts.MaxVirtualTime <= 0 {
		opts.MaxVirtualTime = 2 * time.Hour
	}
	nw, err := core.BuildNetwork(core.Options{Params: opts.Params, Seed: opts.Seed})
	if err != nil {
		return nil, err
	}
	tree, err := core.BuildTree(nw)
	if err != nil {
		return nil, err
	}
	home, err := HomeChannels(nw, opts.Channels, opts.Assign)
	if err != nil {
		return nil, err
	}
	res, err := core.CollectContext(context.Background(), nw, tree.Parent, core.CollectConfig{
		Seed:           opts.Seed,
		MaxVirtualTime: opts.MaxVirtualTime,
		Channels:       opts.Channels,
		Home:           home,
	})
	if err != nil {
		return nil, err
	}
	return &Result{
		DelaySlots:     res.DelaySlots,
		Capacity:       res.Capacity,
		Delivered:      res.Delivered,
		Expected:       res.Expected,
		Transmissions:  res.TotalTransmissions,
		Aborts:         res.TotalAborts,
		DeafnessLosses: res.TotalDeafnessLosses,
		ChannelLoad:    res.ChannelLoad,
		HopStats:       res.HopStats,
	}, nil
}

// HomeChannels picks each secondary node's receive channel under mode
// (default least-PU), for use as core.CollectConfig.Home. PU i is licensed to
// channel i mod C (see spectrum.ExactModel); least-PU counts the PUs within
// the node's PCR, derived from nw.Params.
func HomeChannels(nw *netmodel.Network, channels int, mode AssignMode) ([]int, error) {
	if channels < 1 {
		return nil, fmt.Errorf("multichannel: need at least one channel, got %d", channels)
	}
	consts, err := pcr.Compute(nw.Params)
	if err != nil {
		return nil, err
	}
	pcrRange := consts.Range
	home := make([]int, nw.NumNodes())
	switch mode {
	case AssignRoundRobin:
		for v := range home {
			home[v] = v % channels
		}
	default: // AssignLeastPU
		var buf []int32
		counts := make([]int, channels)
		for v := 0; v < nw.NumNodes(); v++ {
			for c := range counts {
				counts[c] = 0
			}
			buf = nw.PUsNear(nw.SU[v], pcrRange, buf[:0])
			for _, pu := range buf {
				counts[int(pu)%channels]++
			}
			best := v % channels // deterministic tie-break varies per node
			for c := 0; c < channels; c++ {
				cand := (v + c) % channels
				if counts[cand] < counts[best] {
					best = cand
				}
			}
			home[v] = best
		}
	}
	return home, nil
}
