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
package multichannel

import (
	"fmt"
	"time"

	"addcrn/internal/cds"
	"addcrn/internal/core"
	"addcrn/internal/netmodel"
	"addcrn/internal/pcr"
	"addcrn/internal/rng"
	"addcrn/internal/sim"
	"addcrn/internal/spectrum"
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
	// DeployAttempts bounds connectivity resampling (default 50).
	DeployAttempts int
	// Prebuilt, when non-nil, supplies the deployment and routing tree
	// instead of building them from Params and Seed (the sweep engine
	// shares one memoized topology across channel counts), and its
	// Tables, when set, the CSR neighbor tables all C channels share. All
	// are treated read-only; they must describe the deployment the (Params,
	// Seed) pair would have produced, or determinism guarantees are void.
	Prebuilt *core.Prebuilt
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
	if opts.Assign == 0 {
		opts.Assign = AssignLeastPU
	}
	if opts.MaxVirtualTime <= 0 {
		opts.MaxVirtualTime = 2 * time.Hour
	}
	attempts := opts.DeployAttempts
	if attempts <= 0 {
		attempts = 50
	}
	src := rng.New(opts.Seed)
	// Child derivation is stateless, so skipping the deployment draw leaves
	// every later stream (backoffs, PU activity) bit-identical.
	var nw *netmodel.Network
	var tree *cds.Tree
	var tables spectrum.NeighborTables
	if pre := opts.Prebuilt; pre != nil {
		if pre.Network == nil || pre.Tree == nil {
			return nil, fmt.Errorf("multichannel: Prebuilt requires Network and Tree")
		}
		nw, tree, tables = pre.Network, pre.Tree, pre.Tables
	} else {
		var err error
		nw, err = netmodel.DeployConnected(opts.Params, src, attempts)
		if err != nil {
			return nil, err
		}
		tree, err = core.BuildTree(nw)
		if err != nil {
			return nil, err
		}
	}
	consts, err := pcr.Compute(opts.Params)
	if err != nil {
		return nil, err
	}

	puChannel := assignPUChannels(nw, opts.Channels)
	home := assignHomeChannels(nw, puChannel, opts.Channels, consts.Range, opts.Assign)

	eng := sim.New()
	m, err := newMAC(macConfig{
		nw:        nw,
		parent:    tree.Parent,
		channels:  opts.Channels,
		home:      home,
		puChannel: puChannel,
		pcrRange:  consts.Range,
		eng:       eng,
		src:       src,
		tables:    tables,
	})
	if err != nil {
		return nil, err
	}
	m.startPUs()
	m.startSnapshot()

	deadline := sim.FromDuration(opts.MaxVirtualTime)
	for !m.done() {
		if !eng.Step() {
			return nil, fmt.Errorf("multichannel: stalled with %d/%d delivered", m.delivered, m.expected)
		}
		if eng.Now() > deadline {
			return nil, fmt.Errorf("multichannel: %d/%d delivered by %v: %w",
				m.delivered, m.expected, eng.Now().Duration(), core.ErrDeadline)
		}
	}
	return m.result(nw, eng), nil
}

// assignPUChannels licenses PU i to channel i mod C.
func assignPUChannels(nw *netmodel.Network, channels int) []int {
	out := make([]int, len(nw.PU))
	for i := range out {
		out[i] = i % channels
	}
	return out
}

// assignHomeChannels picks each secondary node's receive channel.
func assignHomeChannels(nw *netmodel.Network, puChannel []int, channels int,
	pcrRange float64, mode AssignMode) []int {
	home := make([]int, nw.NumNodes())
	switch mode {
	case AssignLeastPU:
		var buf []int32
		counts := make([]int, channels)
		for v := 0; v < nw.NumNodes(); v++ {
			for c := range counts {
				counts[c] = 0
			}
			buf = nw.PUsNear(nw.SU[v], pcrRange, buf[:0])
			for _, pu := range buf {
				counts[puChannel[pu]]++
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
	default: // AssignRoundRobin
		for v := range home {
			home[v] = v % channels
		}
	}
	return home
}
