package multichannel

import (
	"reflect"
	"testing"
	"time"

	"addcrn/internal/core"
	"addcrn/internal/netmodel"
	"addcrn/internal/pcr"
	"addcrn/internal/stats"
)

func testOpts(seed uint64, channels int) Options {
	p := netmodel.ScaledDefaultParams()
	p.NumSU = 120
	p.Area = 65
	p.NumPU = 6
	return Options{
		Params:         p,
		Channels:       channels,
		Seed:           seed,
		MaxVirtualTime: 2 * time.Hour,
	}
}

func TestRunSingleChannel(t *testing.T) {
	res, err := Run(testOpts(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != res.Expected {
		t.Fatalf("delivered %d/%d", res.Delivered, res.Expected)
	}
	if res.ChannelLoad[0] != 1 {
		t.Errorf("single channel carries load %v, want 1", res.ChannelLoad[0])
	}
}

func TestRunMultiChannelDeliversAll(t *testing.T) {
	for _, c := range []int{2, 3, 4} {
		res, err := Run(testOpts(2, c))
		if err != nil {
			t.Fatalf("C=%d: %v", c, err)
		}
		if res.Delivered != res.Expected {
			t.Fatalf("C=%d: delivered %d/%d", c, res.Delivered, res.Expected)
		}
		var load float64
		for _, l := range res.ChannelLoad {
			load += l
		}
		if load < 0.999 || load > 1.001 {
			t.Errorf("C=%d: channel load sums to %v", c, load)
		}
	}
}

func TestMoreChannelsReduceDelay(t *testing.T) {
	// Averaged over a few seeds, 4 channels must beat 1 channel: per-
	// channel PU load drops and spatial reuse multiplies.
	meanDelay := func(channels int) float64 {
		var sum float64
		const reps = 4
		for seed := uint64(10); seed < 10+reps; seed++ {
			res, err := Run(testOpts(seed, channels))
			if err != nil {
				t.Fatal(err)
			}
			sum += res.DelaySlots
		}
		return sum / reps
	}
	one := meanDelay(1)
	four := meanDelay(4)
	if four >= one {
		t.Errorf("4 channels (%.0f slots) not faster than 1 channel (%.0f slots)", four, one)
	}
}

func TestAssignModes(t *testing.T) {
	for _, mode := range []AssignMode{AssignRoundRobin, AssignLeastPU} {
		opts := testOpts(3, 3)
		opts.Assign = mode
		res, err := Run(opts)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if res.Delivered != res.Expected {
			t.Fatalf("%v: delivered %d/%d", mode, res.Delivered, res.Expected)
		}
		if mode.String() == "" {
			t.Error("empty mode string")
		}
	}
	if AssignMode(9).String() == "" {
		t.Error("unknown mode string empty")
	}
}

func TestRunValidation(t *testing.T) {
	opts := testOpts(4, 0)
	if _, err := Run(opts); err == nil {
		t.Error("zero channels accepted")
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := Run(testOpts(5, 2))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(testOpts(5, 2))
	if err != nil {
		t.Fatal(err)
	}
	if a.DelaySlots != b.DelaySlots || a.Transmissions != b.Transmissions ||
		a.DeafnessLosses != b.DeafnessLosses {
		t.Error("equal seeds diverged")
	}
}

func TestDeafnessAccounting(t *testing.T) {
	// Deafness losses must be retransmitted: transmissions (successful)
	// exactly cover every packet-hop, regardless of losses.
	res, err := Run(testOpts(6, 3))
	if err != nil {
		t.Fatal(err)
	}
	var hopTotal float64
	hopTotal = res.HopStats.Mean * float64(res.HopStats.N)
	if float64(res.Transmissions) < hopTotal-0.5 || float64(res.Transmissions) > hopTotal+0.5 {
		t.Errorf("successful transmissions %d != total hops %.0f", res.Transmissions, hopTotal)
	}
}

func TestAssignLeastPUAvoidsHotChannels(t *testing.T) {
	p := netmodel.ScaledDefaultParams()
	p.NumSU = 100
	p.Area = 60
	p.NumPU = 10
	const channels = 5
	nw, err := core.BuildNetwork(core.Options{Params: p, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := HomeChannels(nw, 0, AssignLeastPU); err == nil {
		t.Error("zero channels accepted")
	}
	home, err := HomeChannels(nw, channels, AssignLeastPU)
	if err != nil {
		t.Fatal(err)
	}
	consts, err := pcr.Compute(p)
	if err != nil {
		t.Fatal(err)
	}
	// The invariant: no node has a channel with strictly fewer PUs (PU i on
	// channel i mod C) within its PCR than its home channel.
	for v := range home {
		var counts [channels]int
		for i, pu := range nw.PU {
			if pu.Dist2(nw.SU[v]) <= consts.Range*consts.Range {
				counts[i%channels]++
			}
		}
		for c, n := range counts {
			if n < counts[home[v]] {
				t.Fatalf("node %d: home channel %d has %d PUs nearby, channel %d only %d", v, home[v], counts[home[v]], c, n)
			}
		}
	}
}

// TestSingleChannelMatchesCore pins C = 1 to the paper's single-channel
// engine: over twelve seeds, every field multichannel.Result shares with
// core.Result must be bit-identical to core.Run's, and a single channel must
// lose nothing to deafness.
func TestSingleChannelMatchesCore(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		opts := testOpts(seed, 1)
		got, err := Run(opts)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want, err := core.Run(core.Options{
			Params:         opts.Params,
			Seed:           seed,
			MaxVirtualTime: opts.MaxVirtualTime,
		})
		if err != nil {
			t.Fatalf("seed %d: core: %v", seed, err)
		}
		shared := func(delay, capacity float64, delivered, expected, tx, aborts int, hops stats.Summary) []any {
			return []any{delay, capacity, delivered, expected, tx, aborts, hops}
		}
		g := shared(got.DelaySlots, got.Capacity, got.Delivered, got.Expected, got.Transmissions, got.Aborts, got.HopStats)
		w := shared(want.DelaySlots, want.Capacity, want.Delivered, want.Expected, want.TotalTransmissions, want.TotalAborts, want.HopStats)
		if !reflect.DeepEqual(g, w) {
			t.Errorf("seed %d: multichannel %v, core %v", seed, g, w)
		}
		if got.DeafnessLosses != 0 {
			t.Errorf("seed %d: %d deafness losses on one channel", seed, got.DeafnessLosses)
		}
	}
}
