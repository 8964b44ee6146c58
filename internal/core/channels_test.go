package core

import (
	"strings"
	"testing"
	"time"

	"addcrn/internal/fault"
)

// roundRobinHome gives node v home channel v mod channels.
func roundRobinHome(n, channels int) []int {
	home := make([]int, n)
	for v := range home {
		home[v] = v % channels
	}
	return home
}

// TestChannelsRejectedConfigs checks that a run on more than one channel
// refuses every feature it does not support, and a home slice that does not
// describe the network.
func TestChannelsRejectedConfigs(t *testing.T) {
	opts := smallOptions(1)
	nw, err := BuildNetwork(opts)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := BuildTree(nw)
	if err != nil {
		t.Fatal(err)
	}
	n := nw.NumNodes()
	outOfRange := roundRobinHome(n, 4)
	outOfRange[n-1] = 4
	for _, tc := range []struct {
		name string
		edit func(*CollectConfig)
		want string
	}{
		{"generic-csma", func(c *CollectConfig) { c.GenericCSMA = true }, "GenericCSMA"},
		{"sir-validate", func(c *CollectConfig) { c.SIRValidate = true }, "SIRValidate"},
		{"faults", func(c *CollectConfig) { c.Faults = &fault.Spec{LinkLoss: 0.1} }, "Faults"},
		{"nil-home", func(c *CollectConfig) { c.Home = nil }, "home slice"},
		{"short-home", func(c *CollectConfig) { c.Home = c.Home[:n-1] }, "home slice"},
		{"home-out-of-range", func(c *CollectConfig) { c.Home = outOfRange }, "home channel"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := CollectConfig{Seed: 1, Channels: 4, Home: roundRobinHome(n, 4)}
			tc.edit(&cfg)
			_, err := Collect(nw, tree.Parent, cfg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want one naming %q", err, tc.want)
			}
		})
	}
	// A zero fault spec injects nothing, so it stays allowed.
	_, err = Collect(nw, tree.Parent, CollectConfig{
		Seed: 1, Channels: 4, Home: roundRobinHome(n, 4), Faults: &fault.Spec{},
	})
	if err != nil {
		t.Fatalf("zero fault spec on 4 channels: %v", err)
	}
}

// TestChannelsGuardClean runs four channels under the invariant guards:
// concurrent-set separation is checked per channel, so transmitters on
// different channels may share a PCR disk, and the run must report checks
// but no violation.
func TestChannelsGuardClean(t *testing.T) {
	opts := smallOptions(2)
	nw, err := BuildNetwork(opts)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := BuildTree(nw)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Collect(nw, tree.Parent, CollectConfig{
		Seed:           2,
		MaxVirtualTime: 2 * time.Hour,
		Guard:          true,
		Channels:       4,
		Home:           roundRobinHome(nw.NumNodes(), 4),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != res.Expected {
		t.Fatalf("delivered %d/%d", res.Delivered, res.Expected)
	}
	if res.Guard.ConcurrencyChecks == 0 {
		t.Fatal("guard checked no transmission start")
	}
	if n := res.Guard.ViolationCount(); n != 0 {
		t.Fatalf("%d violations, first: %v", n, res.Guard.Violations[0])
	}
	if len(res.ChannelLoad) != 4 {
		t.Fatalf("ChannelLoad %v, want 4 channels", res.ChannelLoad)
	}
}
