package multichannel

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"reflect"
	"testing"

	"addcrn/internal/core"
	"addcrn/internal/netmodel"
	"addcrn/internal/rng"
)

// goldenDigest is the SHA-256 over every Result field of the golden run
// set below, first recorded before the MAC moved onto the spectrum fast path
// (filtered delivery, lazy PU accounting, pre-bound events, one CSR table
// pair per run) to pin that path as bit-identical to the eager one,
// re-recorded once when rng.Source moved from math/rand to a PCG generator,
// and once more when C = 1 became bit-identical to core.Run (shared stream
// labels, core's capacity formula, and no deafness loss charged to a
// transmission that had already left the air).
const goldenDigest = "5f523be96589fffbdbe0982b07cfcc411005fb53cdf6aad37079584e9d1fc67c"

// hashResult feeds every field of r into h in a fixed order.
func hashResult(h hash.Hash, r *Result) {
	var buf [8]byte
	u := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	f := func(v float64) { u(math.Float64bits(v)) }
	f(r.DelaySlots)
	f(r.Capacity)
	u(uint64(r.Delivered))
	u(uint64(r.Expected))
	u(uint64(r.Transmissions))
	u(uint64(r.Aborts))
	u(uint64(r.DeafnessLosses))
	u(uint64(len(r.ChannelLoad)))
	for _, l := range r.ChannelLoad {
		f(l)
	}
	s := r.HopStats
	u(uint64(s.N))
	f(s.Mean)
	f(s.StdDev)
	f(s.Min)
	f(s.Max)
	f(s.Median)
}

// TestGoldenResults runs seeds 1–8 × C∈{1,2,4} × both assignment modes at
// the small test point, C=1 and C=4 at the scaled default (n=300), and seed
// 9 at C=4, and compares one digest over every Result against goldenDigest.
func TestGoldenResults(t *testing.T) {
	h := sha256.New()
	run := func(opts Options) {
		t.Helper()
		res, err := Run(opts)
		if err != nil {
			t.Fatalf("seed %d C=%d %v: %v", opts.Seed, opts.Channels, opts.Assign, err)
		}
		hashResult(h, res)
	}
	for seed := uint64(1); seed <= 8; seed++ {
		for _, c := range []int{1, 2, 4} {
			for _, mode := range []AssignMode{AssignRoundRobin, AssignLeastPU} {
				opts := testOpts(seed, c)
				opts.Assign = mode
				run(opts)
			}
		}
	}
	for _, c := range []int{1, 4} {
		opts := testOpts(3, c)
		opts.Params = netmodel.ScaledDefaultParams()
		run(opts)
	}
	run(testOpts(9, 4))

	if got := hex.EncodeToString(h.Sum(nil)); got != goldenDigest {
		t.Fatalf("Result digest %s, want %s", got, goldenDigest)
	}
}

// TestSharedTablesServeAllChannels checks that collections sharing one
// network — its memoized CSR tables serve all C trackers, and a second run
// reuses the first run's tables — give the same result as Run, which builds
// its own network.
func TestSharedTablesServeAllChannels(t *testing.T) {
	opts := testOpts(9, 4)
	plain, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := netmodel.DeployConnected(opts.Params, rng.New(opts.Seed), 50)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := core.BuildTree(nw)
	if err != nil {
		t.Fatal(err)
	}
	home, err := HomeChannels(nw, opts.Channels, AssignLeastPU)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		res, err := core.Collect(nw, tree.Parent, core.CollectConfig{
			Seed:           opts.Seed,
			MaxVirtualTime: opts.MaxVirtualTime,
			Channels:       opts.Channels,
			Home:           home,
		})
		if err != nil {
			t.Fatal(err)
		}
		got := []any{res.DelaySlots, res.Capacity, res.Delivered, res.TotalTransmissions,
			res.TotalAborts, res.TotalDeafnessLosses, res.ChannelLoad, res.HopStats}
		want := []any{plain.DelaySlots, plain.Capacity, plain.Delivered, plain.Transmissions,
			plain.Aborts, plain.DeafnessLosses, plain.ChannelLoad, plain.HopStats}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d: shared-table result %v, want %v", i, got, want)
		}
	}
}
