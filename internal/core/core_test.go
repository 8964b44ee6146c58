package core

import (
	"errors"
	"math"
	"testing"
	"time"

	"addcrn/internal/coolest"
	"addcrn/internal/spectrum"
	"addcrn/internal/theory"
)

func smallOptions(seed uint64) Options {
	opts := DefaultOptions()
	opts.Params.NumSU = 120
	opts.Params.Area = 65
	opts.Params.NumPU = 4
	opts.Seed = seed
	return opts
}

func TestRunDeliversEverything(t *testing.T) {
	res, err := Run(smallOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != res.Expected {
		t.Fatalf("delivered %d/%d", res.Delivered, res.Expected)
	}
	if res.Delay <= 0 || res.DelaySlots <= 0 {
		t.Errorf("non-positive delay: %v (%v slots)", res.Delay, res.DelaySlots)
	}
	if res.Capacity <= 0 || res.Capacity > res.PCR.Range*1e9 {
		t.Errorf("implausible capacity %v", res.Capacity)
	}
	if res.TotalTransmissions < res.Expected {
		t.Errorf("only %d transmissions for %d packets", res.TotalTransmissions, res.Expected)
	}
	if res.HopStats.N != res.Expected || res.LatencySlots.N != res.Expected {
		t.Errorf("per-packet stats incomplete: hops %d latency %d", res.HopStats.N, res.LatencySlots.N)
	}
	if res.HopStats.Min < 1 {
		t.Errorf("packet delivered with %v hops", res.HopStats.Min)
	}
	if res.FairnessIndex <= 0 || res.FairnessIndex > 1 {
		t.Errorf("fairness index %v", res.FairnessIndex)
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := Run(smallOptions(2))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(smallOptions(2))
	if err != nil {
		t.Fatal(err)
	}
	if a.Delay != b.Delay || a.TotalTransmissions != b.TotalTransmissions ||
		a.TotalAborts != b.TotalAborts || a.EngineSteps != b.EngineSteps {
		t.Errorf("equal seeds diverged: %+v vs %+v", a, b)
	}
}

func TestRunSeedsDiffer(t *testing.T) {
	a, err := Run(smallOptions(3))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(smallOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	if a.Delay == b.Delay && a.TotalTransmissions == b.TotalTransmissions {
		t.Error("different seeds produced identical runs (suspicious)")
	}
}

func TestRunDeadline(t *testing.T) {
	opts := smallOptions(5)
	opts.MaxVirtualTime = 3 * time.Millisecond // absurdly tight
	res, err := Run(opts)
	if err == nil {
		t.Fatal("tight deadline did not error")
	}
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("error %v does not wrap ErrDeadline", err)
	}
	if res == nil || res.Delivered >= res.Expected {
		t.Error("deadline error should come with a partial result")
	}
}

func TestRunStandAloneNoAborts(t *testing.T) {
	opts := smallOptions(6)
	opts.Params.NumPU = 0
	res, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalAborts != 0 {
		t.Errorf("stand-alone network recorded %d PU handoffs", res.TotalAborts)
	}
}

// TestADDCNeverCollidesStandAlone is the end-to-end theorem validation in
// the regime Lemmas 2-3 actually cover: with the SIR monitor attached and
// no primary network, a full ADDC run over the derived PCR produces zero
// collisions — every concurrent SU transmitter set the MAC admits is a
// concurrent set in the physical-interference sense.
func TestADDCNeverCollidesStandAlone(t *testing.T) {
	for seed := uint64(10); seed < 16; seed++ {
		opts := smallOptions(seed)
		opts.Params.NumPU = 0
		nw, err := BuildNetwork(opts)
		if err != nil {
			t.Fatal(err)
		}
		tree, err := BuildTree(nw)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Collect(nw, tree.Parent, CollectConfig{
			Seed:        seed,
			SIRValidate: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.TotalCollisions != 0 {
			t.Errorf("seed %d: %d collisions under PCR (Lemma 3 violated)", seed, res.TotalCollisions)
		}
	}
}

// TestPUClusterCollisionsAreRare documents a gap between the paper's
// premise and its model: Lemmas 2-3 assume EVERY simultaneous transmitter
// (PUs included) is part of the pairwise-separated R-set, but i.i.d. PUs do
// not coordinate, so clustered primary transmitters occasionally corrupt an
// SU reception even under PCR sensing. The effect must exist only as a
// small residual (well under 2% of transmissions) — anything larger means
// the SU side of the guarantee regressed. See EXPERIMENTS.md.
func TestPUClusterCollisionsAreRare(t *testing.T) {
	totalCollisions, totalTx := 0, 0
	for seed := uint64(10); seed < 14; seed++ {
		opts := smallOptions(seed)
		nw, err := BuildNetwork(opts)
		if err != nil {
			t.Fatal(err)
		}
		tree, err := BuildTree(nw)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Collect(nw, tree.Parent, CollectConfig{
			Seed:        seed,
			SIRValidate: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		totalCollisions += res.TotalCollisions
		totalTx += res.TotalTransmissions + res.TotalCollisions
	}
	if totalTx == 0 {
		t.Fatal("no transmissions")
	}
	if frac := float64(totalCollisions) / float64(totalTx); frac > 0.02 {
		t.Errorf("PU-cluster collision fraction %.4f exceeds 2%%", frac)
	}
}

// TestNarrowSensingCollides is the counterpart of the stand-alone theorem
// test: shrink the carrier-sensing range to barely above the link radius
// and collisions must appear (and without exponential backoff the network
// may even livelock), demonstrating the monitor has teeth and the PCR is
// doing real work. The run is bounded by a short virtual budget and only
// the partial result is inspected.
func TestNarrowSensingCollides(t *testing.T) {
	opts := smallOptions(17)
	opts.Params.NumPU = 0 // isolate SU-SU interference
	nw, err := BuildNetwork(opts)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := BuildTree(nw)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Collect(nw, tree.Parent, CollectConfig{
		Seed:           17,
		SIRValidate:    true,
		PCROverride:    nw.Params.RadiusSU * 1.05, // barely above the link radius
		MaxVirtualTime: 10 * time.Second,          // virtual; partial result suffices
	})
	if err != nil && !errors.Is(err, ErrDeadline) {
		t.Fatal(err)
	}
	if res.TotalCollisions == 0 {
		t.Error("near-r sensing produced no collisions; monitor or override inert")
	}
}

func TestGenericCSMAProfile(t *testing.T) {
	opts := smallOptions(18)
	nw, err := BuildNetwork(opts)
	if err != nil {
		t.Fatal(err)
	}
	parents, err := coolest.BuildParents(nw, 39, coolest.MetricAccumulated)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Collect(nw, parents, CollectConfig{
		Seed:        18,
		GenericCSMA: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != res.Expected {
		t.Fatalf("generic CSMA delivered %d/%d", res.Delivered, res.Expected)
	}
}

// TestTheorem2DelayBound checks the measured total delay respects Theorem
// 2's bound evaluated with the realized tree degree.
func TestTheorem2DelayBound(t *testing.T) {
	opts := smallOptions(40)
	res, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	bounds, err := theory.ComputeBoundsWithDegree(opts.Params, res.TreeStats.MaxDegree)
	if err != nil {
		t.Fatal(err)
	}
	if res.DelaySlots > bounds.Theorem2Slots {
		t.Errorf("measured delay %v slots exceeds Theorem 2 bound %v", res.DelaySlots, bounds.Theorem2Slots)
	}
	if res.MaxServiceSlots > bounds.Theorem1Slots {
		t.Errorf("max service %v slots exceeds Theorem 1 bound %v", res.MaxServiceSlots, bounds.Theorem1Slots)
	}
	if res.Capacity > bounds.CapacityUpper*(1+1e-9) {
		t.Errorf("capacity %v exceeds W=%v", res.Capacity, bounds.CapacityUpper)
	}
}

func TestCollectUnknownModel(t *testing.T) {
	opts := smallOptions(41)
	nw, err := BuildNetwork(opts)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := BuildTree(nw)
	if err != nil {
		t.Fatal(err)
	}
	// 2 was the retired aggregate model's value.
	for _, kind := range []spectrum.ModelKind{2, 9} {
		if _, err := Collect(nw, tree.Parent, CollectConfig{Seed: 1, PUModel: kind}); err == nil {
			t.Errorf("unknown PU model %d accepted", kind)
		}
	}
}

func TestBuildNetworkInvalid(t *testing.T) {
	opts := smallOptions(42)
	opts.Params.Alpha = 1.5
	if _, err := BuildNetwork(opts); err == nil {
		t.Error("invalid params accepted")
	}
}

func TestDisableHandoffReducesAborts(t *testing.T) {
	opts := smallOptions(43)
	nw, err := BuildNetwork(opts)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := BuildTree(nw)
	if err != nil {
		t.Fatal(err)
	}
	on, err := Collect(nw, tree.Parent, CollectConfig{Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	off, err := Collect(nw, tree.Parent, CollectConfig{Seed: 43, DisableHandoff: true})
	if err != nil {
		t.Fatal(err)
	}
	if off.TotalAborts != 0 {
		t.Errorf("handoff disabled but %d aborts recorded", off.TotalAborts)
	}
	if on.TotalAborts == 0 {
		t.Log("note: no PU arrived mid-transmission in this draw")
	}
}

func TestHopCountsMatchTreeDepth(t *testing.T) {
	opts := smallOptions(44)
	nw, err := BuildNetwork(opts)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := BuildTree(nw)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Collect(nw, tree.Parent, CollectConfig{Seed: 44})
	if err != nil {
		t.Fatal(err)
	}
	depth := float64(tree.Depth())
	if res.HopStats.Max > depth {
		t.Errorf("max hops %v exceeds tree depth %v", res.HopStats.Max, depth)
	}
	if math.IsNaN(res.HopStats.Mean) {
		t.Error("hop mean NaN")
	}
}

func TestRecordProgress(t *testing.T) {
	opts := smallOptions(70)
	nw, err := BuildNetwork(opts)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := BuildTree(nw)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Collect(nw, tree.Parent, CollectConfig{Seed: 70, RecordProgress: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ProgressSlots) != res.Expected {
		t.Fatalf("progress has %d entries, want %d", len(res.ProgressSlots), res.Expected)
	}
	for i := 1; i < len(res.ProgressSlots); i++ {
		if res.ProgressSlots[i] < res.ProgressSlots[i-1] {
			t.Fatal("delivery curve not monotone")
		}
	}
	if last := res.ProgressSlots[len(res.ProgressSlots)-1]; last != res.DelaySlots {
		t.Errorf("last delivery at %v, delay %v", last, res.DelaySlots)
	}
	// Off by default.
	plain, err := Collect(nw, tree.Parent, CollectConfig{Seed: 70})
	if err != nil {
		t.Fatal(err)
	}
	if plain.ProgressSlots != nil {
		t.Error("progress recorded without opt-in")
	}
}
