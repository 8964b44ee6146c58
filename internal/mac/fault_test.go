package mac

import (
	"errors"
	"testing"

	"addcrn/internal/sim"
)

type lostPacket struct {
	origin int32
	node   int32
	cause  error
}

// collectLost wires OnPacketLost into a slice.
func collectLost(dst *[]lostPacket) func(Packet, int32, sim.Time, error) {
	return func(pkt Packet, node int32, _ sim.Time, cause error) {
		*dst = append(*dst, lostPacket{origin: pkt.Origin, node: node, cause: cause})
	}
}

func TestRetryCapDropsPacket(t *testing.T) {
	nw := lineNetwork(t, 1, nil)
	var lost []lostPacket
	h := newHarness(t, nw, lineParents(1), func(cfg *Config) {
		cfg.Faults = &FaultProfile{LinkLoss: 1, RetryCap: 3}
		cfg.OnPacketLost = collectLost(&lost)
	})
	h.mac.Start()
	for h.eng.Step() {
	}
	if len(h.deliveries) != 0 {
		t.Fatalf("total link loss delivered %d packets", len(h.deliveries))
	}
	if len(lost) != 1 {
		t.Fatalf("%d lost packets, want 1", len(lost))
	}
	if !errors.Is(lost[0].cause, ErrRetriesExhausted) {
		t.Errorf("loss cause %v, want ErrRetriesExhausted", lost[0].cause)
	}
	st := h.mac.Stats(1)
	if st.Retries != 3 || st.Drops != 1 || st.LinkLosses != 3 {
		t.Errorf("stats retries=%d drops=%d linkLosses=%d, want 3/1/3", st.Retries, st.Drops, st.LinkLosses)
	}
}

func TestAckLossCountsSeparately(t *testing.T) {
	nw := lineNetwork(t, 1, nil)
	var lost []lostPacket
	h := newHarness(t, nw, lineParents(1), func(cfg *Config) {
		cfg.Faults = &FaultProfile{AckLoss: 1, RetryCap: 2}
		cfg.OnPacketLost = collectLost(&lost)
	})
	h.mac.Start()
	for h.eng.Step() {
	}
	st := h.mac.Stats(1)
	if st.AckLosses != 2 || st.LinkLosses != 0 || st.Drops != 1 {
		t.Errorf("stats ackLosses=%d linkLosses=%d drops=%d, want 2/0/1", st.AckLosses, st.LinkLosses, st.Drops)
	}
}

func TestCrashDestroysQueue(t *testing.T) {
	nw := lineNetwork(t, 3, nil)
	var lost []lostPacket
	h := newHarness(t, nw, lineParents(3), func(cfg *Config) {
		cfg.OnPacketLost = collectLost(&lost)
	})
	h.mac.Start()
	if !h.mac.Crash(1, h.eng.Now()) {
		t.Fatal("crash refused")
	}
	if h.mac.Crash(1, h.eng.Now()) {
		t.Fatal("double crash accepted")
	}
	if !h.mac.Down(1) {
		t.Fatal("node 1 not down after crash")
	}
	for h.eng.Step() {
	}
	// Node 1's own packet dies in its queue; packets from 2 and 3 funnel into
	// the dead relay and are destroyed on arrival.
	if len(h.deliveries) != 0 {
		t.Fatalf("crash of the only relay still delivered %d packets", len(h.deliveries))
	}
	if len(lost) != 3 {
		t.Fatalf("%d lost packets, want 3", len(lost))
	}
	for _, l := range lost {
		if !errors.Is(l.cause, ErrNodeCrashed) {
			t.Errorf("loss cause %v, want ErrNodeCrashed", l.cause)
		}
	}
	if h.mac.Stats(1).Crashes != 1 {
		t.Errorf("crash count %d, want 1", h.mac.Stats(1).Crashes)
	}
}

func TestCrashOfRootRefused(t *testing.T) {
	nw := lineNetwork(t, 1, nil)
	h := newHarness(t, nw, lineParents(1), nil)
	if h.mac.Crash(0, 0) {
		t.Fatal("base station crash accepted")
	}
}

func TestCrashMidTransmissionReleasesMedium(t *testing.T) {
	nw := lineNetwork(t, 2, nil)
	var h *harness
	crashed := false
	h = newHarness(t, nw, lineParents(2), func(cfg *Config) {
		cfg.OnTxStart = func(node int32, now sim.Time) {
			if node == 1 && !crashed {
				crashed = true
				// Tear the node down halfway through its slot.
				h.eng.After(sim.FromDuration(nw.Params.Slot)/2, func(at sim.Time) {
					h.mac.Crash(1, at)
				})
			}
		}
	})
	h.mac.Start()
	for h.eng.Step() {
	}
	if !crashed {
		t.Fatal("node 1 never transmitted")
	}
	if h.mac.ActiveTransmitters() != 0 {
		t.Errorf("%d active transmitters after drain", h.mac.ActiveTransmitters())
	}
	if h.mac.Trackers()[0].Busy(2) {
		t.Error("node 2 still senses a busy medium after the crashed transmitter drained")
	}
}

func TestRecoverRestoresRelay(t *testing.T) {
	nw := lineNetwork(t, 2, nil)
	var lost []lostPacket
	h := newHarness(t, nw, lineParents(2), func(cfg *Config) {
		cfg.Faults = &FaultProfile{RetryCap: 1000}
		cfg.OnPacketLost = collectLost(&lost)
	})
	h.mac.Start()
	h.mac.Crash(1, 0)
	// Bring the relay back after 100 virtual ms; node 2's bounded retries
	// bridge the outage.
	h.eng.After(100*sim.Millisecond, func(at sim.Time) { h.mac.Recover(1, at) })
	for h.eng.Step() {
		if len(h.deliveries) == 1 {
			break
		}
	}
	if len(h.deliveries) != 1 || h.deliveries[0].origin != 2 {
		t.Fatalf("deliveries %+v, want exactly origin 2", h.deliveries)
	}
	if len(lost) != 1 || lost[0].node != 1 {
		t.Fatalf("lost %+v, want node 1's own packet", lost)
	}
	if h.mac.Stats(2).Retries == 0 {
		t.Error("node 2 never retried across the outage")
	}
}

func TestSetParentReroutesWithoutMutatingInput(t *testing.T) {
	nw := lineNetwork(t, 2, nil)
	parents := lineParents(2)
	h := newHarness(t, nw, parents, nil)
	h.mac.SetParent(2, 0)
	if h.mac.Parent(2) != 0 {
		t.Fatalf("parent of 2 is %d after SetParent", h.mac.Parent(2))
	}
	if parents[2] != 1 {
		t.Fatal("SetParent mutated the caller's parent slice")
	}
	h.run(t, 2, 10*sim.Second)
	for _, d := range h.deliveries {
		if d.origin == 2 && d.hops != 1 {
			t.Errorf("rerouted packet took %d hops, want 1", d.hops)
		}
	}
}

// TestZeroProfileBitIdentical pins the degradation contract's foundation:
// attaching an all-zero fault profile must not perturb the run at all.
func TestZeroProfileBitIdentical(t *testing.T) {
	run := func(profile *FaultProfile) []delivery {
		nw := lineNetwork(t, 6, nil)
		h := newHarness(t, nw, lineParents(6), func(cfg *Config) {
			cfg.Faults = profile
		})
		h.run(t, 6, 30*sim.Second)
		return h.deliveries
	}
	plain := run(nil)
	zeroed := run(&FaultProfile{})
	if len(plain) != len(zeroed) {
		t.Fatalf("delivery counts differ: %d vs %d", len(plain), len(zeroed))
	}
	for i := range plain {
		if plain[i] != zeroed[i] {
			t.Fatalf("delivery %d differs: %+v vs %+v", i, plain[i], zeroed[i])
		}
	}
}
