package mac

import (
	"testing"

	"addcrn/internal/geom"
	"addcrn/internal/netmodel"
	"addcrn/internal/rng"
	"addcrn/internal/sim"
	"addcrn/internal/spectrum"
)

// lineNetwork places the base station at x=5 and n SUs in a line spaced 8m
// apart (within the 10m radius), with optional PU positions.
func lineNetwork(t *testing.T, n int, pu []geom.Point) *netmodel.Network {
	t.Helper()
	p := netmodel.ScaledDefaultParams()
	p.Area = 250
	p.NumSU = n
	p.NumPU = len(pu)
	su := make([]geom.Point, n+1)
	su[0] = geom.Point{X: 5, Y: 125}
	for i := 1; i <= n; i++ {
		su[i] = geom.Point{X: 5 + float64(i)*8, Y: 125}
	}
	nw, err := netmodel.NewCustomNetwork(p, su, pu)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func lineParents(n int) []int32 {
	parents := make([]int32, n+1)
	parents[0] = -1
	for i := 1; i <= n; i++ {
		parents[i] = int32(i - 1)
	}
	return parents
}

type delivery struct {
	origin int32
	at     sim.Time
	hops   uint16
}

type harness struct {
	eng        *sim.Engine
	mac        *MAC
	deliveries []delivery
	txStarts   []struct {
		node int32
		at   sim.Time
	}
	txEnds []struct {
		node      int32
		at        sim.Time
		completed bool
	}
}

func newHarness(t *testing.T, nw *netmodel.Network, parents []int32, mutate func(*Config)) *harness {
	t.Helper()
	h := &harness{eng: sim.New()}
	cfg := Config{
		Network:      nw,
		Parent:       parents,
		PUSenseRange: 39,
		SUSenseRange: 39,
		Engine:       h.eng,
		Rand:         rng.New(7),
		OnDeliver: func(pkt Packet, now sim.Time) {
			h.deliveries = append(h.deliveries, delivery{origin: pkt.Origin, at: now, hops: pkt.Hops})
		},
		OnTxStart: func(node int32, now sim.Time) {
			h.txStarts = append(h.txStarts, struct {
				node int32
				at   sim.Time
			}{node, now})
		},
		OnTxEnd: func(node int32, now sim.Time, completed bool) {
			h.txEnds = append(h.txEnds, struct {
				node      int32
				at        sim.Time
				completed bool
			}{node, now, completed})
		},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h.mac = m
	return h
}

func (h *harness) run(t *testing.T, expect int, budget sim.Time) {
	t.Helper()
	h.mac.Start()
	for len(h.deliveries) < expect {
		if !h.eng.Step() {
			t.Fatalf("engine stalled with %d/%d deliveries", len(h.deliveries), expect)
		}
		if h.eng.Now() > budget {
			t.Fatalf("budget exhausted with %d/%d deliveries", len(h.deliveries), expect)
		}
	}
}

func TestLineCollectsAll(t *testing.T) {
	nw := lineNetwork(t, 5, nil)
	h := newHarness(t, nw, lineParents(5), nil)
	h.run(t, 5, 10*sim.Second)
	seen := map[int32]int{}
	for _, d := range h.deliveries {
		seen[d.origin]++
	}
	for v := int32(1); v <= 5; v++ {
		if seen[v] != 1 {
			t.Errorf("origin %d delivered %d times", v, seen[v])
		}
	}
	// Packet from node i travels i hops.
	for _, d := range h.deliveries {
		if int(d.hops) != int(d.origin) {
			t.Errorf("origin %d arrived with %d hops", d.origin, d.hops)
		}
	}
}

func TestTransmissionCountsMatchSubtrees(t *testing.T) {
	nw := lineNetwork(t, 4, nil)
	h := newHarness(t, nw, lineParents(4), nil)
	h.run(t, 4, 10*sim.Second)
	// On a line, node i forwards packets of nodes i..4: 5-i transmissions.
	for v := int32(1); v <= 4; v++ {
		want := 4 - int(v) + 1
		if got := h.mac.Stats(v).Transmissions; got != want {
			t.Errorf("node %d transmitted %d times, want %d", v, got, want)
		}
	}
}

func TestNoConcurrentTransmittersWithinSenseRange(t *testing.T) {
	nw := lineNetwork(t, 12, nil)
	var active []int32
	var h *harness
	h = newHarness(t, nw, lineParents(12), func(cfg *Config) {
		cfg.OnTxStart = func(node int32, now sim.Time) {
			for _, other := range active {
				d := nw.SU[node].Dist(nw.SU[other])
				if d <= 39 {
					t.Fatalf("node %d started transmitting %vm from active node %d", node, d, other)
				}
			}
			active = append(active, node)
		}
		cfg.OnTxEnd = func(node int32, now sim.Time, completed bool) {
			for i, v := range active {
				if v == node {
					active = append(active[:i], active[i+1:]...)
					break
				}
			}
		}
	})
	h.run(t, 12, sim.MaxTime)
}

func TestDeterminism(t *testing.T) {
	runOnce := func() []delivery {
		nw := lineNetwork(t, 6, nil)
		h := newHarness(t, nw, lineParents(6), nil)
		h.run(t, 6, sim.MaxTime)
		return h.deliveries
	}
	a, b := runOnce(), runOnce()
	if len(a) != len(b) {
		t.Fatal("delivery counts differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("delivery %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestFairnessWaitMeanGap(t *testing.T) {
	// A single SU with many queued packets, alone in the network: the gap
	// between a transmission's end and the next start is
	// (tau_c - t_prev) + t_next, with mean tau_c = 500us.
	nw := lineNetwork(t, 1, nil)
	h := newHarness(t, nw, lineParents(1), nil)
	const packets = 300
	for i := 0; i < packets; i++ {
		h.mac.Enqueue(1, Packet{Origin: 1})
	}
	for len(h.deliveries) < packets {
		if !h.eng.Step() {
			t.Fatal("stalled")
		}
	}
	var sum sim.Time
	count := 0
	for i := 1; i < len(h.txStarts); i++ {
		gap := h.txStarts[i].at - h.txEnds[i-1].at
		sum += gap
		count++
	}
	mean := float64(sum) / float64(count)
	if mean < 350 || mean > 650 {
		t.Errorf("mean inter-transmission gap %vus, want ~500us", mean)
	}
}

func TestNoFairnessWaitShortensGap(t *testing.T) {
	nw := lineNetwork(t, 1, nil)
	h := newHarness(t, nw, lineParents(1), func(cfg *Config) {
		cfg.NoFairnessWait = true
	})
	const packets = 300
	for i := 0; i < packets; i++ {
		h.mac.Enqueue(1, Packet{Origin: 1})
	}
	for len(h.deliveries) < packets {
		if !h.eng.Step() {
			t.Fatal("stalled")
		}
	}
	var sum sim.Time
	count := 0
	for i := 1; i < len(h.txStarts); i++ {
		sum += h.txStarts[i].at - h.txEnds[i-1].at
		count++
	}
	mean := float64(sum) / float64(count)
	// Without the fairness wait the gap is just the fresh backoff draw,
	// mean tau_c/2 = 250us.
	if mean < 150 || mean > 350 {
		t.Errorf("mean gap %vus, want ~250us", mean)
	}
}

func TestBackoffFreezeDelaysTransmission(t *testing.T) {
	// Inject a scripted PU burst covering the lone SU for 50 slots; its
	// first transmission cannot start before the burst ends. The PU sits on
	// the SU, and nothing but this script toggles it.
	nw := lineNetwork(t, 1, []geom.Point{{X: 13, Y: 125}})
	h := newHarness(t, nw, lineParents(1), nil)
	tracker := h.mac.Trackers()[0]
	tracker.AddPUTransmitter(0, 0)
	h.eng.After(50*sim.Millisecond, func(now sim.Time) {
		tracker.RemovePUTransmitter(0, now)
	})
	h.run(t, 1, sim.MaxTime)
	if h.txStarts[0].at < 50*sim.Millisecond {
		t.Errorf("transmission started at %v during PU burst", h.txStarts[0].at)
	}
	if frozen := h.mac.Stats(1).FrozenTime; frozen < 49*sim.Millisecond {
		t.Errorf("frozen time %v, want ~50ms", frozen)
	}
}

func TestHandoffAbortsAndRetransmits(t *testing.T) {
	// A PU appears right after the SU starts transmitting: the SU must
	// abort, count it, and still deliver the packet afterwards.
	nw := lineNetwork(t, 1, []geom.Point{{X: 13, Y: 125}})
	var h *harness
	aborted := false
	h = newHarness(t, nw, lineParents(1), func(cfg *Config) {
		cfg.OnTxStart = func(node int32, now sim.Time) {
			if !aborted {
				// Inject the PU mid-transmission (a quarter slot later).
				h.eng.After(250, func(at sim.Time) {
					h.mac.Trackers()[0].AddPUTransmitter(0, at)
					h.eng.After(2*sim.Millisecond, func(end sim.Time) {
						h.mac.Trackers()[0].RemovePUTransmitter(0, end)
					})
				})
				aborted = true
			}
		}
	})
	h.run(t, 1, sim.MaxTime)
	st := h.mac.Stats(1)
	if st.Aborts != 1 {
		t.Errorf("aborts = %d, want 1", st.Aborts)
	}
	if st.Transmissions != 1 {
		t.Errorf("transmissions = %d, want 1", st.Transmissions)
	}
	if len(h.deliveries) != 1 {
		t.Errorf("deliveries = %d", len(h.deliveries))
	}
	// The completed OnTxEnd events: one abort (completed=false), one
	// success (completed=true).
	var completions, failures int
	for _, e := range h.txEnds {
		if e.completed {
			completions++
		} else {
			failures++
		}
	}
	if completions != 1 || failures != 1 {
		t.Errorf("tx ends: %d completed, %d failed", completions, failures)
	}
}

func TestDisableHandoffIgnoresPUArrival(t *testing.T) {
	nw := lineNetwork(t, 1, []geom.Point{{X: 13, Y: 125}})
	var h *harness
	h = newHarness(t, nw, lineParents(1), func(cfg *Config) {
		cfg.DisableHandoff = true
		cfg.OnTxStart = func(node int32, now sim.Time) {
			h.eng.After(250, func(at sim.Time) {
				h.mac.Trackers()[0].AddPUTransmitter(0, at)
			})
		}
	})
	h.run(t, 1, sim.MaxTime)
	if st := h.mac.Stats(1); st.Aborts != 0 || st.Transmissions != 1 {
		t.Errorf("stats with handoff disabled: %+v", st)
	}
}

func TestCollisionRetransmission(t *testing.T) {
	// Hidden terminals: two SUs 60m apart (beyond the 39m sense range),
	// both 30m from the base station receiver — every overlapping pair of
	// transmissions corrupts at the BS. With exponential backoff the MAC
	// must still deliver both packets.
	p := netmodel.ScaledDefaultParams()
	p.Area = 250
	p.NumSU = 2
	p.NumPU = 0
	p.RadiusSU = 31
	su := []geom.Point{{X: 125, Y: 125}, {X: 95, Y: 125}, {X: 155, Y: 125}}
	nw, err := netmodel.NewCustomNetwork(p, su, nil)
	if err != nil {
		t.Fatal(err)
	}
	monitor := spectrum.RenewRxMonitor(nil, p.Alpha)
	h := newHarness(t, nw, []int32{-1, 0, 0}, func(cfg *Config) {
		cfg.Monitor = monitor
		cfg.ExpBackoff = true
		cfg.NoFairnessWait = true
	})
	h.run(t, 2, sim.MaxTime)
	totalCollisions := h.mac.Stats(1).Collisions + h.mac.Stats(2).Collisions
	if totalCollisions == 0 {
		t.Error("hidden terminals never collided (monitor inert?)")
	}
	if len(h.deliveries) != 2 {
		t.Errorf("deliveries = %d", len(h.deliveries))
	}
}

func TestMonitorCleanUnderPCR(t *testing.T) {
	// With PCR-range sensing, no collisions can occur even with the
	// monitor attached (Lemmas 2-3 end-to-end at MAC level).
	nw := lineNetwork(t, 10, nil)
	monitor := spectrum.RenewRxMonitor(nil, nw.Params.Alpha)
	h := newHarness(t, nw, lineParents(10), func(cfg *Config) {
		cfg.Monitor = monitor
	})
	h.run(t, 10, sim.MaxTime)
	for v := int32(1); v <= 10; v++ {
		if c := h.mac.Stats(v).Collisions; c != 0 {
			t.Errorf("node %d suffered %d collisions under PCR sensing", v, c)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	nw := lineNetwork(t, 2, nil)
	eng := sim.New()
	base := Config{
		Network:      nw,
		Parent:       lineParents(2),
		PUSenseRange: 39,
		SUSenseRange: 39,
		Engine:       eng,
		Rand:         rng.New(1),
	}
	if _, err := New(base); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	tests := []struct {
		name string
		mut  func(*Config)
	}{
		{"nil network", func(c *Config) { c.Network = nil }},
		{"nil engine", func(c *Config) { c.Engine = nil }},
		{"nil rand", func(c *Config) { c.Rand = nil }},
		{"short parents", func(c *Config) { c.Parent = []int32{-1} }},
		{"no root", func(c *Config) { c.Parent = []int32{0, 0, 1} }},
		{"two roots", func(c *Config) { c.Parent = []int32{-1, -1, 0} }},
		{"out of range parent", func(c *Config) { c.Parent = []int32{-1, 9, 0} }},
		{"cycle", func(c *Config) { c.Parent = []int32{-1, 2, 1} }},
		{"zero sense range", func(c *Config) { c.SUSenseRange = 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := base
			tt.mut(&cfg)
			if _, err := New(cfg); err == nil {
				t.Errorf("config with %s accepted", tt.name)
			}
		})
	}
}

func TestEnqueueAtRootDeliversImmediately(t *testing.T) {
	nw := lineNetwork(t, 1, nil)
	h := newHarness(t, nw, lineParents(1), nil)
	h.mac.Enqueue(h.mac.Root(), Packet{Origin: 42})
	if len(h.deliveries) != 1 || h.deliveries[0].origin != 42 {
		t.Errorf("root enqueue deliveries: %+v", h.deliveries)
	}
}

func TestQueueLenAndActiveTransmitters(t *testing.T) {
	nw := lineNetwork(t, 2, nil)
	h := newHarness(t, nw, lineParents(2), nil)
	h.mac.Start()
	if q := h.mac.QueueLen(2); q != 1 {
		t.Errorf("QueueLen(2) = %d after Start", q)
	}
	if h.mac.ActiveTransmitters() != 0 {
		t.Error("transmitters active before any backoff expired")
	}
	for len(h.deliveries) < 2 {
		if !h.eng.Step() {
			t.Fatal("stalled")
		}
	}
	if h.mac.ActiveTransmitters() != 0 {
		t.Error("transmitters linger after completion")
	}
	if q := h.mac.QueueLen(1); q != 0 {
		t.Errorf("QueueLen(1) = %d after completion", q)
	}
}

func TestStateStringCoverage(t *testing.T) {
	for s := stateIdle; s <= statePostWait; s++ {
		if s.String() == "" {
			t.Errorf("state %d has empty string", s)
		}
	}
	if state(99).String() == "" {
		t.Error("unknown state has empty string")
	}
}

// TestFairnessPropertyP validates Theorem 1's property P in the exact
// regime of its proof: two backlogged SUs within each other's sensing
// range, stand-alone network. Between two consecutive transmissions of one
// node, the other transmits at most 2 packets.
func TestFairnessPropertyP(t *testing.T) {
	p := netmodel.ScaledDefaultParams()
	p.Area = 250
	p.NumSU = 2
	p.NumPU = 0
	su := []geom.Point{{X: 125, Y: 125}, {X: 120, Y: 125}, {X: 130, Y: 125}}
	nw, err := netmodel.NewCustomNetwork(p, su, nil)
	if err != nil {
		t.Fatal(err)
	}
	h := newHarness(t, nw, []int32{-1, 0, 0}, nil)
	const packets = 150
	for i := 0; i < packets; i++ {
		h.mac.Enqueue(1, Packet{Origin: 1})
		h.mac.Enqueue(2, Packet{Origin: 2})
	}
	for len(h.deliveries) < 2*packets {
		if !h.eng.Step() {
			t.Fatal("stalled")
		}
	}
	byNode := map[int32][]sim.Time{}
	for _, e := range h.txStarts {
		byNode[e.node] = append(byNode[e.node], e.at)
	}
	check := func(i, j int32) {
		starts := byNode[i]
		for k := 1; k < len(starts); k++ {
			count := 0
			for _, s := range byNode[j] {
				if s > starts[k-1] && s < starts[k] {
					count++
				}
			}
			if count > 2 {
				t.Fatalf("node %d transmitted %d times between node %d's consecutive transmissions",
					j, count, i)
			}
		}
	}
	check(1, 2)
	check(2, 1)
}

// TestFairnessMultiNodeLoose sanity-checks that competition on a line stays
// bounded: no PCR neighbor squeezes in more than a handful of
// transmissions during another's contention period (Theorem 1's union
// bound regime, so the pairwise constant is looser than 2).
func TestFairnessMultiNodeLoose(t *testing.T) {
	nw := lineNetwork(t, 8, nil)
	h := newHarness(t, nw, lineParents(8), nil)
	h.run(t, 8, sim.MaxTime)
	byNode := map[int32][]sim.Time{}
	for _, e := range h.txStarts {
		byNode[e.node] = append(byNode[e.node], e.at)
	}
	for i := int32(1); i <= 8; i++ {
		starts := byNode[i]
		for k := 1; k < len(starts); k++ {
			for j := int32(1); j <= 8; j++ {
				if j == i || nw.SU[i].Dist(nw.SU[j]) > 39 {
					continue
				}
				count := 0
				for _, s := range byNode[j] {
					if s > starts[k-1] && s < starts[k] {
						count++
					}
				}
				if count > 6 {
					t.Errorf("node %d transmitted %d times between node %d's consecutive transmissions",
						j, count, i)
				}
			}
		}
	}
}

// ActiveTransmitters returns the number of currently transmitting SUs.
func (m *MAC) ActiveTransmitters() int {
	n := 0
	for _, st := range m.sts {
		if st == stateTransmitting {
			n++
		}
	}
	return n
}
