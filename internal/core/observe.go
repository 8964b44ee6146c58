package core

import (
	"addcrn/internal/cds"
	"addcrn/internal/mac"
	"addcrn/internal/metrics"
	"addcrn/internal/netmodel"
	"addcrn/internal/sim"
	"addcrn/internal/theory"
)

// TheoryReport compares one run's observed service behavior against
// Theorem 1's per-packet service-time bound
// (2·Δ·β_κ + 24·β_{κ+1} − 1)·τ/p_o, evaluated with the realized maximum
// tree degree when TreeStats are available (the tighter per-deployment form)
// and Lemma 6's high-probability Δ bound otherwise. Every quantity is a
// pure function of the run's inputs, so equal seeds report equal tightness.
type TheoryReport struct {
	// Theorem1Slots is the bound, in slots.
	Theorem1Slots float64
	// RealizedDegree reports whether the bound used the deployment's actual
	// maximum tree degree instead of Lemma 6's probabilistic bound.
	RealizedDegree bool
	// MaxServiceSlots restates the observed worst per-packet service time.
	MaxServiceSlots float64
	// ServiceTightness is MaxServiceSlots / Theorem1Slots — how much of the
	// analytical budget the worst observed service consumed (≤ 1 whenever
	// the bound held).
	ServiceTightness float64
	// MeanPerHopWaitSlots and MaxPerHopWaitSlots summarize each delivered
	// packet's observed mean wait per hop (end-to-end latency divided by
	// hop count).
	MeanPerHopWaitSlots float64
	MaxPerHopWaitSlots  float64
	// PerHopTightness is MaxPerHopWaitSlots / Theorem1Slots.
	PerHopTightness float64
}

// observer bundles the registry instruments one collection run drives; a
// nil *observer is inert. The MAC carries its own instrument set (mac.Metrics).
type observer struct {
	reg  *metrics.Registry
	slot sim.Time

	deliveries *metrics.Counter
	lost       *metrics.Counter
	latency    *metrics.Histogram
	hopWait    *metrics.Histogram
	hops       *metrics.Histogram

	mac *mac.Metrics
}

// newObserver registers the run-level instruments; returns nil (inert) on a
// nil registry.
func newObserver(reg *metrics.Registry, slot sim.Time) *observer {
	if reg == nil {
		return nil
	}
	return &observer{
		reg:        reg,
		slot:       slot,
		deliveries: reg.Counter("core_deliveries_total"),
		lost:       reg.Counter("core_packets_lost_total"),
		latency:    reg.Histogram("core_delivery_latency_slots", metrics.ExpBuckets(16, 2, 14)),
		hopWait:    reg.Histogram("core_per_hop_wait_slots", metrics.ExpBuckets(4, 2, 12)),
		hops:       reg.Histogram("core_hops", metrics.ExpBuckets(1, 2, 8)),
		mac:        mac.NewMetrics(reg),
	}
}

// macMetrics returns the MAC instrument set (nil when inert).
func (o *observer) macMetrics() *mac.Metrics {
	if o == nil {
		return nil
	}
	return o.mac
}

// deliver observes one delivery: latency and per-hop wait in slots.
func (o *observer) deliver(latencySlots float64, hops uint16) {
	if o == nil {
		return
	}
	o.deliveries.Inc()
	o.latency.Observe(latencySlots)
	o.hops.Observe(float64(hops))
	if hops > 0 {
		o.hopWait.Observe(latencySlots / float64(hops))
	}
}

// packetLost observes one fault-destroyed packet.
func (o *observer) packetLost() {
	if o == nil {
		return
	}
	o.lost.Inc()
}

// finish records the end-of-run gauges: headline results, the PU busy
// fraction, per-role transmission counters, and the theory comparator. It
// also fills res.Theory.
func (o *observer) finish(res *Result, nw *netmodel.Network, m *mac.MAC, tree *cds.Tree) {
	res.Theory = theoryCompare(nw.Params, res)
	if o == nil {
		return
	}
	o.reg.Gauge("core_delay_slots").Set(res.DelaySlots)
	o.reg.Gauge("core_capacity_bps").Set(res.Capacity)
	o.reg.Gauge("core_delivery_ratio").Set(res.DeliveryRatio)
	o.reg.Gauge("core_fairness_jain").Set(res.FairnessIndex)
	o.reg.Gauge("spectrum_pu_busy_fraction").Set(res.PUBusyFraction)
	if res.Fault != nil {
		o.reg.Counter("core_repairs_total").Add(int64(res.Fault.Repairs))
		o.reg.Counter("core_crashes_total").Add(int64(res.Fault.Crashes))
		o.reg.Counter("core_recoveries_total").Add(int64(res.Fault.Recoveries))
	}
	// Per-role transmission counters: the CDS roles are the paper's
	// structural phases (dominatees report first, then the backbone drains).
	if tree != nil {
		roleTx := map[string]*metrics.Counter{}
		for v := 1; v < nw.NumNodes(); v++ {
			role := roleName(tree, v)
			c, ok := roleTx[role]
			if !ok {
				c = o.reg.Counter("mac_transmissions_total", metrics.L("role", role))
				roleTx[role] = c
			}
			c.Add(int64(m.Stats(int32(v)).Transmissions))
		}
	}
	if t := res.Theory; t != nil {
		o.reg.Gauge("theory_theorem1_bound_slots").Set(t.Theorem1Slots)
		o.reg.Gauge("theory_service_tightness").Set(t.ServiceTightness)
		o.reg.Gauge("theory_perhop_tightness").Set(t.PerHopTightness)
	}
}

func roleName(tree *cds.Tree, v int) string {
	switch tree.Role[v] {
	case cds.RoleDominator:
		return "dominator"
	case cds.RoleConnector:
		return "connector"
	default:
		return "dominatee"
	}
}

// theoryCompare evaluates Theorem 1's bound for the run's parameters and
// compares the observed per-packet service and per-hop waits against it.
// Returns nil when the bound is unavailable (degenerate parameters).
func theoryCompare(p netmodel.Params, res *Result) *TheoryReport {
	var (
		b   theory.Bounds
		err error
	)
	realized := res.TreeStats.MaxDegree > 0
	if realized {
		b, err = theory.ComputeBoundsWithDegree(p, res.TreeStats.MaxDegree)
	} else {
		b, err = theory.ComputeBounds(p)
	}
	if err != nil || b.Theorem1Slots <= 0 || isInf(b.Theorem1Slots) {
		return nil
	}
	t := &TheoryReport{
		Theorem1Slots:   b.Theorem1Slots,
		RealizedDegree:  realized,
		MaxServiceSlots: res.MaxServiceSlots,
	}
	t.ServiceTightness = res.MaxServiceSlots / b.Theorem1Slots
	if res.LatencySlots.N > 0 && res.HopStats.N > 0 {
		// Mean per-hop wait of the mean packet; the max uses the per-packet
		// ratio collected during the run.
		if res.HopStats.Mean > 0 {
			t.MeanPerHopWaitSlots = res.LatencySlots.Mean / res.HopStats.Mean
		}
		t.MaxPerHopWaitSlots = res.maxPerHopWait
		t.PerHopTightness = t.MaxPerHopWaitSlots / b.Theorem1Slots
	}
	return t
}

func isInf(f float64) bool { return f > 1e308 || f < -1e308 }
