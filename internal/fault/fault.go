// Package fault injects deterministic failures into a data collection run:
// secondary-user crashes (with optional recovery), per-transmission link and
// ACK loss, and localized primary-user "burst storms" that blanket a disk of
// the deployment with PU activity.
//
// The paper's analysis (Theorems 1-2) assumes a clean world — every SU stays
// alive and every transmission that wins the medium is delivered. This
// package is the counterfactual: a Spec describes *how* the world misbehaves
// and Compile turns it into a Plan, a time-sorted schedule of discrete fault
// events derived purely from the run seed. The same seed and Spec always
// compile to the same Plan, so faulty runs are exactly as reproducible as
// clean ones.
//
// The package deliberately knows nothing about the MAC or the collection
// loop; internal/core schedules the Plan onto the event engine and reacts to
// it (crash the node, re-parent its orphans, register the burst's phantom PU
// transmitter).
package fault

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"time"

	"addcrn/internal/geom"
	"addcrn/internal/netmodel"
	"addcrn/internal/rng"
	"addcrn/internal/sim"
)

// Spec declares the fault load of a run. The zero Spec injects nothing and
// is guaranteed to leave a run bit-identical to one with no fault layer at
// all.
type Spec struct {
	// CrashFrac is the fraction of secondary users (base station excluded)
	// that crash during the run, in [0, 1]. Victims and crash times are
	// drawn deterministically from the run seed.
	CrashFrac float64
	// CrashWindow is the virtual-time window (0, CrashWindow] over which
	// crash times are drawn uniformly; zero defaults to 10 virtual seconds.
	CrashWindow time.Duration
	// RecoverAfter is the fixed delay after which a crashed SU rejoins the
	// network (empty-handed: its queued packets are gone). Zero means
	// crashed nodes stay down forever.
	RecoverAfter time.Duration

	// LinkLoss is the per-transmission probability that a data frame is
	// lost in flight, in [0, 1]. The sender retries under the MAC's
	// bounded-retry machine.
	LinkLoss float64
	// AckLoss is the per-transmission probability that the link-layer
	// acknowledgement of a correctly received frame is lost, in [0, 1].
	// The exchange is treated as failed at both ends (the receiver discards
	// the unacknowledged frame), so AckLoss composes with LinkLoss as an
	// additional independent loss term tracked separately.
	AckLoss float64
	// RetryCap bounds retransmission attempts per packet before the sender
	// drops it (mac.ErrRetriesExhausted); zero defaults to the MAC's cap.
	RetryCap int

	// Bursts is the number of PU burst storms: phantom primary transmitters
	// that appear at a uniformly drawn position for BurstLen and silence
	// every SU within BurstRadius.
	Bursts int
	// BurstLen is each storm's duration; zero defaults to 50 virtual ms.
	BurstLen time.Duration
	// BurstRadius is each storm's blanket radius; zero defaults to the
	// run's derived PCR (supplied by the caller at compile time).
	BurstRadius float64
}

// Zero reports whether the Spec injects no faults at all.
func (s Spec) Zero() bool {
	return s.CrashFrac == 0 && s.LinkLoss == 0 && s.AckLoss == 0 && s.Bursts == 0
}

// Validate checks that every field is in range. The float checks are
// written so that NaN fails them: a NaN fraction would otherwise pass as no
// fault at all.
func (s Spec) Validate() error {
	if !(s.CrashFrac >= 0 && s.CrashFrac <= 1) {
		return fmt.Errorf("fault: CrashFrac %v outside [0,1]", s.CrashFrac)
	}
	if !(s.LinkLoss >= 0 && s.LinkLoss <= 1) {
		return fmt.Errorf("fault: LinkLoss %v outside [0,1]", s.LinkLoss)
	}
	if !(s.AckLoss >= 0 && s.AckLoss <= 1) {
		return fmt.Errorf("fault: AckLoss %v outside [0,1]", s.AckLoss)
	}
	if s.CrashWindow < 0 || s.RecoverAfter < 0 || s.BurstLen < 0 {
		return fmt.Errorf("fault: negative duration in spec")
	}
	if s.Bursts < 0 {
		return fmt.Errorf("fault: negative burst count %d", s.Bursts)
	}
	if s.RetryCap < 0 {
		return fmt.Errorf("fault: negative retry cap %d", s.RetryCap)
	}
	if !(s.BurstRadius >= 0 && s.BurstRadius <= math.MaxFloat64) {
		return fmt.Errorf("fault: burst radius %v is not finite and non-negative", s.BurstRadius)
	}
	return nil
}

// EventKind tags a scheduled fault event.
type EventKind uint8

// Fault event kinds.
const (
	EventCrash EventKind = iota + 1
	EventRecover
	EventBurstStart
	EventBurstEnd
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EventCrash:
		return "crash"
	case EventRecover:
		return "recover"
	case EventBurstStart:
		return "burst-start"
	case EventBurstEnd:
		return "burst-end"
	default:
		return fmt.Sprintf("event(%d)", uint8(k))
	}
}

// Event is one scheduled fault.
type Event struct {
	// At is the virtual time the event fires.
	At sim.Time
	// Kind selects the event's effect.
	Kind EventKind
	// Node is the affected SU for crash/recover events (-1 otherwise).
	Node int32
	// Pos and Radius locate burst storms (zero otherwise).
	Pos    geom.Point
	Radius float64
}

// Plan is a compiled, time-sorted fault schedule plus the Spec it came from.
type Plan struct {
	Spec   Spec
	Events []Event
	// Crashed lists the crash victims in event order (for reporting).
	Crashed []int32
}

// Defaults applied at compile time.
const (
	defaultCrashWindow = 10 * time.Second
	defaultBurstLen    = 50 * time.Millisecond
)

// Compile derives the deterministic fault schedule for network nw from spec.
// defaultBurstRadius is used when spec.BurstRadius is zero (callers pass the
// run's derived PCR). src must be a dedicated child stream of the run seed;
// Compile consumes from it, so callers must not share it with other
// components.
func Compile(spec Spec, nw *netmodel.Network, defaultBurstRadius float64, src *rng.Source) (*Plan, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	plan := &Plan{Spec: spec}
	if spec.Zero() {
		return plan, nil
	}

	window := sim.FromDuration(spec.CrashWindow)
	if window <= 0 {
		window = sim.FromDuration(defaultCrashWindow)
	}

	// Crash victims: a deterministic sample without replacement over the SU
	// ids 1..n (the base station never crashes).
	n := nw.NumNodes() - 1
	victims := int(spec.CrashFrac*float64(n) + 0.5)
	if victims > 0 {
		crashSrc := src.Child("fault/crash")
		perm := crashSrc.Perm(n)
		mttr := sim.FromDuration(spec.RecoverAfter)
		for i := 0; i < victims; i++ {
			node := int32(perm[i] + 1)
			at := sim.Time(crashSrc.UniformInt(1, int64(window)))
			plan.Events = append(plan.Events, Event{At: at, Kind: EventCrash, Node: node})
			plan.Crashed = append(plan.Crashed, node)
			if mttr > 0 {
				plan.Events = append(plan.Events, Event{At: at + mttr, Kind: EventRecover, Node: node})
			}
		}
	}

	// Burst storms: position uniform over the deployment, start uniform in
	// the crash window.
	if spec.Bursts > 0 {
		burstSrc := src.Child("fault/burst")
		length := sim.FromDuration(spec.BurstLen)
		if length <= 0 {
			length = sim.FromDuration(defaultBurstLen)
		}
		radius := spec.BurstRadius
		if radius <= 0 {
			radius = defaultBurstRadius
		}
		if radius <= 0 {
			return nil, fmt.Errorf("fault: burst storms need a positive radius")
		}
		bounds := nw.Bounds()
		for i := 0; i < spec.Bursts; i++ {
			pos := geom.Point{
				X: bounds.MinX + burstSrc.Float64()*bounds.Width(),
				Y: bounds.MinY + burstSrc.Float64()*bounds.Height(),
			}
			at := sim.Time(burstSrc.UniformInt(1, int64(window)))
			plan.Events = append(plan.Events, Event{At: at, Kind: EventBurstStart, Pos: pos, Radius: radius, Node: -1})
			plan.Events = append(plan.Events, Event{At: at + length, Kind: EventBurstEnd, Pos: pos, Radius: radius, Node: -1})
		}
	}

	slices.SortStableFunc(plan.Events, compareEvents)
	return plan, nil
}

// compareEvents orders events by time, breaking ties by kind then node so the
// schedule is a deterministic function of its inputs; the stable sort keeps
// events equal on all three in the order they were appended.
func compareEvents(a, b Event) int {
	return cmp.Or(cmp.Compare(a.At, b.At), cmp.Compare(a.Kind, b.Kind), cmp.Compare(a.Node, b.Node))
}
