// Package core is the reproduction's primary public API: the Asynchronous
// Distributed Data Collection (ADDC) algorithm of the paper, and the
// generic collection runner both ADDC and baselines execute on.
//
// A data collection task (paper Section III) starts with every secondary
// user holding one snapshot packet and ends when the base station has
// received all n packets. core wires together the CDS routing tree
// (internal/cds), the Proper Carrier-sensing Range (internal/pcr), the CSMA
// MAC (internal/mac), and a primary-user activity model
// (internal/spectrum), then drives the discrete-event engine to completion.
//
// Typical use:
//
//	opts := core.DefaultOptions()
//	opts.Params.NumSU = 500
//	res, err := core.Run(opts)
//	// res.Delay, res.Capacity, res.TreeStats, ...
package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"addcrn/internal/cds"
	"addcrn/internal/fault"
	"addcrn/internal/mac"
	"addcrn/internal/metrics"
	"addcrn/internal/netmodel"
	"addcrn/internal/pcr"
	"addcrn/internal/rng"
	"addcrn/internal/sim"
	"addcrn/internal/spectrum"
	"addcrn/internal/stats"
	"addcrn/internal/trace"
)

// ErrDeadline is returned when a run's virtual-time budget expires before
// every packet reaches the base station; the partial Result is still
// returned alongside it. Errors on that path are always a
// *DeadlineExceededError, which wraps this sentinel.
var ErrDeadline = errors.New("core: virtual-time deadline exceeded before collection finished")

// DeadlineExceededError is the typed form of ErrDeadline: it carries the
// partial delivery statistics of the timed-out run so callers can degrade
// gracefully without parsing an error string. errors.Is(err, ErrDeadline)
// and errors.As(err, **DeadlineExceededError) both match it.
type DeadlineExceededError struct {
	// Delivered and Expected are the packet counts at expiry.
	Delivered, Expected int
	// Lost counts packets destroyed by faults before expiry.
	Lost int
	// Elapsed is the virtual time consumed.
	Elapsed sim.Time
}

// Error implements the error interface.
func (e *DeadlineExceededError) Error() string {
	if e.Lost > 0 {
		return fmt.Sprintf("core: %d/%d delivered (%d lost to faults) by %v: %v",
			e.Delivered, e.Expected, e.Lost, e.Elapsed.Duration(), ErrDeadline)
	}
	return fmt.Sprintf("core: %d/%d delivered by %v: %v",
		e.Delivered, e.Expected, e.Elapsed.Duration(), ErrDeadline)
}

// Unwrap makes errors.Is(err, ErrDeadline) work.
func (e *DeadlineExceededError) Unwrap() error { return ErrDeadline }

// CanceledError is returned by RunContext/CollectContext when the caller's
// context is canceled or passes its wall-clock deadline mid-run. It mirrors
// DeadlineExceededError (the virtual-time counterpart): the partial Result
// is returned alongside it, and it carries the delivery statistics at the
// point of interruption. errors.Is(err, context.Canceled) or
// errors.Is(err, context.DeadlineExceeded) match through Unwrap, so callers
// distinguish user cancellation from wall-clock expiry without string
// parsing.
type CanceledError struct {
	// Cause is the context's error (context.Canceled or
	// context.DeadlineExceeded).
	Cause error
	// Delivered and Expected are the packet counts at interruption.
	Delivered, Expected int
	// Lost counts packets destroyed by faults before interruption.
	Lost int
	// Elapsed is the virtual time consumed.
	Elapsed sim.Time
}

// Error implements the error interface.
func (e *CanceledError) Error() string {
	return fmt.Sprintf("core: run canceled with %d/%d delivered by %v: %v",
		e.Delivered, e.Expected, e.Elapsed.Duration(), e.Cause)
}

// Unwrap makes errors.Is(err, context.Canceled/DeadlineExceeded) work.
func (e *CanceledError) Unwrap() error { return e.Cause }

// cancelPollEvents is how many engine events run between context polls: at
// typical event rates (millions/second) this bounds cancellation latency
// well under a millisecond while keeping the per-event cost to a counter
// decrement.
const cancelPollEvents = 256

// Outcome classifies how a collection run ended.
type Outcome uint8

// Run outcomes.
const (
	// OutcomeComplete: every packet reached the base station.
	OutcomeComplete Outcome = iota + 1
	// OutcomePartial: every packet is accounted for but some were destroyed
	// by injected faults; the Result carries the delivery ratio and the
	// per-node loss/retry/repair counters. The run itself is not an error.
	OutcomePartial
	// OutcomeDeadline: the virtual-time budget expired first (the returned
	// error is a *DeadlineExceededError).
	OutcomeDeadline
	// OutcomeCanceled: the caller's context was canceled or passed its
	// wall-clock deadline (the returned error is a *CanceledError).
	OutcomeCanceled
)

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case OutcomeComplete:
		return "complete"
	case OutcomePartial:
		return "partial"
	case OutcomeDeadline:
		return "deadline"
	case OutcomeCanceled:
		return "canceled"
	default:
		return fmt.Sprintf("outcome(%d)", uint8(o))
	}
}

// Options configures a complete ADDC run.
type Options struct {
	// Params is the system model; see netmodel.DefaultParams and
	// netmodel.ScaledDefaultParams.
	Params netmodel.Params
	// Seed makes the run reproducible; runs with equal Options are
	// bit-identical.
	Seed uint64
	// PUModel is zero or spectrum.ModelExact, the only PU model.
	PUModel spectrum.ModelKind
	// MaxVirtualTime bounds the simulated time (default 30 virtual
	// minutes); exceeded budgets return ErrDeadline.
	MaxVirtualTime time.Duration
	// Faults, when non-nil and non-zero, injects the described fault load
	// (SU crashes, link/ACK loss, PU burst storms) and enables self-healing
	// repair plus graceful degradation; see internal/fault.
	Faults *fault.Spec
	// Metrics, when non-nil, instruments the run (and Run's construction
	// phases) on the given registry; see CollectConfig.Metrics.
	Metrics *metrics.Registry
	// Sink, when non-nil, receives the run's trace records; see
	// CollectConfig.Sink.
	Sink trace.Sink
	// Guard enables runtime invariant guards; see CollectConfig.Guard.
	Guard bool
	// Workspace, when non-nil, reuses one worker's simulation context
	// (engine arena, MAC state, scratch buffers) across runs; see Workspace.
	Workspace *Workspace
}

// DefaultOptions returns Options at the feasibility-scaled operating point
// with the exact PU model.
func DefaultOptions() Options {
	return Options{
		Params:         netmodel.ScaledDefaultParams(),
		Seed:           1,
		PUModel:        spectrum.ModelExact,
		MaxVirtualTime: 30 * time.Minute,
	}
}

// Result reports everything a run measured.
type Result struct {
	// Delay is the data collection delay: virtual time until the base
	// station held all n packets.
	Delay sim.Time
	// DelaySlots is Delay expressed in slots of length tau.
	DelaySlots float64
	// Capacity is the data collection capacity n*B/Delay in bits/second.
	Capacity float64
	// Delivered counts packets that reached the base station.
	Delivered int
	// Expected is the number of packets the snapshot produced (n).
	Expected int

	// PCR restates the carrier-sensing derivation used.
	PCR pcr.Constants
	// TreeStats summarizes the routing tree (CDS stats for ADDC; for other
	// routings only the degree/depth fields are meaningful).
	TreeStats cds.Stats

	// TotalTransmissions, TotalAborts and TotalCollisions aggregate MAC
	// activity (collisions stay zero unless an RxMonitor was attached).
	TotalTransmissions int
	TotalAborts        int
	TotalCollisions    int
	// TotalDeafnessLosses counts transmissions lost because the receiver
	// was itself transmitting (zero on a single channel).
	TotalDeafnessLosses int
	// ChannelLoad[c] is the fraction of completed transmissions carried on
	// channel c; nil unless CollectConfig.Channels was set.
	ChannelLoad []float64
	// PUBusyFraction is the time-averaged fraction of PUs that were
	// transmitting over the run, the empirical p_t.
	PUBusyFraction float64
	// MaxServiceSlots is the largest per-packet service time any node saw,
	// in slots (Theorem 1's measured counterpart).
	MaxServiceSlots float64
	// FairnessIndex is Jain's index over per-node completed transmissions.
	FairnessIndex float64
	// HopStats and LatencySlots summarize per-packet hop counts and
	// end-to-end latencies (in slots).
	HopStats     stats.Summary
	LatencySlots stats.Summary
	// EngineSteps counts executed simulator events (cost metric).
	EngineSteps uint64
	// ProgressSlots, when CollectConfig.RecordProgress was set, holds the
	// time (in slots) of the k-th delivery at index k-1 — the delivery
	// curve of the run.
	ProgressSlots []float64

	// Theory compares the observed service behavior against Theorem 1's
	// bound (nil only for degenerate parameter sets); see TheoryReport.
	Theory *TheoryReport
	// maxPerHopWait is the largest observed per-packet mean wait per hop,
	// in slots (feeds TheoryReport.MaxPerHopWaitSlots).
	maxPerHopWait float64

	// Outcome classifies how the run ended (complete, partial, deadline).
	Outcome Outcome
	// DeliveryRatio is Delivered/Expected — 1.0 for clean complete runs,
	// below 1 when faults destroyed packets.
	DeliveryRatio float64
	// Lost counts packets destroyed by injected faults (crashed holders or
	// exhausted retry budgets).
	Lost int
	// Fault aggregates fault-layer activity; nil when no faults were
	// injected.
	Fault *FaultReport
	// Guard reports invariant-guard activity; nil unless guards were enabled
	// (CollectConfig.Guard or ADDC_GUARD=1).
	Guard *GuardReport
}

// FaultReport summarizes the fault layer of one run.
type FaultReport struct {
	// Crashes and Recoveries count SU crash/recover events that fired.
	Crashes    int
	Recoveries int
	// Repairs counts re-parenting operations by the self-healing rule.
	Repairs int
	// LinkLosses, AckLosses, Retries and Drops aggregate the MAC's bounded
	// retry machine over all nodes.
	LinkLosses int
	AckLosses  int
	Retries    int
	Drops      int
	// PerNode holds the per-node counters for every node with fault
	// activity (losses, retries, drops, crashes or repairs), ordered by id.
	PerNode []NodeFaultStats
}

// NodeFaultStats is one node's fault-layer activity.
type NodeFaultStats struct {
	Node int32
	// Down reports whether the node was still crashed when the run ended.
	Down                                                    bool
	Crashes, LinkLosses, AckLosses, Retries, Drops, Repairs int
}

// Run deploys a connected network, builds the CDS data collection tree, and
// collects one snapshot with ADDC. It is the one-call entry point; use
// BuildNetwork/BuildTree/Collect for multi-algorithm comparisons on a fixed
// topology, and RunContext for cooperative cancellation.
func Run(opts Options) (*Result, error) {
	return RunContext(context.Background(), opts)
}

// RunContext is Run with cooperative cancellation: canceling ctx (or
// letting its wall-clock deadline pass) stops the simulation at event-loop
// granularity and returns the partial Result alongside a *CanceledError.
// The construction phases (deployment, tree build) check ctx between
// phases; the event loop polls it every cancelPollEvents events.
func RunContext(ctx context.Context, opts Options) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, &CanceledError{Cause: err}
	}
	stop := opts.Metrics.StartPhase("network-build")
	nw, err := BuildNetwork(opts)
	stop(0)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, &CanceledError{Cause: err}
	}
	stop = opts.Metrics.StartPhase("cds-tree")
	tree, err := BuildTree(nw)
	stop(0)
	if err != nil {
		return nil, err
	}
	return CollectContext(ctx, nw, tree.Parent, CollectConfig{
		Seed:           opts.Seed,
		PUModel:        opts.PUModel,
		MaxVirtualTime: opts.MaxVirtualTime,
		TreeStats:      tree.ComputeStats(nw.Adjacency()),
		Faults:         opts.Faults,
		Tree:           tree,
		Workspace:      opts.Workspace,
		Metrics:        opts.Metrics,
		Sink:           opts.Sink,
		Guard:          opts.Guard,
	})
}

// BuildNetwork deploys a connected secondary network per opts.
func BuildNetwork(opts Options) (*netmodel.Network, error) {
	src := rng.New(opts.Seed)
	nw, err := netmodel.DeployConnected(opts.Params, src, netmodel.DeployAttempts)
	if err != nil {
		return nil, fmt.Errorf("core: deploy: %w", err)
	}
	return nw, nil
}

// BuildTree constructs the CDS-based data collection tree over nw's
// unit-disk graph (nw.Adjacency), rooted at the base station.
func BuildTree(nw *netmodel.Network) (*cds.Tree, error) {
	tree, err := cds.Build(nw.Adjacency(), netmodel.BaseStationID)
	if err != nil {
		return nil, fmt.Errorf("core: CDS tree: %w", err)
	}
	return tree, nil
}

// CollectConfig parameterizes a collection run over a prebuilt topology and
// routing tree. The graphs a run reads — the unit-disk adjacency for fault
// repair and the carrier-sense neighbor rows — come from the network's own
// memo (netmodel.Network.Adjacency, SUNeighborBits, PUNeighborBits), so
// every run over one deployment shares a single build of each.
type CollectConfig struct {
	Seed uint64
	// PUModel is zero or spectrum.ModelExact, the only PU model.
	PUModel        spectrum.ModelKind
	MaxVirtualTime time.Duration
	// TreeStats, if set, is copied into the Result for reporting.
	TreeStats cds.Stats
	// Hooks observe MAC transmissions (tests and tracing); either may be
	// nil.
	OnTxStart func(node int32, now sim.Time)
	OnTxEnd   func(node int32, now sim.Time, completed bool)
	// PCROverride forces a carrier-sensing range instead of the derived
	// PCR; zero means "use the derivation". Ablation benches use it.
	PCROverride float64
	// DisableHandoff turns off abort-on-PU-arrival (see mac.Config).
	DisableHandoff bool

	// GenericCSMA runs the baseline MAC profile instead of ADDC's: the
	// carrier-sensing range is 2r (the conventional CSMA guard) rather
	// than the derived PCR, reception
	// success is decided by physical SIR (collisions happen), there is no
	// fairness wait, and binary exponential backoff resolves contention.
	// This is the MAC the Coolest comparison runs on (DESIGN.md Section 6).
	GenericCSMA bool
	// SIRValidate attaches the SIR monitor under the ADDC profile too, so
	// the Result reports collision counts (Lemmas 2-3 promise zero).
	SIRValidate bool
	// RecordProgress stores each delivery's timestamp into the Result's
	// ProgressSlots, enabling delivery-curve plots (memory cost: one
	// float64 per packet).
	RecordProgress bool

	// Faults injects the described fault load (see internal/fault): SU
	// crashes with self-healing tree repair, bounded-retry link/ACK loss,
	// and PU burst storms. Nil or a zero Spec leaves the run bit-identical
	// to the fault-free path.
	Faults *fault.Spec
	// Tree, when set, gives the repair rule the CDS roles and BFS levels of
	// the routing tree so orphans re-parent onto dominators/connectors
	// first (mirroring the construction). Without it repair still works,
	// ranking candidates by BFS level and distance alone.
	Tree *cds.Tree
	// Sink, when non-nil, receives the run's deliveries and every
	// fault-layer event (crash, recover, repair, packet loss). Two runs with
	// equal seeds and equal fault specs produce identical streams.
	// trace.NewJSONLSink streams them to disk.
	Sink trace.Sink
	// TraceMAC additionally records every transmission start/end/abort and
	// every backoff draw (high volume: O(engine events) records).
	TraceMAC bool
	// Metrics, when non-nil, instruments the run on this registry: MAC
	// contention activity, delivery latency and per-hop wait histograms,
	// spectrum busy fraction, phase timings and the Theorem 1 comparator
	// gauges. The hot path stays allocation-free; a nil registry costs a
	// handful of nil checks. Snapshots taken after the run are
	// deterministic for equal seeds (wall-clock timings excluded — see
	// metrics.Snapshot.MarshalDeterministic).
	Metrics *metrics.Registry

	// Guard enables runtime invariant guards: concurrent-set separation on
	// every transmission start (Lemmas 2-3 under PCR sensing), routing-tree
	// acyclicity after every self-healing repair, and packet conservation on
	// every delivery and loss. Violations are recorded in Result.Guard,
	// counted on the metrics registry, and returned as an *InvariantError
	// when the run would otherwise succeed. Guards read simulator state only
	// — they draw no randomness, so enabling them leaves results
	// bit-identical. Setting ADDC_GUARD=1 in the environment force-enables
	// them process-wide (the `make guard` tier).
	Guard bool

	// Workspace, when non-nil, reuses one worker's simulation context across
	// runs — the event arena, the MAC's per-node state, and the latency/hop
	// scratch buffers are wiped in place instead of reallocated. A run with
	// a (renewed) workspace is bit-identical to one without; each Workspace
	// serves one run at a time.
	Workspace *Workspace

	// Channels splits the licensed spectrum into that many orthogonal
	// channels, PU i licensed to channel i mod Channels, and Home assigns
	// each node's receive channel (see mac.Config.Channels). Zero means the
	// paper's single channel. More than one channel runs ADDC's profile
	// only: GenericCSMA, SIRValidate and a non-zero Faults are rejected.
	Channels int
	Home     []int
}

// Workspace is a reusable per-worker simulation context. The zero value (or
// NewWorkspace) is ready to use: the first run populates it, later runs
// reset the retained engine, MAC, PU model, SIR monitor and gain table,
// root randomness source and measurement scratch buffers in place, cutting
// per-repetition allocation to O(changed state). It is not safe for
// concurrent use — give each worker goroutine its own.
type Workspace struct {
	eng       *sim.Engine
	m         *mac.MAC
	src       *rng.Source
	exact     *spectrum.ExactModel
	mon       *spectrum.RxMonitor
	gains     *spectrum.GainTable
	latencies []float64
	hops      []float64
	perNodeTx []float64
}

// NewWorkspace returns an empty workspace.
func NewWorkspace() *Workspace { return &Workspace{} }

// engine returns the retained engine reset for a new run, creating it on
// first use.
func (ws *Workspace) engine() *sim.Engine {
	if ws.eng == nil {
		ws.eng = sim.New()
	} else {
		ws.eng.Reset()
	}
	return ws.eng
}

// grow returns s truncated to length zero with capacity at least n.
func grow(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, 0, n)
	}
	return s[:0]
}

// Collect runs one data collection task over nw with the given routing
// parents (parent[v] is v's next hop; -1 exactly at the base station).
func Collect(nw *netmodel.Network, parent []int32, cfg CollectConfig) (*Result, error) {
	return CollectContext(context.Background(), nw, parent, cfg)
}

// CollectContext is Collect with cooperative cancellation: canceling ctx
// (or letting its wall-clock deadline pass) interrupts the event loop
// within cancelPollEvents events and returns the partial Result alongside a
// *CanceledError, mirroring how the virtual-time budget returns a
// *DeadlineExceededError.
func CollectContext(ctx context.Context, nw *netmodel.Network, parent []int32, cfg CollectConfig) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, &CanceledError{Cause: err}
	}
	ws := cfg.Workspace
	if ws == nil {
		ws = NewWorkspace()
	}
	eng := ws.engine()
	r, err := newRun(eng, nw, parent, cfg, ws)
	if err != nil {
		return nil, err
	}
	if ctx.Done() != nil {
		// Cooperative cancellation at event-loop granularity: the engine
		// polls ctx every cancelPollEvents executed events.
		eng.SetInterrupt(cancelPollEvents, ctx.Err)
	}
	for !r.done {
		if !eng.Step() {
			if cause := eng.InterruptErr(); cause != nil {
				r.finish(eng.Now(), eng.Steps())
				return r.res, r.canceledErr(cause, eng.Now())
			}
			break // queue drained: nothing can make progress anymore
		}
		if eng.Now() > r.deadline {
			r.finish(eng.Now(), eng.Steps())
			return r.res, r.deadlineErr(eng.Now())
		}
	}
	r.finish(eng.Now(), eng.Steps())
	return r.seal()
}

// run is one collection's live state: the MAC, PU model, repairer, guards
// and observer wired onto the engine, and the measurements gathered so far.
type run struct {
	nw          *netmodel.Network
	tree        *cds.Tree
	ws          *Workspace
	res         *Result
	done        bool
	slot        sim.Time
	deadline    sim.Time
	latencies   []float64
	hops        []float64
	m           *mac.MAC
	model       *spectrum.ExactModel
	rep         *repairer
	grd         *guard
	obs         *observer
	stopCollect func(sim.Time)
}

// finish seals the run's measurements at virtual time now after steps
// executed events.
func (r *run) finish(now sim.Time, steps uint64) {
	r.stopCollect(now)
	finishResult(r.res, r.nw, r.m, now, steps, r.latencies, r.hops, r.slot, r.ws)
	// Retain the (possibly grown) scratch backing for the next run.
	r.ws.latencies, r.ws.hops = r.latencies, r.hops
	fillFaultReport(r.res, r.nw, r.m, r.rep)
	r.res.PUBusyFraction = r.model.BusyFraction(now)
	r.obs.finish(r.res, r.nw, r.m, r.tree)
	if r.grd != nil {
		r.grd.finish(now)
	}
}

// canceledErr marks the run canceled and returns the typed partial-result
// error. Call finish first.
func (r *run) canceledErr(cause error, now sim.Time) error {
	r.res.Outcome = OutcomeCanceled
	return &CanceledError{
		Cause:     cause,
		Delivered: r.res.Delivered,
		Expected:  r.res.Expected,
		Lost:      r.res.Lost,
		Elapsed:   now,
	}
}

// deadlineErr marks the run as having exhausted its virtual-time budget.
// Call finish first.
func (r *run) deadlineErr(now sim.Time) error {
	r.res.Outcome = OutcomeDeadline
	return &DeadlineExceededError{
		Delivered: r.res.Delivered,
		Expected:  r.res.Expected,
		Lost:      r.res.Lost,
		Elapsed:   now,
	}
}

// seal classifies a run that ran to completion (or stalled) and applies
// the invariant-guard verdict.
func (r *run) seal() (*Result, error) {
	res := r.res
	switch {
	case res.Delivered == res.Expected:
		res.Outcome = OutcomeComplete
	case r.done:
		// Every missing packet is attributed to an injected fault: the run
		// degraded gracefully rather than timing out.
		res.Outcome = OutcomePartial
	default:
		return res, fmt.Errorf("core: simulation stalled with %d/%d delivered", res.Delivered, res.Expected)
	}
	if err := r.grd.err(); err != nil {
		return res, err
	}
	return res, nil
}

// newRun derives the PCR constants and sensing ranges, defaults cfg, and
// builds one repetition on eng — result, hooks, MAC, PU model, fault
// schedule — then starts it, leaving the run ready to step. Every renewable
// component comes from ws, whose root source is reseeded in place.
func newRun(eng *sim.Engine, nw *netmodel.Network, parent []int32, cfg CollectConfig, ws *Workspace) (*run, error) {
	if cfg.PUModel != 0 && cfg.PUModel != spectrum.ModelExact {
		return nil, fmt.Errorf("core: unknown PU model %v", cfg.PUModel)
	}
	if err := validateChannels(cfg); err != nil {
		return nil, err
	}
	stopPhase := cfg.Metrics.StartPhase("pcr")
	consts, err := pcr.Compute(nw.Params)
	stopPhase(0)
	if err != nil {
		return nil, err
	}
	// PU protection always uses the derived PCR distance; only the SU-SU
	// coordination range differs between profiles.
	puSense := consts.Range
	suSense := consts.Range
	if cfg.GenericCSMA {
		suSense = 2 * nw.Params.RadiusSU
	}
	if cfg.PCROverride > 0 {
		puSense = cfg.PCROverride
		suSense = cfg.PCROverride
	}
	if cfg.MaxVirtualTime <= 0 {
		cfg.MaxVirtualTime = 30 * time.Minute
	}

	if ws.src != nil {
		ws.src.Reseed(cfg.Seed)
	} else {
		ws.src = rng.New(cfg.Seed)
	}
	src := ws.src

	// Fault layer: compile the deterministic plan up front so the MAC can
	// carry the loss profile. A nil or zero Spec compiles to nothing and
	// leaves every code path below bit-identical to the fault-free run.
	var plan *fault.Plan
	if cfg.Faults != nil && !cfg.Faults.Zero() {
		p, err := fault.Compile(*cfg.Faults, nw, consts.Range, src.Child("fault/plan"))
		if err != nil {
			return nil, err
		}
		plan = p
	}

	res := &Result{
		Expected:  nw.NumNodes() - 1,
		PCR:       consts,
		TreeStats: cfg.TreeStats,
	}
	slot := sim.FromDuration(nw.Params.Slot)
	r := &run{
		nw:        nw,
		tree:      cfg.Tree,
		ws:        ws,
		res:       res,
		slot:      slot,
		deadline:  sim.FromDuration(cfg.MaxVirtualTime),
		latencies: grow(ws.latencies, res.Expected),
		hops:      grow(ws.hops, res.Expected),
	}
	if cfg.Channels > 0 {
		res.ChannelLoad = make([]float64, cfg.Channels)
	}

	var monitor *spectrum.RxMonitor
	if cfg.GenericCSMA || cfg.SIRValidate {
		ws.mon = spectrum.RenewRxMonitor(ws.mon, nw.Params.Alpha)
		monitor = ws.mon
		ws.gains = spectrum.RenewGainTable(ws.gains, nw)
		monitor.SetGainTable(ws.gains)
	}

	sink := cfg.Sink
	rec := func(k trace.Kind, node int32, arg int64) {
		if sink != nil {
			sink.Add(trace.Record{Time: eng.Now(), Node: node, Kind: k, Arg: arg})
		}
	}

	obs := newObserver(cfg.Metrics, slot)

	// Invariant guards (opt-in; ADDC_GUARD=1 force-enables the mode for the
	// `make guard` test tier).
	var grd *guard
	if cfg.Guard || guardEnv {
		grd = newGuard(nw, res, suSense, cfg.Metrics)
	}

	// The run ends when every packet is accounted for: delivered to the
	// base station or destroyed by a fault (graceful degradation).
	accounted := func() {
		if res.Delivered+res.Lost == res.Expected {
			r.done = true
		}
	}

	macCfg := mac.Config{
		Network:      nw,
		Parent:       parent,
		PUSenseRange: puSense,
		SUSenseRange: suSense,
		Engine:       eng,
		Rand:         src,
		OnDeliver: func(pkt mac.Packet, now sim.Time) {
			res.Delivered++
			latSlots := float64(now-pkt.Born) / float64(slot)
			r.latencies = append(r.latencies, latSlots)
			r.hops = append(r.hops, float64(pkt.Hops))
			if pkt.Hops > 0 {
				if perHop := latSlots / float64(pkt.Hops); perHop > res.maxPerHopWait {
					res.maxPerHopWait = perHop
				}
			}
			obs.deliver(latSlots, pkt.Hops)
			if cfg.RecordProgress {
				res.ProgressSlots = append(res.ProgressSlots, float64(now)/float64(slot))
			}
			rec(trace.KindDeliver, int32(netmodel.BaseStationID), int64(pkt.Origin))
			if res.Delivered == res.Expected {
				res.Delay = now
			}
			accounted()
			if grd != nil {
				grd.conservation(now)
			}
		},
		OnTxStart:      cfg.OnTxStart,
		OnTxEnd:        cfg.OnTxEnd,
		Metrics:        obs.macMetrics(),
		DisableHandoff: cfg.DisableHandoff,
		Monitor:        monitor,
		NoFairnessWait: cfg.GenericCSMA,
		ExpBackoff:     cfg.GenericCSMA,
		Channels:       cfg.Channels,
		Home:           cfg.Home,
	}
	if plan != nil {
		res.Fault = &FaultReport{}
		macCfg.Faults = &mac.FaultProfile{
			LinkLoss: cfg.Faults.LinkLoss,
			AckLoss:  cfg.Faults.AckLoss,
			RetryCap: cfg.Faults.RetryCap,
		}
		macCfg.OnPacketLost = func(pkt mac.Packet, node int32, now sim.Time, cause error) {
			res.Lost++
			obs.packetLost()
			rec(trace.KindPacketLost, node, int64(pkt.Origin))
			accounted()
			if grd != nil {
				grd.conservation(now)
			}
		}
	}
	if grd != nil {
		// Guard hooks run before any user/trace hooks so violations are
		// detected against the MAC's state transition itself.
		prevStart, prevEnd := macCfg.OnTxStart, macCfg.OnTxEnd
		macCfg.OnTxStart = func(node int32, now sim.Time) {
			grd.txStart(node, now)
			if prevStart != nil {
				prevStart(node, now)
			}
		}
		macCfg.OnTxEnd = func(node int32, now sim.Time, completed bool) {
			grd.txEnd(node)
			if prevEnd != nil {
				prevEnd(node, now, completed)
			}
		}
	}
	if cfg.TraceMAC && sink != nil {
		prevStart, prevEnd := macCfg.OnTxStart, macCfg.OnTxEnd
		macCfg.OnTxStart = func(node int32, now sim.Time) {
			rec(trace.KindTxStart, node, 0)
			if prevStart != nil {
				prevStart(node, now)
			}
		}
		macCfg.OnTxEnd = func(node int32, now sim.Time, completed bool) {
			k := trace.KindTxEnd
			if !completed {
				k = trace.KindTxAbort
			}
			rec(k, node, 0)
			if prevEnd != nil {
				prevEnd(node, now, completed)
			}
		}
		macCfg.OnBackoffDraw = func(node int32, draw, now sim.Time) {
			rec(trace.KindBackoffDraw, node, int64(draw))
		}
	}
	m, err := mac.Renew(ws.m, macCfg)
	if err != nil {
		return nil, err
	}
	ws.m = m
	if grd != nil {
		grd.attach(m)
		grd.checkTree(eng.Now()) // validate the initial routing tree
	}

	rep, err := scheduleFaults(eng, nw, m, plan, cfg.Tree, parent, res, rec)
	if err != nil {
		return nil, err
	}
	if grd != nil && rep != nil {
		// Re-validate tree integrity after every self-healing re-parenting.
		prevRepair := rep.onRepair
		rep.onRepair = func(node, newParent int32, now sim.Time) {
			if prevRepair != nil {
				prevRepair(node, newParent, now)
			}
			grd.checkTree(now)
		}
	}

	model := spectrum.RenewExactModel(ws.exact, nw, m.Trackers(), src)
	ws.exact = model
	if monitor != nil {
		model.AttachMonitor(monitor)
	}
	model.Start(eng)
	m.Start()

	r.m = m
	r.model = model
	r.rep = rep
	r.grd = grd
	r.obs = obs
	r.stopCollect = cfg.Metrics.StartPhase("collect")
	return r, nil
}

// validateChannels rejects the features a run on more than one channel does
// not support. Each either assumes one medium (the SIR monitor) or would
// move a node between channels (fault repair re-parents).
func validateChannels(cfg CollectConfig) error {
	for _, f := range []struct {
		on   bool
		name string
	}{
		{cfg.GenericCSMA, "GenericCSMA"},
		{cfg.SIRValidate, "SIRValidate"},
		{cfg.Faults != nil && !cfg.Faults.Zero(), "Faults"},
	} {
		if f.on && cfg.Channels > 1 {
			return fmt.Errorf("core: %s is not supported on %d channels", f.name, cfg.Channels)
		}
	}
	return nil
}

// scheduleFaults places every compiled fault event on the engine and builds
// the self-healing repairer when the plan contains crash/recover events. It
// returns nil when there is nothing to schedule.
func scheduleFaults(eng *sim.Engine, nw *netmodel.Network, m *mac.MAC, plan *fault.Plan,
	tree *cds.Tree, parent []int32, res *Result,
	rec func(trace.Kind, int32, int64)) (*repairer, error) {
	if plan == nil || len(plan.Events) == 0 {
		return nil, nil
	}
	var rep *repairer
	for _, ev := range plan.Events {
		if ev.Kind == fault.EventCrash || ev.Kind == fault.EventRecover {
			rep = newRepairer(nw, tree, parent, m.SetParent)
			rep.onRepair = func(node, newParent int32, now sim.Time) {
				res.Fault.Repairs++
				rec(trace.KindRepair, node, int64(newParent))
			}
			break
		}
	}
	for _, ev := range plan.Events {
		ev := ev
		var fn sim.EventFunc
		switch ev.Kind {
		case fault.EventCrash:
			fn = func(now sim.Time) {
				if !m.Crash(ev.Node, now) {
					return
				}
				res.Fault.Crashes++
				rec(trace.KindCrash, ev.Node, 0)
				rep.nodeCrashed(ev.Node, now)
			}
		case fault.EventRecover:
			fn = func(now sim.Time) {
				if !m.Recover(ev.Node, now) {
					return
				}
				res.Fault.Recoveries++
				rec(trace.KindRecover, ev.Node, 0)
				rep.nodeRecovered(ev.Node, now)
			}
		case fault.EventBurstStart:
			fn = func(now sim.Time) { burstSet(nw, m, ev, now, true) }
		case fault.EventBurstEnd:
			fn = func(now sim.Time) { burstSet(nw, m, ev, now, false) }
		default:
			return nil, fmt.Errorf("core: unknown fault event kind %v", ev.Kind)
		}
		if _, err := eng.At(ev.At, fn); err != nil {
			return nil, fmt.Errorf("core: schedule fault event at %v: %w", ev.At, err)
		}
	}
	return rep, nil
}

// burstSet applies or lifts a PU burst storm: every SU within the storm's
// radius is blocked (as if a primary transmitter appeared), which freezes
// backoffs and forces spectrum handoff on ongoing transmissions.
func burstSet(nw *netmodel.Network, m *mac.MAC, ev fault.Event, now sim.Time, on bool) {
	var buf []int32
	buf = nw.SUGrid.Within(ev.Pos, ev.Radius, buf)
	tr := m.Trackers()[0]
	for _, v := range buf {
		if v == int32(netmodel.BaseStationID) {
			continue
		}
		if on {
			tr.BlockNode(v, now)
		} else {
			tr.UnblockNode(v, now)
		}
	}
}

// fillFaultReport aggregates the MAC's per-node fault counters and the
// repairer's re-parenting counts into the Result.
func fillFaultReport(res *Result, nw *netmodel.Network, m *mac.MAC, rep *repairer) {
	fr := res.Fault
	if fr == nil {
		return
	}
	for v := 1; v < nw.NumNodes(); v++ {
		id := int32(v)
		st := m.Stats(id)
		repairs := 0
		if rep != nil {
			repairs = rep.repairs[v]
		}
		fr.LinkLosses += st.LinkLosses
		fr.AckLosses += st.AckLosses
		fr.Retries += st.Retries
		fr.Drops += st.Drops
		if st.LinkLosses+st.AckLosses+st.Retries+st.Drops+st.Crashes+repairs == 0 {
			continue
		}
		fr.PerNode = append(fr.PerNode, NodeFaultStats{
			Node:       id,
			Down:       m.Down(id),
			Crashes:    st.Crashes,
			LinkLosses: st.LinkLosses,
			AckLosses:  st.AckLosses,
			Retries:    st.Retries,
			Drops:      st.Drops,
			Repairs:    repairs,
		})
	}
}

func finishResult(res *Result, nw *netmodel.Network, m *mac.MAC, now sim.Time, steps uint64,
	latencies, hops []float64, slot sim.Time, ws *Workspace) {
	if res.Delay == 0 && res.Delivered < res.Expected {
		res.Delay = now
	}
	res.DelaySlots = float64(res.Delay) / float64(slot)
	if res.Expected > 0 {
		res.DeliveryRatio = float64(res.Delivered) / float64(res.Expected)
	}
	if res.Delay > 0 {
		res.Capacity = float64(res.Delivered) * nw.Params.PacketBits / res.Delay.Seconds()
	}
	perNodeTx := grow(ws.perNodeTx, nw.NumNodes()-1)
	for v := 1; v < nw.NumNodes(); v++ {
		st := m.Stats(int32(v))
		res.TotalTransmissions += st.Transmissions
		res.TotalAborts += st.Aborts
		res.TotalCollisions += st.Collisions
		res.TotalDeafnessLosses += st.DeafnessLosses
		if res.ChannelLoad != nil && int32(v) != m.Root() {
			res.ChannelLoad[m.Channel(int32(v))] += float64(st.Transmissions)
		}
		if svc := float64(st.MaxServiceTime) / float64(slot); svc > res.MaxServiceSlots {
			res.MaxServiceSlots = svc
		}
		perNodeTx = append(perNodeTx, float64(st.Transmissions))
	}
	ws.perNodeTx = perNodeTx
	if total := float64(res.TotalTransmissions); total > 0 {
		for c := range res.ChannelLoad {
			res.ChannelLoad[c] /= total
		}
	}
	res.FairnessIndex = stats.JainIndex(perNodeTx)
	res.HopStats = stats.Summarize(hops)
	res.LatencySlots = stats.Summarize(latencies)
	res.EngineSteps = steps
}
