package main

import (
	"math"
	"sort"
	"time"

	"addcrn/internal/core"
	"addcrn/internal/experiment"
	"addcrn/internal/fault"
	"addcrn/internal/metrics"
	"addcrn/internal/multichannel"
	"addcrn/internal/netmodel"
	"addcrn/internal/spectrum"
)

// workload is one named traffic shape. A bench calls setUp once, runOp
// from clients() goroutines at a time, then verify (outside timing),
// layerValues (traced runs) and tearDown.
type workload interface {
	// clients is the number of goroutines issuing ops.
	clients() int
	setUp(b *bench) error
	// runOp executes op with its seed, filling runs, events, err, check,
	// counts (traced) and payload.
	runOp(b *bench, op *opRecord)
	// verify runs the checks that re-execute the program; failures mark
	// the op they concern.
	verify(b *bench, phases []*phase)
	// layerValues returns the workload's own per-layer values for the
	// traced phase.
	layerValues(b *bench, traced *phase) map[string]float64
	// notes returns workload facts for the run record.
	notes(phases []*phase) map[string]any
	tearDown() error
}

var workloads = map[string]func() workload{
	"collect-n1000":   func() workload { return &collectWorkload{params: scaledParams(1000)} },
	"sweep-grid":      func() workload { return &sweepWorkload{} },
	"serve-jobs":      func() workload { return &serveWorkload{} },
	"faults-channels": func() workload { return &faultsWorkload{params: netmodel.ScaledDefaultParams()} },
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func newWorkload(name string) workload {
	if f, ok := workloads[name]; ok {
		return f()
	}
	return nil
}

// scaledParams grows the scaled operating point to n secondary users at
// constant density, as BenchmarkCollectN1000 does: area 100·√(n/300), PU
// count proportional to area.
func scaledParams(n int) netmodel.Params {
	p := netmodel.ScaledDefaultParams()
	scale := float64(n) / float64(p.NumSU)
	p.Area *= math.Sqrt(scale)
	p.NumPU = int(float64(p.NumPU)*scale + 0.5)
	p.NumSU = n
	return p
}

// buildAndCollect runs BuildNetwork → BuildTree → Collect on one seed,
// recording a span around each call.
func buildAndCollect(b *bench, op *opRecord, params netmodel.Params, cfg core.CollectConfig) (*core.Result, error) {
	t := time.Now()
	nw, err := core.BuildNetwork(core.Options{Params: params, Seed: op.seed, PUModel: spectrum.ModelExact})
	b.ledger.span(op.index, "netmodel.build_s", t)
	if err != nil {
		return nil, err
	}
	t = time.Now()
	tree, err := core.BuildTree(nw)
	b.ledger.span(op.index, "cds.tree_s", t)
	if err != nil {
		return nil, err
	}
	if cfg.Faults != nil {
		cfg.Tree = tree
	}
	cfg.Seed = op.seed
	cfg.PUModel = spectrum.ModelExact
	t = time.Now()
	res, err := core.Collect(nw, tree.Parent, cfg)
	b.ledger.span(op.index, "core.collect_s", t)
	return res, err
}

// collectCounts reads the deterministic counts of one collection: from the
// Result, and from the registry attached in traced runs.
func collectCounts(res *core.Result, reg *metrics.Registry) map[string]float64 {
	c := map[string]float64{
		"core.engine_events":    float64(res.EngineSteps),
		"core.delay_slots":      res.DelaySlots,
		"core.events_per_slot":  float64(res.EngineSteps) / res.DelaySlots,
		"mac.transmissions":     float64(res.TotalTransmissions),
		"mac.aborts":            float64(res.TotalAborts),
		"mac.freezes":           float64(reg.Counter("mac_freezes_total").Value()),
		"mac.contention_losses": float64(reg.Counter("mac_contention_losses_total").Value()),
	}
	if f := res.Fault; f != nil {
		c["fault.repairs"] = float64(f.Repairs)
		c["fault.retries"] = float64(f.Retries)
		c["fault.drops"] = float64(f.Drops)
	}
	return c
}

func sameCounts(a, b map[string]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}

// firstOp returns the first op of the last phase: its index, and so its
// inputs, depend only on the seed.
func firstOp(phases []*phase) *opRecord {
	last := phases[len(phases)-1]
	if len(last.ops) == 0 {
		return nil
	}
	return last.ops[0]
}

// ---- collect-n1000 ----

// collectWorkload runs single ADDC collections at the density-preserving
// n = 1000 point, one fresh seed per op, from one goroutine.
type collectWorkload struct {
	params netmodel.Params
}

type collectPayload struct {
	delaySlots float64
	// serviceTightness is the worst packet's service time over Theorem 1's
	// bound, recorded, not checked (see README.md).
	serviceTightness float64
}

const collectVirtualBudget = 8 * time.Hour

func (w *collectWorkload) clients() int       { return 1 }
func (w *collectWorkload) setUp(*bench) error { return nil }
func (w *collectWorkload) tearDown() error    { return nil }

func (w *collectWorkload) collect(b *bench, op *opRecord, guard bool, reg *metrics.Registry) (*core.Result, error) {
	return buildAndCollect(b, op, w.params, core.CollectConfig{
		MaxVirtualTime: collectVirtualBudget,
		Metrics:        reg,
		Guard:          guard,
	})
}

func (w *collectWorkload) runOp(b *bench, op *opRecord) {
	reg := b.ledger.registry()
	res, err := w.collect(b, op, false, reg)
	if err != nil {
		op.err = err
		return
	}
	op.runs, op.events = 1, res.EngineSteps
	checkCollection(op, res)
	pl := collectPayload{delaySlots: res.DelaySlots}
	if res.Theory != nil {
		pl.serviceTightness = res.Theory.ServiceTightness
	}
	op.payload = pl
	if reg != nil {
		op.counts = collectCounts(res, reg)
	}
}

// checkCollection is collect-n1000's per-op output check.
func checkCollection(op *opRecord, res *core.Result) {
	switch {
	case res.Outcome != core.OutcomeComplete:
		op.fail("outcome %v, want complete", res.Outcome)
	case res.Delivered != res.Expected:
		op.fail("delivered %d of %d packets", res.Delivered, res.Expected)
	case res.Theory == nil:
		op.fail("no Theorem 1 report")
	case res.Theory.MeanPerHopWaitSlots > res.Theory.Theorem1Slots:
		op.fail("mean per-hop wait %.1f slots exceeds the Theorem 1 bound %.1f",
			res.Theory.MeanPerHopWaitSlots, res.Theory.Theorem1Slots)
	}
}

// verify re-runs the last phase's first op with invariant guards on: zero
// violations, identical delay, and in traced runs identical counts.
func (w *collectWorkload) verify(b *bench, phases []*phase) {
	op := firstOp(phases)
	if op == nil || op.failed() {
		return
	}
	var reg *metrics.Registry
	if op.counts != nil {
		reg = metrics.NewRegistry()
	}
	res, err := w.collect(b, op, true, reg)
	checkGuardRerun(op, res, err, op.payload.(collectPayload).delaySlots)
	if err == nil && reg != nil && !sameCounts(op.counts, collectCounts(res, reg)) {
		op.fail("counts differ on re-run")
	}
}

func checkGuardRerun(op *opRecord, res *core.Result, err error, delay float64) {
	switch {
	case err != nil:
		op.fail("guarded re-run: %v", err)
	case res.Guard == nil:
		op.fail("guarded re-run reported no guard activity")
	case res.Guard.ViolationCount() != 0:
		op.fail("guarded re-run: %d invariant violations", res.Guard.ViolationCount())
	case res.DelaySlots != delay:
		op.fail("guarded re-run delay %v slots, timed run %v", res.DelaySlots, delay)
	}
}

func (w *collectWorkload) layerValues(b *bench, traced *phase) map[string]float64 {
	return countsOfFirst(traced)
}

// countsOfFirst returns the traced phase's first op's counts, the values
// two traced runs on one seed must repeat exactly.
func countsOfFirst(traced *phase) map[string]float64 {
	if len(traced.ops) == 0 || traced.ops[0].counts == nil {
		return map[string]float64{}
	}
	return traced.ops[0].counts
}

func (w *collectWorkload) notes(phases []*phase) map[string]any {
	var worst float64
	over := 0
	for _, p := range phases {
		for _, op := range p.ops {
			if pl, ok := op.payload.(collectPayload); ok {
				worst = math.Max(worst, pl.serviceTightness)
				if pl.serviceTightness > 1 {
					over++
				}
			}
		}
	}
	return map[string]any{
		"num_su":                           w.params.NumSU,
		"num_pu":                           w.params.NumPU,
		"area":                             w.params.Area,
		"theorem1_worst_service_tightness": worst,
		"ops_worst_service_over_bound":     over,
	}
}

// ---- sweep-grid ----

// sweepWorkload runs the 200-pair small-grid sweep of benchSweepSpec (n =
// 40, area 40, N = 2, ten p_t points × 20 reps, ADDC and Coolest per
// pair), one sweep per op, with sweepWorkers workers sharing the one P.
type sweepWorkload struct{}

// sweepWorkers is the sweep's Workers: two, so the work-claiming and
// commit paths run with a peer, and fixed, so the work per op does not
// depend on the machine's core count.
const sweepWorkers = 2

func sweepSpec(seed uint64, workers int) *experiment.Sweep {
	p := netmodel.ScaledDefaultParams()
	p.NumSU = 40
	p.Area = 40
	p.NumPU = 2
	xs := make([]float64, 10)
	for i := range xs {
		xs[i] = 0.1 + 0.2*float64(i)/float64(len(xs)-1)
	}
	return &experiment.Sweep{
		ID:             "bench",
		Base:           p,
		Xs:             xs,
		Apply:          func(p netmodel.Params, x float64) netmodel.Params { p.ActiveProb = x; return p },
		Reps:           20,
		Seed:           seed,
		MaxVirtualTime: time.Hour,
		Workers:        workers,
	}
}

func (w *sweepWorkload) clients() int       { return 1 }
func (w *sweepWorkload) setUp(*bench) error { return nil }
func (w *sweepWorkload) tearDown() error    { return nil }

func (w *sweepWorkload) runOp(b *bench, op *opRecord) {
	s := sweepSpec(op.seed, sweepWorkers)
	t := time.Now()
	res, err := s.Run()
	b.ledger.span(op.index, "experiment.sweep_s", t)
	if err != nil {
		op.err = err
		return
	}
	op.payload = res.FormatCSV()
	op.runs = checkSweep(op, res, len(s.Xs), s.Reps)
}

// checkSweep requires every grid point with every repetition and no
// failure, and returns the runs the sweep completed (two per pair).
func checkSweep(op *opRecord, res *experiment.SweepResult, points, reps int) int {
	if len(res.Points) != points {
		op.fail("sweep returned %d points, want %d", len(res.Points), points)
	}
	runs := 0
	for _, p := range res.Points {
		runs += p.ADDCDelay.N + p.CoolestDelay.N
		if p.Failed != 0 {
			op.fail("point x=%g: %d failed repetitions: %s", p.X, p.Failed, p.LastError)
		} else if p.ADDCDelay.N != reps || p.CoolestDelay.N != reps {
			op.fail("point x=%g: %d/%d repetitions, want %d", p.X, p.ADDCDelay.N, p.CoolestDelay.N, reps)
		}
	}
	return runs
}

// verify re-runs the last phase's first sweep at Workers = 1; its CSV must
// be byte-identical.
func (w *sweepWorkload) verify(b *bench, phases []*phase) {
	op := firstOp(phases)
	if op == nil || op.failed() {
		return
	}
	res, err := sweepSpec(op.seed, 1).Run()
	if err != nil {
		op.fail("Workers=1 re-run: %v", err)
		return
	}
	if got := res.FormatCSV(); got != op.payload.(string) {
		op.fail("Workers=1 re-run CSV differs from Workers=%d", sweepWorkers)
	}
}

func (w *sweepWorkload) layerValues(*bench, *phase) map[string]float64 { return nil }

func (w *sweepWorkload) notes([]*phase) map[string]any {
	return map[string]any{"sweep_workers": sweepWorkers, "pairs_per_op": 200}
}

// ---- faults-channels ----

// faultsWorkload runs, per op and seed at the n = 300 scaled default, one
// ADDC collection under a fault load and multichannel.Run at C = 1 and
// C = 4.
type faultsWorkload struct {
	params netmodel.Params
}

// faultSpec crashes 5% of SUs (recovering after 2 s), loses 5% of frames
// and 2% of ACKs, and raises two PU burst storms.
var faultSpec = fault.Spec{
	CrashFrac:    0.05,
	CrashWindow:  500 * time.Millisecond,
	RecoverAfter: 2 * time.Second,
	LinkLoss:     0.05,
	AckLoss:      0.02,
	Bursts:       2,
}

const faultsVirtualBudget = 2 * time.Hour

func (w *faultsWorkload) clients() int       { return 1 }
func (w *faultsWorkload) setUp(*bench) error { return nil }
func (w *faultsWorkload) tearDown() error    { return nil }

func (w *faultsWorkload) faultRun(b *bench, op *opRecord, reg *metrics.Registry) (*core.Result, error) {
	spec := faultSpec
	return buildAndCollect(b, op, w.params, core.CollectConfig{
		MaxVirtualTime: faultsVirtualBudget,
		Faults:         &spec,
		Metrics:        reg,
	})
}

func (w *faultsWorkload) runOp(b *bench, op *opRecord) {
	reg := b.ledger.registry()
	res, err := w.faultRun(b, op, reg)
	if err != nil {
		op.err = err
		return
	}
	op.runs, op.events = 1, res.EngineSteps
	checkFaultRun(op, res)
	if reg != nil {
		op.counts = collectCounts(res, reg)
	}
	for _, c := range []int{1, 4} {
		t := time.Now()
		mc, err := multichannel.Run(multichannel.Options{
			Params:         w.params,
			Channels:       c,
			Seed:           op.seed,
			MaxVirtualTime: faultsVirtualBudget,
		})
		b.ledger.span(op.index, "multichannel.run_s", t)
		if err != nil {
			op.err = err
			return
		}
		op.runs++
		checkChannels(op, c, mc)
	}
}

// checkFaultRun requires every packet to be delivered or accounted lost.
func checkFaultRun(op *opRecord, res *core.Result) {
	if res.Delivered+res.Lost != res.Expected {
		op.fail("fault run: delivered %d + lost %d != expected %d", res.Delivered, res.Lost, res.Expected)
	}
}

// checkChannels requires a fault-free multichannel run to deliver every
// packet.
func checkChannels(op *opRecord, channels int, res *multichannel.Result) {
	if res.Delivered != res.Expected {
		op.fail("C=%d: delivered %d of %d packets", channels, res.Delivered, res.Expected)
	}
}

// verify re-runs the traced phase's first fault collection; its counts
// must repeat exactly.
func (w *faultsWorkload) verify(b *bench, phases []*phase) {
	op := firstOp(phases)
	if op == nil || op.failed() || op.counts == nil {
		return
	}
	reg := metrics.NewRegistry()
	res, err := w.faultRun(b, op, reg)
	if err != nil {
		op.fail("fault re-run: %v", err)
		return
	}
	if !sameCounts(op.counts, collectCounts(res, reg)) {
		op.fail("counts differ on re-run")
	}
}

func (w *faultsWorkload) layerValues(b *bench, traced *phase) map[string]float64 {
	return countsOfFirst(traced)
}

func (w *faultsWorkload) notes([]*phase) map[string]any {
	return map[string]any{"num_su": w.params.NumSU, "channels": []int{1, 4}, "fault_spec": faultSpec}
}
