package addcrn

// Benchmark harness: one testing.B benchmark per evaluation artifact of the
// paper (Fig. 4 and Fig. 6a-6f), the Theorem 1/2 bound checks, plus the
// ablation benches DESIGN.md calls out (fairness wait, spectrum handoff,
// PCR safety margin, PU model). Each figure bench runs one ADDC and one
// Coolest collection at the sweep's default operating point and reports
// the delays (in slots) as custom metrics, so `go test -bench=.` yields a
// compact paper-shaped summary; cmd/addc-experiments produces the full
// tables.

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"addcrn/internal/coolest"
	"addcrn/internal/core"
	"addcrn/internal/experiment"
	"addcrn/internal/metrics"
	"addcrn/internal/multichannel"
	"addcrn/internal/netmodel"
	"addcrn/internal/pcr"
	"addcrn/internal/spectrum"
	"addcrn/internal/theory"
	"addcrn/internal/trace"
)

// benchParams is a trimmed operating point so a full -bench=. pass stays in
// the minutes range; cmd/addc-experiments runs the full scaled sweeps.
func benchParams() netmodel.Params {
	p := netmodel.ScaledDefaultParams()
	p.NumSU = 150
	p.Area = 70
	p.NumPU = 5
	return p
}

func runPair(b *testing.B, params netmodel.Params, seed uint64) (addcSlots, coolestSlots float64) {
	b.Helper()
	opts := core.Options{
		Params:         params,
		Seed:           seed,
		PUModel:        spectrum.ModelExact,
		MaxVirtualTime: 2 * time.Hour,
	}
	nw, err := core.BuildNetwork(opts)
	if err != nil {
		b.Fatal(err)
	}
	tree, err := core.BuildTree(nw)
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.CollectConfig{Seed: seed, MaxVirtualTime: 2 * time.Hour}
	addc, err := core.Collect(nw, tree.Parent, cfg)
	if err != nil {
		b.Fatal(err)
	}
	consts, err := pcr.Compute(params)
	if err != nil {
		b.Fatal(err)
	}
	parents, err := coolest.BuildParents(nw, consts.Range, coolest.MetricAccumulated)
	if err != nil {
		b.Fatal(err)
	}
	coolCfg := cfg
	coolCfg.GenericCSMA = true
	cool, err := core.Collect(nw, parents, coolCfg)
	if err != nil {
		b.Fatal(err)
	}
	return addc.DelaySlots, cool.DelaySlots
}

func benchFigure(b *testing.B, mutate func(*netmodel.Params)) {
	params := benchParams()
	if mutate != nil {
		mutate(&params)
	}
	var addcSum, coolSum float64
	for i := 0; i < b.N; i++ {
		a, c := runPair(b, params, uint64(i)+1)
		addcSum += a
		coolSum += c
	}
	b.ReportMetric(addcSum/float64(b.N), "addc-slots")
	b.ReportMetric(coolSum/float64(b.N), "coolest-slots")
	b.ReportMetric(coolSum/addcSum, "delay-ratio")
}

// BenchmarkFig4PCR regenerates the Fig. 4 PCR panels (pure computation).
func BenchmarkFig4PCR(b *testing.B) {
	base := pcr.Fig4Defaults()
	alphas := []float64{3, 4}
	xs := []float64{5, 10, 15, 20, 25, 30}
	for i := 0; i < b.N; i++ {
		for _, v := range []pcr.SweepVar{
			pcr.SweepPowerPU, pcr.SweepPowerSU, pcr.SweepEtaPU,
			pcr.SweepEtaSU, pcr.SweepRadiusPU, pcr.SweepRadiusSU,
		} {
			if _, err := pcr.Fig4Series(base, v, xs, alphas); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFig6aDelayVsN: delay at the N operating point (Fig. 6a).
func BenchmarkFig6aDelayVsN(b *testing.B) {
	benchFigure(b, func(p *netmodel.Params) { p.NumPU = 8 })
}

// BenchmarkFig6bDelayVsSUs: delay at a larger n (Fig. 6b).
func BenchmarkFig6bDelayVsSUs(b *testing.B) {
	benchFigure(b, func(p *netmodel.Params) { p.NumSU = 220 })
}

// BenchmarkFig6cDelayVsPt: delay at elevated PU activity (Fig. 6c).
func BenchmarkFig6cDelayVsPt(b *testing.B) {
	benchFigure(b, func(p *netmodel.Params) { p.ActiveProb = 0.4 })
}

// BenchmarkFig6dDelayVsAlpha: delay at alpha = 3 (Fig. 6d).
func BenchmarkFig6dDelayVsAlpha(b *testing.B) {
	benchFigure(b, func(p *netmodel.Params) { p.Alpha = 3 })
}

// BenchmarkFig6eDelayVsPp: delay at doubled PU power (Fig. 6e).
func BenchmarkFig6eDelayVsPp(b *testing.B) {
	benchFigure(b, func(p *netmodel.Params) { p.PowerPU = 20 })
}

// BenchmarkFig6fDelayVsPs: delay at doubled SU power (Fig. 6f).
func BenchmarkFig6fDelayVsPs(b *testing.B) {
	benchFigure(b, func(p *netmodel.Params) { p.PowerSU = 20 })
}

// BenchmarkTheorem1Bound measures the max per-packet service time against
// Theorem 1's bound on a stand-alone network.
func BenchmarkTheorem1Bound(b *testing.B) {
	params := benchParams()
	params.NumPU = 0
	var measured, bound float64
	for i := 0; i < b.N; i++ {
		res, err := core.Run(core.Options{
			Params: params, Seed: uint64(i) + 1, MaxVirtualTime: time.Hour,
		})
		if err != nil {
			b.Fatal(err)
		}
		bounds, err := theory.ComputeBoundsWithDegree(params, res.TreeStats.MaxDegree)
		if err != nil {
			b.Fatal(err)
		}
		measured += res.MaxServiceSlots
		bound += bounds.Theorem1Slots
	}
	b.ReportMetric(measured/float64(b.N), "measured-slots")
	b.ReportMetric(bound/float64(b.N), "bound-slots")
}

// BenchmarkTheorem2Bound measures total delay and capacity against Theorem
// 2's bounds.
func BenchmarkTheorem2Bound(b *testing.B) {
	params := benchParams()
	var delay, bound, capacity, capLower float64
	for i := 0; i < b.N; i++ {
		res, err := core.Run(core.Options{
			Params: params, Seed: uint64(i) + 1, MaxVirtualTime: 2 * time.Hour,
		})
		if err != nil {
			b.Fatal(err)
		}
		bounds, err := theory.ComputeBoundsWithDegree(params, res.TreeStats.MaxDegree)
		if err != nil {
			b.Fatal(err)
		}
		delay += res.DelaySlots
		bound += bounds.Theorem2Slots
		capacity += res.Capacity
		capLower += bounds.CapacityLower
	}
	b.ReportMetric(delay/float64(b.N), "delay-slots")
	b.ReportMetric(bound/float64(b.N), "bound-slots")
	b.ReportMetric(capacity/float64(b.N), "capacity-bps")
	b.ReportMetric(capLower/float64(b.N), "capacity-lower-bps")
}

func benchADDCConfig(b *testing.B, mutate func(*core.CollectConfig)) {
	params := benchParams()
	var delay float64
	for i := 0; i < b.N; i++ {
		seed := uint64(i) + 1
		opts := core.Options{Params: params, Seed: seed, MaxVirtualTime: 2 * time.Hour}
		nw, err := core.BuildNetwork(opts)
		if err != nil {
			b.Fatal(err)
		}
		tree, err := core.BuildTree(nw)
		if err != nil {
			b.Fatal(err)
		}
		cfg := core.CollectConfig{Seed: seed, MaxVirtualTime: 2 * time.Hour}
		if mutate != nil {
			mutate(&cfg)
		}
		res, err := core.Collect(nw, tree.Parent, cfg)
		if err != nil {
			b.Fatal(err)
		}
		delay += res.DelaySlots
	}
	b.ReportMetric(delay/float64(b.N), "delay-slots")
}

// BenchmarkAblationBaseline is ADDC as published (reference point for the
// ablations below).
func BenchmarkAblationBaseline(b *testing.B) {
	benchADDCConfig(b, nil)
}

// BenchmarkAblationNoHandoff disables the spectrum-handoff abort.
func BenchmarkAblationNoHandoff(b *testing.B) {
	benchADDCConfig(b, func(cfg *core.CollectConfig) { cfg.DisableHandoff = true })
}

// BenchmarkAblationPCRSafety15 widens the carrier-sensing range 1.5x over
// the derived PCR (safety margin vs concurrency trade-off).
func BenchmarkAblationPCRSafety15(b *testing.B) {
	params := benchParams()
	consts, err := pcr.Compute(params)
	if err != nil {
		b.Fatal(err)
	}
	benchADDCConfig(b, func(cfg *core.CollectConfig) { cfg.PCROverride = consts.Range * 1.5 })
}

// BenchmarkCentralizedBaseline runs the genie-aided synchronized scheduler
// on the same operating point as BenchmarkAblationBaseline; the delay gap
// is the measured constant behind the order-optimality claim.
func BenchmarkCentralizedBaseline(b *testing.B) {
	var delay float64
	for i := 0; i < b.N; i++ {
		res, err := centralRun(centralOptions{Params: benchParams(), Seed: uint64(i) + 1})
		if err != nil {
			b.Fatal(err)
		}
		delay += res.DelaySlots
	}
	b.ReportMetric(delay/float64(b.N), "delay-slots")
}

// BenchmarkExtMultiChannel1 and BenchmarkExtMultiChannel4 measure the
// multi-channel extension: identical operating point on one licensed
// channel vs four (delay-slots metric shows the spatial-reuse gain).
func BenchmarkExtMultiChannel1(b *testing.B) { benchMultiChannel(b, 1) }

// BenchmarkExtMultiChannel4 is the four-channel counterpart.
func BenchmarkExtMultiChannel4(b *testing.B) { benchMultiChannel(b, 4) }

func benchMultiChannel(b *testing.B, channels int) {
	var delay float64
	for i := 0; i < b.N; i++ {
		res, err := multichannel.Run(multichannel.Options{
			Params:         benchParams(),
			Channels:       channels,
			Seed:           uint64(i) + 1,
			MaxVirtualTime: 2 * time.Hour,
		})
		if err != nil {
			b.Fatal(err)
		}
		delay += res.DelaySlots
	}
	b.ReportMetric(delay/float64(b.N), "delay-slots")
}

// benchCollectOnce runs one ADDC collection at the bench operating point
// with the given instrumentation attached (nil values = bare run).
func benchCollectOnce(b *testing.B, seed uint64, reg *metrics.Registry, sink trace.Sink) float64 {
	b.Helper()
	opts := core.Options{
		Params:         benchParams(),
		Seed:           seed,
		PUModel:        spectrum.ModelExact,
		MaxVirtualTime: 2 * time.Hour,
	}
	nw, err := core.BuildNetwork(opts)
	if err != nil {
		b.Fatal(err)
	}
	tree, err := core.BuildTree(nw)
	if err != nil {
		b.Fatal(err)
	}
	res, err := core.Collect(nw, tree.Parent, core.CollectConfig{
		Seed:           seed,
		MaxVirtualTime: 2 * time.Hour,
		Metrics:        reg,
		Sink:           sink,
		TraceMAC:       sink != nil,
	})
	if err != nil {
		b.Fatal(err)
	}
	return res.DelaySlots
}

// BenchmarkCollectBare is the uninstrumented reference for the observability
// overhead comparison: no registry, no sink. It is also the headline number
// for the static-topology fast path, so it reports allocations.
func BenchmarkCollectBare(b *testing.B) {
	b.ReportAllocs()
	var slots float64
	for i := 0; i < b.N; i++ {
		slots += benchCollectOnce(b, uint64(i)+1, nil, nil)
	}
	b.ReportMetric(slots/float64(b.N), "delay-slots")
}

// scaledParams returns the ScaledDefaultParams operating point grown to n
// secondary users at constant node density (area scales with n, PU count
// with area), so per-node neighborhood sizes — and hence the MAC dynamics —
// stay comparable across n.
func scaledParams(n int) netmodel.Params {
	p := netmodel.ScaledDefaultParams()
	scale := float64(n) / float64(p.NumSU)
	p.Area *= math.Sqrt(scale)
	p.NumPU = int(float64(p.NumPU)*scale + 0.5)
	p.NumSU = n
	return p
}

func benchCollectScaled(b *testing.B, n int) {
	b.ReportAllocs()
	params := scaledParams(n)
	var slots float64
	for i := 0; i < b.N; i++ {
		seed := uint64(i) + 1
		opts := core.Options{
			Params:         params,
			Seed:           seed,
			PUModel:        spectrum.ModelExact,
			MaxVirtualTime: 8 * time.Hour,
		}
		nw, err := core.BuildNetwork(opts)
		if err != nil {
			b.Fatal(err)
		}
		tree, err := core.BuildTree(nw)
		if err != nil {
			b.Fatal(err)
		}
		res, err := core.Collect(nw, tree.Parent, core.CollectConfig{
			Seed:           seed,
			MaxVirtualTime: 8 * time.Hour,
		})
		if err != nil {
			b.Fatal(err)
		}
		slots += res.DelaySlots
	}
	b.ReportMetric(slots/float64(b.N), "delay-slots")
}

// BenchmarkCollectN1000 and BenchmarkCollectN2000 measure the fast path at
// paper scale: density-preserving growth of the scaled operating point to
// 1000 and 2000 SUs. Deliberately not skipped under -short — the CI bench
// smoke runs them once so scale regressions surface early.
func BenchmarkCollectN1000(b *testing.B) { benchCollectScaled(b, 1000) }

// BenchmarkCollectN2000 is the 2000-SU counterpart.
func BenchmarkCollectN2000(b *testing.B) { benchCollectScaled(b, 2000) }

// BenchmarkCollectInstrumented runs the identical collection with a full
// metrics registry and MAC-level tracing into a null sink. The acceptance
// bar for the observability layer is that this stays within 5% of
// BenchmarkCollectBare's ns/op.
func BenchmarkCollectInstrumented(b *testing.B) {
	var slots float64
	for i := 0; i < b.N; i++ {
		reg := metrics.NewRegistry()
		slots += benchCollectOnce(b, uint64(i)+1, reg, trace.NullSink{})
	}
	b.ReportMetric(slots/float64(b.N), "delay-slots")
}

// benchSweepSpec returns a ten-point PU-activity sweep at a deliberately
// tiny operating point, 200 (x, rep) pairs per iteration: the many-short-runs
// regime where per-run construction, allocation and checkpoint I/O — the
// sweep engine's targets (DESIGN.md §9.1) — are a meaningful share
// of the wall clock, unlike the simulation-dominated figure benches above.
// One iteration stays a fraction of a second, so the sweep benchmarks run in
// the CI bench smoke and under -short.
func benchSweepSpec(seed uint64) *experiment.Sweep {
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
	}
}

func benchSweepRun(b *testing.B, mutate func(*experiment.Sweep)) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := benchSweepSpec(uint64(i) + 1)
		if mutate != nil {
			mutate(s)
		}
		res, err := s.Run()
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Points) != len(s.Xs) {
			b.Fatalf("sweep returned %d points, want %d", len(res.Points), len(s.Xs))
		}
	}
}

// BenchmarkSweepSmallGrid measures sweep-scale throughput on the default
// execution path: per-x placement seeds with per-worker engine reuse.
func BenchmarkSweepSmallGrid(b *testing.B) { benchSweepRun(b, nil) }

// BenchmarkSweepSmallGridShared is the same grid with ShareTopology: one
// memoized deployment per repetition, its construction artifacts shared
// read-only across every grid point.
func BenchmarkSweepSmallGridShared(b *testing.B) {
	benchSweepRun(b, func(s *experiment.Sweep) { s.ShareTopology = true })
}

// BenchmarkSweepSmallGridCheckpoint adds batched checkpoint journaling to the
// shared-topology grid — the cost of crash-safe persistence on top of the
// sweep itself.
func BenchmarkSweepSmallGridCheckpoint(b *testing.B) {
	path := filepath.Join(b.TempDir(), "cp.jsonl")
	benchSweepRun(b, func(s *experiment.Sweep) {
		s.ShareTopology = true
		s.Checkpoint = path
	})
}

// BenchmarkSweepParallel measures the sweep engine's multi-core scaling on
// the 200-pair small grid: the same configuration at GOMAXPROCS ∈ {1,2,4,8}
// with Workers matched.
// Speedup(cN) = ns/op(c1) / ns/op(cN) of the same family; addc-benchjson
// derives the scaling-efficiency table from these entries and gates the
// 4-core speedup. Every entry reports a "cpus" metric (the machine's core
// count) so the gate self-disables on hardware that cannot physically show
// parallel speedup — a 1-core CI box runs all configs correctly but
// measures only scheduling overhead above c1.
func BenchmarkSweepParallel(b *testing.B) {
	for _, cores := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("scalar-c%d", cores), func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(cores))
			benchSweepRun(b, func(s *experiment.Sweep) { s.Workers = cores })
			b.ReportMetric(float64(runtime.NumCPU()), "cpus")
		})
	}
}

// BenchmarkSweepFig6cFull runs the entire Fig. 6c sweep (all x values, 2
// repetitions) per iteration — the cost of one full figure regeneration.
func BenchmarkSweepFig6cFull(b *testing.B) {
	if testing.Short() {
		b.Skip("full sweep bench is slow")
	}
	for i := 0; i < b.N; i++ {
		sweep, err := experiment.NewFigureSweep("6c", benchParams(), uint64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		sweep.Reps = 2
		if _, err := sweep.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
