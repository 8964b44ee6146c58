package main

import (
	"bytes"
	"io"
	"math"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"
	"time"

	"addcrn/internal/core"
	"addcrn/internal/experiment"
	"addcrn/internal/metrics"
	"addcrn/internal/multichannel"
	"addcrn/internal/netmodel"
	"addcrn/internal/serve"
)

// smallParams is a tiny deployment, so the tests drive the real program
// in milliseconds.
func smallParams() netmodel.Params {
	p := netmodel.ScaledDefaultParams()
	p.NumSU, p.Area, p.NumPU = 40, 40, 2
	return p
}

func smallCollection(t *testing.T, seed uint64, reg *metrics.Registry) *core.Result {
	t.Helper()
	w := &collectWorkload{params: smallParams()}
	op := &opRecord{seed: seed}
	res, err := w.collect(&bench{}, op, false, reg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestCollectChecksFireOnCorruptedOutput(t *testing.T) {
	good := smallCollection(t, 3, nil)
	op := &opRecord{}
	checkCollection(op, good)
	if op.failed() {
		t.Fatalf("clean collection failed its check: %s", op.check)
	}
	corrupt := map[string]func(r *core.Result){
		"outcome":   func(r *core.Result) { r.Outcome = core.OutcomePartial },
		"delivered": func(r *core.Result) { r.Delivered-- },
		"theory":    func(r *core.Result) { r.Theory = nil },
		"theorem1": func(r *core.Result) {
			th := *r.Theory
			th.MeanPerHopWaitSlots = 2 * th.Theorem1Slots
			r.Theory = &th
		},
	}
	for name, f := range corrupt {
		r := *good
		f(&r)
		op := &opRecord{}
		checkCollection(op, &r)
		if !op.failed() {
			t.Errorf("%s: corrupted result passed the check", name)
		}
	}
}

func TestGuardRerunCheckFires(t *testing.T) {
	w := &collectWorkload{params: smallParams()}
	op := &opRecord{seed: 5}
	res, err := w.collect(&bench{}, op, true, nil)
	checkGuardRerun(op, res, err, res.DelaySlots)
	if op.failed() {
		t.Fatalf("clean guarded re-run failed: %s", op.check)
	}
	violated := *res
	violated.Guard = &core.GuardReport{Dropped: 1}
	drifted := *res
	drifted.DelaySlots++
	unguarded := *res
	unguarded.Guard = nil
	for name, r := range map[string]*core.Result{"violation": &violated, "delay": &drifted, "no guard": &unguarded} {
		op := &opRecord{}
		checkGuardRerun(op, r, nil, res.DelaySlots)
		if !op.failed() {
			t.Errorf("%s: corrupted re-run passed the check", name)
		}
	}
}

func TestSweepChecksFireOnCorruptedOutput(t *testing.T) {
	s := sweepSpec(7, 2)
	s.Xs, s.Reps = s.Xs[:2], 2
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	op := &opRecord{}
	if runs := checkSweep(op, res, 2, 2); op.failed() || runs != 8 {
		t.Fatalf("clean sweep: runs %d, check %q", runs, op.check)
	}
	corrupt := map[string]func(r *experiment.SweepResult){
		"failed":  func(r *experiment.SweepResult) { r.Points[0].Failed = 1 },
		"missing": func(r *experiment.SweepResult) { r.Points = r.Points[:1] },
		"reps":    func(r *experiment.SweepResult) { r.Points[1].CoolestDelay.N-- },
	}
	for name, f := range corrupt {
		r := *res
		r.Points = append([]experiment.PointResult(nil), res.Points...)
		f(&r)
		op := &opRecord{}
		checkSweep(op, &r, 2, 2)
		if !op.failed() {
			t.Errorf("%s: corrupted sweep passed the check", name)
		}
	}
}

func TestSweepRerunCheckFiresOnCorruptedCSV(t *testing.T) {
	w := &sweepWorkload{}
	const seed = 9
	csv := func() string {
		res, err := sweepSpec(seed, 2).Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.FormatCSV()
	}()
	for name, tc := range map[string]struct {
		csv  string
		fail bool
	}{
		"clean":     {csv, false},
		"corrupted": {strings.Replace(csv, ",", ";", 1), true},
	} {
		op := &opRecord{seed: seed, payload: tc.csv}
		w.verify(&bench{}, []*phase{{ops: []*opRecord{op}}})
		if op.failed() != tc.fail {
			t.Errorf("%s: failed=%v (%s), want %v", name, op.failed(), op.check, tc.fail)
		}
	}
}

func TestServeChecksFireOnCorruptedOutput(t *testing.T) {
	spec := serveSpec(1, 2)
	want, err := expectedCSV(spec)
	if err != nil {
		t.Fatal(err)
	}
	if runs := csvRuns(want); runs != 5*3*2 {
		t.Errorf("csvRuns = %d, want 30", runs)
	}
	w := &serveWorkload{}
	for name, tc := range map[string]struct {
		csv  string
		fail bool
	}{
		"clean":     {want, false},
		"corrupted": {strings.Replace(want, "\n", "\n0", 2), true},
	} {
		op := &opRecord{payload: &servePayload{spec: spec, id: "j1", csv: tc.csv}}
		w.verify(&bench{}, []*phase{{ops: []*opRecord{op}}})
		if op.failed() != tc.fail {
			t.Errorf("%s: failed=%v (%s), want %v", name, op.failed(), op.check, tc.fail)
		}
	}
	op := &opRecord{}
	if checkJobDone(op, serve.Job{ID: "j1", State: serve.StateFailed}) || !op.failed() {
		t.Error("a failed job passed the state check")
	}
}

func TestFaultChecksFireOnCorruptedOutput(t *testing.T) {
	w := &faultsWorkload{params: smallParams()}
	op := &opRecord{seed: 4}
	res, err := w.faultRun(&bench{}, op, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkFaultRun(op, res)
	if op.failed() {
		t.Fatalf("clean fault run failed: %s", op.check)
	}
	lost := *res
	lost.Lost++
	op = &opRecord{}
	checkFaultRun(op, &lost)
	if !op.failed() {
		t.Error("unaccounted packet passed the fault check")
	}

	mc, err := multichannel.Run(multichannel.Options{Params: smallParams(), Channels: 4, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	op = &opRecord{}
	checkChannels(op, 4, mc)
	if op.failed() {
		t.Fatalf("clean multichannel run failed: %s", op.check)
	}
	short := *mc
	short.Delivered--
	checkChannels(op, 4, &short)
	if !op.failed() {
		t.Error("undelivered packet passed the multichannel check")
	}
}

func TestCountsRepeatOnOneSeed(t *testing.T) {
	a, b := metrics.NewRegistry(), metrics.NewRegistry()
	ca := collectCounts(smallCollection(t, 11, a), a)
	cb := collectCounts(smallCollection(t, 11, b), b)
	if !sameCounts(ca, cb) {
		t.Fatalf("counts differ between two runs of one seed:\n%v\n%v", ca, cb)
	}
	cb["mac.freezes"]++
	if sameCounts(ca, cb) {
		t.Error("sameCounts missed a changed count")
	}
}

// TestTracedRunsRepeatCounts runs the traced benchmark twice on one seed
// and requires identical counts; it also checks that the CPU shares cover
// every sample.
func TestTracedRunsRepeatCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the traced benchmark twice")
	}
	o := options{workload: "faults-channels", seed: 3, seconds: 0.3, trace: true, buildDir: t.TempDir()}
	var got []map[string]metric
	for i := 0; i < 2; i++ {
		res, _, err := benchmark(o, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 {
			t.Fatalf("traced run not correct: %+v", res)
		}
		var sum float64
		for _, l := range cpuLayers {
			sum += res.Metrics["cpu."+l].Value
		}
		if res.Metrics["cpu.samples"].Value > 0 && math.Abs(sum-1) > 1e-9 {
			t.Errorf("CPU shares sum to %v", sum)
		}
		got = append(got, res.Metrics)
	}
	for _, c := range countMetrics {
		if !strings.HasPrefix(c.name, "core.") && !strings.HasPrefix(c.name, "mac.") && !strings.HasPrefix(c.name, "fault.") {
			continue
		}
		if c.name == "core.ns_per_event" {
			continue
		}
		if got[0][c.name] != got[1][c.name] {
			t.Errorf("%s: %v then %v", c.name, got[0][c.name].Value, got[1][c.name].Value)
		}
	}
	if got[0]["fault.repairs"].Value == 0 {
		t.Error("fault run made no repairs; the fault load is not exercised")
	}
}

func TestCPUSharesCoverAllSamples(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	x := 1.0
	for time.Now().Before(deadline) {
		x = math.Sqrt(x + 1)
	}
	pprof.StopCPUProfile()
	shares, samples, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if samples == 0 {
		t.Skip("profile took no samples")
	}
	var sum float64
	for l, v := range shares {
		if !slices.Contains(cpuLayers, l) {
			t.Errorf("unknown layer %q", l)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v over %d samples", sum, samples)
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"addcrn/internal/sim.(*Engine).siftDown":        "sim",
		"addcrn/internal/spectrum.(*Tracker).addPULazy": "spectrum",
		"addcrn/internal/theory.ComputeBounds":          "other",
		"math/rand.(*rngSource).Uint64":                 "math_rand",
		"math.archLog":                                  "math",
		"runtime.mallocgc":                              "runtime",
		"internal/runtime/maps.(*Map).getWithKey":       "runtime",
		"syscall.Syscall6":                              "syscall",
		"internal/runtime/syscall.Syscall6":             "syscall",
		"net/http.(*conn).serve":                        "net_http",
		"encoding/json.(*decodeState).object":           "encoding_json",
		"main.run":                                      "other",
	} {
		if got := layerOf(packageOf(fn)); got != want {
			t.Errorf("%s → %s, want %s", fn, got, want)
		}
	}
}

func TestTail(t *testing.T) {
	if _, _, ok := tail(make([]float64, 10)); ok {
		t.Error("10 samples gave a tail")
	}
	xs := make([]float64, 40)
	for i := range xs {
		xs[i] = float64(i)
	}
	v, pct, ok := tail(xs)
	if !ok || v != 29 || pct != 75 {
		t.Errorf("tail = %v p%d %v, want 29 p75", v, pct, ok)
	}
}

func TestOpSeedsDistinct(t *testing.T) {
	seen := map[uint64]bool{}
	for _, base := range []uint64{0, tracedBase, warmIndex} {
		for i := uint64(0); i < 1000; i++ {
			s := opSeed(1, base+i)
			if seen[s] || s == 0 || s >= 1<<52 {
				t.Fatalf("op %d: seed %d repeats or is out of range", base+i, s)
			}
			seen[s] = true
		}
	}
	if opSeed(1, 0) == opSeed(2, 0) {
		t.Error("workload seed does not reach op seeds")
	}
}

// TestServeJobsTraced drives the service workload end to end for a moment:
// HTTP submit, poll and fetch, the per-job CSV check, and the /metrics
// scrape.
func TestServeJobsTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("starts an in-process server")
	}
	o := options{workload: "serve-jobs", seed: 2, seconds: 0.6, trace: true, buildDir: t.TempDir()}
	res, rec, err := benchmark(o, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted == 0 {
		t.Fatalf("serve run: correct=%v attempted=%d failures=%v", res.Correct, res.Attempted, rec.Failures)
	}
	for _, name := range []string{"serve.exec_s", "serve.submit_s", "serve.journal_bytes", "serve.workspace_reuse_ratio"} {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v, want > 0", name, res.Metrics[name].Value)
		}
	}
}

// TestCPUWindows checks the CPU-per-run windows: the calibration kernel's
// time is left out, the kernel's ratio to nominal scales the normalized
// value, and with several clients a window spans 12·clients completions.
func TestCPUWindows(t *testing.T) {
	ms := time.Millisecond
	ops := []*opRecord{
		{runs: 2, refCPU: refNominal, cpuAt: 10*ms + refNominal},
		{runs: 4, refCPU: 2 * refNominal, cpuAt: 30*ms + 3*refNominal},
	}
	raw, norm := cpuWindows(ops, 0, 1)
	wantRaw := []float64{0.005, 0.005}
	wantNorm := []float64{0.005, 0.0025}
	for i := range wantRaw {
		if math.Abs(raw[i]-wantRaw[i]) > 1e-12 || math.Abs(norm[i]-wantNorm[i]) > 1e-12 {
			t.Fatalf("window %d: raw %v norm %v, want %v and %v", i, raw[i], norm[i], wantRaw[i], wantNorm[i])
		}
	}

	var many []*opRecord
	for i := 1; i <= 48; i++ {
		many = append(many, &opRecord{runs: 1, cpuAt: time.Duration(i) * ms})
	}
	raw, norm = cpuWindows(many, 0, 2)
	if len(raw) != 2 || len(norm) != 0 || math.Abs(raw[0]-0.001) > 1e-12 {
		t.Fatalf("two clients: raw %v norm %v, want two windows of 1 ms per run and no normalized ones", raw, norm)
	}
}
