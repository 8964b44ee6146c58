// Command addcbench is the repository benchmark. It drives one of four
// workloads through the simulator's public entry points in a closed loop,
// checks every output, and prints the result as one JSON line: the
// end-to-end metrics from an untraced run (--trace 0) or the per-layer
// ledger from a traced run (--trace 1). README.md documents the workloads
// and metrics; run.sh builds and runs it.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// processStart approximates process start: package variables initialize
// before main runs, after only the Go runtime's own start-up.
var processStart = time.Now()

// setupProbes is how many times an untraced run sets its workload up; the
// reported setup_s is the median. The run's own set-up is one of them, the
// rest run in child processes so each starts cold. All of them warm up on
// the same op.
const setupProbes = 5

// setupRefRuns is how many times the calibration kernel runs right after
// each set-up; set-up time is scaled by their median.
const setupRefRuns = 5

// rssOps is how many timed ops peak_rss_mb covers. A fixed count, rather
// than the whole loop, keeps a slower host, which completes fewer ops in
// --seconds, from reading as lower memory on serve-jobs, whose server keeps
// every job it ran.
const rssOps = 80

// benchProcs is the GOMAXPROCS every workload runs at (see newBench).
const benchProcs = 1

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	buildDir string
	probe    bool
}

func parseOptions(args []string, stderr io.Writer) (options, error) {
	var o options
	var trace int
	fs := flag.NewFlagSet("addcbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed; every op's inputs derive from it")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of the timed loop in seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced ledger instead of the end-to-end metrics")
	fs.StringVar(&o.buildDir, "build-dir", ".bench_build", "directory for run artifacts")
	fs.BoolVar(&o.probe, "setup-probe", false, "internal: run set-up only and report its time")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if newWorkload(o.workload) == nil {
		return o, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.seconds <= 0 {
		return o, fmt.Errorf("--seconds must be positive")
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1")
	}
	o.trace = trace == 1
	return o, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseOptions(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "addcbench:", err)
		return 2
	}
	if o.probe {
		return runProbe(o, stdout, stderr)
	}
	res, rec, err := benchmark(o, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "addcbench:", err)
		return 1
	}
	line, _ := json.Marshal(map[string]any{"record": rec})
	fmt.Fprintln(stdout, string(line))
	line, err = json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "addcbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// runProbe is the child side of a set-up measurement: set the workload up
// cold, run its warm-up op, report the elapsed time since process start.
func runProbe(o options, stdout, stderr io.Writer) int {
	b := newBench(o, nil)
	defer os.RemoveAll(b.stateDir)
	if err := b.setUp(); err != nil {
		fmt.Fprintln(stderr, "addcbench: setup probe:", err)
		return 1
	}
	elapsed := time.Since(processStart).Seconds()
	ref, err := newRefKernel()
	if err == nil {
		err = b.w.tearDown()
	}
	if err != nil {
		fmt.Fprintln(stderr, "addcbench: setup probe:", err)
		return 1
	}
	fmt.Fprintf(stdout, "setup_s %v %v\n", elapsed, ref.client().median(setupRefRuns).Seconds())
	return 0
}

// Op index space. Every op of a process draws a distinct index, so no op
// repeats an earlier op's inputs: timed untraced ops count up from 0,
// traced ops from tracedBase, and the one warm-up op of a process is
// warmIndex (under workload seed 0).
const (
	tracedBase = uint64(1) << 40
	warmIndex  = uint64(1) << 41
)

// opSeed derives op i's input seed from the workload seed (splitmix64
// finalizer over both). Seeds stay below 2^52 and nonzero so they survive
// a JSON round trip and never select a component's "default seed".
func opSeed(seed, i uint64) uint64 {
	z := seed*0x9e3779b97f4a7c15 + i*0xbf58476d1ce4e5b9 + 0x94d049bb133111eb
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	z &= 1<<52 - 1
	if z == 0 {
		z = 1
	}
	return z
}

// opRecord is one op: its inputs, its timing and what the workload read
// back from the program.
type opRecord struct {
	// index and wseed (the workload seed) determine the op's inputs; seed
	// is opSeed(wseed, index).
	index, wseed, seed uint64
	// client is the closed-loop client goroutine that ran the op.
	client  int
	latency time.Duration
	// cpuAt is the process CPU time when the op completed, after refCPU,
	// the calibration kernel's CPU time timed right after the op (untraced
	// runs only).
	cpuAt, refCPU time.Duration
	// hwmMB is the process's peak resident memory when the op completed.
	hwmMB float64
	// runs counts simulation runs (one algorithm on one deployment) the op
	// completed; events the engine events of the Results that expose them.
	runs   int
	events uint64
	// err is set when the op errored; check names the first correctness
	// check its output failed.
	err   error
	check string
	// counts holds the op's deterministic per-layer counts (traced runs).
	counts map[string]float64
	// payload is workload-specific state verify needs.
	payload any
}

func newOp(wseed, index uint64) *opRecord {
	return &opRecord{index: index, wseed: wseed, seed: opSeed(wseed, index)}
}

func (r *opRecord) failed() bool { return r.err != nil || r.check != "" }

// failure describes why the op failed.
func (r *opRecord) failure() string {
	if r.err != nil {
		return r.err.Error()
	}
	return r.check
}

func (r *opRecord) fail(format string, args ...any) {
	if r.check == "" {
		r.check = fmt.Sprintf(format, args...)
	}
}

// phase is one closed-loop timed run over consecutive op indices.
type phase struct {
	ops    []*opRecord
	window time.Duration
	// cpuPerRun and normCPUPerRun are the process CPU per run of each CPU
	// window, as measured and scaled to the calibration speed (see
	// cpuWindows).
	cpuPerRun, normCPUPerRun []float64
	// rssMB is the peak resident memory up to the completion of the
	// phase's rssOps-th op.
	rssMB float64
	// allocBytes, mallocs and gcCycles are the runtime's counts over the
	// phase.
	allocBytes, mallocs, gcCycles uint64
	// stealFrac is the share of the machine's CPU time the hypervisor
	// took during the phase.
	stealFrac float64
	profile   []byte
}

func (p *phase) runs() int {
	n := 0
	for _, op := range p.ops {
		if op.err == nil {
			n += op.runs
		}
	}
	return n
}

// refMedian is the median CPU time of the calibration kernel over the
// phase's ops.
func (p *phase) refMedian() float64 {
	var xs []float64
	for _, op := range p.ops {
		if op.refCPU > 0 {
			xs = append(xs, op.refCPU.Seconds())
		}
	}
	return median(xs)
}

func (p *phase) runsPerSec() float64 { return float64(p.runs()) / p.window.Seconds() }

func (p *phase) events() uint64 {
	var n uint64
	for _, op := range p.ops {
		n += op.events
	}
	return n
}

func (p *phase) latencies() []float64 {
	xs := make([]float64, len(p.ops))
	for i, op := range p.ops {
		xs[i] = op.latency.Seconds()
	}
	sort.Float64s(xs)
	return xs
}

// bench is one process's benchmark state.
type bench struct {
	o        options
	w        workload
	stateDir string
	ledger   *ledger // nil outside the traced phase
	log      io.Writer
}

func newBench(o options, log io.Writer) *bench {
	if log == nil {
		log = io.Discard
	}
	w := newWorkload(o.workload)
	// Every workload runs on one P. With idle Ps the runtime spins threads
	// looking for work at each goroutine hand-off, and that CPU time swings
	// with what else the host runs; on one P the garbage collector and the
	// workload's goroutines take turns on the same thread instead.
	runtime.GOMAXPROCS(benchProcs)
	return &bench{
		o:        o,
		w:        w,
		stateDir: filepath.Join(o.buildDir, "run", fmt.Sprintf("%s-%d", o.workload, os.Getpid())),
		log:      log,
	}
}

// setUp starts the workload and runs one untimed warm-up op.
func (b *bench) setUp() error {
	if err := b.w.setUp(b); err != nil {
		return err
	}
	// The warm-up op's inputs are the same for every workload seed, so
	// set-up time does not depend on which deployment a seed drew.
	op := newOp(0, warmIndex)
	b.w.runOp(b, op)
	if op.failed() {
		return fmt.Errorf("warm-up op: %s", op.failure())
	}
	return nil
}

// timedLoop runs the closed loop for the given seconds: the workload's
// clients each claim the next op index and run it until the deadline; the
// op running at the deadline completes and counts. With ref set, each
// client times the calibration kernel after every op.
func (b *bench) timedLoop(base uint64, seconds float64, ref *refKernel) *phase {
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0, steal0 := cpuTime(), machineSteal()
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))

	var (
		next atomic.Uint64
		mu   sync.Mutex
		ops  []*opRecord
		wg   sync.WaitGroup
	)
	for c := 0; c < b.w.clients(); c++ {
		wg.Add(1)
		var rc *refClient
		if ref != nil {
			rc = ref.client()
		}
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := base + next.Add(1) - 1
				op := newOp(b.o.seed, i)
				op.client = c
				t := time.Now()
				b.w.runOp(b, op)
				op.latency = time.Since(t)
				if rc != nil {
					op.refCPU = rc.measure()
				}
				mu.Lock()
				op.cpuAt, op.hwmMB = cpuTime(), peakRSSMB()
				ops = append(ops, op)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	p := &phase{window: time.Since(start)}
	if len(ops) > 0 {
		p.rssMB = ops[min(rssOps, len(ops))-1].hwmMB
	}
	p.cpuPerRun, p.normCPUPerRun = cpuWindows(ops, cpu0, b.w.clients())
	p.stealFrac = machineSteal().since(steal0)
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	p.allocBytes = after.TotalAlloc - before.TotalAlloc
	p.mallocs = after.Mallocs - before.Mallocs
	p.gcCycles = uint64(after.NumGC - before.NumGC)
	sort.Slice(ops, func(i, j int) bool { return ops[i].index < ops[j].index })
	p.ops = ops
	return p
}

// cpuWindows splits ops, in completion order, into windows and returns each
// window's process CPU per run, without the calibration kernel's CPU, as
// measured (raw) and scaled by refNominal over the median kernel time of
// the window's ops (norm; empty without calibration). With one client a
// window is one op, so the value is that op's own CPU per run. With
// several clients an op's CPU cannot be told apart from its neighbours',
// so a window closes every 12·clients completions (two rounds of the six
// figures per client on serve-jobs), which keeps the work in flight at its
// edges and the mix of figures in it from moving the value much. The CPU
// metrics report the geometric mean over windows: unlike the whole phase's
// mean it is not carried by the few deployments that cost ten times the
// typical one, and unlike the median it still moves when only the costly
// ones get faster. Over the spread of op costs on faults-channels it also
// varies least with the seed's draw of deployments (resampling 356
// measured ops, 140 at a time: 0.043 against 0.057 for the median and
// 0.048 for the mean).
func cpuWindows(ops []*opRecord, cpu0 time.Duration, clients int) (raw, norm []float64) {
	size := 1
	if clients > 1 {
		size = 12 * clients
	}
	prev, runs := cpu0, 0
	var refs []float64
	var refSum time.Duration
	for i, op := range ops {
		if op.err == nil {
			runs += op.runs
		}
		if op.refCPU > 0 {
			refs = append(refs, op.refCPU.Seconds())
			refSum += op.refCPU
		}
		if (i+1)%size != 0 {
			continue
		}
		// A window whose CPU reads no more than its kernel runs (clock
		// granularity) has no measurement to give.
		if cpu := op.cpuAt - prev - refSum; runs > 0 && cpu > 0 {
			perRun := cpu.Seconds() / float64(runs)
			raw = append(raw, perRun)
			if len(refs) > 0 {
				norm = append(norm, perRun*refNominal.Seconds()/median(refs))
			}
		}
		prev, runs, refs, refSum = op.cpuAt, 0, refs[:0], 0
	}
	return raw, norm
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func benchmark(o options, log io.Writer) (*result, *record, error) {
	b := newBench(o, log)
	if err := os.RemoveAll(b.stateDir); err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(b.stateDir)

	if err := b.setUp(); err != nil {
		b.w.tearDown()
		return nil, nil, err
	}
	setupS := time.Since(processStart).Seconds()
	var setups []setupSample
	rec := newRecord(o, b.w)
	var phases []*phase
	var untraced, traced *phase
	if !o.trace {
		setupRSS := peakRSSMB()
		ref, err := newRefKernel()
		if err != nil {
			b.w.tearDown()
			return nil, nil, err
		}
		setups = []setupSample{{setupS, ref.client().median(setupRefRuns).Seconds()}}
		probes, err := probeSetups(o, setupProbes-1)
		if err != nil {
			b.w.tearDown()
			return nil, nil, err
		}
		setups = append(setups, probes...)
		untraced = b.timedLoop(0, o.seconds, ref)
		// The kernel's table is resident from here on, so the program's
		// peak is the set-up's or the loop's without the table.
		untraced.rssMB = max(setupRSS, untraced.rssMB-float64(refTableBytes)/(1<<20))
		phases = append(phases, untraced)
	} else {
		// The traced ledger needs the untraced throughput as its overhead
		// base and the untraced allocation counts, so a traced run times
		// an untraced loop for the first half of --seconds, then the
		// traced one on fresh inputs for the second half.
		half := o.seconds / 2
		untraced = b.timedLoop(0, half, nil)
		b.ledger = newLedger()
		stopProfile, err := startProfile()
		if err != nil {
			b.w.tearDown()
			return nil, nil, err
		}
		traced = b.timedLoop(tracedBase, half, nil)
		traced.profile = stopProfile()
		b.ledger.closed = true
		phases = append(phases, untraced, traced)
	}
	var values map[string]float64
	if o.trace {
		values = b.w.layerValues(b, traced)
	}
	// Checks that re-run the program happen after timing: on the last
	// phase's first op (deterministic in the seed), and on every serve job.
	b.w.verify(b, phases)
	if err := b.w.tearDown(); err != nil {
		return nil, nil, err
	}

	res := &result{Metrics: map[string]metric{}}
	for _, p := range phases {
		for _, op := range p.ops {
			res.Attempted++
			if op.failed() {
				res.Failed++
				rec.noteFailure(op)
			}
		}
	}
	if res.Attempted == 0 {
		return nil, nil, errors.New("no op ran")
	}
	res.Correct = res.Failed == 0
	rec.fillPhase(b.w, phases)
	if !o.trace {
		rec.SetupSamples = setups
		res.Metrics, rec.EndToEnd = endToEnd(untraced, setups)
	} else {
		if err := perLayer(res, b, untraced, traced, values, rec); err != nil {
			return nil, nil, err
		}
		rec.SpanFile = b.ledger.path(o)
		if err := b.ledger.write(rec.SpanFile); err != nil {
			return nil, nil, err
		}
	}
	rec.Correct, rec.Attempted, rec.Failed = res.Correct, res.Attempted, res.Failed
	rec.FailedFrac = float64(res.Failed) / float64(res.Attempted)
	if rec.EndToEnd != nil {
		rec.EndToEnd["failed_frac"] = metric{rec.FailedFrac, "ratio"}
	}
	if err := writeRecord(o, rec, phases[len(phases)-1].profile); err != nil {
		return nil, nil, err
	}
	return res, rec, nil
}

// endToEnd computes every end-to-end metric of the untraced phase.
// BENCHMARK.json gates the steal-insensitive ones (gated); the wall-clock
// ones go to the run record only (see README.md).
func endToEnd(p *phase, setups []setupSample) (gated, recorded map[string]metric) {
	var raw, norm []float64
	for _, s := range setups {
		raw = append(raw, s.Seconds)
		norm = append(norm, s.Seconds*refNominal.Seconds()/s.RefSeconds)
	}
	gated = map[string]metric{
		"setup_s":            {median(norm), "s"},
		"norm_cpu_s_per_run": {geomean(p.normCPUPerRun), "s"},
		"peak_rss_mb":        {p.rssMB, "MiB"},
	}
	recorded = map[string]metric{
		"setup_raw_s":      {median(raw), "s"},
		"cpu_s_per_run":    {geomean(p.cpuPerRun), "s"},
		"ref_kernel_cpu_s": {p.refMedian(), "s"},
		"runs_per_s":       {p.runsPerSec(), "1/s"},
		"op_p50_s":         {median(p.latencies()), "s"},
	}
	if v, _, ok := tail(p.latencies()); ok {
		recorded["op_tail_s"] = metric{v, "s"}
	}
	if ev := p.events(); ev > 0 {
		recorded["sim_events_per_s"] = metric{float64(ev) / p.window.Seconds(), "1/s"}
	}
	for k, v := range gated {
		recorded[k] = v
	}
	return gated, recorded
}

// tail returns the highest percentile with at least ten samples beyond it
// over sorted xs, and whether xs has enough samples for one.
func tail(xs []float64) (value float64, pct int, ok bool) {
	m := len(xs)
	if m < 11 {
		return 0, 0, false
	}
	return xs[m-11], 100 * (m - 10) / m, true
}

// geomean is the geometric mean of positive xs.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// probeTimeout bounds one set-up probe, so a stuck child cannot hang the
// run.
const probeTimeout = time.Minute

// setupSample is one cold set-up: its time from process start to the end
// of the warm-up op, and the median CPU time of the calibration kernel run
// right after it.
type setupSample struct {
	Seconds    float64 `json:"s"`
	RefSeconds float64 `json:"ref_kernel_s"`
}

// probeSetups measures n cold set-ups, each in a child process of this
// binary, sequentially so none competes with another or with timing.
func probeSetups(o options, n int) ([]setupSample, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []setupSample
	for k := 1; k <= n; k++ {
		ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
		cmd := exec.CommandContext(ctx, exe, "--workload", o.workload, "--seed", strconv.FormatUint(o.seed, 10),
			"--build-dir", o.buildDir, "--setup-probe")
		cmd.Stderr = os.Stderr
		b, err := cmd.Output()
		cancel()
		if err != nil {
			return nil, fmt.Errorf("setup probe %d: %w", k, err)
		}
		var v setupSample
		if _, err := fmt.Sscanf(strings.TrimSpace(string(b)), "setup_s %g %g", &v.Seconds, &v.RefSeconds); err != nil {
			return nil, fmt.Errorf("setup probe %d: parse %q: %w", k, b, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// finite maps a non-finite value to 0 so the result stays valid JSON.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
