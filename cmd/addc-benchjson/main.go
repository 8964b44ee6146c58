// Command addc-benchjson converts `go test -bench` output on stdin into a
// machine-readable JSON file: benchmark name → iterations and every reported
// metric (ns/op, B/op, allocs/op, delay-slots, ...). Repeated lines for the
// same benchmark (`-count=N`) collapse to the fastest rep by ns/op — load
// noise only ever inflates a run, so the minimum is the stable estimator.
// The input stream is echoed to stdout unchanged so it can sit at the end of
// a pipe without hiding the human-readable run. `make bench` uses it to
// produce BENCH_addc.json.
//
// The file also records the machine the numbers came from: NumCPU, the
// benchmarks' GOMAXPROCS (their name suffix), the CPU model `go test`
// prints, the Go version and the git commit (with "+dirty" for a modified
// tree). A BenchmarkSweepParallel row run with more workers than the machine
// has CPUs gets no speedup or efficiency; it is listed under "unmeasured".
//
// With -baseline, the fresh run is additionally diffed against a previously
// recorded JSON file, with a warning first when the baseline was recorded
// on a different machine: per-benchmark ns/op and allocs/op deltas are printed,
// and the exit status is non-zero when any shared benchmark regressed by more
// than -max-regress on ns/op (a fraction; 0.20 means 20% slower) or by more
// than -max-allocs-regress on allocs/op (0.30 means 30% more allocations —
// the tell for a reuse path quietly falling back to fresh construction).
// `make bench-diff` uses this as the local perf-regression gate.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// BenchResult is one benchmark's parsed measurement.
type BenchResult struct {
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Record is the BENCH_addc.json document.
type Record struct {
	Machine Machine `json:"machine"`
	// Unmeasured lists values the machine could not measure, one line each.
	Unmeasured []string               `json:"unmeasured,omitempty"`
	Benchmarks map[string]BenchResult `json:"benchmarks"`
}

// Machine identifies where and from what a record was measured.
type Machine struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu,omitempty"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

// differs lists the fields on which two machine records disagree; the
// commit is expected to differ and is not compared.
func (m Machine) differs(o Machine) []string {
	var d []string
	if m.NumCPU != o.NumCPU {
		d = append(d, fmt.Sprintf("num_cpu %d vs %d", m.NumCPU, o.NumCPU))
	}
	if m.GOMAXPROCS != o.GOMAXPROCS {
		d = append(d, fmt.Sprintf("gomaxprocs %d vs %d", m.GOMAXPROCS, o.GOMAXPROCS))
	}
	if m.CPU != o.CPU {
		d = append(d, fmt.Sprintf("cpu %q vs %q", m.CPU, o.CPU))
	}
	if m.GoVersion != o.GoVersion {
		d = append(d, fmt.Sprintf("go %s vs %s", m.GoVersion, o.GoVersion))
	}
	return d
}

// gitCommit returns HEAD's hash, suffixed "+dirty" when tracked files are
// modified, or "unmeasured" outside a git checkout.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unmeasured"
	}
	commit := strings.TrimSpace(string(out))
	if st, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output(); err == nil && len(bytes.TrimSpace(st)) > 0 {
		commit += "+dirty"
	}
	return commit
}

func main() {
	out := flag.String("out", "BENCH_addc.json", "output JSON path (empty to skip writing)")
	baseline := flag.String("baseline", "", "recorded JSON to diff the fresh run against")
	maxRegress := flag.Float64("max-regress", 0.20, "fail when ns/op regresses by more than this fraction of -baseline")
	gateFloor := flag.Float64("gate-floor", 1e6, "only gate benchmarks whose base ns/op is at least this (short runs are timer noise at -benchtime 1x)")
	maxAllocsRegress := flag.Float64("max-allocs-regress", 0.30, "fail when allocs/op regresses by more than this fraction of -baseline")
	allocsFloor := flag.Float64("allocs-gate-floor", 100, "only gate allocs/op when the base count is at least this (single-digit counts quantize)")
	minScaling := flag.Float64("min-scaling", 2.5, "fail when BenchmarkSweepParallel's speedup at -scaling-cores falls below this (with -baseline)")
	scalingCores := flag.Int("scaling-cores", 4, "worker count the parallel-scaling gate checks")
	scalingFloor := flag.Float64("scaling-floor", 5e7, "only gate scaling when the 1-core ns/op is at least this (tiny grids measure scheduling, not work)")
	flag.Parse()
	gates := gateConfig{
		maxRegress:       *maxRegress,
		gateFloor:        *gateFloor,
		maxAllocsRegress: *maxAllocsRegress,
		allocsFloor:      *allocsFloor,
		minScaling:       *minScaling,
		scalingCores:     *scalingCores,
		scalingFloor:     *scalingFloor,
	}
	if err := run(os.Stdin, os.Stdout, *out, *baseline, gates); err != nil {
		fmt.Fprintln(os.Stderr, "addc-benchjson:", err)
		os.Exit(1)
	}
}

// gateConfig bundles the regression thresholds: a fractional ns/op gate and a
// fractional allocs/op gate, each with a floor below which the base
// measurement is too small to gate meaningfully.
type gateConfig struct {
	maxRegress       float64
	gateFloor        float64
	maxAllocsRegress float64
	allocsFloor      float64
	minScaling       float64
	scalingCores     int
	scalingFloor     float64
}

func run(r io.Reader, echo io.Writer, outPath, baselinePath string, gates gateConfig) error {
	commit := gitCommit()
	results, machine, err := parse(r, echo)
	if err != nil {
		return err
	}
	if len(results) == 0 {
		return fmt.Errorf("no benchmark lines found on stdin")
	}
	machine.NumCPU = runtime.NumCPU()
	machine.GoVersion = runtime.Version()
	machine.Commit = commit
	scaling, unmeasured := augmentScaling(results, machine.NumCPU)
	if len(scaling) > 0 {
		printScaling(echo, scaling)
	}
	if outPath != "" {
		rec := Record{Machine: machine, Unmeasured: unmeasured, Benchmarks: results}
		data, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			return err
		}
		data = append(data, '\n')
		if err := os.WriteFile(outPath, data, 0o644); err != nil {
			return err
		}
	}
	if baselinePath != "" {
		base, err := loadBaseline(baselinePath)
		if err != nil {
			return err
		}
		warnMachine(echo, base.Machine, machine)
		if err := scalingGate(echo, scaling, gates); err != nil {
			return err
		}
		return diff(echo, base.Benchmarks, results, gates)
	}
	return nil
}

// parallelPrefix is the benchmark family the scaling analysis derives from:
// sub-benchmarks named <family>-c<cores>, every core count of one family
// running the identical sweep configuration.
const parallelPrefix = "BenchmarkSweepParallel/"

// scalePoint is one (family, core count) measurement of the parallel family.
type scalePoint struct {
	name  string // full benchmark name, for metric injection
	cores int
	ns    float64
	cpus  float64 // machine core count the benchmark self-reported
	// measured is false when the machine had fewer CPUs than cores, so
	// the row's speedup cannot be measured there.
	measured bool
}

// augmentScaling derives speedup and scaling efficiency for every
// BenchmarkSweepParallel family present and injects them as metrics on the
// per-core-count entries (so BENCH_addc.json records them), returning the
// families keyed by name with points sorted by core count. Speedup is
// ns/op(c1) / ns/op(cN) within a family; efficiency divides by N. A row
// whose core count exceeds the CPUs it ran on (its self-reported cpus
// metric, else numCPU) gets neither metric and is returned in unmeasured.
func augmentScaling(results map[string]BenchResult, numCPU int) (map[string][]scalePoint, []string) {
	fams := make(map[string][]scalePoint)
	for name, r := range results {
		rest, ok := strings.CutPrefix(name, parallelPrefix)
		if !ok {
			continue
		}
		i := strings.LastIndex(rest, "-c")
		if i < 0 {
			continue
		}
		cores, err := strconv.Atoi(rest[i+2:])
		if err != nil || cores < 1 {
			continue
		}
		cpus := r.Metrics["cpus"]
		if cpus <= 0 {
			cpus = float64(numCPU)
		}
		fams[rest[:i]] = append(fams[rest[:i]], scalePoint{
			name:     name,
			cores:    cores,
			ns:       r.Metrics["ns/op"],
			cpus:     cpus,
			measured: float64(cores) <= cpus,
		})
	}
	var unmeasured []string
	for _, fam := range sortedKeys(fams) {
		pts := fams[fam]
		sort.Slice(pts, func(i, j int) bool { return pts[i].cores < pts[j].cores })
		fams[fam] = pts
		var base float64
		for _, p := range pts {
			if p.cores == 1 {
				base = p.ns
			}
		}
		if base <= 0 {
			continue
		}
		for _, p := range pts {
			if !p.measured {
				unmeasured = append(unmeasured, fmt.Sprintf("%s speedup/efficiency: %d cores on a %.0f-CPU machine", p.name, p.cores, p.cpus))
				continue
			}
			if p.ns <= 0 {
				continue
			}
			speedup := base / p.ns
			results[p.name].Metrics["speedup"] = speedup
			results[p.name].Metrics["efficiency"] = speedup / float64(p.cores)
		}
	}
	return fams, unmeasured
}

// printScaling renders the scaling-efficiency table (cores vs speedup per
// family) that EXPERIMENTS.md's parallel-scaling section is generated from.
func printScaling(w io.Writer, fams map[string][]scalePoint) {
	names := make([]string, 0, len(fams))
	for name := range fams {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "\n%-10s %6s %14s %9s %11s\n", "family", "cores", "ns/op", "speedup", "efficiency")
	for _, name := range names {
		var base float64
		for _, p := range fams[name] {
			if p.cores == 1 {
				base = p.ns
			}
		}
		for _, p := range fams[name] {
			if !p.measured {
				fmt.Fprintf(w, "%-10s %6d %14.0f %9s %11s\n", name, p.cores, p.ns, "unmeasured", "-")
			} else if base > 0 && p.ns > 0 {
				s := base / p.ns
				fmt.Fprintf(w, "%-10s %6d %14.0f %8.2fx %10.1f%%\n",
					name, p.cores, p.ns, s, 100*s/float64(p.cores))
			} else {
				fmt.Fprintf(w, "%-10s %6d %14.0f %9s %11s\n", name, p.cores, p.ns, "-", "-")
			}
		}
	}
}

// scalingGate enforces the parallel-efficiency floor: every family measured
// at both 1 and gates.scalingCores cores must show at least gates.minScaling
// speedup. Two documented floors keep the gate honest instead of flaky:
// it only arms when the benchmark self-reports at least scalingCores machine
// CPUs (a smaller box physically cannot exhibit the speedup — its cN runs
// time-slice one core and measure scheduling overhead), and only when the
// 1-core run is at least scalingFloor ns/op (a grid that completes in
// milliseconds is dominated by per-sweep fixed costs, and its ratio flaps).
func scalingGate(w io.Writer, fams map[string][]scalePoint, gates gateConfig) error {
	var failed []string
	for _, name := range sortedKeys(fams) {
		var c1, cn *scalePoint
		for i := range fams[name] {
			p := &fams[name][i]
			switch p.cores {
			case 1:
				c1 = p
			case gates.scalingCores:
				cn = p
			}
		}
		if c1 == nil || cn == nil || c1.ns <= 0 || cn.ns <= 0 {
			continue
		}
		if cn.cpus > 0 && cn.cpus < float64(gates.scalingCores) {
			fmt.Fprintf(w, "scaling gate: %s ungated (machine has %.0f CPUs, gate needs %d)\n",
				name, cn.cpus, gates.scalingCores)
			continue
		}
		if c1.ns < gates.scalingFloor {
			fmt.Fprintf(w, "scaling gate: %s ungated (1-core run %.0f ns/op is below the %.0f floor)\n",
				name, c1.ns, gates.scalingFloor)
			continue
		}
		speedup := c1.ns / cn.ns
		if speedup < gates.minScaling {
			failed = append(failed, fmt.Sprintf("%s (%.2fx at %d cores, need %.2fx)",
				name, speedup, gates.scalingCores, gates.minScaling))
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("parallel scaling below gate: %s", strings.Join(failed, ", "))
	}
	return nil
}

func sortedKeys(m map[string][]scalePoint) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// loadBaseline reads a recorded file. A file from before the machine
// record is a bare benchmark map; it loads with a zero Machine.
func loadBaseline(path string) (Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Record{}, err
	}
	var rec Record
	if err := json.Unmarshal(data, &rec); err == nil && rec.Benchmarks == nil {
		err = json.Unmarshal(data, &rec.Benchmarks)
	}
	if err != nil {
		return Record{}, fmt.Errorf("parse %s: %w", path, err)
	}
	return rec, nil
}

// warnMachine prints a warning when the baseline was recorded on another
// machine (or records none): its ns/op deltas then mix code and hardware.
func warnMachine(w io.Writer, base, fresh Machine) {
	if base == (Machine{}) {
		fmt.Fprintln(w, "warning: baseline has no machine record; ns/op deltas may compare different machines")
		return
	}
	if d := base.differs(fresh); len(d) > 0 {
		fmt.Fprintf(w, "warning: baseline was recorded on a different machine (%s); ns/op deltas mix code and hardware\n",
			strings.Join(d, ", "))
	}
}

// diff prints per-benchmark ns/op and allocs/op deltas of fresh vs base and
// errors when any shared benchmark regressed beyond its gate. Benchmarks
// present on only one side are reported but never fail the gate (new
// benchmarks must be recordable before a baseline exists), and neither do
// benchmarks below the gate floors — a single iteration of a
// microsecond-scale benchmark measures timer granularity, not the code, and a
// handful of allocations quantizes too coarsely for a fractional threshold.
func diff(w io.Writer, base, fresh map[string]BenchResult, gates gateConfig) error {
	names := make([]string, 0, len(fresh))
	for name := range fresh {
		names = append(names, name)
	}
	sort.Strings(names)
	var regressed []string
	fmt.Fprintf(w, "\n%-34s %14s %14s %9s %12s %9s\n",
		"benchmark", "base ns/op", "fresh ns/op", "delta", "allocs/op", "delta")
	for _, name := range names {
		f := fresh[name]
		fns, ok := f.Metrics["ns/op"]
		if !ok {
			continue
		}
		b, ok := base[name]
		if !ok {
			fmt.Fprintf(w, "%-34s %14s %14.0f %9s\n", name, "-", fns, "new")
			continue
		}
		bns, ok := b.Metrics["ns/op"]
		if !ok || bns == 0 {
			continue
		}
		delta := (fns - bns) / bns
		note := ""
		if bns < gates.gateFloor {
			note = " (ungated)"
		}
		fmt.Fprintf(w, "%-34s %14.0f %14.0f %+8.1f%%%s", name, bns, fns, delta*100, note)
		if delta > gates.maxRegress && bns >= gates.gateFloor {
			regressed = append(regressed, fmt.Sprintf("%s (ns/op %+.1f%%)", name, delta*100))
		}
		// Allocation counts are near-deterministic, so a regression there is
		// signal even when wall time is noisy.
		ballocs, bok := b.Metrics["allocs/op"]
		fallocs, fok := f.Metrics["allocs/op"]
		if bok && fok && ballocs > 0 {
			adelta := (fallocs - ballocs) / ballocs
			fmt.Fprintf(w, " %12.0f %+8.1f%%", fallocs, adelta*100)
			if adelta > gates.maxAllocsRegress && ballocs >= gates.allocsFloor {
				regressed = append(regressed, fmt.Sprintf("%s (allocs/op %+.1f%%)", name, adelta*100))
			}
		}
		fmt.Fprintln(w)
	}
	for name := range base {
		if _, ok := fresh[name]; !ok {
			fmt.Fprintf(w, "%-34s %14.0f %14s %9s\n", name, base[name].Metrics["ns/op"], "-", "gone")
		}
	}
	if len(regressed) > 0 {
		return fmt.Errorf("regression beyond gates (ns/op %.0f%%, allocs/op %.0f%%): %s",
			gates.maxRegress*100, gates.maxAllocsRegress*100, strings.Join(regressed, ", "))
	}
	return nil
}

// parse scans benchmark result lines ("BenchmarkName-8  10  123 ns/op  4
// extra-metric ...") and echoes every input line verbatim. The returned
// Machine carries what the stream itself says: GOMAXPROCS from the first
// benchmark's name suffix (go test omits it at 1) and the "cpu:" header.
func parse(r io.Reader, echo io.Writer) (map[string]BenchResult, Machine, error) {
	results := make(map[string]BenchResult)
	var m Machine
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if echo != nil {
			fmt.Fprintln(echo, line)
		}
		if cpu, ok := strings.CutPrefix(line, "cpu: "); ok && m.CPU == "" {
			m.CPU = strings.TrimSpace(cpu)
		}
		res, name, procs, ok := parseLine(line)
		if ok {
			if m.GOMAXPROCS == 0 {
				m.GOMAXPROCS = procs
			}
			if prev, dup := results[name]; !dup || faster(res, prev) {
				results[name] = res
			}
		}
	}
	return results, m, sc.Err()
}

// faster reports whether rep a beat rep b on ns/op. Reps without ns/op
// (custom-metric-only lines) fall back to last-wins.
func faster(a, b BenchResult) bool {
	an, aok := a.Metrics["ns/op"]
	bn, bok := b.Metrics["ns/op"]
	if !aok || !bok {
		return true
	}
	return an < bn
}

// parseLine parses one result line into its measurement, its name without
// the -GOMAXPROCS suffix, and that GOMAXPROCS (1 when absent).
func parseLine(line string) (BenchResult, string, int, bool) {
	fields := strings.Fields(line)
	if len(fields) < 2 || !strings.HasPrefix(fields[0], "Benchmark") {
		return BenchResult{}, "", 0, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return BenchResult{}, "", 0, false
	}
	// Strip the -GOMAXPROCS suffix so names are stable across machines.
	name, procs := fields[0], 1
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if p, err := strconv.Atoi(name[i+1:]); err == nil {
			name, procs = name[:i], p
		}
	}
	res := BenchResult{Iterations: iters, Metrics: make(map[string]float64)}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			break // trailing non-metric annotation
		}
		res.Metrics[fields[i+1]] = v
	}
	if len(res.Metrics) == 0 {
		return BenchResult{}, "", 0, false
	}
	return res, name, procs, true
}
