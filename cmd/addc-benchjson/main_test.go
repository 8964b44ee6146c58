package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: addcrn
cpu: Example CPU @ 2.00GHz
BenchmarkCollectBare-8         	       3	  27076512 ns/op	      8258 delay-slots
BenchmarkCollectInstrumented-8 	       3	  27650339 ns/op	      8258 delay-slots
BenchmarkHotPath-8             	123456789	         9.7 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	addcrn	0.256s
`

func TestParse(t *testing.T) {
	var echo bytes.Buffer
	results, m, err := parse(strings.NewReader(sample), &echo)
	if err != nil {
		t.Fatal(err)
	}
	if m.GOMAXPROCS != 8 || m.CPU != "Example CPU @ 2.00GHz" {
		t.Errorf("stream machine = %+v, want GOMAXPROCS 8 and the cpu header", m)
	}
	if len(results) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(results))
	}
	bare, ok := results["BenchmarkCollectBare"]
	if !ok {
		t.Fatal("GOMAXPROCS suffix not stripped")
	}
	if bare.Iterations != 3 {
		t.Errorf("iterations = %d", bare.Iterations)
	}
	if bare.Metrics["ns/op"] != 27076512 || bare.Metrics["delay-slots"] != 8258 {
		t.Errorf("metrics = %v", bare.Metrics)
	}
	hot := results["BenchmarkHotPath"]
	if hot.Metrics["allocs/op"] != 0 || hot.Metrics["ns/op"] != 9.7 {
		t.Errorf("hot-path metrics = %v", hot.Metrics)
	}
	if echo.String() != sample {
		t.Error("input not echoed verbatim")
	}
}

func TestParseLineRejects(t *testing.T) {
	for _, line := range []string{
		"",
		"PASS",
		"ok  	addcrn	0.256s",
		"Benchmark only-a-name",
		"BenchmarkNoMetrics-8 10",
	} {
		if _, _, _, ok := parseLine(line); ok {
			t.Errorf("accepted %q", line)
		}
	}
}

func TestParseRepeatsKeepFastest(t *testing.T) {
	const reps = `BenchmarkCollectBare-8 	1	30000000 ns/op	13831 delay-slots
BenchmarkCollectBare-8 	1	14000000 ns/op	13831 delay-slots
BenchmarkCollectBare-8 	1	22000000 ns/op	13831 delay-slots
`
	results, _, err := parse(strings.NewReader(reps), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := results["BenchmarkCollectBare"].Metrics["ns/op"]; got != 14000000 {
		t.Errorf("kept %v ns/op, want the fastest rep (14000000)", got)
	}
}

func bench(ns float64) BenchResult {
	return BenchResult{Iterations: 1, Metrics: map[string]float64{"ns/op": ns}}
}

func benchAllocs(ns, allocs float64) BenchResult {
	return BenchResult{Iterations: 1, Metrics: map[string]float64{"ns/op": ns, "allocs/op": allocs}}
}

// gates builds a gateConfig with the given ns/op thresholds and the default
// allocs/op gate (30% beyond a 100-alloc floor).
func gates(maxRegress, gateFloor float64) gateConfig {
	return gateConfig{maxRegress: maxRegress, gateFloor: gateFloor, maxAllocsRegress: 0.30, allocsFloor: 100}
}

func TestDiffGate(t *testing.T) {
	base := map[string]BenchResult{
		"BenchmarkA":    bench(1000),
		"BenchmarkB":    bench(1000),
		"BenchmarkGone": bench(50),
	}
	fresh := map[string]BenchResult{
		"BenchmarkA":   bench(1100), // +10%: within the gate
		"BenchmarkB":   bench(1300), // +30%: regression
		"BenchmarkNew": bench(42),
	}
	var out bytes.Buffer
	err := diff(&out, base, fresh, gates(0.20, 0))
	if err == nil {
		t.Fatal("30% regression passed a 20% gate")
	}
	if !strings.Contains(err.Error(), "BenchmarkB") {
		t.Errorf("error does not name the regressed benchmark: %v", err)
	}
	for _, want := range []string{"BenchmarkA", "new", "gone"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("diff output missing %q:\n%s", want, out.String())
		}
	}
	if err := diff(&out, base, fresh, gates(0.40, 0)); err != nil {
		t.Errorf("30%% regression failed a 40%% gate: %v", err)
	}
}

func TestDiffImprovementPasses(t *testing.T) {
	base := map[string]BenchResult{"BenchmarkA": bench(3000)}
	fresh := map[string]BenchResult{"BenchmarkA": bench(1000)}
	if err := diff(io.Discard, base, fresh, gates(0.20, 0)); err != nil {
		t.Errorf("3x improvement flagged as regression: %v", err)
	}
}

func TestDiffGateFloor(t *testing.T) {
	base := map[string]BenchResult{
		"BenchmarkMicro": bench(200),     // below floor: timer noise at 1x
		"BenchmarkMacro": bench(5000000), // above floor: gated
	}
	fresh := map[string]BenchResult{
		"BenchmarkMicro": bench(400), // +100%, but ungated
		"BenchmarkMacro": bench(5100000),
	}
	var out bytes.Buffer
	if err := diff(&out, base, fresh, gates(0.20, 1e6)); err != nil {
		t.Errorf("sub-floor noise failed the gate: %v", err)
	}
	if !strings.Contains(out.String(), "ungated") {
		t.Errorf("sub-floor benchmark not marked ungated:\n%s", out.String())
	}
	fresh["BenchmarkMacro"] = bench(9000000)
	if err := diff(io.Discard, base, fresh, gates(0.20, 1e6)); err == nil {
		t.Error("above-floor regression passed the gate")
	}
}

// parallelBench builds one BenchmarkSweepParallel entry as parse would.
func parallelBench(ns, cpus float64) BenchResult {
	return BenchResult{Iterations: 1, Metrics: map[string]float64{"ns/op": ns, "cpus": cpus}}
}

// scalingGates builds a gateConfig with only the scaling gate armed.
func scalingGates(min float64, cores int, floor float64) gateConfig {
	return gateConfig{minScaling: min, scalingCores: cores, scalingFloor: floor}
}

func TestAugmentScalingInjectsEfficiency(t *testing.T) {
	results := map[string]BenchResult{
		"BenchmarkSweepParallel/scalar-c1": parallelBench(4e8, 8),
		"BenchmarkSweepParallel/scalar-c4": parallelBench(1.25e8, 8), // 3.2x
		"BenchmarkSweepParallel/scalar-c8": parallelBench(1e8, 8),    // 4.0x
		"BenchmarkCollectBare":             bench(1000),              // not part of the family
	}
	fams, unmeasured := augmentScaling(results, 8)
	if len(unmeasured) != 0 {
		t.Errorf("8-CPU rows listed as unmeasured: %v", unmeasured)
	}
	pts, ok := fams["scalar"]
	if !ok || len(pts) != 3 {
		t.Fatalf("families = %v, want scalar with 3 points", fams)
	}
	if got := results["BenchmarkSweepParallel/scalar-c4"].Metrics["speedup"]; got != 3.2 {
		t.Errorf("c4 speedup = %v, want 3.2", got)
	}
	if got := results["BenchmarkSweepParallel/scalar-c8"].Metrics["efficiency"]; got != 0.5 {
		t.Errorf("c8 efficiency = %v, want 0.5", got)
	}
	if _, polluted := results["BenchmarkCollectBare"].Metrics["speedup"]; polluted {
		t.Error("non-family benchmark gained a speedup metric")
	}
	var out bytes.Buffer
	printScaling(&out, fams)
	for _, want := range []string{"scalar", "3.20x", "80.0%"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("scaling table missing %q:\n%s", want, out.String())
		}
	}
}

func TestScalingGate(t *testing.T) {
	ok4x := map[string][]scalePoint{"scalar": {
		{name: "c1", cores: 1, ns: 4e8, cpus: 8},
		{name: "c4", cores: 4, ns: 1e8, cpus: 8},
	}}
	if err := scalingGate(io.Discard, ok4x, scalingGates(2.5, 4, 5e7)); err != nil {
		t.Errorf("4x speedup failed a 2.5x gate: %v", err)
	}
	flat := map[string][]scalePoint{"scalar": {
		{name: "c1", cores: 1, ns: 4e8, cpus: 8},
		{name: "c4", cores: 4, ns: 3e8, cpus: 8}, // 1.33x
	}}
	err := scalingGate(io.Discard, flat, scalingGates(2.5, 4, 5e7))
	if err == nil || !strings.Contains(err.Error(), "scalar") {
		t.Errorf("1.33x speedup passed a 2.5x gate: %v", err)
	}
}

func TestScalingGateFloors(t *testing.T) {
	// A machine with fewer CPUs than the gated core count cannot show the
	// speedup; the gate must disarm and say so.
	small := map[string][]scalePoint{"scalar": {
		{name: "c1", cores: 1, ns: 4e8, cpus: 1},
		{name: "c4", cores: 4, ns: 4.2e8, cpus: 1},
	}}
	var out bytes.Buffer
	if err := scalingGate(&out, small, scalingGates(2.5, 4, 5e7)); err != nil {
		t.Errorf("1-CPU machine tripped the scaling gate: %v", err)
	}
	if !strings.Contains(out.String(), "ungated") {
		t.Errorf("CPU floor not reported:\n%s", out.String())
	}
	// A grid below the ns/op floor measures fixed costs, not scaling.
	tiny := map[string][]scalePoint{"scalar": {
		{name: "c1", cores: 1, ns: 1e6, cpus: 8},
		{name: "c4", cores: 4, ns: 9e5, cpus: 8},
	}}
	out.Reset()
	if err := scalingGate(&out, tiny, scalingGates(2.5, 4, 5e7)); err != nil {
		t.Errorf("sub-floor grid tripped the scaling gate: %v", err)
	}
	if !strings.Contains(out.String(), "ungated") {
		t.Errorf("ns/op floor not reported:\n%s", out.String())
	}
}

func TestDiffAllocsGate(t *testing.T) {
	base := map[string]BenchResult{
		"BenchmarkA": benchAllocs(5000000, 10000),
		"BenchmarkB": benchAllocs(5000000, 8), // below the allocs floor
	}
	fresh := map[string]BenchResult{
		"BenchmarkA": benchAllocs(5100000, 15000), // ns/op fine, allocs +50%
		"BenchmarkB": benchAllocs(5100000, 16),    // +100% of 8 allocs: ungated
	}
	var out bytes.Buffer
	err := diff(&out, base, fresh, gates(0.20, 1e6))
	if err == nil {
		t.Fatal("+50% allocs/op passed a 30% gate")
	}
	if !strings.Contains(err.Error(), "BenchmarkA") || !strings.Contains(err.Error(), "allocs/op") {
		t.Errorf("error does not name the allocs regression: %v", err)
	}
	if strings.Contains(err.Error(), "BenchmarkB") {
		t.Errorf("sub-floor allocs count was gated: %v", err)
	}

	// Fewer allocations must never trip the gate, whatever the fraction.
	fresh["BenchmarkA"] = benchAllocs(5100000, 100)
	fresh["BenchmarkB"] = benchAllocs(5100000, 0)
	if err := diff(io.Discard, base, fresh, gates(0.20, 1e6)); err != nil {
		t.Errorf("allocation improvement flagged as regression: %v", err)
	}
}

func TestAugmentScalingUnmeasured(t *testing.T) {
	// On a 1-CPU machine only the c1 row is a measurement; c2 and c4
	// time-slice one core, so they get no speedup and are listed.
	results := map[string]BenchResult{
		"BenchmarkSweepParallel/scalar-c1": parallelBench(1.8e8, 1),
		"BenchmarkSweepParallel/scalar-c2": parallelBench(1.9e8, 1),
		"BenchmarkSweepParallel/scalar-c4": parallelBench(2.0e8, 0), // cpus unreported: machine's count
	}
	fams, unmeasured := augmentScaling(results, 1)
	for _, name := range []string{"BenchmarkSweepParallel/scalar-c2", "BenchmarkSweepParallel/scalar-c4"} {
		if _, ok := results[name].Metrics["speedup"]; ok {
			t.Errorf("%s got a speedup on a 1-CPU machine", name)
		}
		if _, ok := results[name].Metrics["efficiency"]; ok {
			t.Errorf("%s got an efficiency on a 1-CPU machine", name)
		}
		found := false
		for _, u := range unmeasured {
			found = found || strings.HasPrefix(u, name+" ")
		}
		if !found {
			t.Errorf("%s missing from unmeasured %v", name, unmeasured)
		}
	}
	if got := results["BenchmarkSweepParallel/scalar-c1"].Metrics["speedup"]; got != 1 {
		t.Errorf("c1 speedup = %v, want 1", got)
	}
	var out bytes.Buffer
	printScaling(&out, fams)
	if strings.Count(out.String(), "unmeasured") != 2 {
		t.Errorf("scaling table should mark two rows unmeasured:\n%s", out.String())
	}
}

func TestRunRecordsMachine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := run(strings.NewReader(sample), io.Discard, path, "", gates(0.20, 0)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rec Record
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	m := rec.Machine
	if m.NumCPU != runtime.NumCPU() || m.GOMAXPROCS != 8 || m.GoVersion != runtime.Version() ||
		m.CPU != "Example CPU @ 2.00GHz" || m.Commit == "" {
		t.Errorf("machine record = %+v", m)
	}
	if len(rec.Benchmarks) != 3 {
		t.Errorf("recorded %d benchmarks, want 3", len(rec.Benchmarks))
	}
}

func TestBaselineMachineWarning(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, v any) string {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	here := Machine{NumCPU: runtime.NumCPU(), GOMAXPROCS: 8, CPU: "Example CPU @ 2.00GHz", GoVersion: runtime.Version()}
	other := here
	other.NumCPU += 4
	benches := map[string]BenchResult{"BenchmarkCollectBare": bench(27076512)}
	for _, tc := range []struct {
		name, path, want string
	}{
		{"same machine", write("same.json", Record{Machine: here, Benchmarks: benches}), ""},
		{"other machine", write("other.json", Record{Machine: other, Benchmarks: benches}), "different machine (num_cpu"},
		{"legacy file", write("legacy.json", benches), "no machine record"},
	} {
		var out bytes.Buffer
		if err := run(strings.NewReader(sample), &out, "", tc.path, gates(10, 0)); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		warned := strings.Contains(out.String(), "warning:")
		if tc.want == "" && warned {
			t.Errorf("%s: unexpected warning:\n%s", tc.name, out.String())
		}
		if tc.want != "" && !strings.Contains(out.String(), tc.want) {
			t.Errorf("%s: output lacks %q:\n%s", tc.name, tc.want, out.String())
		}
		if !strings.Contains(out.String(), "BenchmarkCollectBare") {
			t.Errorf("%s: baseline benchmarks not diffed:\n%s", tc.name, out.String())
		}
	}
}
