package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// record is the machine and run record printed before every result and
// stored beside the run's artifacts.
type record struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Traced     bool    `json:"traced"`
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	// Commit is the VCS revision stamped into the build, when the build
	// ran in a git checkout; SourceSHA256 identifies the simulator source
	// the benchmark built either way.
	Commit       string `json:"git_commit"`
	SourceSHA256 string `json:"source_sha256"`
	// Clients is the number of closed-loop goroutines issuing ops.
	Clients int            `json:"clients"`
	Notes   map[string]any `json:"workload_detail"`
	// Unmeasured names metrics this run could not measure, with the
	// reason; they appear here instead of as numbers.
	Unmeasured map[string]string `json:"unmeasured,omitempty"`

	Ops          int           `json:"ops"`
	Attempted    int           `json:"attempted"`
	Failed       int           `json:"failed"`
	FailedFrac   float64       `json:"failed_frac"`
	Correct      bool          `json:"correct"`
	Failures     []string      `json:"failures,omitempty"`
	WindowS      float64       `json:"window_s"`
	SetupSamples []setupSample `json:"setup_samples,omitempty"`
	// EndToEnd holds every end-to-end metric of an untraced run, the
	// gated ones and the wall-clock ones BENCHMARK.json does not gate.
	EndToEnd  map[string]metric `json:"end_to_end,omitempty"`
	OpTailPct int               `json:"op_tail_percentile,omitempty"`
	// StealFrac is the share of the machine's CPU time the hypervisor
	// took during the last timed phase; wall-clock figures move with it.
	StealFrac float64 `json:"steal_frac"`

	UntracedRunsPerS float64 `json:"untraced_runs_per_s,omitempty"`
	TracedRunsPerS   float64 `json:"traced_runs_per_s,omitempty"`
	CPUSamples       int64   `json:"cpu_samples,omitempty"`
	SpanFile         string  `json:"span_file,omitempty"`
	ProfileFile      string  `json:"profile_file,omitempty"`
}

func newRecord(o options, w workload) *record {
	r := &record{
		Workload:     o.workload,
		Seed:         o.seed,
		Seconds:      o.seconds,
		Traced:       o.trace,
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		Commit:       "unmeasured: build not stamped with a VCS revision",
		SourceSHA256: sourceDigest("."),
		Clients:      w.clients(),
		Unmeasured:   map[string]string{},
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				r.Commit = s.Value
			}
		}
	}
	if need := w.clients(); r.GOMAXPROCS < need {
		r.Unmeasured["parallel_ops"] = fmt.Sprintf("%d concurrent clients need %d Ps, the benchmark runs at GOMAXPROCS=%d: ops were time-sliced, not parallel", need, need, r.GOMAXPROCS)
	}
	return r
}

// fillPhase records the workload notes and the last phase's op statistics.
func (r *record) fillPhase(w workload, phases []*phase) {
	last := phases[len(phases)-1]
	r.Notes = w.notes(phases)
	r.Ops = len(last.ops)
	r.WindowS = last.window.Seconds()
	r.StealFrac = last.stealFrac
	if _, pct, ok := tail(last.latencies()); ok {
		r.OpTailPct = pct
	} else {
		r.Unmeasured["op_tail_s"] = fmt.Sprintf("%d ops; a tail needs at least 11", r.Ops)
	}
	if last.events() == 0 {
		r.Unmeasured["sim_events_per_s"] = "this workload's results expose no engine event counts"
	}
}

func (r *record) noteFailure(op *opRecord) {
	const keep = 5
	if len(r.Failures) >= keep {
		return
	}
	r.Failures = append(r.Failures, fmt.Sprintf("op %d (seed %d): %s", op.index, op.seed, op.failure()))
}

// writeRecord stores the record (and the traced run's profile) under the
// build directory's out/.
func writeRecord(o options, r *record, profile []byte) error {
	dir := filepath.Join(o.buildDir, "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	stem := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d", o.workload, o.seed, map[bool]int{false: 0, true: 1}[o.trace]))
	if profile != nil {
		r.ProfileFile = stem + ".cpu.pprof"
		if err := os.WriteFile(r.ProfileFile, profile, 0o644); err != nil {
			return err
		}
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(stem+".record.json", append(b, '\n'), 0o644)
}

// sourceDigest hashes the simulator's Go sources and go.mod under root,
// skipping the benchmark's own directory and build outputs.
func sourceDigest(root string) string {
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			switch d.Name() {
			case "addcbench", ".git":
				return filepath.SkipDir
			}
			if strings.HasPrefix(d.Name(), ".") && path != root {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			files = append(files, path)
		}
		return nil
	})
	if len(files) == 0 {
		return "unmeasured: no sources found"
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(f), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// stealTicks is a /proc/stat reading: the machine's stolen and total CPU
// ticks.
type stealTicks struct{ steal, total uint64 }

func machineSteal() stealTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return stealTicks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	var t stealTicks
	for i, v := range f[1:] {
		n, _ := strconv.ParseUint(v, 10, 64)
		if i == 7 {
			t.steal = n
		}
		// guest and guest_nice (fields 9 and 10) are already in user.
		if i < 8 {
			t.total += n
		}
	}
	return t
}

// since returns the steal share of the ticks elapsed after prev.
func (t stealTicks) since(prev stealTicks) float64 {
	if t.total <= prev.total {
		return 0
	}
	return float64(t.steal-prev.steal) / float64(t.total-prev.total)
}
