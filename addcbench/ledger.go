package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"addcrn/internal/metrics"
)

// ledger holds the traced phase's spans in memory; they are written out
// when the run ends. A nil or closed ledger records nothing, so untraced
// code paths pay one nil check per call site.
type ledger struct {
	mu     sync.Mutex
	spans  []span
	closed bool
}

// span is one timed call into a layer by one op.
type span struct {
	Op      uint64  `json:"op"`
	Name    string  `json:"name"`
	StartS  float64 `json:"start_s"` // since process start
	Seconds float64 `json:"s"`
}

func newLedger() *ledger { return &ledger{} }

func (l *ledger) active() bool { return l != nil && !l.closed }

// registry returns a fresh metrics registry for one op while tracing, nil
// otherwise.
func (l *ledger) registry() *metrics.Registry {
	if !l.active() {
		return nil
	}
	return metrics.NewRegistry()
}

// span records the call that started at t and returns now.
func (l *ledger) span(op uint64, name string, t time.Time) {
	if !l.active() {
		return
	}
	l.add(span{Op: op, Name: name, StartS: t.Sub(processStart).Seconds(), Seconds: time.Since(t).Seconds()})
}

// spanAt records a duration the program reported rather than one the
// benchmark timed (the service job record's timestamps).
func (l *ledger) spanAt(op uint64, name string, seconds float64) {
	if !l.active() {
		return
	}
	l.add(span{Op: op, Name: name, StartS: time.Since(processStart).Seconds(), Seconds: seconds})
}

func (l *ledger) add(s span) {
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// medians returns each span name's median duration.
func (l *ledger) medians() map[string]float64 {
	by := map[string][]float64{}
	for _, s := range l.spans {
		by[s.Name] = append(by[s.Name], s.Seconds)
	}
	out := map[string]float64{}
	for name, xs := range by {
		out[name] = median(xs)
	}
	return out
}

// total returns the summed duration of every span with the given name.
func (l *ledger) total(name string) float64 {
	var sum float64
	for _, s := range l.spans {
		if s.Name == name {
			sum += s.Seconds
		}
	}
	return sum
}

func (l *ledger) path(o options) string {
	return filepath.Join(o.buildDir, "out", fmt.Sprintf("%s-seed%d.spans.jsonl", o.workload, o.seed))
}

// write stores the spans as JSON lines.
func (l *ledger) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// startProfile starts the CPU profile of the traced phase; the returned
// function stops it and returns the profile bytes.
func startProfile() (func() []byte, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, err
	}
	return func() []byte {
		pprof.StopCPUProfile()
		return buf.Bytes()
	}, nil
}

// Per-layer metric names, in BENCHMARK.json order. Span medians come
// first, then CPU self-time shares, then counts.
var (
	spanMetrics = []string{
		"netmodel.build_s", "cds.tree_s", "core.collect_s", "multichannel.run_s",
		"experiment.sweep_s", "serve.submit_s", "serve.queue_wait_s", "serve.exec_s",
		"serve.notify_lag_s", "serve.result_s",
	}
	countMetrics = []struct{ name, unit string }{
		{"core.engine_events", "count"},
		{"core.delay_slots", "slots"},
		{"core.events_per_slot", "count"},
		{"core.ns_per_event", "ns"},
		{"mac.transmissions", "count"},
		{"mac.aborts", "count"},
		{"mac.freezes", "count"},
		{"mac.contention_losses", "count"},
		{"fault.repairs", "count"},
		{"fault.retries", "count"},
		{"fault.drops", "count"},
		{"serve.journal_bytes", "bytes"},
		{"serve.span_bytes", "bytes"},
		{"serve.topo_cache_hit_ratio", "ratio"},
		{"serve.workspace_reuse_ratio", "ratio"},
		{"runtime.alloc_bytes_per_run", "bytes"},
		{"runtime.allocs_per_run", "count"},
		{"runtime.gc_cycles_per_run", "count"},
		{"trace_overhead_frac", "ratio"},
	}
)

// perLayer fills the traced metrics: every per-layer metric on every
// workload, zero where the workload does not reach the layer.
func perLayer(res *result, b *bench, untraced, traced *phase, values map[string]float64, rec *record) error {
	medians := b.ledger.medians()
	for _, name := range spanMetrics {
		res.Metrics[name] = metric{medians[name], "s"}
	}

	shares, samples, err := cpuShares(traced.profile)
	if err != nil {
		return fmt.Errorf("fold CPU profile: %w", err)
	}
	for _, layer := range cpuLayers {
		res.Metrics["cpu."+layer] = metric{shares[layer], "share"}
	}
	res.Metrics["cpu.samples"] = metric{float64(samples), "count"}
	rec.CPUSamples = samples

	if values == nil {
		values = map[string]float64{}
	}
	if events := traced.events(); events > 0 {
		values["core.ns_per_event"] = b.ledger.total("core.collect_s") * 1e9 / float64(events)
	}
	runs := float64(max(untraced.runs(), 1))
	values["runtime.alloc_bytes_per_run"] = float64(untraced.allocBytes) / runs
	values["runtime.allocs_per_run"] = float64(untraced.mallocs) / runs
	values["runtime.gc_cycles_per_run"] = float64(untraced.gcCycles) / runs
	values["trace_overhead_frac"] = finite(1 - traced.runsPerSec()/untraced.runsPerSec())
	for _, c := range countMetrics {
		res.Metrics[c.name] = metric{finite(values[c.name]), c.unit}
	}
	rec.UntracedRunsPerS = untraced.runsPerSec()
	rec.TracedRunsPerS = traced.runsPerSec()
	return nil
}

// cpuLayers are the CPU self-time buckets: the repository's modules, the
// standard-library packages the workloads lean on, and "other".
var cpuLayers = []string{
	"sim", "mac", "spectrum", "core", "experiment", "serve", "rng", "netmodel",
	"cds", "coolest", "pcr", "geom", "graphx", "metrics", "trace", "fault",
	"multichannel", "stats", "math_rand", "runtime", "syscall", "net_http",
	"encoding_json", "math", "other",
}

// layerOf maps a Go package path to its CPU bucket.
func layerOf(pkg string) string {
	if mod, ok := strings.CutPrefix(pkg, "addcrn/internal/"); ok {
		for _, l := range cpuLayers[:18] {
			if mod == l {
				return l
			}
		}
		return "other"
	}
	switch {
	case pkg == "syscall" || strings.HasPrefix(pkg, "internal/syscall/") || pkg == "internal/runtime/syscall":
		return "syscall"
	case pkg == "runtime" || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case pkg == "math/rand":
		return "math_rand"
	case pkg == "math":
		return "math"
	case pkg == "net/http" || strings.HasPrefix(pkg, "net/http/"):
		return "net_http"
	case pkg == "encoding/json":
		return "encoding_json"
	}
	return "other"
}

// packageOf extracts the package path from a symbol name such as
// "addcrn/internal/sim.(*Engine).Step".
func packageOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// cpuShares folds a CPU profile's samples by the leaf frame's package into
// cpuLayers; the shares sum to 1 over all samples.
func cpuShares(profile []byte) (map[string]float64, int64, error) {
	leaves, err := leafSamples(profile)
	if err != nil {
		return nil, 0, err
	}
	byLayer := map[string]int64{}
	var total int64
	for fn, n := range leaves {
		byLayer[layerOf(packageOf(fn))] += n
		total += n
	}
	shares := map[string]float64{}
	for l, n := range byLayer {
		shares[l] = float64(n) / float64(total)
	}
	return shares, total, nil
}
