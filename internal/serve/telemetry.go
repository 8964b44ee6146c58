// Service-layer telemetry: the Telemetry snapshot that /metrics (Prometheus
// text format) renders from, the Prometheus exposition of the server's
// counters, gauges and wall-clock latency histograms, and the spanLog that
// persists each job's lifecycle spans.
//
// Determinism boundary: everything in this file measures wall-clock,
// service-side behavior — queue waits, worker utilization, retry counts,
// span timestamps. None of it is visible to the simulation: virtual time,
// seed derivation, journals and results are byte-identical with telemetry
// on or off (the experiment package's telemetry equivalence test pins
// this).
package serve

import (
	"io"
	"os"
	"runtime"
	"sync"

	"addcrn/internal/metrics"
	"addcrn/internal/trace"
)

// Telemetry is a point-in-time observability snapshot of the server;
// /metrics renders one Telemetry value per request.
type Telemetry struct {
	Stats
	// QueueWait, Execution and Duration are the wall-clock latency
	// distributions: submission-to-pickup, pickup-to-terminal, and
	// submission-to-terminal.
	QueueWait metrics.WallHistogramSnapshot
	Execution metrics.WallHistogramSnapshot
	Duration  metrics.WallHistogramSnapshot
}

// allStates enumerates every job state so the addc_jobs_state gauge always
// exposes the full vector, zeroes included — absent series break dashboard
// joins and delta queries.
var allStates = []string{
	StateQueued, StateRunning, StateCoordinating, StateDone, StateFailed,
	StateDeadline, StateInterrupted,
}

// writeProm renders the snapshot in Prometheus text exposition format.
func writeProm(w io.Writer, t Telemetry) error {
	p := metrics.NewPromWriter(w)
	labels := func(kv ...string) []metrics.Label {
		out := make([]metrics.Label, 0, len(kv)/2)
		for i := 0; i+1 < len(kv); i += 2 {
			out = append(out, metrics.L(kv[i], kv[i+1]))
		}
		return out
	}
	counter := func(name, help string, v int64) {
		p.Family(name, "counter", help)
		p.Int(name, nil, v)
	}
	gauge := func(name, help string, v float64) {
		p.Family(name, "gauge", help)
		p.Sample(name, nil, v)
	}

	p.Family("addc_build_info", "gauge", "build metadata of the addc-serve daemon")
	p.Sample("addc_build_info", labels("go_version", runtime.Version(), "module", "addcrn"), 1)

	counter("addc_jobs_submitted_total", "jobs admitted past validation, bounds and rate limits", t.Submitted)
	counter("addc_jobs_completed_total", "jobs that reached state done", t.Completed)
	counter("addc_jobs_failed_total", "jobs that ended failed or deadline", t.Failed)
	counter("addc_jobs_interrupted_total", "jobs interrupted by a drain (they resume on restart)", t.Interrupted)
	counter("addc_jobs_deadline_total", "jobs whose wall-clock deadline expired (a subset of failed)", t.Deadline)
	counter("addc_job_retries_total", "job-level retry attempts after transient failures", t.Retried)

	counter("addc_shards_spawned_total", "shard jobs minted by coordinator (sharded) jobs", t.ShardsSpawned)
	counter("addc_shards_completed_total", "shard jobs that reached state done", t.ShardsCompleted)
	counter("addc_shards_failed_total", "shard jobs that ended failed or deadline", t.ShardsFailed)
	counter("addc_shard_reexecutions_total", "shard executions beyond a shard's first (retries and requeues after a worker death or restart; each resumes from the shard's journal)", t.ShardReexecution)

	p.Family("addc_jobs_rejected_total", "counter", "submissions refused at admission, by reason")
	p.Int("addc_jobs_rejected_total", labels("reason", "queue_full"), t.RejectedFull)
	p.Int("addc_jobs_rejected_total", labels("reason", "rate_limited"), t.RejectedRate)

	p.Family("addc_jobs_state", "gauge", "jobs currently recorded in each lifecycle state")
	for _, st := range allStates {
		p.Int("addc_jobs_state", labels("state", st), int64(t.States[st]))
	}

	gauge("addc_queue_depth", "jobs queued and not yet picked up", float64(t.Queued))
	gauge("addc_queue_depth_peak", "highest queue depth since start", float64(t.QueuedPeak))
	gauge("addc_queue_capacity", "configured queue bound; submissions beyond it are refused", float64(t.Config.Queue))
	gauge("addc_workers", "configured worker pool size", float64(t.Config.Workers))
	gauge("addc_workers_busy", "workers currently running a job", float64(t.Running))
	gauge("addc_workers_busy_peak", "highest concurrent busy-worker count since start", float64(t.RunningPeak))
	util := 0.0
	if t.Config.Workers > 0 {
		util = float64(t.Running) / float64(t.Config.Workers)
	}
	gauge("addc_worker_utilization", "fraction of the worker pool currently busy", util)

	counter("addc_topo_cache_hits_total", "topology cache lookups served from memory, summed over finished job attempts", t.TopoCache.Hits)
	counter("addc_topo_cache_misses_total", "topology cache lookups that built a deployment, summed over finished job attempts", t.TopoCache.Misses)

	p.WallHistSnapshot("addc_job_queue_wait_seconds",
		"wall time jobs spent queued before a worker picked them up", nil, t.QueueWait)
	p.WallHistSnapshot("addc_job_execution_seconds",
		"wall time from worker pickup to a terminal state", nil, t.Execution)
	p.WallHistSnapshot("addc_job_duration_seconds",
		"wall time from submission to a terminal state", nil, t.Duration)
	return p.Err()
}

// spanLog is one job's durable span stream: an append-only JSONL file next
// to the job's journal (never inside it — the journal compacts by rewrite,
// which would destroy interleaved foreign lines). The file opens lazily on
// the first span and recovers its sequence counter by scanning what a
// previous daemon wrote, so numbering stays dense and monotone across
// retries and restarts.
type spanLog struct {
	path string
	job  string

	mu   sync.Mutex
	sink *trace.JSONLSpanSink
	f    *os.File
}

func newSpanLog(path, job string) *spanLog {
	return &spanLog{path: path, job: job}
}

// Emit implements trace.SpanSink; a nil spanLog discards (tests that build
// Jobs by hand). Errors are swallowed by design: spans are observability,
// and a full disk must degrade the timeline, not the job.
func (l *spanLog) Emit(e trace.SpanEvent) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.sink == nil {
		f, err := os.OpenFile(l.path, os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
		if err != nil {
			return
		}
		// RecoverSpans, not ScanSpans: a crash mid-append leaves a torn
		// unterminated final line, and appending onto it would fuse two
		// records into one unparseable line — losing a span and re-issuing
		// its sequence number on the next recovery. RecoverSpans repairs
		// the tail (seal or truncate) so the append is clean.
		_, last, err := trace.RecoverSpans(f)
		if err != nil {
			f.Close()
			return
		}
		l.f = f
		l.sink = trace.NewJSONLSpanSink(f, l.job, last)
	}
	l.sink.Emit(e)
}

// close releases the file handle; a later Emit reopens and re-scans, so
// closing is always safe.
func (l *spanLog) close() {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f != nil {
		l.f.Close()
		l.f = nil
		l.sink = nil
	}
}
