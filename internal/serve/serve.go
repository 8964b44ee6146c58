// Package serve is the simulation-as-a-service layer: a job subsystem over
// the experiment engine with bounded admission, per-job wall-clock
// deadlines, bounded retry, and a graceful drain/resume lifecycle.
//
// Robustness posture: the server never exceeds its configured bounds — a
// fixed worker pool, a bounded submission queue (overflow is refused with
// Retry-After, never buffered), a topology cache and simulation workspaces
// per job attempt that are freed when the attempt ends, and per-client
// token-bucket rate limits.
// Every job transition is persisted atomically to the state directory and
// every running sweep journals completed repetitions, so SIGTERM drains to
// a resumable on-disk state and a restarted daemon finishes interrupted
// work byte-identically to an uninterrupted run.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"sort"
	"sync"
	"time"

	"addcrn/internal/experiment"
	"addcrn/internal/metrics"
	"addcrn/internal/trace"
)

// Config bounds the server. The zero value of a field selects the default
// noted on it; bounds are fixed for the server's lifetime.
type Config struct {
	// Addr is the HTTP listen address (cmd/addc-serve's concern; the
	// Server itself never listens).
	Addr string
	// Workers is the number of job workers, each owning one reusable
	// simulation workspace (default 2).
	Workers int
	// QueueDepth bounds queued-but-not-running jobs; submissions beyond it
	// are refused with Retry-After (default 16).
	QueueDepth int
	// StateDir is where job records, journals and results persist.
	StateDir string
	// RatePerSec and RateBurst configure per-client admission tokens
	// (default 0: unlimited).
	RatePerSec float64
	RateBurst  float64
	// DrainGrace is how long Drain waits for in-flight jobs to finish
	// before interrupting them (default 5s; Drain's argument overrides).
	DrainGrace time.Duration
	// MaxJobWorkers clamps one job's internal sweep parallelism
	// (default 1: parallelism comes from running jobs side by side).
	MaxJobWorkers int
	// Logger receives the server's structured log stream; every job line
	// carries job_id, client and state attributes. nil discards logs (the
	// library default — cmd/addc-serve always wires one).
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.DrainGrace <= 0 {
		c.DrainGrace = 5 * time.Second
	}
	if c.MaxJobWorkers <= 0 {
		c.MaxJobWorkers = 1
	}
	return c
}

// ErrQueueFull is returned by Submit when the bounded queue is at depth.
// The HTTP layer maps it to 429 with a Retry-After.
var ErrQueueFull = errors.New("serve: job queue full")

// ErrDraining is returned by Submit once Drain has begun; the HTTP layer
// maps it to 503.
var ErrDraining = errors.New("serve: draining, not accepting jobs")

// serverStats aggregates the multi-goroutine service counters; the
// per-run metrics.Registry stays single-threaded by design, so the service
// layer gets its own atomic set.
type serverStats struct {
	submitted    metrics.AtomicCounter
	completed    metrics.AtomicCounter
	failed       metrics.AtomicCounter
	deadline     metrics.AtomicCounter
	interrupted  metrics.AtomicCounter
	retried      metrics.AtomicCounter
	rejectedFull metrics.AtomicCounter
	rejectedRate metrics.AtomicCounter
	// Shard-job progress for coordinator (sharded) jobs: shards minted,
	// shards that reached done, shards that ended failed/deadline, and
	// shard executions beyond the first (retries, requeues after a worker
	// death or restart — each one resumes from the shard's journal).
	shardsSpawned   metrics.AtomicCounter
	shardsCompleted metrics.AtomicCounter
	shardsFailed    metrics.AtomicCounter
	shardReexec     metrics.AtomicCounter
	queued          metrics.AtomicPeak
	running         metrics.AtomicPeak
	// Topology cache lookups summed over every sweep attempt; each job's
	// sweep owns its cache, which is freed when the attempt returns.
	topoHits   metrics.AtomicCounter
	topoMisses metrics.AtomicCounter
	// Wall-clock latency distributions: submission-to-pickup,
	// pickup-to-terminal, submission-to-terminal.
	queueWait metrics.WallHistogram
	execution metrics.WallHistogram
	duration  metrics.WallHistogram
}

// Stats is a point-in-time snapshot of the server's counters, bounds and
// topology cache lookups; /metrics exposes it.
type Stats struct {
	States           map[string]int
	Submitted        int64
	Completed        int64
	Failed           int64
	Deadline         int64
	Interrupted      int64
	Retried          int64
	RejectedFull     int64
	RejectedRate     int64
	ShardsSpawned    int64
	ShardsCompleted  int64
	ShardsFailed     int64
	ShardReexecution int64
	Queued           int64
	QueuedPeak       int64
	Running          int64
	RunningPeak      int64
	TopoCache        experiment.TopoCacheStats
	Config           struct{ Workers, Queue int }
}

// Server owns the job table, the bounded queue, and the worker pool. Create
// with New, start with Start, stop with Drain.
type Server struct {
	cfg   Config
	limit *rateLimiter
	stats serverStats
	log   *slog.Logger

	mu     sync.Mutex
	jobs   map[string]*Job
	nextID int

	queue   chan *Job
	baseCtx context.Context
	cancel  context.CancelFunc
	// drainCh closes when Drain begins: workers between jobs stop pulling
	// from the queue, leaving queued jobs persisted for the next start.
	drainCh  chan struct{}
	draining bool
	wg       sync.WaitGroup
	started  bool
}

// New builds a server over StateDir, loading every persisted job record.
// Jobs found queued, running or interrupted (a previous daemon stopped or
// crashed mid-work) are re-enqueued by Start, resuming from their journals.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.StateDir == "" {
		return nil, errors.New("serve: Config.StateDir is required")
	}
	if err := os.MkdirAll(cfg.StateDir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: state dir: %w", err)
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:     cfg,
		limit:   newRateLimiter(cfg.RatePerSec, cfg.RateBurst),
		log:     logger,
		jobs:    make(map[string]*Job),
		queue:   make(chan *Job, cfg.QueueDepth),
		baseCtx: ctx,
		cancel:  cancel,
		drainCh: make(chan struct{}),
	}
	loaded, err := loadJobs(cfg.StateDir)
	if err != nil {
		cancel()
		return nil, err
	}
	for _, j := range loaded {
		j.spans = newSpanLog(spanPath(cfg.StateDir, j.ID), j.ID)
		s.jobs[j.ID] = j
		var n int
		if c, _ := fmt.Sscanf(j.ID, "j%06d", &n); c == 1 && n >= s.nextID {
			s.nextID = n + 1
		}
	}
	return s, nil
}

// Start launches the worker pool and re-enqueues unfinished jobs from the
// previous daemon's state, oldest first. It returns immediately.
func (s *Server) Start() {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		return
	}
	s.started = true
	var requeue []*Job
	for _, id := range s.jobIDs() {
		j := s.jobs[id]
		switch j.State {
		case StateQueued, StateRunning, StateInterrupted, StateCoordinating:
			// A "running" record means the previous daemon died without
			// draining; its journal holds everything completed before the
			// crash. Requeue persists the corrected state. A "coordinating"
			// record is a parked sharded job: requeueing re-arms it — it
			// re-parks if shards are still unfinished, merges otherwise
			// (including the crash-during-merge case, since the merge is
			// idempotent).
			requeue = append(requeue, j)
		}
	}
	now := time.Now()
	for _, j := range requeue {
		j.State = StateQueued
		j.enqueuedAt = now
		s.persistLocked(j)
	}
	s.mu.Unlock()
	for _, j := range requeue {
		j.spans.Emit(trace.SpanEvent{Event: trace.SpanQueued, Detail: "requeued after restart"})
		s.log.Info("job requeued", "job_id", j.ID, "client", j.Client, "state", StateQueued)
	}
	s.log.Info("server started",
		"workers", s.cfg.Workers, "queue_depth", s.cfg.QueueDepth, "requeued", len(requeue))

	for w := 0; w < s.cfg.Workers; w++ {
		s.wg.Add(1)
		go s.worker()
	}
	if len(requeue) > 0 {
		// Recovery can exceed the queue depth (e.g. a crash with a full
		// queue), so feed it from a goroutine instead of dropping jobs; the
		// feeder gives up when a drain begins.
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for _, j := range requeue {
				select {
				case s.queue <- j:
					s.stats.queued.Add(1)
				case <-s.drainCh:
					return
				}
			}
		}()
	}
}

// jobIDs returns the job table's IDs sorted ascending; callers hold mu.
func (s *Server) jobIDs() []string {
	ids := make([]string, 0, len(s.jobs))
	for id := range s.jobs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Submit validates, persists and enqueues a job, returning its ID. A
// clientKey identifies the submitter for rate limiting ("" bypasses).
// Returns ErrDraining, a *RateLimitedError, ErrQueueFull, or a validation
// error; only a nil error means the job was admitted.
func (s *Server) Submit(spec JobSpec, clientKey string) (*Job, error) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		return nil, ErrDraining
	}
	if clientKey != "" {
		if ok, retryAfter := s.limit.allow(clientKey, time.Now()); !ok {
			s.stats.rejectedRate.Inc()
			s.log.Warn("job rejected", "client", clientKey, "reason", "rate_limited",
				"retry_after", retryAfter.String())
			return nil, &RateLimitedError{RetryAfter: retryAfter}
		}
	}
	if err := spec.Validate(); err != nil {
		s.log.Warn("job rejected", "client", clientKey, "reason", "invalid_spec", "error", err.Error())
		return nil, err
	}

	s.mu.Lock()
	now := time.Now()
	id := fmt.Sprintf("j%06d", s.nextID)
	s.nextID++
	j := &Job{
		ID:          id,
		Spec:        spec,
		State:       StateQueued,
		Client:      clientKey,
		SubmittedAt: now.UnixMilli(),
		enqueuedAt:  now,
		spans:       newSpanLog(spanPath(s.cfg.StateDir, id), id),
	}
	// Admission is gated on the queued counter, not channel occupancy, and
	// the counter increments under the lock: a worker decrements only after
	// it removed a job from the channel, so occupancy never exceeds the
	// counter, the non-blocking send below cannot fail when the counter is
	// under the bound, and the addc_queue_depth peak can never read above
	// QueueDepth from the submit path. (Checking the channel instead races:
	// a pickup frees a slot before its decrement lands, and a submit in that
	// window overshoots the peak.) Restart-recovery and coordinator feeders
	// bypass this gate by design and use blocking sends.
	if s.stats.queued.Current() >= int64(s.cfg.QueueDepth) {
		s.nextID-- // not admitted; reuse the ID
		s.mu.Unlock()
		s.stats.rejectedFull.Inc()
		s.log.Warn("job rejected", "client", clientKey, "reason", "queue_full")
		return nil, ErrQueueFull
	}
	select {
	case s.queue <- j:
		s.stats.queued.Add(1)
	default:
		s.nextID-- // a recovery feeder overfilled the queue; reuse the ID
		s.mu.Unlock()
		s.stats.rejectedFull.Inc()
		s.log.Warn("job rejected", "client", clientKey, "reason", "queue_full")
		return nil, ErrQueueFull
	}
	s.jobs[id] = j
	// Emit the admission spans before releasing the lock: the worker that
	// picks the job up enters setState (which needs the lock) before its
	// own started span, so submitted/queued are guaranteed to precede it.
	j.spans.Emit(trace.SpanEvent{Event: trace.SpanSubmitted, Detail: "figure " + spec.Figure})
	j.spans.Emit(trace.SpanEvent{Event: trace.SpanQueued})
	err := s.persistLocked(j)
	s.mu.Unlock()
	s.log.Info("job admitted", "job_id", id, "client", clientKey, "state", StateQueued,
		"figure", spec.Figure)
	if err != nil {
		// The job is enqueued and will run; surface the persistence problem
		// to the submitter anyway, since restart-resume is now degraded.
		s.log.Error("job record not persisted", "job_id", id, "client", clientKey,
			"state", StateQueued, "error", err.Error())
		return j, fmt.Errorf("serve: job %s admitted but not persisted: %w", id, err)
	}
	s.stats.submitted.Inc()
	return j, nil
}

// Job returns a copy of the job record, or false if the ID is unknown.
func (s *Server) Job(id string) (Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return Job{}, false
	}
	return *j, true
}

// Jobs returns copies of every job record, sorted by ID.
func (s *Server) Jobs() []Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Job, 0, len(s.jobs))
	for _, id := range s.jobIDs() {
		out = append(out, *s.jobs[id])
	}
	return out
}

// Result loads a job's stored result from the state directory.
func (s *Server) Result(id string) (*JobResult, error) {
	data, err := os.ReadFile(resultPath(s.cfg.StateDir, id))
	if err != nil {
		return nil, err
	}
	var r JobResult
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("serve: corrupt result for %s: %w", id, err)
	}
	return &r, nil
}

// JournalPath returns where a job's repetition journal lives (the /events
// stream reads it directly). A shard job journals to the shard journal
// beside its parent's journal, so the merge step can discover the full set.
func (s *Server) JournalPath(id string) string {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if ok && j.Parent != "" && j.ShardOf > 1 {
		return experiment.ShardJournalPath(journalPath(s.cfg.StateDir, j.Parent),
			experiment.ShardSpec{Index: j.Shard, Count: j.ShardOf})
	}
	return journalPath(s.cfg.StateDir, id)
}

// SpanPath returns where a job's lifecycle span stream lives.
func (s *Server) SpanPath(id string) string {
	return spanPath(s.cfg.StateDir, id)
}

// Stats snapshots the server's counters, bounds and topology cache
// lookups.
func (s *Server) Stats() Stats {
	return s.Telemetry().Stats
}

// Telemetry is the full observability snapshot: Stats plus the wall-clock
// latency histograms. /metrics renders one Telemetry value per request.
func (s *Server) Telemetry() Telemetry {
	s.mu.Lock()
	states := make(map[string]int)
	for _, j := range s.jobs {
		states[j.State]++
	}
	s.mu.Unlock()
	st := Stats{
		States:           states,
		Submitted:        s.stats.submitted.Value(),
		Completed:        s.stats.completed.Value(),
		Failed:           s.stats.failed.Value(),
		Deadline:         s.stats.deadline.Value(),
		Interrupted:      s.stats.interrupted.Value(),
		Retried:          s.stats.retried.Value(),
		RejectedFull:     s.stats.rejectedFull.Value(),
		RejectedRate:     s.stats.rejectedRate.Value(),
		ShardsSpawned:    s.stats.shardsSpawned.Value(),
		ShardsCompleted:  s.stats.shardsCompleted.Value(),
		ShardsFailed:     s.stats.shardsFailed.Value(),
		ShardReexecution: s.stats.shardReexec.Value(),
		Queued:           s.stats.queued.Current(),
		QueuedPeak:       s.stats.queued.Peak(),
		Running:          s.stats.running.Current(),
		RunningPeak:      s.stats.running.Peak(),
		TopoCache:        experiment.TopoCacheStats{Hits: s.stats.topoHits.Value(), Misses: s.stats.topoMisses.Value()},
	}
	st.Config.Workers = s.cfg.Workers
	st.Config.Queue = s.cfg.QueueDepth
	return Telemetry{
		Stats:     st,
		QueueWait: s.stats.queueWait.Snapshot(),
		Execution: s.stats.execution.Snapshot(),
		Duration:  s.stats.duration.Snapshot(),
	}
}

// Draining reports whether Drain has begun (readiness turns false then).
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain stops admission, lets in-flight jobs run for grace (non-positive
// means the configured default), then interrupts the rest. Interrupted
// sweeps flush their journals and persist as "interrupted"; queued jobs
// stay "queued" on disk. Both resume on the next Start. Drain returns once
// every worker has exited; the server cannot be restarted afterward.
func (s *Server) Drain(grace time.Duration) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.draining = true
	s.mu.Unlock()
	if grace <= 0 {
		grace = s.cfg.DrainGrace
	}
	s.log.Info("drain started", "grace", grace.String())
	close(s.drainCh)

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(grace):
		// Grace expired: interrupt in-flight sweeps at event-loop
		// granularity. They checkpoint and persist before the workers exit.
		s.log.Warn("drain grace expired, interrupting in-flight jobs")
		s.cancel()
		<-done
	}
	s.cancel() // release the context either way
	s.log.Info("drain finished")
}

// worker pulls jobs until the queue drains or a drain begins.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.drainCh:
			return
		default:
		}
		select {
		case j := <-s.queue:
			s.stats.queued.Add(-1)
			s.runJob(j)
		case <-s.drainCh:
			return
		}
	}
}

// runJob executes one job's full lifecycle: run the sweep (resuming from
// its journal), classify the outcome, retry failures with backoff, and
// persist every transition.
func (s *Server) runJob(j *Job) {
	// The span file handle is released when the worker is done with the
	// job; a resumed job lazily reopens it with its numbering intact.
	defer j.spans.close()
	if j.Spec.Shards > 1 {
		s.runCoordinator(j)
		return
	}
	if j.Parent != "" {
		if j.Attempts > 0 {
			// A shard job with attempts on record is being re-executed — a
			// retry, or a requeue after its worker died or the daemon
			// restarted. It resumes from its journal either way.
			s.stats.shardReexec.Inc()
		}
		// However this execution ends, tell the coordinator: when the last
		// shard reaches a terminal state, the parked parent requeues for
		// its merge phase.
		defer s.shardFinished(j)
	}
	var queueWait time.Duration
	s.setState(j, func() {
		j.State = StateRunning
		j.StartedAt = time.Now().UnixMilli()
		if !j.enqueuedAt.IsZero() {
			queueWait = time.Since(j.enqueuedAt)
			j.enqueuedAt = time.Time{}
		}
	})
	if queueWait > 0 {
		s.stats.queueWait.Observe(queueWait)
	}
	s.stats.running.Add(1)
	defer s.stats.running.Add(-1)

	retries := j.Spec.Retries
	for attempt := 0; ; attempt++ {
		s.setState(j, func() { j.Attempts++ })
		j.spans.Emit(trace.SpanEvent{Event: trace.SpanStarted, Attempt: j.Attempts})
		s.log.Info("job started", "job_id", j.ID, "client", j.Client,
			"state", StateRunning, "attempt", j.Attempts)
		res, err := s.runAttempt(j)
		if res != nil {
			s.stats.topoHits.Add(res.TopoCache.Hits)
			s.stats.topoMisses.Add(res.TopoCache.Misses)
			s.setState(j, func() { j.Resumed += res.Resumed })
		}

		// Every terminal branch counts the outcome before terminate settles
		// the job, so a reader that sees the job settled also sees its
		// counter.
		switch {
		case err == nil:
			s.stats.completed.Inc()
			s.terminate(j, StateDone, trace.SpanDone, "", res, false)
			return
		case errors.Is(err, context.DeadlineExceeded) && j.Spec.Timeout > 0:
			// The job's own wall-clock deadline fired; partial results are
			// still worth recording — the journal holds every completed
			// repetition.
			s.stats.deadline.Inc()
			s.stats.failed.Inc()
			s.terminate(j, StateDeadline, trace.SpanDeadline, err.Error(), res, true)
			return
		case errors.Is(err, context.Canceled):
			// Drain interrupt: the sweep checkpointed; the next Start
			// resumes it. Keep the partial summary for observability.
			s.stats.interrupted.Inc()
			s.terminate(j, StateInterrupted, trace.SpanInterrupted, err.Error(), res, true)
			return
		case attempt < retries:
			s.stats.retried.Inc()
			if j.Parent != "" {
				s.stats.shardReexec.Inc()
			}
			s.setState(j, func() { j.Error = err.Error() })
			j.spans.Emit(trace.SpanEvent{Event: trace.SpanRetry, Attempt: j.Attempts, Detail: err.Error()})
			s.log.Warn("job retrying", "job_id", j.ID, "client", j.Client,
				"state", StateRunning, "attempt", j.Attempts, "error", err.Error())
			// Exponential backoff, cancelable by drain: 100ms, 200ms, ...
			// capped at 5s. Completed repetitions are journaled, so the
			// retry only reruns what actually failed.
			backoff := 100 * time.Millisecond << uint(min(attempt, 5))
			if backoff > 5*time.Second {
				backoff = 5 * time.Second
			}
			select {
			case <-time.After(backoff):
			case <-s.baseCtx.Done():
				s.stats.interrupted.Inc()
				s.terminate(j, StateInterrupted, trace.SpanInterrupted, err.Error(), res, true)
				return
			}
		default:
			s.stats.failed.Inc()
			s.terminate(j, StateFailed, trace.SpanFailed, err.Error(), res, res != nil)
			return
		}
	}
}

// runAttempt runs the job's sweep once under the server context plus the
// job's own deadline, always journaling to (and resuming from) the job's
// journal file.
func (s *Server) runAttempt(j *Job) (*experiment.SweepResult, error) {
	sw, err := j.Spec.sweep(s.cfg.MaxJobWorkers)
	if err != nil {
		return nil, err
	}
	// The sweep keeps its figure ID untouched: seed derivation labels
	// include it, and byte-identity with `addc-experiments -fig <id>` is
	// part of the service contract.
	sw.Checkpoint = journalPath(s.cfg.StateDir, j.ID)
	if j.Parent != "" && j.ShardOf > 1 {
		// A shard job runs only its partition of the grid, journaling to
		// the shard journal beside the parent's journal (where the merge
		// phase looks for it).
		sw.Shard = experiment.ShardSpec{Index: j.Shard, Count: j.ShardOf}
		sw.Checkpoint = s.JournalPath(j.ID)
	}
	// Resume is unconditional: it unifies fresh runs (empty journal),
	// retries, and restarts after a drain or crash into one path.
	sw.Resume = true
	if j.spans != nil {
		// The sweep reports checkpoint flushes into the job's span stream;
		// purely observational (see the telemetry equivalence test).
		sw.Spans = j.spans
	}

	// The job ID rides the context through queue → worker → sweep → engine
	// so layers below the service can stamp their spans without new
	// parameters.
	ctx := trace.WithJobID(s.baseCtx, j.ID)
	if j.Spec.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(j.Spec.Timeout))
		defer cancel()
	}
	return sw.RunContext(ctx)
}

// terminate records a job's terminal (or interrupted) state: it stores the
// result when one is available, emits the closing lifecycle span before
// the state persists (so an /events stream that stops at the terminal
// record has already shipped the span), observes the latency histograms,
// and logs the outcome.
func (s *Server) terminate(j *Job, state, spanEvent, errMsg string, res *experiment.SweepResult, partial bool) {
	if res != nil {
		out := &JobResult{
			ID:             j.ID,
			Figure:         j.Spec.Figure,
			Partial:        partial,
			CSV:            res.FormatCSV(),
			Table:          res.FormatTable(),
			MeanDelayRatio: res.MeanDelayRatio(),
		}
		if err := saveJSON(resultPath(s.cfg.StateDir, j.ID), out); err != nil && errMsg == "" {
			state, errMsg = StateFailed, fmt.Sprintf("store result: %v", err)
			spanEvent = trace.SpanFailed
		}
	}
	j.spans.Emit(trace.SpanEvent{Event: spanEvent, Attempt: j.Attempts, Detail: errMsg})
	// The histograms record the job before setState publishes its terminal
	// state, so a scrape that follows a reader seeing the job settled counts
	// it.
	finished := time.Now().UnixMilli()
	if terminalState(state) {
		if j.StartedAt > 0 && finished >= j.StartedAt {
			s.stats.execution.Observe(time.Duration(finished-j.StartedAt) * time.Millisecond)
		}
		if j.SubmittedAt > 0 && finished >= j.SubmittedAt {
			s.stats.duration.Observe(time.Duration(finished-j.SubmittedAt) * time.Millisecond)
		}
	}
	s.setState(j, func() {
		j.State = state
		j.Error = errMsg
		j.FinishedAt = finished
	})
	level := slog.LevelInfo
	if state != StateDone {
		level = slog.LevelWarn
	}
	s.log.Log(context.Background(), level, "job finished", "job_id", j.ID, "client", j.Client,
		"state", state, "attempts", j.Attempts, "error", errMsg)
}

// setState applies a mutation to the job under the table lock and persists
// the record atomically.
func (s *Server) setState(j *Job, mutate func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	mutate()
	s.persistLocked(j)
}

func (s *Server) persistLocked(j *Job) error {
	return saveJSON(jobPath(s.cfg.StateDir, j.ID), j)
}
