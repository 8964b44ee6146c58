// Coordinator mode: a job submitted with Shards=k splits its (x, rep) grid
// into k deterministic partitions, each executed as an ordinary shard job
// on the existing queue/worker/retry substrate, and merges the shard
// journals into the byte-identical journal and summary the unsharded job
// would have produced.
//
// The coordinator is a queue-driven state machine, not a blocking worker:
// after minting its shards it parks in StateCoordinating (occupying no
// worker — a parent that held a worker while its shards waited for one
// would deadlock a one-worker pool), and the last shard's termination
// requeues it for the merge phase. Every transition is persisted, so a
// restarted daemon re-arms a parked coordinator through the normal requeue
// path: it re-parks if shards are still outstanding and merges otherwise —
// including after a crash mid-merge, because the merge is idempotent (it
// deduplicates on (x, rep, algo) keys and rewrites its output atomically).
// Shards that permanently failed cost only their un-journaled pairs: the
// merge tolerates the holes and the coordinator stores the partial summary
// the surviving shards imply.
package serve

import (
	"fmt"
	"time"

	"addcrn/internal/experiment"
	"addcrn/internal/trace"
)

// runCoordinator drives one worker pickup of a sharded job: the first
// pickup mints and enqueues the shard jobs, later pickups either re-park
// (shards still outstanding — only a daemon restart requeues early) or run
// the merge phase.
func (s *Server) runCoordinator(j *Job) {
	s.setState(j, func() {
		j.State = StateRunning
		if j.StartedAt == 0 {
			j.StartedAt = time.Now().UnixMilli()
		}
		j.enqueuedAt = time.Time{}
	})
	s.stats.running.Add(1)
	defer s.stats.running.Add(-1)

	if len(j.ShardIDs) == 0 {
		s.spawnShards(j)
		return
	}

	// Check shard states and park atomically with the check: a shard that
	// terminates after this decision sees StateCoordinating and requeues
	// us; one that terminated before it is already counted. Without the
	// atomicity, a shard finishing in the gap would see a "running" parent
	// and the coordinator would park forever.
	s.mu.Lock()
	outstanding := 0
	failed := 0
	for _, id := range j.ShardIDs {
		c, ok := s.jobs[id]
		switch {
		case !ok:
			failed++ // a lost record can never terminate; don't wait for it
		case !terminalState(c.State):
			outstanding++
		case c.State != StateDone:
			failed++
		}
	}
	if outstanding > 0 {
		j.State = StateCoordinating
		s.persistLocked(j)
		s.mu.Unlock()
		j.spans.Emit(trace.SpanEvent{Event: trace.SpanCoordinating,
			Detail: fmt.Sprintf("%d/%d shards outstanding", outstanding, len(j.ShardIDs))})
		s.log.Info("coordinator parked", "job_id", j.ID, "client", j.Client,
			"state", StateCoordinating, "outstanding", outstanding)
		return
	}
	s.mu.Unlock()
	s.mergeShards(j, failed)
}

// spawnShards mints the job's k shard jobs, parks the coordinator, and
// feeds the shards to the queue. The park happens before the first shard
// can possibly terminate, so the requeue-on-last-termination handshake in
// shardFinished cannot miss.
func (s *Server) spawnShards(j *Job) {
	k := j.Spec.Shards
	childSpec := j.Spec
	childSpec.Shards = 0 // shard jobs are ordinary jobs
	shards := make([]*Job, 0, k)

	s.mu.Lock()
	now := time.Now()
	for i := 1; i <= k; i++ {
		id := fmt.Sprintf("j%06d", s.nextID)
		s.nextID++
		c := &Job{
			ID:          id,
			Spec:        childSpec,
			State:       StateQueued,
			Client:      j.Client,
			Parent:      j.ID,
			Shard:       i,
			ShardOf:     k,
			SubmittedAt: now.UnixMilli(),
			enqueuedAt:  now,
			spans:       newSpanLog(spanPath(s.cfg.StateDir, id), id),
		}
		s.jobs[id] = c
		j.ShardIDs = append(j.ShardIDs, id)
		shards = append(shards, c)
	}
	for _, c := range shards {
		c.spans.Emit(trace.SpanEvent{Event: trace.SpanSubmitted,
			Detail: fmt.Sprintf("shard %d/%d of %s", c.Shard, c.ShardOf, j.ID)})
		c.spans.Emit(trace.SpanEvent{Event: trace.SpanQueued})
		s.persistLocked(c)
	}
	// Persist the shard list and park in one transition: if the daemon dies
	// anywhere after this point, Start re-arms the coordinator and the
	// shard IDs are on disk, so shards are never minted twice.
	j.State = StateCoordinating
	s.persistLocked(j)
	s.mu.Unlock()

	s.stats.shardsSpawned.Add(int64(k))
	j.spans.Emit(trace.SpanEvent{Event: trace.SpanShardsSpawned, Attempt: j.Attempts,
		Detail: fmt.Sprintf("%d shards: %s..%s", k, shards[0].ID, shards[k-1].ID)})
	j.spans.Emit(trace.SpanEvent{Event: trace.SpanCoordinating,
		Detail: fmt.Sprintf("%d/%d shards outstanding", k, k)})
	s.log.Info("shards spawned", "job_id", j.ID, "client", j.Client,
		"state", StateCoordinating, "shards", k)

	// Feed the shards from a goroutine: k can exceed the queue's free
	// depth, and a worker blocking on its own children would deadlock.
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for _, c := range shards {
			select {
			case s.queue <- c:
				s.stats.queued.Add(1)
			case <-s.drainCh:
				return // still queued on disk; the next Start re-enqueues
			}
		}
	}()
}

// shardFinished runs after every shard-job execution ends. It counts
// terminal outcomes and, when the last outstanding shard of a parked
// coordinator reaches a terminal state, requeues the coordinator for its
// merge phase.
func (s *Server) shardFinished(child *Job) {
	switch child.State {
	case StateDone:
		s.stats.shardsCompleted.Inc()
	case StateFailed, StateDeadline:
		s.stats.shardsFailed.Inc()
	default:
		// Interrupted (drain): the shard is not terminal — it resumes on
		// the next Start, so the coordinator keeps waiting.
		return
	}

	s.mu.Lock()
	parent, ok := s.jobs[child.Parent]
	if !ok || parent.State != StateCoordinating {
		// Not parked: either the coordinator is mid-pickup (it will see
		// this shard's terminal state itself) or it already terminated.
		s.mu.Unlock()
		return
	}
	for _, id := range parent.ShardIDs {
		if c, ok := s.jobs[id]; ok && !terminalState(c.State) {
			s.mu.Unlock()
			return
		}
	}
	parent.State = StateQueued
	parent.enqueuedAt = time.Now()
	s.persistLocked(parent)
	s.mu.Unlock()

	parent.spans.Emit(trace.SpanEvent{Event: trace.SpanQueued, Detail: "all shards terminal"})
	s.log.Info("coordinator requeued", "job_id", parent.ID, "client", parent.Client,
		"state", StateQueued, "trigger", child.ID)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		select {
		case s.queue <- parent:
			s.stats.queued.Add(1)
		case <-s.drainCh:
			// Persisted as queued; the next Start re-enqueues it.
		}
	}()
}

// mergeShards is the coordinator's final phase: assemble whatever the
// shards journaled into the parent's journal, replay it through the
// sweep's index-order aggregation, and store the summary. With every shard
// done the result is byte-identical to the unsharded job's; with failed
// shards it is the partial summary their surviving pairs imply. Shard
// journals stamped with another grid hash than the job's fail the merge.
func (s *Server) mergeShards(j *Job, failedShards int) {
	s.setState(j, func() { j.Attempts++ })
	j.spans.Emit(trace.SpanEvent{Event: trace.SpanStarted, Attempt: j.Attempts,
		Detail: fmt.Sprintf("merge phase: %d shards, %d failed", len(j.ShardIDs), failedShards)})
	s.log.Info("merge started", "job_id", j.ID, "client", j.Client,
		"state", StateRunning, "failed_shards", failedShards)

	// The merge replays the merged journal without executing anything: the
	// summary is a pure function of the journal, so re-running this phase
	// after a crash reproduces it exactly.
	var (
		res   *experiment.SweepResult
		stats *experiment.MergeStats
	)
	sw, err := j.Spec.sweep(s.cfg.MaxJobWorkers)
	if err == nil {
		sw.Checkpoint = journalPath(s.cfg.StateDir, j.ID)
		if j.spans != nil {
			sw.Spans = j.spans
		}
		res, stats, err = sw.Merge(trace.WithJobID(s.baseCtx, j.ID), experiment.MergeOptions{AllowMissing: true})
	}
	if stats != nil {
		j.spans.Emit(trace.SpanEvent{Event: trace.SpanMerged, Attempt: j.Attempts,
			Detail: fmt.Sprintf("%d entries from %d journals, %d pairs missing", stats.Entries, stats.Journals, len(stats.MissingPairs))})
	}
	// As in the single-node path, the outcome is counted before terminate
	// settles the job.
	if err != nil {
		s.stats.failed.Inc()
		s.terminate(j, StateFailed, trace.SpanFailed, fmt.Sprintf("merge shards: %v", err), nil, false)
		return
	}
	partial := len(stats.MissingPairs) > 0
	errMsg := ""
	if partial {
		errMsg = fmt.Sprintf("serve: partial: %d shards failed, %d (x, rep) pairs missing", failedShards, len(stats.MissingPairs))
	}
	s.stats.completed.Inc()
	s.terminate(j, StateDone, trace.SpanDone, errMsg, res, partial)
	s.log.Info("merge finished", "job_id", j.ID, "client", j.Client, "state", StateDone,
		"entries", stats.Entries, "missing_pairs", len(stats.MissingPairs))
}
