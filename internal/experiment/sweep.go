// Package experiment regenerates the paper's evaluation artifacts: the
// Fig. 6 delay sweeps comparing ADDC against the Coolest baseline, the
// Fig. 4 PCR panels, and the Theorem 1/2 bound comparisons recorded in
// EXPERIMENTS.md, plus the ADDC-only extension sweeps ext1 (licensed
// channels) and ext2 (SU crash fraction), which run on the same engine.
//
// Each sweep point is repeated over several independent topologies (the
// paper averages 10 repetitions); repetitions run in parallel, one
// deterministic discrete-event simulation per goroutine. The execution
// engine is resilient: sweeps cancel cooperatively (RunContext), a
// panicking repetition becomes a per-point failure instead of a process
// crash, transiently failing repetitions retry with fresh derived seeds,
// and completed repetitions journal to a crash-safe checkpoint so an
// interrupted sweep resumes without redoing work.
package experiment

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"addcrn/internal/cds"
	"addcrn/internal/coolest"
	"addcrn/internal/core"
	"addcrn/internal/fault"
	"addcrn/internal/netmodel"
	"addcrn/internal/pcr"
	"addcrn/internal/rng"
	"addcrn/internal/spectrum"
	"addcrn/internal/stats"
	"addcrn/internal/trace"
)

// Sweep declares one delay-vs-parameter experiment.
type Sweep struct {
	// ID is the figure identifier ("6a".."6f", "ext1", "ext2").
	ID string
	// Title and XLabel annotate output.
	Title  string
	XLabel string
	// Base is the operating point; Apply sets the swept parameter.
	Base  netmodel.Params
	Xs    []float64
	Apply func(p netmodel.Params, x float64) netmodel.Params
	// Reps is the number of independent repetitions per point (default 10,
	// as in the paper).
	Reps int
	// Seed derives every repetition's seed.
	Seed uint64
	// PUModel is zero or spectrum.ModelExact, the only PU model.
	PUModel spectrum.ModelKind
	// MaxVirtualTime bounds each run (default 2 virtual hours).
	MaxVirtualTime time.Duration
	// DisableHandoff switches off abort-on-PU-arrival in both algorithms.
	DisableHandoff bool
	// SameMAC runs Coolest on ADDC's PCR MAC instead of the generic CSMA
	// profile, isolating the routing structure (the ablation comparison;
	// the paper's comparison is the default generic-CSMA one — see
	// DESIGN.md Section 6 and EXPERIMENTS.md).
	SameMAC bool
	// Workers caps parallelism (default GOMAXPROCS).
	Workers int
	// Guard enables runtime invariant guards in every run (see
	// core.CollectConfig.Guard); violations surface as per-point failures.
	Guard bool
	// ShareTopology memoizes deployments: repetitions that agree on the
	// topological parameters (n, N, area, r_SU, r_PU) and the placement
	// seed share one read-only Network/adjacency/CDS-tree/CSR-table build
	// instead of reconstructing it per grid point. Opt-in because it
	// changes the seed derivation — the placement seed must depend only on
	// the repetition, not the x index, for cross-point sharing to be valid
	// — so shared and fresh runs of the same Sweep are each internally
	// deterministic but not bit-identical to each other. Sweeps over a
	// topological axis still work: each x gets its own cache key.
	ShareTopology bool
	// Retries bounds automatic re-attempts of a repetition that failed
	// transiently (deployment connectivity exhaustion). Each attempt draws
	// a fresh derived seed; attempt 0 keeps the historical derivation so
	// existing sweeps stay bit-identical. Deterministic failures (deadline,
	// invariant violation, panic) are never retried — rerunning them would
	// reproduce them.
	Retries int
	// Checkpoint, when non-empty, journals every completed repetition to
	// this JSONL file. Persistence is batched (see Journal): an atomic
	// full-state rewrite on the first flush, buffered appends on a bounded
	// batch/interval policy after, and one fsync barrier when the sweep
	// finishes. A crash loses at most the last un-flushed batch, which the
	// resume path simply reruns.
	Checkpoint string
	// Resume, when set alongside Checkpoint, loads the journal first and
	// skips repetitions it already records; the resumed sweep's summaries
	// are byte-identical to an uninterrupted run.
	Resume bool
	// Shard, when non-zero, restricts execution to the (x, rep) pairs this
	// shard owns (round-robin over the flattened grid index — see
	// ShardSpec) and stamps the checkpoint journal with a ShardHeader so
	// Merge can validate coverage. Hash-derived per-pair seeds make
	// every partition reproduce exactly what an unsharded run computes for
	// the same pairs; k shard journals merge into the byte-identical
	// journal and summary of a single-process run.
	Shard ShardSpec
	// FlushBatch overrides the journal flush batch (default 32 entries;
	// the interval is always 500ms). The chaos harness sets batch 1 so a
	// SIGKILLed shard has journaled every completed pair.
	FlushBatch int
	// Faults, when non-nil, injects the same deterministic fault plan into
	// every repetition (see fault.Spec); part of the sweep's grid identity,
	// so shards disagree loudly instead of merging mixed results.
	Faults *fault.Spec

	// Spans, when non-nil, receives a wall-clock checkpoint_flush span each
	// time the journal actually persists entries to disk (batched flushes
	// and the final Close barrier), stamped with the job ID carried by the
	// RunContext context (trace.WithJobID). Purely observational: span
	// emission reads journal state that is already decided and never feeds
	// anything back into seed derivation, scheduling, or results — the
	// telemetry equivalence test pins CSV and journal bytes identical with
	// Spans set versus nil.
	Spans trace.SpanSink

	// configure, set only by the extension figures of NewFigureSweep, makes
	// the sweep ADDC-only: each pair runs ADDC alone, and x is applied to
	// that run's CollectConfig (channels, fault plan) rather than through
	// Apply to the parameters.
	configure func(cfg *core.CollectConfig, nw *netmodel.Network, x float64) error
	// axis says what the x values are, for CheckGrid.
	axis axis
	// replayOnly, with Resume, assembles the summary purely from journaled
	// pairs without executing anything: missing pairs stay missing. Merge
	// uses it to render a (possibly partial) summary from a merged journal
	// deterministically.
	replayOnly bool
}

// addcOnly reports whether each pair runs ADDC alone (the extension
// figures), journaling one entry per pair instead of two.
func (s *Sweep) addcOnly() bool { return s.configure != nil }

// PointResult aggregates both algorithms at one x value.
type PointResult struct {
	X float64
	// DelaySlots summarizes data collection delay (in slots) per
	// algorithm over the repetitions.
	ADDCDelay    stats.Summary
	CoolestDelay stats.Summary
	// Capacity summarizes measured capacity in bit/s.
	ADDCCapacity    stats.Summary
	CoolestCapacity stats.Summary
	// ADDCAborts and CoolestAborts summarize PU handoffs per run.
	ADDCAborts    stats.Summary
	CoolestAborts stats.Summary
	// ADDCTightness summarizes each ADDC repetition's Theorem 1 service
	// tightness (observed worst service / bound); ADDCPUBusy the empirical
	// PU busy fraction; ADDCFairness Jain's index over per-node
	// transmissions. Together they are the per-point metric summary the
	// observability layer attaches to every sweep.
	ADDCTightness stats.Summary
	ADDCPUBusy    stats.Summary
	ADDCFairness  stats.Summary
	// ADDCDelivery, ADDCRepairs, ADDCDrops and ADDCDeafness summarize the
	// extension columns of each ADDC repetition: the delivery ratio, the
	// self-healing re-parentings and retry-cap drops (all three move only
	// under faults), and the deafness losses (only on C > 1 channels).
	ADDCDelivery stats.Summary
	ADDCRepairs  stats.Summary
	ADDCDrops    stats.Summary
	ADDCDeafness stats.Summary
	// Failed counts repetitions that errored (deadline, deployment,
	// invariant violation or panic); LastError carries the most recent
	// failure's message so a failing point is diagnosable from the table
	// or CSV without rerunning.
	Failed    int
	LastError string
}

// DelayRatio returns mean Coolest delay / mean ADDC delay.
func (p PointResult) DelayRatio() float64 {
	return stats.Ratio(p.CoolestDelay.Mean, p.ADDCDelay.Mean)
}

// SweepResult is the outcome of Sweep.Run.
type SweepResult struct {
	Sweep  *Sweep
	Points []PointResult
	// Elapsed is wall-clock runtime.
	Elapsed time.Duration
	// Resumed counts repetitions replayed from the checkpoint journal
	// instead of executed.
	Resumed int
	// TopoCache counts the run's topology cache lookups (all zero unless
	// ShareTopology is set).
	TopoCache TopoCacheStats
}

// MeanDelayRatio averages the per-point Coolest/ADDC delay ratio.
func (r *SweepResult) MeanDelayRatio() float64 {
	var sum float64
	var n int
	for _, p := range r.Points {
		if ratio := p.DelayRatio(); !isNaN(ratio) {
			sum += ratio
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func isNaN(f float64) bool { return f != f }

// runOutcome is one algorithm's outcome for one (x, rep) pair: the journal
// entry it is recorded as, plus what the journal does not keep.
type runOutcome struct {
	CheckpointEntry
	// err is the typed failure behind Err (a plain error rebuilt from Err
	// when the outcome was replayed from the journal).
	err error
	// canceled marks an outcome cut short by context cancellation: it is
	// neither a result nor a failure, and is never journaled.
	canceled bool
}

// outcome starts the algo outcome of the (xi, rep) pair.
func (s *Sweep) outcome(xi, rep int, algo string) runOutcome {
	return runOutcome{CheckpointEntry: CheckpointEntry{Sweep: s.ID, Xi: xi, Rep: rep, Algo: algo}}
}

// fail records err as the outcome, in its typed and its journaled form.
func (o runOutcome) fail(err error, canceled bool) runOutcome {
	o.err, o.Err, o.canceled = err, err.Error(), canceled
	return o
}

// replayed is the outcome a journaled entry records.
func replayed(e CheckpointEntry) runOutcome {
	o := runOutcome{CheckpointEntry: e}
	if e.Err != "" {
		o.err = errors.New(e.Err)
	}
	return o
}

// Run executes the sweep: for every x and repetition it deploys one
// connected topology, builds the ADDC CDS tree and the Coolest routing tree
// over the same topology, runs both collections (ADDC alone for the
// extension figures), and summarizes.
func (s *Sweep) Run() (*SweepResult, error) {
	return s.RunContext(context.Background())
}

// RunContext is Run with cooperative cancellation: canceling ctx stops
// feeding work, interrupts in-flight simulations at event-loop granularity,
// flushes the checkpoint journal (when configured), and returns the partial
// SweepResult built from every repetition that did finish, alongside an
// error wrapping the context's. A checkpointed sweep canceled this way
// resumes exactly where it stopped.
func (s *Sweep) RunContext(ctx context.Context) (*SweepResult, error) {
	return s.runWith(ctx, newTopoCache())
}

// runWith is RunContext memoizing ShareTopology deployments into cache. The
// cache lives as long as the run: RunContext hands each run a fresh one.
func (s *Sweep) runWith(ctx context.Context, cache *topoCache) (*SweepResult, error) {
	if len(s.Xs) == 0 {
		return nil, fmt.Errorf("experiment: sweep %q has no x values", s.ID)
	}
	if !s.Shard.IsZero() {
		if err := s.Shard.Validate(); err != nil {
			return nil, err
		}
		if s.Checkpoint == "" {
			return nil, fmt.Errorf("experiment: sweep %q shard %s needs a checkpoint journal to stream results to", s.ID, s.Shard)
		}
	}
	reps := s.Reps
	if reps <= 0 {
		reps = 10
	}
	workers := s.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	start := time.Now()

	// The outcome grid keyed (x index, repetition) is what makes resumed
	// and interrupted sweeps deterministic: summaries are assembled by
	// walking the grid in index order, never in the nondeterministic order
	// repetitions happen to finish in.
	grid := make([][][]runOutcome, len(s.Xs))
	for xi := range grid {
		grid[xi] = make([][]runOutcome, reps)
	}

	jr, resumed, err := s.loadCheckpoint(grid, reps)
	if err != nil {
		return nil, err
	}

	// A job is one (x, rep) pair that is pending AND owned here; its seeds
	// derive from the pair alone, so resume and sharding compose naturally.
	var pending []sweepJob
	if !s.replayOnly {
		for xi := range s.Xs {
			for rep := 0; rep < reps; rep++ {
				if grid[xi][rep] == nil && s.Shard.owns(xi, rep, reps) {
					pending = append(pending, sweepJob{xi: xi, rep: rep})
				}
			}
		}
	}
	if workers > len(pending) && len(pending) > 0 {
		workers = len(pending)
	}

	// The committer is the only cross-worker synchronization point: workers
	// buffer completed outcomes locally and drain them under its lock at
	// flush boundaries (see committer). Work distribution itself is an
	// atomic claim over contiguous chunks of the pending slice — no channel
	// handshake per pair, no feeder goroutine, no aggregator to stall on.
	cm := &committer{
		sweep:     s,
		grid:      grid,
		reps:      reps,
		jr:        jr,
		total:     len(s.Xs) * reps,
		jobID:     trace.JobID(ctx),
		preDone:   make([]bool, len(s.Xs)*reps),
		claimSize: claimChunk(len(pending), workers),
	}
	for xi := range grid {
		for rep := 0; rep < reps; rep++ {
			if grid[xi][rep] != nil {
				// Replayed from the journal: already in jr's entry list, so
				// the frontier must pass over it without re-adding.
				cm.preDone[xi*reps+rep] = true
			}
		}
	}

	// One topology cache serves the whole pool; each worker owns a
	// resettable simulation context (engine arena, MAC state, scratch
	// buffers) wiped in place between pairs.
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			env := &runEnv{cache: cache, ws: core.NewWorkspace()}
			s.runWorker(ctx, cm, pending, env)
		}()
	}
	wg.Wait()

	flushErr := cm.flushErr
	if jr != nil {
		// Final durability barrier: everything still pending is flushed and
		// the journal fsynced, once, instead of a rename per repetition.
		before := jr.persisted
		if err := jr.Close(); err != nil && flushErr == nil {
			flushErr = err
		}
		cm.flushSpan(before)
	}

	res := &SweepResult{Sweep: s, Resumed: resumed, TopoCache: cache.stats()}
	var firstErr error
	total := 0
	for xi, x := range s.Xs {
		p := PointResult{X: x}
		var delays, caps, aborts [2][]float64 // [0] ADDC, [1] Coolest
		var tight, puBusy, fair, delivery, repairs, drops, deaf []float64
		for rep := 0; rep < reps; rep++ {
			for _, out := range grid[xi][rep] {
				if out.canceled {
					continue
				}
				if out.err != nil {
					p.Failed++
					p.LastError = out.Err
					if firstErr == nil {
						firstErr = out.err
					}
					continue
				}
				a := 0
				if out.Algo == algoCoolest {
					a = 1
				}
				delays[a] = append(delays[a], out.Delay)
				caps[a] = append(caps[a], out.Capacity)
				aborts[a] = append(aborts[a], out.Aborts)
				if a == 0 {
					if out.Tightness >= 0 {
						tight = append(tight, out.Tightness)
					}
					puBusy = append(puBusy, out.PUBusy)
					fair = append(fair, out.Fairness)
					delivery = append(delivery, 1-out.Loss)
					repairs = append(repairs, float64(out.Repairs))
					drops = append(drops, float64(out.Drops))
					deaf = append(deaf, float64(out.Deafness))
				}
			}
		}
		p.ADDCDelay = stats.Summarize(delays[0])
		p.CoolestDelay = stats.Summarize(delays[1])
		p.ADDCCapacity = stats.Summarize(caps[0])
		p.CoolestCapacity = stats.Summarize(caps[1])
		p.ADDCAborts = stats.Summarize(aborts[0])
		p.CoolestAborts = stats.Summarize(aborts[1])
		p.ADDCTightness = stats.Summarize(tight)
		p.ADDCPUBusy = stats.Summarize(puBusy)
		p.ADDCFairness = stats.Summarize(fair)
		p.ADDCDelivery = stats.Summarize(delivery)
		p.ADDCRepairs = stats.Summarize(repairs)
		p.ADDCDrops = stats.Summarize(drops)
		p.ADDCDeafness = stats.Summarize(deaf)
		res.Points = append(res.Points, p)
		total += p.ADDCDelay.N + p.CoolestDelay.N
	}
	res.Elapsed = time.Since(start)

	if flushErr != nil {
		return res, fmt.Errorf("experiment: sweep %q checkpoint: %w", s.ID, flushErr)
	}
	if cause := ctxErr(ctx); cause != nil {
		if jr != nil {
			return res, fmt.Errorf("experiment: sweep %q interrupted (resume from %s): %w", s.ID, jr.Path(), cause)
		}
		return res, fmt.Errorf("experiment: sweep %q interrupted: %w", s.ID, cause)
	}
	// A sweep with some failed repetitions still reports the rest; only a
	// sweep where everything failed is an error.
	if total == 0 && firstErr != nil {
		return nil, fmt.Errorf("experiment: sweep %q produced no results: %w", s.ID, firstErr)
	}
	return res, nil
}

// sweepJob is one pending (x, rep) pair.
type sweepJob struct {
	xi  int
	rep int
}

// claimChunk sizes the contiguous block of jobs a worker claims per atomic
// fetch-add: large enough that claiming is a rounding error (a handful of
// atomic ops per worker for a whole sweep), small enough that a straggler
// point cannot leave the tail of the grid pinned to one worker. Pending jobs
// are in grid order, so a chunk is a contiguous run of (x, rep) pairs.
func claimChunk(pending, workers int) int {
	if workers <= 0 {
		return 1
	}
	chunk := pending / (workers * 8)
	if chunk < 1 {
		chunk = 1
	}
	return chunk
}

// runWorker is one pool worker's life: claim contiguous chunks of the
// pending slice until none remain, execute each job, and drain completed
// outcomes into the committer at flush boundaries. After cancellation it
// keeps claiming, marking every remaining pair canceled (cheap: no
// simulation runs) so the summary's bookkeeping sees the whole grid.
func (s *Sweep) runWorker(ctx context.Context, cm *committer, pending []sweepJob, env *runEnv) {
	var buf [][]runOutcome
	lastDrain := time.Now()
	drain := func() {
		cm.commit(buf)
		buf = buf[:0]
		lastDrain = time.Now()
	}
	defer drain()
	for {
		start := int(cm.next.Add(int64(cm.claimSize))) - cm.claimSize
		if start >= len(pending) {
			return
		}
		end := start + cm.claimSize
		if end > len(pending) {
			end = len(pending)
		}
		for _, j := range pending[start:end] {
			if cause := ctxErr(ctx); cause != nil {
				// Mark without running: canceled pairs are neither
				// summarized nor journaled.
				buf = append(buf, s.failedPair(j.xi, j.rep, cause, true))
				continue
			}
			buf = append(buf, s.runPair(ctx, j.xi, j.rep, env))
			if cm.drainDue(len(buf), lastDrain) {
				drain()
			}
		}
	}
}

// committer aggregates worker results. Workers buffer completed outcomes
// locally and drain them here at flush boundaries, so the lock is taken a
// handful of times per flush batch rather than once per pair — the
// steady-state hot path (the simulations themselves) holds no shared mutex.
//
// Journal entries are committed through an in-order frontier over the
// flattened grid: a pair's entries are appended only once every owned pair
// before it has settled. Entry order is therefore a pure function of the
// grid — byte-identical for any Workers count, and identical to
// the order a single worker produces (which is what every release since
// checkpointing shipped has written). The cost is bounded staleness: a pair
// that completes out of order is journaled when the gap closes, and a crash
// loses at most the out-of-order tail plus the unflushed batch — the resume
// path simply reruns those pairs.
type committer struct {
	next atomic.Int64 // claim cursor over the pending slice (units: jobs)

	sweep     *Sweep
	grid      [][][]runOutcome
	reps      int
	jr        *Journal
	total     int    // flattened grid size: len(Xs) * reps
	jobID     string // span attribution, minted at admission
	preDone   []bool // pairs already journaled by the resume path
	claimSize int

	mu       sync.Mutex
	frontier int // first flattened index not yet passed to the journal
	flushErr error
}

// drainDue reports whether a worker's local buffer should drain now: always
// at the journal's flush-batch boundary (counted in entries: two per pair,
// one for the ADDC-only figures) or flush interval, and never before the end
// of the sweep when there is no journal — the grid is the only consumer
// then, and it is read after the pool joins.
func (c *committer) drainDue(buffered int, lastDrain time.Time) bool {
	if c.jr == nil {
		return false
	}
	perPair := 2
	if c.sweep.addcOnly() {
		perPair = 1
	}
	return perPair*buffered >= c.sweep.flushBatch() || time.Since(lastDrain) >= journalFlushInterval
}

// commit stores a batch of completed pair outcomes into the grid, advances
// the journal frontier, and applies the journal flush policy.
func (c *committer) commit(groups [][]runOutcome) {
	if len(groups) == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, outs := range groups {
		if len(outs) == 0 {
			continue
		}
		c.grid[outs[0].Xi][outs[0].Rep] = outs
	}
	if c.jr == nil {
		return
	}
	for c.frontier < c.total {
		xi, rep := c.frontier/c.reps, c.frontier%c.reps
		if c.preDone[c.frontier] || !c.sweep.Shard.owns(xi, rep, c.reps) {
			c.frontier++
			continue
		}
		outs := c.grid[xi][rep]
		if outs == nil {
			break
		}
		journalable := true
		for _, o := range outs {
			if o.canceled {
				journalable = false
				break
			}
		}
		if journalable {
			for _, o := range outs {
				c.jr.Add(o.CheckpointEntry)
			}
		}
		c.frontier++
	}
	before := c.jr.persisted
	if err := c.jr.MaybeFlush(c.sweep.flushBatch(), journalFlushInterval); err != nil && c.flushErr == nil {
		c.flushErr = err
	}
	c.flushSpan(before)
}

// flushSpan reports a journal persistence event to the span sink. It runs
// after the flush decision is made, so it can only observe — never
// influence — checkpoint contents or timing.
func (c *committer) flushSpan(before int) {
	if c.sweep.Spans == nil || c.jr.persisted <= before {
		return
	}
	c.sweep.Spans.Emit(trace.SpanEvent{
		Job:    c.jobID,
		Event:  trace.SpanCheckpointFlush,
		Detail: fmt.Sprintf("persisted %d entries (%d total)", c.jr.persisted-before, c.jr.persisted),
	})
}

// loadCheckpoint prepares the journal per the Checkpoint/Resume settings and
// replays completed pairs into the grid. A pair counts as completed only
// when every algorithm it runs (both, or ADDC alone for the extension
// figures) has its outcome journaled; partial pairs rerun (their stale
// entries are discarded so the rewritten journal stays consistent).
// It returns a nil journal when checkpointing is off.
func (s *Sweep) loadCheckpoint(grid [][][]runOutcome, reps int) (*Journal, int, error) {
	if s.Checkpoint == "" {
		return nil, 0, nil
	}
	var header *ShardHeader
	if !s.Shard.IsZero() {
		header = s.shardHeader(reps)
	}
	if !s.Resume {
		jr := NewJournal(s.Checkpoint)
		jr.SetHeader(header)
		return jr, 0, nil
	}
	loaded, err := LoadJournal(s.Checkpoint)
	if err != nil {
		return nil, 0, err
	}
	// A sharded resume must be resuming the same shard of the same sweep:
	// a journal whose header disagrees (different grid hash, fan-out, or
	// shard index) holds results this run cannot vouch for, and silently
	// merging them would defeat the merge step's coverage validation.
	if prev := loaded.Header(); prev != nil && header != nil && *prev != *header {
		return nil, 0, fmt.Errorf("%w: resuming shard %s of sweep %q grid %s, but %s was written by shard %d/%d grid %s",
			ErrShardMismatch, s.Shard, s.ID, header.GridHash,
			s.Checkpoint, prev.Index, prev.Count, prev.GridHash)
	} else if prev != nil && header == nil {
		return nil, 0, fmt.Errorf("%w: %s is shard %d/%d's journal; resume it with the matching -shard (or merge the shards instead)",
			ErrShardMismatch, s.Checkpoint, prev.Index, prev.Count)
	}
	jr := NewJournal(s.Checkpoint)
	jr.SetHeader(header)
	byPair := make(map[[2]int]map[string]CheckpointEntry)
	for _, e := range loaded.Entries() {
		if e.Sweep != s.ID {
			jr.Add(e) // another sweep's entries pass through untouched
			continue
		}
		if e.Xi < 0 || e.Xi >= len(grid) || e.Rep < 0 || e.Rep >= reps {
			continue // stale geometry (sweep definition changed): rerun
		}
		if !s.Shard.owns(e.Xi, e.Rep, reps) {
			continue // not this shard's pair: drop rather than claim it
		}
		key := [2]int{e.Xi, e.Rep}
		if byPair[key] == nil {
			byPair[key] = make(map[string]CheckpointEntry, 2)
		}
		byPair[key][e.Algo] = e
	}
	resumed := 0
	for xi := range grid {
		for rep := 0; rep < reps; rep++ {
			pair := byPair[[2]int{xi, rep}]
			a, okA := pair[algoADDC]
			c, okC := pair[algoCoolest]
			switch {
			case okA && s.addcOnly():
				grid[xi][rep] = []runOutcome{replayed(a)}
				jr.Add(a)
			case okA && okC:
				grid[xi][rep] = []runOutcome{replayed(a), replayed(c)}
				jr.Add(a, c)
			default:
				continue
			}
			resumed++
		}
	}
	return jr, resumed, nil
}

// flushBatch resolves the journal flush batch, defaulting to the
// package-wide batched policy.
func (s *Sweep) flushBatch() int {
	if s.FlushBatch > 0 {
		return s.FlushBatch
	}
	return journalFlushBatch
}

// runEnv is one worker's resettable execution context: the run's topology
// cache, shared by the whole pool, plus the per-worker workspace (event
// arena, MAC, scratch buffers) wiped in place between pairs.
type runEnv struct {
	cache *topoCache
	ws    *core.Workspace
}

// retryable reports whether the pair failed for a reason a fresh seed can
// plausibly fix (today: the deployment sampler exhausting its connectivity
// attempts). Deterministic failures and cancellations are final.
func retryable(outs []runOutcome) bool {
	for _, o := range outs {
		if o.err != nil && !o.canceled && errors.Is(o.err, netmodel.ErrDisconnected) {
			return true
		}
	}
	return false
}

// runTopo bundles the construction artifacts one (params, seed) topology
// hands to both runs of a pair.
type runTopo struct {
	nw        *netmodel.Network
	tree      *cds.Tree
	treeStats cds.Stats
	parentsOf func(sensingRange float64) ([]int32, error)
}

// topologyFor resolves a deployment for one placement seed: shared via the
// memoizing cache under ShareTopology, or built fresh.
func (s *Sweep) topologyFor(params netmodel.Params, seed uint64, env *runEnv) (runTopo, error) {
	if s.ShareTopology {
		if err := params.Validate(); err != nil {
			return runTopo{}, err // never cache a non-topological validation failure
		}
		topo, err := env.cache.get(params, seed)
		if err != nil {
			return runTopo{}, err
		}
		nw, err := topo.NW.WithParams(params)
		if err != nil {
			return runTopo{}, err
		}
		return runTopo{
			nw: nw, tree: topo.Tree, treeStats: topo.Stats,
			parentsOf: func(r float64) ([]int32, error) { return topo.coolestParents(nw, r) },
		}, nil
	}
	topo, err := BuildTopology(params, seed)
	if err != nil {
		return runTopo{}, err
	}
	return runTopo{
		nw: topo.NW, tree: topo.Tree, treeStats: topo.Stats,
		parentsOf: func(r float64) ([]int32, error) {
			return coolest.BuildParents(topo.NW, r, coolest.MetricAccumulated)
		},
	}, nil
}

// runPair executes the algorithms of one (x, rep) pair with panic isolation
// and bounded retry. A panic anywhere in the pair fails all of its outcomes
// (carrying the stack trace) and discards the worker's reusable
// context; a transient deployment failure re-attempts the pair with a fresh
// derived seed, up to s.Retries times.
func (s *Sweep) runPair(ctx context.Context, xi, rep int, env *runEnv) (outs []runOutcome) {
	defer func() {
		if r := recover(); r != nil {
			err := fmt.Errorf("experiment: sweep %s x[%d] rep %d panicked: %v\n%s",
				s.ID, xi, rep, r, debug.Stack())
			outs = s.failedPair(xi, rep, err, false)
			env.ws = core.NewWorkspace() // the next pair rebuilds from scratch
		}
	}()
	for attempt := 0; ; attempt++ {
		outs = s.runPairOnce(ctx, xi, rep, attempt, env)
		if attempt >= s.Retries || !retryable(outs) {
			return outs
		}
	}
}

// failedPair fails every outcome of the (xi, rep) pair with err.
func (s *Sweep) failedPair(xi, rep int, err error, canceled bool) []runOutcome {
	outs := []runOutcome{s.outcome(xi, rep, algoADDC).fail(err, canceled)}
	if !s.addcOnly() {
		outs = append(outs, s.outcome(xi, rep, algoCoolest).fail(err, canceled))
	}
	return outs
}

// runPairOnce runs ADDC and then Coolest over one topology (ADDC alone, with
// x applied by s.configure, for the extension figures). Both collections
// and the deployment use the seed rng.ChildSeedN(Seed, label, rep), where
// label is "sweep/<ID>/x<xi>", or "sweep/<ID>/topo" under ShareTopology (the
// placement seed must not depend on x for cross-point sharing), with
// "/attempt<k>" appended on retry k > 0. A pair's outcome is therefore a
// function of the pair alone, so resume, shard and merge reproduce it
// exactly.
func (s *Sweep) runPairOnce(ctx context.Context, xi, rep, attempt int, env *runEnv) []runOutcome {
	params := s.Apply(s.Base, s.Xs[xi])
	label := fmt.Sprintf("sweep/%s/x%d", s.ID, xi)
	if s.ShareTopology {
		label = fmt.Sprintf("sweep/%s/topo", s.ID)
	}
	if attempt > 0 {
		label += fmt.Sprintf("/attempt%d", attempt)
	}
	seed := rng.ChildSeedN(s.Seed, label, rep)

	topo, err := s.topologyFor(params, seed, env)
	if err != nil {
		return s.failedPair(xi, rep, err, isCanceled(err))
	}

	budget := s.MaxVirtualTime
	if budget <= 0 {
		budget = 2 * time.Hour // virtual; generous enough for starved points
	}
	cfg := core.CollectConfig{
		Seed:           seed,
		PUModel:        s.PUModel,
		MaxVirtualTime: budget,
		DisableHandoff: s.DisableHandoff,
		Guard:          s.Guard,
		Faults:         s.Faults,
		Workspace:      env.ws,
	}

	// ADDC over the CDS tree with the realized tree statistics attached, so
	// the Theorem 1 comparator evaluates the per-deployment bound.
	addcCfg := cfg
	addcCfg.Tree = topo.tree
	addcCfg.TreeStats = topo.treeStats
	if s.configure != nil {
		err = s.configure(&addcCfg, topo.nw, s.Xs[xi])
	}
	var res *core.Result
	if err == nil {
		res, err = core.CollectContext(ctx, topo.nw, topo.tree.Parent, addcCfg)
	}
	o := s.outcome(xi, rep, algoADDC)
	if err != nil {
		o = o.fail(err, isCanceled(err))
	} else {
		o.Delay = res.DelaySlots
		o.Capacity = res.Capacity
		o.Aborts = float64(res.TotalAborts)
		o.Tightness = -1
		if res.Theory != nil {
			o.Tightness = res.Theory.ServiceTightness
		}
		o.PUBusy = res.PUBusyFraction
		o.Fairness = res.FairnessIndex
		o.Loss = float64(res.Lost) / float64(res.Expected)
		o.Deafness = res.TotalDeafnessLosses
		if res.Fault != nil {
			o.Repairs, o.Drops = res.Fault.Repairs, res.Fault.Drops
		}
	}
	outs := append(make([]runOutcome, 0, 2), o)
	if s.addcOnly() {
		return outs
	}

	// Coolest over its temperature tree, same topology, same seed. By
	// default it runs the generic-CSMA profile (collisions, naive sensing,
	// no fairness wait); SameMAC keeps ADDC's MAC for the routing-only
	// ablation.
	consts, err := pcr.Compute(params)
	if err == nil {
		var parents []int32
		if parents, err = topo.parentsOf(consts.Range); err == nil {
			coolCfg := cfg
			coolCfg.GenericCSMA = !s.SameMAC
			res, err = core.CollectContext(ctx, topo.nw, parents, coolCfg)
		}
	}
	o = s.outcome(xi, rep, algoCoolest)
	if err != nil {
		return append(outs, o.fail(err, isCanceled(err)))
	}
	o.Delay = res.DelaySlots
	o.Capacity = res.Capacity
	o.Aborts = float64(res.TotalAborts + res.TotalCollisions)
	return append(outs, o)
}

// ctxErr reports ctx's cancellation state, treating an expired deadline as
// exceeded even before the runtime has delivered the timer. A deadline
// context's Err() stays nil until its timer goroutine actually fires, and on
// a saturated box that firing can lag the deadline by a full scheduling
// quantum — long enough for a CPU-bound sweep that yields at job boundaries
// (not per event, as the old channel-handshake engine incidentally did) to
// blow straight through a short budget and report clean completion. Checking
// the deadline against the wall clock keeps "the job overran its budget"
// an invariant of the budget, not of timer delivery.
func ctxErr(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if d, ok := ctx.Deadline(); ok && !time.Now().Before(d) {
		return context.DeadlineExceeded
	}
	return nil
}

// isCanceled reports whether err is a context cancellation surfaced by the
// core layer (or the raw context error).
func isCanceled(err error) bool {
	var ce *core.CanceledError
	return errors.As(err, &ce) || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
