package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"addcrn/internal/experiment"
	"addcrn/internal/netmodel"
	"addcrn/internal/spectrum"
)

// Duration is a time.Duration that marshals as a Go duration string
// ("90s", "2h") so job specs read naturally as JSON.
type Duration time.Duration

// MarshalJSON implements json.Marshaler.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts either a duration string or a number of
// nanoseconds (what a round-tripped time.Duration would encode as).
func (d *Duration) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err == nil {
		parsed, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("serve: bad duration %q: %w", s, err)
		}
		*d = Duration(parsed)
		return nil
	}
	var ns int64
	if err := json.Unmarshal(data, &ns); err != nil {
		return fmt.Errorf("serve: duration must be a string like \"90s\" or nanoseconds")
	}
	*d = Duration(ns)
	return nil
}

// JobSpec is the service contract for one submitted experiment: a figure
// sweep (the paper's Fig. 6 panels or the extension figures) with optional
// parameter overrides. The
// zero value of every field means "the same default the CLI uses", so a
// spec of just {"figure":"6c"} reproduces `addc-experiments -fig 6c`.
type JobSpec struct {
	// Figure selects the sweep: "6a".."6f", or the ADDC-only extension
	// figures "ext1" (licensed channels) and "ext2" (SU crash fraction).
	Figure string `json:"figure"`
	// Reps is the number of repetitions per sweep point (default 10).
	Reps int `json:"reps,omitempty"`
	// Seed is the root seed (default 1).
	Seed uint64 `json:"seed,omitempty"`
	// NumSU, NumPU, Area and ActiveProb override the scaled operating
	// point's base parameters when positive.
	NumSU      int     `json:"num_su,omitempty"`
	NumPU      int     `json:"num_pu,omitempty"`
	Area       float64 `json:"area,omitempty"`
	ActiveProb float64 `json:"active_prob,omitempty"`
	// Xs overrides the swept values (a subset makes a quick job).
	Xs []float64 `json:"xs,omitempty"`
	// MaxVirtual bounds each run's virtual time (default 2h, as the CLI).
	MaxVirtual Duration `json:"max_virtual,omitempty"`
	// Timeout is the job's wall-clock deadline: when it expires the sweep
	// is interrupted at event-loop granularity, partial results are
	// recorded, and the job ends in state "deadline". Zero means no
	// deadline.
	Timeout Duration `json:"timeout,omitempty"`
	// Retries bounds automatic re-runs of a failed job with exponential
	// backoff. Each retry resumes from the job's journal, so completed
	// repetitions are never redone; within the sweep it also bounds the
	// per-repetition fresh-seed retries for transient deployment failures.
	Retries int `json:"retries,omitempty"`
	// Workers is the sweep's parallelism; the server clamps it to its
	// configured per-job maximum (default 1: job-level parallelism comes
	// from the worker pool, not from within one job).
	Workers int `json:"workers,omitempty"`
	// ShareTopology, Guard, SameMAC and DisableHandoff mirror the CLI
	// flags of the same names.
	ShareTopology  bool `json:"share_topology,omitempty"`
	Guard          bool `json:"guard,omitempty"`
	SameMAC        bool `json:"same_mac,omitempty"`
	DisableHandoff bool `json:"disable_handoff,omitempty"`
	// Shards, when at least 2, runs the job as a coordinator: the (x, rep)
	// grid splits into this many deterministic partitions, each executed
	// by its own shard job on the ordinary queue/worker/retry substrate
	// and journaling beside the parent's journal. The coordinator parks
	// (occupying no worker) until every shard reaches a terminal state,
	// then merges the shard journals and stores the summary they imply —
	// byte-identical to the unsharded job when every shard completed,
	// partial otherwise. A shard whose worker dies is re-enqueued and
	// resumes from its journal, so crashes cost only un-flushed work.
	Shards int `json:"shards,omitempty"`
}

// jobLimits caps every grid point a job may run, so that no spec can take
// the daemon's memory: an out-of-memory failure kills every job, not one
// pair. n and N stop at twice the paper's nominal 2000 and 400 (the SIR
// gain table holds (n+N+1)² float64s, about 176 MiB at the caps), the
// spatial grids at 2²² cells (16 MiB of int32 offsets each), and ext1 at 64
// channels (it sweeps up to 8).
var jobLimits = experiment.Limits{NumSU: 4000, NumPU: 800, GridCells: 1 << 22, Channels: 64}

// Validate checks the spec without running it.
func (s *JobSpec) Validate() error {
	sw, err := s.sweep(0)
	if err != nil {
		return err
	}
	if s.Reps < 0 || s.Reps > 1000 {
		return fmt.Errorf("serve: reps %d out of range [0,1000]", s.Reps)
	}
	if len(s.Xs) > 64 {
		return fmt.Errorf("serve: %d x values exceed the limit of 64", len(s.Xs))
	}
	if s.Retries < 0 || s.Retries > 16 {
		return fmt.Errorf("serve: retries %d out of range [0,16]", s.Retries)
	}
	if s.Shards < 0 || s.Shards == 1 || s.Shards > 16 {
		return fmt.Errorf("serve: shards %d out of range [2,16] (0 = unsharded)", s.Shards)
	}
	if s.Timeout < 0 || s.MaxVirtual < 0 {
		return fmt.Errorf("serve: negative durations are invalid")
	}
	if err := sw.Base.Validate(); err != nil {
		return fmt.Errorf("serve: base parameters: %w", err)
	}
	if err := sw.CheckGrid(jobLimits); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	return nil
}

func (s *JobSpec) baseParams() netmodel.Params {
	p := netmodel.ScaledDefaultParams()
	if s.NumSU > 0 {
		p.NumSU = s.NumSU
	}
	if s.NumPU > 0 {
		p.NumPU = s.NumPU
	}
	if s.Area > 0 {
		p.Area = s.Area
	}
	if s.ActiveProb > 0 {
		p.ActiveProb = s.ActiveProb
	}
	return p
}

// sweep materializes the spec into a runnable figure sweep. maxWorkers is
// the server's per-job parallelism clamp.
func (s *JobSpec) sweep(maxWorkers int) (*experiment.Sweep, error) {
	seed := s.Seed
	if seed == 0 {
		seed = 1
	}
	sw, err := experiment.NewFigureSweep(s.Figure, s.baseParams(), seed)
	if err != nil {
		return nil, err
	}
	sw.Reps = s.Reps // 0 keeps the sweep default (10)
	sw.PUModel = spectrum.ModelExact
	sw.MaxVirtualTime = time.Duration(s.MaxVirtual)
	sw.ShareTopology = s.ShareTopology
	sw.Guard = s.Guard
	sw.SameMAC = s.SameMAC
	sw.DisableHandoff = s.DisableHandoff
	sw.Retries = s.Retries
	if len(s.Xs) > 0 {
		sw.Xs = append([]float64(nil), s.Xs...)
	}
	workers := s.Workers
	if workers <= 0 {
		workers = 1
	}
	if maxWorkers > 0 && workers > maxWorkers {
		workers = maxWorkers
	}
	sw.Workers = workers
	return sw, nil
}

// Job states. queued and running are live; interrupted means a drain or
// crash stopped the job mid-sweep with its progress journaled (a restarted
// server resumes it); coordinating means a sharded job is parked —
// occupying no worker — waiting for its shard jobs to finish (the last
// shard's termination, or a restart, requeues it for the merge phase);
// done, failed and deadline are terminal.
const (
	StateQueued       = "queued"
	StateRunning      = "running"
	StateCoordinating = "coordinating"
	StateDone         = "done"
	StateFailed       = "failed"
	StateDeadline     = "deadline"
	StateInterrupted  = "interrupted"
)

// terminalState reports whether a job in state will never run again.
func terminalState(state string) bool {
	switch state {
	case StateDone, StateFailed, StateDeadline:
		return true
	}
	return false
}

// Job is one submitted experiment and its lifecycle record. The server
// persists every state transition to the state directory, so a restarted
// daemon reconstructs the exact job table and resumes unfinished work.
type Job struct {
	ID   string  `json:"id"`
	Spec JobSpec `json:"spec"`
	// State is one of the State* constants; Error carries the failure
	// message for failed/deadline/interrupted states.
	State string `json:"state"`
	Error string `json:"error,omitempty"`
	// Client is the rate-limit key the job was submitted under, kept so
	// logs and audits can attribute work to submitters.
	Client string `json:"client,omitempty"`
	// Attempts counts sweep executions (1 + retries so far).
	Attempts int `json:"attempts,omitempty"`
	// Resumed counts repetitions replayed from the journal rather than
	// executed, summed over attempts.
	Resumed int `json:"resumed,omitempty"`
	// SubmittedAt/StartedAt/FinishedAt are wall-clock Unix milliseconds
	// (informational; nothing deterministic reads them).
	SubmittedAt int64 `json:"submitted_at_ms,omitempty"`
	StartedAt   int64 `json:"started_at_ms,omitempty"`
	FinishedAt  int64 `json:"finished_at_ms,omitempty"`

	// Parent, Shard and ShardOf mark a shard job minted by a coordinator:
	// it executes shard Shard/ShardOf of the parent job Parent's grid,
	// journaling to the shard journal beside the parent's journal. ShardIDs
	// on the parent lists its minted shard jobs in shard order (persisted,
	// so a restarted daemon re-arms the coordinator instead of re-minting).
	Parent   string   `json:"parent,omitempty"`
	Shard    int      `json:"shard,omitempty"`
	ShardOf  int      `json:"shard_of,omitempty"`
	ShardIDs []string `json:"shard_ids,omitempty"`

	// enqueuedAt is when the job last entered the queue (set under the
	// server mutex; zero for jobs loaded terminal from disk). It feeds the
	// queue-wait histogram and is deliberately not persisted: a queue wait
	// spanning a daemon restart is not a meaningful latency sample.
	enqueuedAt time.Time
	// spans is the job's lifecycle span stream (nil only in tests that
	// build Jobs by hand).
	spans *spanLog
}

// JobResult is the stored outcome of a finished (or interrupted) job.
type JobResult struct {
	ID     string `json:"id"`
	Figure string `json:"figure"`
	// Partial marks results recorded at interruption or deadline expiry:
	// every completed repetition is summarized, the rest are missing.
	Partial bool `json:"partial,omitempty"`
	// CSV is the sweep summary in the exact byte form the CLI's -csv mode
	// emits; equality with a CLI run is part of the service contract (the
	// smoke test asserts it).
	CSV string `json:"csv"`
	// Table is the human-readable form (includes wall-clock timing, so it
	// is not byte-stable across runs; CSV is).
	Table string `json:"table"`
	// MeanDelayRatio restates the sweep's headline number, the mean
	// Coolest/ADDC delay ratio. It is absent when no point has a ratio: the
	// ADDC-only extension figures (ext1, ext2) run no Coolest baseline.
	MeanDelayRatio float64 `json:"mean_delay_ratio,omitempty"`
}

// jobPath/journalPath/spanPath/resultPath locate a job's files in the
// state dir. Spans live beside the journal, never inside it: the journal
// compacts by full rewrite, which would destroy interleaved span lines.
func jobPath(dir, id string) string     { return filepath.Join(dir, id+".json") }
func journalPath(dir, id string) string { return filepath.Join(dir, id+".journal.jsonl") }
func spanPath(dir, id string) string    { return filepath.Join(dir, id+".spans.jsonl") }
func resultPath(dir, id string) string  { return filepath.Join(dir, id+".result.json") }

// saveJSON atomically persists v at path via a temp sibling and rename.
func saveJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// loadJobs reads every persisted job record in dir, sorted by ID.
func loadJobs(dir string) ([]*Job, error) {
	names, err := filepath.Glob(filepath.Join(dir, "j*.json"))
	if err != nil {
		return nil, err
	}
	var jobs []*Job
	for _, name := range names {
		if strings.Contains(name, ".result.") || strings.HasSuffix(name, ".tmp") {
			continue
		}
		data, err := os.ReadFile(name)
		if err != nil {
			return nil, err
		}
		var j Job
		if err := json.Unmarshal(data, &j); err != nil {
			return nil, fmt.Errorf("serve: corrupt job record %s: %w", name, err)
		}
		if j.ID == "" {
			return nil, fmt.Errorf("serve: job record %s has no id", name)
		}
		jobs = append(jobs, &j)
	}
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].ID < jobs[b].ID })
	return jobs, nil
}
