// Wall-clock job lifecycle spans — the service-layer counterpart of the
// virtual-time Sink. A simulation's Records are deterministic and
// single-threaded; a daemon's job lifecycle (admission, queueing, worker
// pickup, retries, drain) is neither, so spans carry wall-clock timestamps,
// are emitted from many goroutines, and never feed anything back into the
// simulation: span emission must be invisible to virtual time, seed
// derivation, and every deterministic artifact (the telemetry equivalence
// test enforces this).
//
// Spans are JSONL with the distinct record marker "record":"span", so they
// can interleave with checkpoint-journal entries on one stream (the
// daemon's /v1/jobs/{id}/events) and a client can still split the two
// record types apart and reconstruct the full timeline.
package trace

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// SpanRecord is the value of SpanEvent.Record on every span line.
const SpanRecord = "span"

// Span event names. One job's stream is: submitted, queued, started, then
// any number of checkpoint_flush and retry events, and exactly one
// terminal event per attempt-sequence end (done, failed, deadline) — or
// interrupted, after which a restarted daemon appends
// queued/started/... again with the sequence numbers continuing.
const (
	SpanSubmitted       = "submitted"
	SpanQueued          = "queued"
	SpanStarted         = "started"
	SpanCheckpointFlush = "checkpoint_flush"
	SpanRetry           = "retry"
	SpanDeadline        = "deadline"
	SpanDone            = "done"
	SpanFailed          = "failed"
	SpanInterrupted     = "interrupted"

	// Coordinator lifecycle: a sharded job additionally emits
	// shards_spawned when it mints its shard jobs, coordinating each time
	// it parks to wait for them, and merged when the shard journals have
	// been assembled into the final one.
	SpanShardsSpawned = "shards_spawned"
	SpanCoordinating  = "coordinating"
	SpanMerged        = "merged"
)

// SpanEvent is one wall-clock lifecycle transition of a job.
type SpanEvent struct {
	// Record is always SpanRecord; it distinguishes span lines from
	// checkpoint-journal lines on a shared JSONL stream.
	Record string `json:"record"`
	// Job is the job ID the span belongs to.
	Job string `json:"job"`
	// Seq numbers the job's spans densely from 1, across retries and
	// daemon restarts — a gap or duplicate means a lost or double-emitted
	// transition, which the lifecycle tests assert never happens.
	Seq int64 `json:"seq"`
	// Event is one of the Span* constants.
	Event string `json:"event"`
	// WallMS is the emission time in Unix milliseconds.
	WallMS int64 `json:"t_ms"`
	// Attempt is the job attempt the event belongs to (1-based; 0 for
	// pre-execution events like submitted/queued).
	Attempt int `json:"attempt,omitempty"`
	// Detail carries human-readable context: an error message on retry and
	// failure events, flush progress on checkpoint_flush.
	Detail string `json:"detail,omitempty"`
}

// SpanSink receives lifecycle spans. Unlike Sink, implementations must be
// safe for concurrent use: spans are emitted from HTTP handlers, worker
// goroutines and sweep internals at once.
type SpanSink interface {
	Emit(SpanEvent)
}

// Compile-time interface checks.
var (
	_ SpanSink = (*JSONLSpanSink)(nil)
	_ SpanSink = NullSpanSink{}
)

// NullSpanSink discards every span (telemetry off).
type NullSpanSink struct{}

// Emit implements SpanSink.
func (NullSpanSink) Emit(SpanEvent) {}

// JSONLSpanSink writes spans as JSON lines, one write per span (no
// buffering: a span is on disk — modulo the page cache — the moment Emit
// returns, so a crashed daemon's span file still ends at the last
// transition that actually happened). The sink owns the sequence counter:
// Emit assigns Seq and stamps WallMS, under one mutex, so concurrent
// emitters get unique, dense, monotone sequence numbers in file order.
type JSONLSpanSink struct {
	mu       sync.Mutex
	w        io.Writer
	seq      int64
	err      error
	now      func() time.Time
	job      string
	nEmitted int
}

// NewJSONLSpanSink returns a sink writing to w, numbering spans from
// lastSeq+1. job, when non-empty, is stamped on spans that carry no Job of
// their own (emitters deep in the engine pass the job via context instead).
func NewJSONLSpanSink(w io.Writer, job string, lastSeq int64) *JSONLSpanSink {
	return &JSONLSpanSink{w: w, job: job, seq: lastSeq, now: time.Now}
}

// Emit implements SpanSink: assigns the next sequence number, stamps the
// wall clock, and writes one JSON line. Errors are sticky; check Err.
func (s *JSONLSpanSink) Emit(e SpanEvent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	s.seq++
	e.Record = SpanRecord
	e.Seq = s.seq
	if e.Job == "" {
		e.Job = s.job
	}
	if e.WallMS == 0 {
		e.WallMS = s.now().UnixMilli()
	}
	data, err := json.Marshal(e)
	if err != nil {
		s.err = err
		return
	}
	data = append(data, '\n')
	if _, err := s.w.Write(data); err != nil {
		s.err = err
		return
	}
	s.nEmitted++
}

// Seq returns the last assigned sequence number.
func (s *JSONLSpanSink) Seq() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

// Len returns the number of spans written successfully.
func (s *JSONLSpanSink) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nEmitted
}

// Err returns the first write or encode error, if any.
func (s *JSONLSpanSink) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// ScanSpans reads a JSONL stream (possibly interleaved with non-span
// records, which are skipped) and returns the parsed spans in order plus
// the highest sequence number seen. A daemon reopening a job's span file
// after a restart seeds its sink with that sequence so numbering continues
// without gaps or duplicates. A torn final line (crash mid-write) is
// ignored, matching the checkpoint journal's tolerance.
func ScanSpans(r io.Reader) ([]SpanEvent, int64, error) {
	var (
		spans []SpanEvent
		last  int64
	)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var e SpanEvent
		if err := json.Unmarshal(line, &e); err != nil || e.Record != SpanRecord {
			continue // not a span record (journal entry, or torn line)
		}
		spans = append(spans, e)
		if e.Seq > last {
			last = e.Seq
		}
	}
	if err := sc.Err(); err != nil {
		return spans, last, fmt.Errorf("trace: scan spans: %w", err)
	}
	return spans, last, nil
}

// RecoverSpans prepares a span file for appending after a crash or
// restart: it scans the existing spans and repairs a torn final line
// before returning the parsed spans and the highest sequence number.
//
// ScanSpans alone tolerates a torn tail when *reading*, but a sink that
// reopens the file for appending must not leave the tear in place: the
// next Emit would append onto the unterminated line, fusing two records
// into one unparseable line — silently losing the newer span, so the next
// recovery scan would under-count and re-issue duplicate sequence numbers.
// RecoverSpans makes the tail safe to append to: a final line that is a
// complete span merely missing its newline (the write landed, the
// terminator did not) is newline-terminated and kept; anything else
// unterminated is truncated away, exactly as the checkpoint journal drops
// its torn tail on resume.
//
// f must be positioned anywhere (RecoverSpans seeks) and opened writable.
func RecoverSpans(f *os.File) ([]SpanEvent, int64, error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, 0, fmt.Errorf("trace: recover spans: %w", err)
	}
	data, err := io.ReadAll(f)
	if err != nil {
		return nil, 0, fmt.Errorf("trace: recover spans: %w", err)
	}
	if n := len(data); n > 0 && data[n-1] != '\n' {
		keep := bytes.LastIndexByte(data, '\n') + 1 // 0 when no newline at all
		tail := data[keep:]
		var e SpanEvent
		if json.Unmarshal(tail, &e) == nil && e.Record == SpanRecord {
			// The span itself is intact; only its newline was lost. Seal it.
			if _, err := f.Write([]byte{'\n'}); err != nil {
				return nil, 0, fmt.Errorf("trace: recover spans: terminate tail: %w", err)
			}
			data = append(data, '\n')
		} else {
			if err := f.Truncate(int64(keep)); err != nil {
				return nil, 0, fmt.Errorf("trace: recover spans: truncate torn tail: %w", err)
			}
			data = data[:keep]
		}
	}
	return ScanSpans(bytes.NewReader(data))
}

// jobIDKey carries the job/request ID minted at admission through the
// context chain: queue → worker → sweep → engine.
type jobIDKey struct{}

// WithJobID returns a context carrying the job ID. Layers below the
// service (the sweep's checkpoint-flush hook, engine-level emitters) read
// it back with JobID instead of taking the ID as a parameter.
func WithJobID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, jobIDKey{}, id)
}

// JobID returns the job ID carried by ctx, or "" when none is set.
func JobID(ctx context.Context) string {
	id, _ := ctx.Value(jobIDKey{}).(string)
	return id
}
