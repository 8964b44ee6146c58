// Checkpoint journal: a crash-safe JSONL record of completed sweep
// repetitions, enabling interrupted sweeps to resume without redoing work.
//
// Every completed (x index, repetition, algorithm) outcome — success or
// deterministic failure — is one JSON object on its own line. Persistence is
// batched: the first flush of a journal's life writes the full state to a
// temporary sibling and atomically renames it over the journal path, then
// keeps the descriptor (which follows the inode through the rename); later
// flushes append only the entries added since. Sweeps call MaybeFlush on a
// bounded batch/interval policy and finish with Close, whose fsync barrier
// makes the completed journal durable. A crash between flushes loses at most
// one un-flushed batch — the resume path simply reruns those repetitions —
// and a crash mid-append can tear only the final line, which LoadJournal
// tolerates when (and only when) the file ends without a newline. Go's
// encoding/json round-trips float64 exactly (shortest-representation
// encoding), so a resumed sweep reproduces the uninterrupted summary byte
// for byte.
package experiment

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"
)

// Algorithm labels used in checkpoint entries.
const (
	algoADDC    = "addc"
	algoCoolest = "coolest"
)

// Journal flush policy used by the sweeps: a flush is due when this many
// entries are pending or this much wall time has passed since the last one.
const (
	journalFlushBatch    = 32
	journalFlushInterval = 500 * time.Millisecond
)

// CheckpointEntry is one journaled repetition outcome.
type CheckpointEntry struct {
	// Sweep is the owning sweep's ID; one journal file can hold entries from
	// several sweeps (readers filter by ID).
	Sweep string `json:"sweep"`
	// Xi and Rep locate the repetition: index into Sweep.Xs and repetition
	// number.
	Xi  int `json:"xi"`
	Rep int `json:"rep"`
	// Algo is "addc" or "coolest" (the extension figures journal "addc"
	// only).
	Algo string `json:"algo"`
	// Err, when non-empty, records that the repetition failed with this
	// error (a deterministic failure is as final as a success: rerunning it
	// would reproduce it).
	Err string `json:"err,omitempty"`
	// The measured values, meaningful when Err is empty.
	Delay    float64 `json:"delay"`
	Capacity float64 `json:"capacity"`
	Aborts   float64 `json:"aborts"`
	// Tightness is -1 when the run produced no Theorem 1 report.
	Tightness float64 `json:"tightness"`
	PUBusy    float64 `json:"pu_busy"`
	Fairness  float64 `json:"fairness"`
	// The extension columns of an ADDC run: Loss is the fraction of packets
	// destroyed by injected faults (the delivery ratio is 1 - Loss),
	// Repairs and Drops count self-healing re-parentings and retry-cap
	// drops, Deafness counts transmissions lost to a transmitting parent on
	// C > 1 channels. All are zero on a fault-free single-channel run and
	// then absent, so such journals keep the bytes they always had.
	Loss     float64 `json:"loss,omitempty"`
	Repairs  int     `json:"repairs,omitempty"`
	Drops    int     `json:"drops,omitempty"`
	Deafness int     `json:"deafness,omitempty"`
}

// Journal accumulates checkpoint entries and persists them in batches.
type Journal struct {
	path    string
	entries []CheckpointEntry
	// header, when non-nil, is written as the journal's first line. Only
	// shard journals carry one; unsharded journals stay headerless so
	// their bytes match every release since checkpointing shipped — and so
	// a merged journal (written headerless) is byte-identical to an
	// unsharded run's.
	header *ShardHeader

	// f and w are live once the first Flush has compacted the file; from
	// then on flushes append entries[persisted:] instead of rewriting.
	f         *os.File
	w         *bufio.Writer
	persisted int
	lastFlush time.Time
	// closed records that Close ran with everything persisted; a repeated
	// Close is then a no-op instead of a full compacting rewrite.
	closed bool
}

// NewJournal returns an empty journal that will persist to path on Flush.
func NewJournal(path string) *Journal {
	return &Journal{path: path, lastFlush: time.Now()}
}

// LoadJournal reads an existing journal; a missing file yields an empty
// journal (resuming a sweep that never checkpointed is a fresh start, not an
// error). Lines that do not parse are rejected — a corrupt journal should be
// deleted deliberately, not silently half-trusted — with one exception: an
// unparseable final line in a file with no trailing newline is a torn append
// from a crash mid-flush, and is dropped (every complete line before it is
// intact; the resume path reruns the lost repetition).
func LoadJournal(path string) (*Journal, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return NewJournal(path), nil
	}
	if err != nil {
		return nil, fmt.Errorf("experiment: read checkpoint: %w", err)
	}
	j := NewJournal(path)
	line := 0
	for len(data) > 0 {
		var chunk []byte
		torn := false
		if nl := bytes.IndexByte(data, '\n'); nl >= 0 {
			chunk, data = data[:nl], data[nl+1:]
		} else {
			// Final line with no terminating newline: possibly torn.
			chunk, data = data, nil
			torn = true
		}
		line++
		if len(chunk) == 0 {
			continue
		}
		// A shard journal's header line would silently decode as a zeroed
		// CheckpointEntry (encoding/json ignores unknown fields), so sniff
		// the discriminating "record" key before the entry unmarshal.
		if rec := recordKind(chunk); rec != "" {
			if rec != shardHeaderRecord {
				if torn {
					break
				}
				return nil, fmt.Errorf("experiment: checkpoint %s line %d: unknown record kind %q", path, line, rec)
			}
			var h ShardHeader
			if err := json.Unmarshal(chunk, &h); err != nil {
				if torn {
					break
				}
				return nil, fmt.Errorf("experiment: checkpoint %s line %d: %w", path, line, err)
			}
			if torn {
				break // a torn header is as untrustworthy as a torn entry
			}
			j.header = &h
			continue
		}
		var e CheckpointEntry
		if err := json.Unmarshal(chunk, &e); err != nil {
			if torn {
				break
			}
			return nil, fmt.Errorf("experiment: checkpoint %s line %d: %w", path, line, err)
		}
		j.entries = append(j.entries, e)
	}
	return j, nil
}

// recordKind extracts the "record" discriminator from a JSONL line, or ""
// for plain CheckpointEntry lines (which have no such key).
func recordKind(chunk []byte) string {
	var probe struct {
		Record string `json:"record"`
	}
	if err := json.Unmarshal(chunk, &probe); err != nil {
		return ""
	}
	return probe.Record
}

// Header returns the journal's shard header, nil for unsharded journals.
func (j *Journal) Header() *ShardHeader { return j.header }

// SetHeader declares the shard header the journal writes as its first line
// on the next compacting flush. Setting it after the first flush would
// leave the persisted file headerless, so it must be set before any Flush.
func (j *Journal) SetHeader(h *ShardHeader) { j.header = h }

// Entries returns the journaled outcomes in file order.
func (j *Journal) Entries() []CheckpointEntry { return j.entries }

// Len returns the number of journaled outcomes.
func (j *Journal) Len() int { return len(j.entries) }

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// Add appends entries to the in-memory journal; call Flush (or MaybeFlush)
// to persist. Adding to a closed journal reopens it: the next Flush runs
// the compacting path.
func (j *Journal) Add(entries ...CheckpointEntry) {
	j.entries = append(j.entries, entries...)
	j.closed = false
}

// Flush persists the journal. The first flush rewrites the full state
// through a temporary sibling and an atomic rename (so a journal loaded for
// resume is compacted: entries from incomplete pairs that were not re-added
// disappear) and keeps the descriptor, which survives the rename; later
// flushes buffer-append only the entries added since the previous flush.
func (j *Journal) Flush() error {
	if j.f == nil {
		return j.compact()
	}
	return j.appendPending()
}

func (j *Journal) compact() error {
	dir := filepath.Dir(j.path)
	tmp, err := os.CreateTemp(dir, filepath.Base(j.path)+".tmp*")
	if err != nil {
		return fmt.Errorf("experiment: checkpoint temp: %w", err)
	}
	w := bufio.NewWriter(tmp)
	enc := json.NewEncoder(w)
	if j.header != nil {
		if err := enc.Encode(j.header); err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
			return fmt.Errorf("experiment: encode checkpoint header: %w", err)
		}
	}
	for _, e := range j.entries {
		if err := enc.Encode(e); err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
			return fmt.Errorf("experiment: encode checkpoint: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("experiment: write checkpoint: %w", err)
	}
	// fsync before the rename: without it the rename can become durable
	// before the data blocks do, and a crash would replace the previous
	// journal with a hole instead of the state we meant to persist.
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("experiment: sync checkpoint temp: %w", err)
	}
	if err := os.Rename(tmp.Name(), j.path); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("experiment: rename checkpoint: %w", err)
	}
	// The descriptor now names the journal path's inode; keep it for appends.
	j.f, j.w = tmp, w
	j.persisted = len(j.entries)
	j.lastFlush = time.Now()
	return nil
}

func (j *Journal) appendPending() error {
	enc := json.NewEncoder(j.w)
	for _, e := range j.entries[j.persisted:] {
		if err := enc.Encode(e); err != nil {
			return j.appendFailed(fmt.Errorf("experiment: encode checkpoint: %w", err))
		}
	}
	if err := j.w.Flush(); err != nil {
		return j.appendFailed(fmt.Errorf("experiment: write checkpoint: %w", err))
	}
	j.persisted = len(j.entries)
	j.lastFlush = time.Now()
	return nil
}

// appendFailed abandons the append descriptor after a failed append so the
// next Flush recompacts through the atomic temp+rename path. This keeps a
// failed flush resumable: the file may now end in a torn line (which
// LoadJournal tolerates) or hold a duplicate of a retried entry (which the
// resume path's last-write-wins pairing absorbs), but appending more after
// a partial write would put garbage mid-file and poison the whole journal.
func (j *Journal) appendFailed(err error) error {
	if j.f != nil {
		j.f.Close() // best effort; the error that matters is the append's
		j.f, j.w = nil, nil
	}
	return err
}

// MaybeFlush flushes when at least batch entries are pending or interval has
// elapsed since the last flush (it never flushes with nothing pending).
// Non-positive batch or interval means "always due".
func (j *Journal) MaybeFlush(batch int, interval time.Duration) error {
	pending := len(j.entries) - j.persisted
	if pending == 0 {
		return nil
	}
	if pending >= batch || time.Since(j.lastFlush) >= interval {
		return j.Flush()
	}
	return nil
}

// Sync flushes and then fsyncs the journal file: the durability barrier a
// sweep runs once at the end instead of paying a rename per repetition.
func (j *Journal) Sync() error {
	if err := j.Flush(); err != nil {
		return err
	}
	if j.f == nil {
		return nil
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("experiment: sync checkpoint: %w", err)
	}
	return nil
}

// Close syncs and releases the journal's descriptor. Close is idempotent:
// a second Close with nothing new to persist is a no-op (it neither
// rewrites the file nor reopens a descriptor). The journal remains usable
// afterward — Add reopens it and the next Flush runs the compacting path.
func (j *Journal) Close() error {
	if j.closed && j.persisted == len(j.entries) {
		return nil
	}
	syncErr := j.Sync()
	if j.f != nil {
		if err := j.f.Close(); err != nil && syncErr == nil {
			syncErr = fmt.Errorf("experiment: close checkpoint: %w", err)
		}
		j.f, j.w = nil, nil
	}
	if syncErr == nil {
		j.closed = true
	}
	return syncErr
}
