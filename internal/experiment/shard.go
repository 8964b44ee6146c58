// Horizontal sweep sharding: a deterministic partition of the (x index,
// repetition) grid across k independent worker processes, per-shard
// checkpoint journals carrying a coverage header, and a merge step that
// reassembles the byte-identical journal and summary a single-process run
// would have produced.
//
// Sharding composes with everything the resilient execution engine already
// guarantees. Seeds are hash-derived per (x, rep) pair, so any partition of
// the grid is reproducible; each shard streams completed pairs to its own
// journal exactly as an unsharded sweep does, so a shard that crashes
// resumes from its journal without redoing work; and the merge assembles
// entries in the grid's index order — the same order PR 3's aggregation
// walks — so the merged journal and CSV are byte-for-byte identical to an
// unsharded Workers=1 run, whether or not shards died and resumed along the
// way. The shard-chaos harness (scripts/shard-chaos.sh and the subprocess
// kill test) enforces that equivalence under SIGKILL.
package experiment

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// ShardSpec selects one of Count deterministic partitions of a sweep's
// (x, rep) grid. The zero value means "unsharded: run the whole grid".
// Index is 1-based, as in the CLI's -shard i/k.
type ShardSpec struct {
	Index int
	Count int
}

// IsZero reports whether the spec is the unsharded zero value.
func (sp ShardSpec) IsZero() bool { return sp == ShardSpec{} }

// Validate rejects malformed specs: Count must be at least 1 and Index must
// be within [1, Count].
func (sp ShardSpec) Validate() error {
	if sp.Count < 1 {
		return fmt.Errorf("experiment: shard count %d < 1", sp.Count)
	}
	if sp.Index < 1 || sp.Index > sp.Count {
		return fmt.Errorf("experiment: shard index %d outside [1,%d]", sp.Index, sp.Count)
	}
	return nil
}

// String renders the spec in the CLI's "i/k" form.
func (sp ShardSpec) String() string { return fmt.Sprintf("%d/%d", sp.Index, sp.Count) }

// ParseShard parses a "i/k" shard spec (as given to -shard) and validates
// it.
func ParseShard(s string) (ShardSpec, error) {
	i, k, ok := strings.Cut(s, "/")
	if !ok {
		return ShardSpec{}, fmt.Errorf("experiment: shard spec %q is not of the form i/k", s)
	}
	idx, err := strconv.Atoi(strings.TrimSpace(i))
	if err != nil {
		return ShardSpec{}, fmt.Errorf("experiment: shard index %q: %w", i, err)
	}
	cnt, err := strconv.Atoi(strings.TrimSpace(k))
	if err != nil {
		return ShardSpec{}, fmt.Errorf("experiment: shard count %q: %w", k, err)
	}
	sp := ShardSpec{Index: idx, Count: cnt}
	if err := sp.Validate(); err != nil {
		return ShardSpec{}, err
	}
	return sp, nil
}

// owns reports whether this shard executes the (xi, rep) pair of a grid
// with the given repetition count. Ownership is round-robin over the
// flattened index xi*reps+rep, so every shard receives work from every x
// value and load stays balanced even when one x is much slower than the
// rest. A zero spec owns everything.
func (sp ShardSpec) owns(xi, rep, reps int) bool {
	if sp.IsZero() {
		return true
	}
	return (xi*reps+rep)%sp.Count == sp.Index-1
}

// shardHeaderRecord tags the journal header line all shard journals start
// with; it can never collide with a CheckpointEntry, which has no "record"
// key.
const shardHeaderRecord = "shard_header"

// ShardHeader is the first line of every shard journal: enough identity for
// the merge step to detect a journal that belongs to a different sweep
// definition (mismatched grid hash), a different fan-out (mismatched
// Count), or a duplicated/missing shard (Index coverage).
type ShardHeader struct {
	Record string `json:"record"` // always "shard_header"
	// Sweep is the owning sweep's ID.
	Sweep string `json:"sweep"`
	// Index/Count are the shard's position in the fan-out.
	Index int `json:"shard"`
	Count int `json:"of"`
	// GridHash fingerprints everything that makes the sweep's outcomes:
	// ID, seed, x values, repetitions, and the execution knobs that alter
	// results or seed derivation. Two journals merge only if they agree.
	GridHash string `json:"grid_hash"`
	// NumXs and Reps record the grid geometry for coverage accounting.
	NumXs int `json:"num_xs"`
	Reps  int `json:"reps"`
	// ADDCOnly marks the journal of an extension figure, whose pairs are
	// complete with the ADDC entry alone. Absent otherwise, so Fig. 6
	// headers keep their bytes.
	ADDCOnly bool `json:"addc_only,omitempty"`
}

// gridHash fingerprints the sweep's result-determining identity. Xs are
// formatted with strconv's shortest round-trip encoding so the hash is
// exact, not printf-approximate. The Apply function cannot be hashed; by
// convention the figure ID names it.
func (s *Sweep) gridHash(reps int) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d|%d|", s.ID, s.Seed, reps)
	for _, x := range s.Xs {
		h.Write([]byte(strconv.FormatFloat(x, 'g', -1, 64)))
		h.Write([]byte{','})
	}
	// The literal 0 is the unset Coolest path metric this slot has always
	// held (the metric is always the accumulated one), so grid hashes stay
	// stable.
	fmt.Fprintf(h, "|%v|%t|%t|%t|%d|0|%t|%d|%+v",
		s.PUModel, s.ShareTopology, s.SameMAC, s.DisableHandoff,
		s.MaxVirtualTime, s.Guard, s.Retries, s.Base)
	if s.Faults != nil {
		fmt.Fprintf(h, "|%+v", *s.Faults)
	}
	// The generator tag keeps journals written by the math/rand-based
	// generator from merging with or resuming into PCG results.
	h.Write([]byte("|rng=pcg"))
	return fmt.Sprintf("%016x", h.Sum64())
}

// GridHash returns the sweep's grid fingerprint with the effective
// repetition count — the identity its shard journals are stamped with.
// Merge refuses shard journals stamped with another one, which catches
// parameter drift between the shard and merge phases.
func (s *Sweep) GridHash() string {
	reps := s.Reps
	if reps <= 0 {
		reps = 10
	}
	return s.gridHash(reps)
}

// shardHeader builds the header a sharded run writes at the top of its
// journal.
func (s *Sweep) shardHeader(reps int) *ShardHeader {
	return &ShardHeader{
		Record:   shardHeaderRecord,
		Sweep:    s.ID,
		Index:    s.Shard.Index,
		Count:    s.Shard.Count,
		GridHash: s.gridHash(reps),
		NumXs:    len(s.Xs),
		Reps:     reps,
		ADDCOnly: s.addcOnly(),
	}
}

// ShardJournalPath derives the journal path of shard i/k from the base
// checkpoint path: cp.jsonl -> cp.shard-2-of-3.jsonl. Every shard of one
// sweep journals beside the base path, so Merge can discover the full set.
func ShardJournalPath(base string, sp ShardSpec) string {
	ext := filepath.Ext(base)
	return fmt.Sprintf("%s.shard-%d-of-%d%s", strings.TrimSuffix(base, ext), sp.Index, sp.Count, ext)
}

// shardJournalGlob returns the glob matching every shard journal derived
// from base, sorted for deterministic merge input order.
func shardJournalGlob(base string) ([]string, error) {
	ext := filepath.Ext(base)
	pattern := strings.TrimSuffix(base, ext) + ".shard-*-of-*" + ext
	paths, err := filepath.Glob(pattern)
	if err != nil {
		return nil, fmt.Errorf("experiment: shard glob: %w", err)
	}
	sort.Strings(paths)
	return paths, nil
}

// Merge coverage failures, distinguishable with errors.Is.
var (
	// ErrShardGap means a shard index in 1..k has no journal.
	ErrShardGap = errors.New("experiment: shard coverage gap")
	// ErrShardOverlap means two journals claim the same shard, or a journal
	// holds an entry its declared shard does not own.
	ErrShardOverlap = errors.New("experiment: shard overlap")
	// ErrShardMismatch means the journals disagree on grid hash, fan-out
	// count, sweep ID or grid geometry — they are not shards of one run.
	ErrShardMismatch = errors.New("experiment: shard journal mismatch")
)

// MergeOptions tunes a merge.
type MergeOptions struct {
	// AllowMissing tolerates absent shard journals (a shard that failed
	// before its first flush) and missing shard indices: the merge then
	// covers what it can and reports the holes in MergeStats.MissingPairs.
	// The coordinator uses this to surface partial results when some
	// shards are permanently failed; the strict default is for merges that
	// promise byte-identity with an unsharded run.
	AllowMissing bool
	// gridHash, when non-empty, refuses journals stamped with another grid
	// hash before anything is written.
	gridHash string
}

// MergeStats reports what a merge assembled.
type MergeStats struct {
	// Shards is the fan-out count k declared by the journal headers.
	Shards int
	// Journals is the number of shard journal files merged.
	Journals int
	// GridHash is the grid fingerprint the journals agreed on.
	GridHash string
	// Entries is the number of checkpoint entries written to the merged
	// journal.
	Entries int
	// Duplicates counts journaled entries dropped by last-write-wins
	// deduplication on the (xi, rep, algo) key — retries and resumed
	// shards journal a pair more than once; the merge is idempotent.
	Duplicates int
	// MissingPairs lists owned (xi, rep) pairs no shard journaled a
	// complete pair for, in grid order. Empty means full coverage: the
	// merged journal is byte-identical to an unsharded Workers=1 run's.
	MissingPairs [][2]int
}

// maxMergePairs bounds the grid a shard header may declare. Merging walks
// every (x, rep) pair of the declared grid, so a corrupt header could
// otherwise exhaust memory; the paper's figure grids hold a few hundred
// pairs.
const maxMergePairs = 1 << 20

// mergeJournals merges per-shard checkpoint journals into one merged
// journal at out, validating coverage on the way:
//
//   - every journal must start with a ShardHeader declaring at most
//     maxMergePairs (x, rep) pairs, and all headers must agree on sweep
//     ID, grid hash, fan-out count and grid geometry, and with
//     opts.gridHash when it is set (ErrShardMismatch otherwise);
//   - the shard indices must tile 1..k with no duplicates (ErrShardGap /
//     ErrShardOverlap), unless opts.AllowMissing relaxes the gap check;
//   - an entry outside its declared shard's partition is ErrShardOverlap;
//   - torn final lines are tolerated exactly as resume tolerates them, and
//     duplicate (xi, rep, algo) entries within a shard deduplicate
//     last-write-wins, so merging resumed or retried shards is idempotent.
//
// The merged journal contains only complete pairs (both algorithms, or the
// ADDC entry alone when the headers declare ADDCOnly), in grid index order
// with the ADDC entry before the Coolest one and no header — precisely the
// bytes an unsharded Workers=1 checkpointed run leaves behind. Incomplete or unjournaled pairs are reported in
// MergeStats.MissingPairs; resuming the merged journal reruns exactly
// those.
func mergeJournals(out string, paths []string, opts MergeOptions) (*MergeStats, error) {
	if len(paths) == 0 {
		return nil, errors.New("experiment: no shard journals to merge")
	}
	var (
		ref   *ShardHeader
		seen  = make(map[int]string)             // shard index -> path
		byKey = make(map[[3]int]CheckpointEntry) // (xi, rep, algoIdx)
		stats = &MergeStats{}
	)
	algoIdx := func(algo string) int {
		if algo == algoCoolest {
			return 1
		}
		return 0
	}
	for _, path := range paths {
		j, err := LoadJournal(path)
		if err != nil {
			return nil, err
		}
		h := j.Header()
		if h == nil {
			if opts.AllowMissing && j.Len() == 0 {
				continue // a shard that died before its first flush
			}
			return nil, fmt.Errorf("%w: %s has no shard header", ErrShardMismatch, path)
		}
		if h.NumXs < 0 || h.Reps < 0 || h.NumXs > maxMergePairs || h.Reps > maxMergePairs ||
			h.NumXs*h.Reps > maxMergePairs {
			return nil, fmt.Errorf("%w: %s declares a %dx%d grid (at most %d pairs merge)",
				ErrShardMismatch, path, h.NumXs, h.Reps, maxMergePairs)
		}
		if ref == nil {
			ref = h
		} else if h.Sweep != ref.Sweep || h.GridHash != ref.GridHash || h.Count != ref.Count ||
			h.NumXs != ref.NumXs || h.Reps != ref.Reps || h.ADDCOnly != ref.ADDCOnly {
			return nil, fmt.Errorf("%w: %s declares sweep %s shard %d/%d grid %s (%dx%d), want sweep %s of %d grid %s (%dx%d)",
				ErrShardMismatch, path, h.Sweep, h.Index, h.Count, h.GridHash, h.NumXs, h.Reps,
				ref.Sweep, ref.Count, ref.GridHash, ref.NumXs, ref.Reps)
		}
		if (ShardSpec{Index: h.Index, Count: h.Count}).Validate() != nil {
			return nil, fmt.Errorf("%w: %s declares invalid shard %d/%d", ErrShardMismatch, path, h.Index, h.Count)
		}
		if prev, dup := seen[h.Index]; dup {
			return nil, fmt.Errorf("%w: shard %d/%d claimed by both %s and %s", ErrShardOverlap, h.Index, h.Count, prev, path)
		}
		seen[h.Index] = path
		sp := ShardSpec{Index: h.Index, Count: h.Count}
		for _, e := range j.Entries() {
			if e.Sweep != h.Sweep {
				return nil, fmt.Errorf("%w: %s holds an entry for sweep %q, header declares %q",
					ErrShardMismatch, path, e.Sweep, h.Sweep)
			}
			if e.Xi < 0 || e.Xi >= h.NumXs || e.Rep < 0 || e.Rep >= h.Reps {
				return nil, fmt.Errorf("%w: %s entry (x[%d], rep %d) outside the %dx%d grid",
					ErrShardMismatch, path, e.Xi, e.Rep, h.NumXs, h.Reps)
			}
			if !sp.owns(e.Xi, e.Rep, h.Reps) {
				return nil, fmt.Errorf("%w: %s holds (x[%d], rep %d), which shard %s does not own",
					ErrShardOverlap, path, e.Xi, e.Rep, sp)
			}
			key := [3]int{e.Xi, e.Rep, algoIdx(e.Algo)}
			if _, dup := byKey[key]; dup {
				stats.Duplicates++
			}
			byKey[key] = e // last write wins, matching resume semantics
		}
	}
	if ref == nil {
		return nil, fmt.Errorf("%w: every shard journal is missing or empty", ErrShardGap)
	}
	if opts.gridHash != "" && ref.GridHash != opts.gridHash {
		return nil, fmt.Errorf("%w: the shard journals were written for grid %s, but the sweep describes grid %s: merge with the parameters the shards ran with",
			ErrShardMismatch, ref.GridHash, opts.gridHash)
	}
	stats.Shards = ref.Count
	stats.Journals = len(paths)
	stats.GridHash = ref.GridHash
	if !opts.AllowMissing {
		for i := 1; i <= ref.Count; i++ {
			if _, ok := seen[i]; !ok {
				return nil, fmt.Errorf("%w: no journal for shard %d/%d", ErrShardGap, i, ref.Count)
			}
		}
	}

	// Assemble in grid index order, complete pairs only — the exact byte
	// stream an unsharded Workers=1 run journals.
	merged := NewJournal(out)
	for xi := 0; xi < ref.NumXs; xi++ {
		for rep := 0; rep < ref.Reps; rep++ {
			a, okA := byKey[[3]int{xi, rep, 0}]
			c, okC := byKey[[3]int{xi, rep, 1}]
			switch {
			case okA && ref.ADDCOnly:
				merged.Add(a)
			case okA && okC:
				merged.Add(a, c)
			default:
				stats.MissingPairs = append(stats.MissingPairs, [2]int{xi, rep})
			}
		}
	}
	stats.Entries = merged.Len()
	if err := merged.Close(); err != nil {
		return nil, err
	}
	return stats, nil
}

// Merge is the merge phase of a sharded sweep. It merges the shard journals
// beside s.Checkpoint (see ShardJournalPath) into the unsharded journal at
// s.Checkpoint, refusing journals written for another grid
// (ErrShardMismatch), and replays that journal through the sweep's
// index-order aggregation without executing anything. With every shard
// present the journal and summary are byte-identical to a single-process
// run's; opts.AllowMissing accepts holes, which the stats list.
func (s *Sweep) Merge(ctx context.Context, opts MergeOptions) (*SweepResult, *MergeStats, error) {
	paths, err := shardJournalGlob(s.Checkpoint)
	if err != nil {
		return nil, nil, err
	}
	if len(paths) == 0 {
		return nil, nil, fmt.Errorf("experiment: no shard journals beside %s (shards journal to e.g. %s)",
			s.Checkpoint, ShardJournalPath(s.Checkpoint, ShardSpec{Index: 1, Count: 3}))
	}
	opts.gridHash = s.GridHash()
	stats, err := mergeJournals(s.Checkpoint, paths, opts)
	if err != nil {
		return nil, nil, err
	}
	replay := *s
	replay.Resume, replay.replayOnly = true, true
	res, err := replay.RunContext(ctx)
	return res, stats, err
}
