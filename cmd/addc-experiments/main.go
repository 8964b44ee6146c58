// Command addc-experiments regenerates every evaluation artifact of the
// paper: the six Fig. 6 delay sweeps (ADDC vs Coolest), and the Theorem 1/2
// bound comparisons, plus the two extension sweeps (ext1: licensed
// channels, ext2: SU crash fraction). Output is a paper-style table per
// figure, optionally CSV.
//
// Usage:
//
//	addc-experiments                  # all of fig 6a..6f at the scaled point
//	addc-experiments -fig 6c          # a single sweep
//	addc-experiments -fig thm1        # Theorem 1 bound check (stand-alone)
//	addc-experiments -fig ext1        # ADDC delay vs licensed channels
//	addc-experiments -fig ext2        # ADDC delivery ratio vs crash fraction
//	addc-experiments -fig curves      # delivery-progress SVG for one run
//	addc-experiments -fig thm2        # Theorem 2 bound check (with PUs)
//	addc-experiments -csv             # machine-readable output
//
// Long sweeps are interruptible and resumable: -checkpoint journals every
// completed repetition to a crash-safe JSONL file, SIGINT/SIGTERM or an
// expired -timeout stop the sweep cooperatively (the partial table goes to
// stderr), and -resume picks up exactly where the journal stops,
// reproducing the uninterrupted output byte for byte. -guard runs every
// simulation with runtime invariant guards. The extension sweeps ext1 and
// ext2 are figures like the Fig. 6 panels (ADDC runs alone in them), so
// every flag here applies to them too.
//
// Sweeps also shard across processes or machines: -shard i/k runs only the
// i-th of k deterministic partitions of the (x, rep) grid, journaling to
// <checkpoint>.shard-i-of-k.jsonl (a killed shard resumes with -resume);
// once every shard has run, -merge validates coverage and assembles the
// journal and summary a single-process run would have produced, byte for
// byte:
//
//	for i in 1 2 3; do addc-experiments -fig 6c -shard $i/3 -checkpoint cp.jsonl & done; wait
//	addc-experiments -fig 6c -merge -checkpoint cp.jsonl
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"addcrn/internal/experiment"
	"addcrn/internal/netmodel"
	"addcrn/internal/spectrum"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "addc-experiments:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("addc-experiments", flag.ContinueOnError)
	var (
		fig        = fs.String("fig", "all", "figure to regenerate: 6a..6f, ext1, ext2, thm1, thm2, curves, or all (6a..6f)")
		reps       = fs.Int("reps", 10, "repetitions per sweep point")
		seed       = fs.Uint64("seed", 1, "root seed")
		csv        = fs.Bool("csv", false, "emit CSV instead of tables")
		handoff    = fs.Bool("handoff", true, "abort transmissions when a PU arrives (spectrum handoff)")
		budget     = fs.Duration("max-virtual", 2*time.Hour, "virtual-time budget per run")
		timeout    = fs.Duration("timeout", 0, "wall-clock budget for the whole invocation (0: none); expiry stops sweeps like SIGINT, printing partial results (combine with -checkpoint to resume)")
		sameMAC    = fs.Bool("same-mac", false, "run Coolest on ADDC's PCR MAC (routing-only ablation)")
		svgDir     = fs.String("svg", "", "directory to also write one SVG chart per figure")
		checkpoint = fs.String("checkpoint", "", "journal completed repetitions to this JSONL file (per-figure suffix added when sweeping several figures)")
		resume     = fs.Bool("resume", false, "with -checkpoint: skip repetitions the journal already records")
		guard      = fs.Bool("guard", false, "run every simulation with runtime invariant guards")
		shareTopo  = fs.Bool("share-topology", false, "memoize deployments and share construction artifacts across grid points and repetitions (changes the placement-seed derivation; each mode is internally deterministic)")

		shardFlag    = fs.String("shard", "", "run only shard i/k of each sweep's (x, rep) grid, journaling to <checkpoint>.shard-i-of-k.jsonl (requires -checkpoint; run all k shards, then -merge)")
		merge        = fs.Bool("merge", false, "merge the shard journals beside -checkpoint into the unsharded journal and print the summary it implies (requires -checkpoint)")
		allowMissing = fs.Bool("allow-missing", false, "with -merge: tolerate missing or empty shards and print the partial summary the surviving shards cover")
		flushBatch   = fs.Int("flush-batch", 0, "checkpoint flush batch size (default 32; 1 persists every completed pair immediately — what the chaos harness uses)")
		workers      = fs.Int("workers", 0, "cap sweep parallelism (default GOMAXPROCS)")
		xsFlag       = fs.String("xs", "", "comma-separated x values overriding the figure's sweep axis (small grids for smoke tests)")
		numSU        = fs.Int("num-su", 0, "override the number of secondary users")
		numPU        = fs.Int("num-pu", 0, "override the number of primary users")
		area         = fs.Float64("area", 0, "override the deployment area side length")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *resume && *checkpoint == "" {
		return fmt.Errorf("-resume requires -checkpoint")
	}
	var shard experiment.ShardSpec
	if *shardFlag != "" {
		var err error
		if shard, err = experiment.ParseShard(*shardFlag); err != nil {
			return err
		}
		if *checkpoint == "" {
			return fmt.Errorf("-shard requires -checkpoint (each shard streams results to its own journal)")
		}
		if *merge {
			return fmt.Errorf("-shard and -merge are different phases: run every shard first, then merge")
		}
	}
	if *merge && *checkpoint == "" {
		return fmt.Errorf("-merge requires -checkpoint (the merged journal's path, with shard journals beside it)")
	}
	xs, err := parseXs(*xsFlag)
	if err != nil {
		return err
	}

	// SIGINT/SIGTERM stop sweeps cooperatively; completed repetitions are
	// already journaled when -checkpoint is set.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	if *timeout > 0 {
		var cancelTimeout context.CancelFunc
		ctx, cancelTimeout = context.WithTimeout(ctx, *timeout)
		defer cancelTimeout()
	}

	base := netmodel.ScaledDefaultParams()
	if *numSU > 0 {
		base.NumSU = *numSU
	}
	if *numPU > 0 {
		base.NumPU = *numPU
	}
	if *area > 0 {
		base.Area = *area
	}

	var figures []string
	switch *fig {
	case "all":
		figures = experiment.FigureIDs
	case "thm1", "thm2":
		return runBounds(*fig, base, *reps, *seed)
	case "curves":
		svg, err := experiment.DeliveryCurves(base, *seed)
		if err != nil {
			return err
		}
		if *svgDir != "" {
			return os.WriteFile(filepath.Join(*svgDir, "curves.svg"), []byte(svg), 0o644)
		}
		fmt.Println(svg)
		return nil
	default:
		figures = []string{*fig}
	}

	for _, id := range figures {
		sweep, err := experiment.NewFigureSweep(id, base, *seed)
		if err != nil {
			return err
		}
		sweep.Reps = *reps
		sweep.PUModel = spectrum.ModelExact
		sweep.DisableHandoff = !*handoff
		sweep.MaxVirtualTime = *budget
		sweep.SameMAC = *sameMAC
		sweep.Guard = *guard
		sweep.ShareTopology = *shareTopo
		sweep.Workers = *workers
		sweep.FlushBatch = *flushBatch
		if xs != nil {
			sweep.Xs = xs
		}
		if err := sweep.CheckGrid(experiment.Limits{}); err != nil {
			return err
		}
		if *checkpoint != "" {
			sweep.Checkpoint = checkpointPath(*checkpoint, id, len(figures) > 1)
			sweep.Resume = *resume
		}
		if *merge {
			if err := mergeShards(ctx, sweep, *allowMissing, *csv); err != nil {
				return err
			}
			continue
		}
		if !shard.IsZero() {
			sweep.Shard = shard
			sweep.Checkpoint = experiment.ShardJournalPath(sweep.Checkpoint, shard)
		}
		res, err := sweep.RunContext(ctx)
		if err != nil {
			if res != nil && ctx.Err() != nil {
				// Interrupted: the partial table goes to stderr so stdout
				// stays a clean sequence of completed figures, and the
				// error names the checkpoint to resume from.
				fmt.Fprintf(os.Stderr, "addc-experiments: interrupted; partial fig %s results:\n%s",
					id, res.FormatTable())
			}
			return err
		}
		if *csv {
			fmt.Printf("# fig %s\n%s", id, res.FormatCSV())
		} else {
			fmt.Println(res.FormatTable())
		}
		if *svgDir != "" {
			svg, err := res.SVG()
			if err != nil {
				return fmt.Errorf("render fig %s: %w", id, err)
			}
			path := filepath.Join(*svgDir, "fig"+id+".svg")
			if err := os.WriteFile(path, []byte(svg), 0o644); err != nil {
				return err
			}
		}
	}
	return nil
}

// mergeShards merges the shard journals beside sweep.Checkpoint into the
// unsharded journal there and prints the summary it implies — byte for byte
// what the single-process run prints when every shard is present.
func mergeShards(ctx context.Context, sweep *experiment.Sweep, allowMissing, csv bool) error {
	res, stats, err := sweep.Merge(ctx, experiment.MergeOptions{AllowMissing: allowMissing})
	if stats != nil {
		fmt.Fprintf(os.Stderr, "addc-experiments: merged %d journals (%d shards, %d entries, %d duplicate entries dropped) into %s\n",
			stats.Journals, stats.Shards, stats.Entries, stats.Duplicates, sweep.Checkpoint)
		if n := len(stats.MissingPairs); n > 0 {
			fmt.Fprintf(os.Stderr, "addc-experiments: %d (x, rep) pairs missing — the summary below is partial; resume the failed shards or rerun with -resume on the merged journal\n", n)
		}
	}
	if err != nil {
		return err
	}
	if csv {
		fmt.Printf("# fig %s\n%s", sweep.ID, res.FormatCSV())
	} else {
		fmt.Println(res.FormatTable())
	}
	return nil
}

// parseXs parses the -xs flag: comma-separated x values, nil when empty.
// Whether each value suits the figure's axis is Sweep.CheckGrid's call.
func parseXs(flagValue string) ([]float64, error) {
	if flagValue == "" {
		return nil, nil
	}
	var xs []float64
	for _, field := range strings.Split(flagValue, ",") {
		x, err := strconv.ParseFloat(strings.TrimSpace(field), 64)
		if err != nil {
			return nil, fmt.Errorf("-xs: %w", err)
		}
		xs = append(xs, x)
	}
	return xs, nil
}

// checkpointPath derives the journal path for one figure: a multi-figure
// invocation gets a per-figure file (cp.jsonl -> cp-6a.jsonl) so a fresh
// sweep of one figure never truncates another's journal.
func checkpointPath(base, fig string, multi bool) string {
	if !multi {
		return base
	}
	ext := filepath.Ext(base)
	return strings.TrimSuffix(base, ext) + "-" + fig + ext
}

func runBounds(which string, base netmodel.Params, reps int, seed uint64) error {
	check := experiment.BoundsCheck{
		Base:       base,
		StandAlone: which == "thm1",
		Reps:       reps,
		Seed:       seed,
	}
	res, err := check.Run()
	if err != nil {
		return err
	}
	fmt.Print(res.Format())
	return nil
}
