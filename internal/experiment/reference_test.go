package experiment

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"addcrn/internal/coolest"
	"addcrn/internal/core"
	"addcrn/internal/fault"
	"addcrn/internal/metrics"
	"addcrn/internal/netmodel"
	"addcrn/internal/pcr"
	"addcrn/internal/rng"
	"addcrn/internal/spectrum"
)

// referenceEntries computes the checkpoint entries a sweep must journal
// without going through its execution engine: for every (x, rep) pair in
// grid order, the documented seed derivation (see runPairOnce), a freshly
// built topology, and two plain collections with a nil Workspace and a fresh
// registry. It shares no scheduling, workspace reuse or topology cache with
// Sweep.Run. s must set Reps and MaxVirtualTime and leave Retries at zero.
// A non-nil ext makes the pairs ADDC-only, with ext applying x to the ADDC
// run the way the extension figure s stands for does.
func referenceEntries(t *testing.T, s *Sweep, ext referenceExt) []CheckpointEntry {
	t.Helper()
	if s.Reps <= 0 || s.MaxVirtualTime <= 0 || s.Retries != 0 {
		t.Fatalf("reference needs explicit Reps and MaxVirtualTime and no retries: %+v", s)
	}
	var out []CheckpointEntry
	for xi, x := range s.Xs {
		label := fmt.Sprintf("sweep/%s/x%d", s.ID, xi)
		if s.ShareTopology {
			label = fmt.Sprintf("sweep/%s/topo", s.ID)
		}
		params := s.Apply(s.Base, x)
		for rep := 0; rep < s.Reps; rep++ {
			seed := rng.ChildSeedN(s.Seed, label, rep)
			out = append(out, referencePair(s, xi, rep, params, seed, ext)...)
		}
	}
	return out
}

// referenceExt applies an extension figure's x to the ADDC run's config.
type referenceExt func(cfg *core.CollectConfig, nw *netmodel.Network, x float64)

// referenceExt1 assigns home channels by brute force: each node takes the
// channel with the fewest PUs (PU i on channel i mod C) within its PCR,
// ties going to the first channel counting up from its own id mod C.
func referenceExt1(cfg *core.CollectConfig, nw *netmodel.Network, x float64) {
	channels := int(x)
	consts, err := pcr.Compute(nw.Params)
	if err != nil {
		panic(err)
	}
	r2 := consts.Range * consts.Range
	home := make([]int, len(nw.SU))
	for v, su := range nw.SU {
		counts := make([]int, channels)
		for i, pu := range nw.PU {
			if pu.Dist2(su) <= r2 {
				counts[i%channels]++
			}
		}
		best := v % channels
		for c := 0; c < channels; c++ {
			if cand := (v + c) % channels; counts[cand] < counts[best] {
				best = cand
			}
		}
		home[v] = best
	}
	cfg.Channels, cfg.Home, cfg.PUModel = channels, home, spectrum.ModelExact
}

// referenceExt2 injects ext2's fault plan: crash fraction x within the first
// virtual second, plus 5% link loss.
func referenceExt2(cfg *core.CollectConfig, _ *netmodel.Network, x float64) {
	cfg.Faults = &fault.Spec{CrashFrac: x, LinkLoss: 0.05, CrashWindow: time.Second}
}

// referencePair runs one (x, rep) pair: ADDC over the CDS tree, then Coolest
// over its accumulated-temperature tree (skipped when ext is set), on one
// fresh deployment placed by the same seed.
func referencePair(s *Sweep, xi, rep int, params netmodel.Params, seed uint64, ext referenceExt) []CheckpointEntry {
	addc := CheckpointEntry{Sweep: s.ID, Xi: xi, Rep: rep, Algo: algoADDC}
	cool := CheckpointEntry{Sweep: s.ID, Xi: xi, Rep: rep, Algo: algoCoolest}
	topo, err := BuildTopology(params, seed)
	if err != nil {
		addc.Err, cool.Err = err.Error(), err.Error()
		if ext != nil {
			return []CheckpointEntry{addc}
		}
		return []CheckpointEntry{addc, cool}
	}
	ctx := context.Background()
	cfg := core.CollectConfig{
		Seed:           seed,
		PUModel:        s.PUModel,
		MaxVirtualTime: s.MaxVirtualTime,
		DisableHandoff: s.DisableHandoff,
		Guard:          s.Guard,
		Faults:         s.Faults,
	}

	addcCfg := cfg
	reg := metrics.NewRegistry()
	addcCfg.Metrics = reg
	addcCfg.Tree = topo.Tree
	addcCfg.TreeStats = topo.Stats
	if ext != nil {
		ext(&addcCfg, topo.NW, s.Xs[xi])
	}
	if r, err := core.CollectContext(ctx, topo.NW, topo.Tree.Parent, addcCfg); err != nil {
		addc.Err = err.Error()
	} else {
		addc.Delay, addc.Capacity, addc.Aborts = r.DelaySlots, r.Capacity, float64(r.TotalAborts)
		addc.Tightness = -1
		if r.Theory != nil {
			addc.Tightness = r.Theory.ServiceTightness
		}
		addc.PUBusy = reg.Gauge("spectrum_pu_busy_fraction").Value()
		addc.Fairness = r.FairnessIndex
		addc.Loss = float64(r.Lost) / float64(r.Expected)
		addc.Deafness = r.TotalDeafnessLosses
		if r.Fault != nil {
			addc.Repairs, addc.Drops = r.Fault.Repairs, r.Fault.Drops
		}
	}
	if ext != nil {
		return []CheckpointEntry{addc}
	}

	coolCfg := cfg
	coolCfg.GenericCSMA = !s.SameMAC
	consts, err := pcr.Compute(params)
	var parents []int32
	if err == nil {
		parents, err = coolest.BuildParents(topo.NW, consts.Range, coolest.MetricAccumulated)
	}
	var r *core.Result
	if err == nil {
		r, err = core.CollectContext(ctx, topo.NW, parents, coolCfg)
	}
	if err != nil {
		cool.Err = err.Error()
	} else {
		cool.Delay, cool.Capacity = r.DelaySlots, r.Capacity
		cool.Aborts = float64(r.TotalAborts + r.TotalCollisions)
	}
	return []CheckpointEntry{addc, cool}
}

// TestSweepMatchesReference pins Sweep.Run against the independent reference
// at 1, 2 and 4 workers, each with fresh and shared topologies: fault-free,
// with faults plus guards, and the ADDC-only extension figures ext1 and
// ext2; the journal must hold exactly the reference's entries in grid order,
// and the summary must equal the one replayed from the reference entries.
func TestSweepMatchesReference(t *testing.T) {
	type mode struct {
		name  string
		share bool
		hard  bool
		fig   string // extension figure, or "" for the refequiv sweep
		xs    []float64
		ext   referenceExt
	}
	modes := []mode{
		{name: "fresh"},
		{name: "share", share: true},
		{name: "fresh+faults", hard: true},
		{name: "share+faults", share: true, hard: true},
		{name: "ext1", fig: "ext1", xs: []float64{1, 3}, ext: referenceExt1},
		{name: "share+ext1", share: true, fig: "ext1", xs: []float64{1, 3}, ext: referenceExt1},
		{name: "ext2", fig: "ext2", xs: []float64{0, 0.2}, ext: referenceExt2},
		{name: "share+ext2", share: true, fig: "ext2", xs: []float64{0, 0.2}, ext: referenceExt2},
	}
	for _, w := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("W=%d", w), func(t *testing.T) {
			for _, m := range modes {
				t.Run(m.name, func(t *testing.T) {
					dir := t.TempDir()
					s := &Sweep{
						ID:     "refequiv",
						Title:  "reference equivalence",
						XLabel: "p_t",
						Base:   tinyBase(),
						Xs:     []float64{0.15, 0.3},
						Apply: func(p netmodel.Params, x float64) netmodel.Params {
							p.ActiveProb = x
							return p
						},
						Reps:           4,
						Seed:           11,
						MaxVirtualTime: 10 * time.Minute,
						Workers:        w,
						ShareTopology:  m.share,
						Checkpoint:     filepath.Join(dir, "cp.jsonl"),
					}
					if m.hard {
						s.Guard = true
						s.Faults = &fault.Spec{CrashFrac: 0.05, LinkLoss: 0.02, RecoverAfter: 2 * time.Minute}
					}
					if m.fig != "" {
						fig, err := NewFigureSweep(m.fig, tinyBase(), s.Seed)
						if err != nil {
							t.Fatal(err)
						}
						fig.Xs, fig.Reps, fig.MaxVirtualTime = m.xs, s.Reps, s.MaxVirtualTime
						fig.Workers, fig.ShareTopology, fig.Checkpoint = w, m.share, s.Checkpoint
						s = fig
					}
					res, err := s.Run()
					if err != nil {
						t.Fatal(err)
					}
					jr, err := LoadJournal(s.Checkpoint)
					if err != nil {
						t.Fatal(err)
					}
					got, want := jr.Entries(), referenceEntries(t, s, m.ext)
					perPair := 2
					if m.ext != nil {
						perPair = 1
					}
					if len(got) != perPair*len(s.Xs)*s.Reps {
						t.Fatalf("journal holds %d entries, want %d", len(got), perPair*len(s.Xs)*s.Reps)
					}
					for i := range want {
						if want[i].Err != "" {
							t.Fatalf("reference pair failed, comparison is weak: %+v", want[i])
						}
						if !reflect.DeepEqual(got[i], want[i]) {
							t.Fatalf("entry %d diverges from the reference:\n sweep:     %+v\n reference: %+v", i, got[i], want[i])
						}
					}

					refPath := filepath.Join(dir, "ref.jsonl")
					ref := NewJournal(refPath)
					ref.Add(want...)
					if err := ref.Close(); err != nil {
						t.Fatal(err)
					}
					replay := *s
					replay.Checkpoint, replay.Resume, replay.replayOnly = refPath, true, true
					replayed, err := replay.Run()
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(res.Points, replayed.Points) {
						t.Fatalf("summary diverges from the reference's:\n sweep:     %+v\n reference: %+v", res.Points, replayed.Points)
					}
				})
			}
		})
	}
}
