package experiment

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"strings"
	"time"

	"addcrn/internal/core"
	"addcrn/internal/fault"
	"addcrn/internal/netmodel"
	"addcrn/internal/rng"
	"addcrn/internal/stats"
)

// FaultSweep measures graceful degradation: ADDC delivery ratio and delay as
// a function of the SU crash fraction, with a fixed link-loss floor
// (experiment id "ext2"; not a paper artifact — the paper assumes reliable
// nodes. See DESIGN.md Extensions and internal/fault).
type FaultSweep struct {
	Base netmodel.Params
	// CrashFracs are the swept fault rates (fraction of SUs that crash).
	CrashFracs []float64
	// LinkLoss and AckLoss set the per-transmission loss floor applied at
	// every point.
	LinkLoss float64
	AckLoss  float64
	// CrashWindow bounds the crash times (default 1 virtual second, early in
	// the run so the faults hit packets still in flight).
	CrashWindow time.Duration
	// RecoverAfter, when positive, brings crashed nodes back after that long.
	RecoverAfter time.Duration
	// RetryCap bounds per-packet retransmissions (default mac.DefaultRetryCap).
	RetryCap int
	Reps     int
	Seed     uint64
	// MaxVirtualTime bounds each run (default 2 virtual hours).
	MaxVirtualTime time.Duration
	Workers        int
	// ShareTopology memoizes one deployment per repetition and shares its
	// construction artifacts (placement, adjacency, CDS tree, CSR tables)
	// across every crash fraction — the swept axis is purely a fault-layer
	// parameter, so the topology is invariant along it. Fault runs mutate
	// routing via copy-on-write and never touch the shared tree. Opt-in
	// because it changes the seed derivation to depend only on the
	// repetition.
	ShareTopology bool
}

// FaultPoint is one crash-fraction measurement.
type FaultPoint struct {
	CrashFrac float64
	// Delivery summarizes the delivery ratio over repetitions.
	Delivery stats.Summary
	// Delay summarizes collection delay in slots (for partial runs: time
	// until the last packet was accounted for).
	Delay stats.Summary
	// Repairs and Drops summarize the self-healing re-parenting count and
	// retry-cap packet drops per run.
	Repairs stats.Summary
	Drops   stats.Summary
	// Deadlines counts runs whose virtual budget expired (their partial
	// delivery ratio still contributes); Failed counts hard errors.
	Deadlines int
	Failed    int
}

// FaultSweepResult is the outcome of FaultSweep.Run.
type FaultSweepResult struct {
	Points  []FaultPoint
	Elapsed time.Duration
}

// Run executes the sweep on up to Workers goroutines, one deterministic
// simulation per (crash fraction, repetition) pair. Each pair fills its own
// result slot and points summarize in repetition order, so the result does
// not depend on Workers or scheduling.
func (s *FaultSweep) Run() (*FaultSweepResult, error) {
	return s.RunContext(context.Background())
}

// RunContext is Run with cooperative cancellation: canceling ctx skips the
// pairs not yet started, interrupts in-flight simulations, and returns the
// partial result alongside an error wrapping the context's.
func (s *FaultSweep) RunContext(ctx context.Context) (*FaultSweepResult, error) {
	if len(s.CrashFracs) == 0 {
		return nil, fmt.Errorf("experiment: fault sweep has no crash fractions")
	}
	reps := s.Reps
	if reps <= 0 {
		reps = 10
	}
	window := s.CrashWindow
	if window <= 0 {
		window = time.Second
	}
	budget := s.MaxVirtualTime
	if budget <= 0 {
		budget = 2 * time.Hour // virtual
	}
	start := time.Now()

	type outcome struct {
		delivery float64
		delay    float64
		repairs  float64
		drops    float64
		deadline bool
		canceled bool
		err      error
	}
	// runJob isolates one repetition: a panic anywhere in the simulation
	// stack becomes a per-point failure carrying the stack, never a
	// process crash.
	runJob := func(fi, rep int, env *runEnv) (out outcome) {
		defer func() {
			if r := recover(); r != nil {
				out = outcome{err: fmt.Errorf(
					"experiment: fault sweep f=%g rep %d panicked: %v\n%s",
					s.CrashFracs[fi], rep, r, debug.Stack())}
				env.discard()
			}
		}()
		if cause := ctxErr(ctx); cause != nil {
			return outcome{err: cause, canceled: true}
		}
		var seed uint64
		var pre *core.Prebuilt
		if s.ShareTopology {
			// The placement seed depends only on the repetition so every
			// crash fraction shares one memoized topology build.
			seed = rng.ChildSeedN(s.Seed, "ext2/topo", rep)
			topo, err := env.cache.get(s.Base, seed)
			if err != nil {
				return outcome{err: err}
			}
			pre = topo.prebuilt()
		} else {
			seed = rng.ChildSeedN(s.Seed, fmt.Sprintf("ext2/f%g", s.CrashFracs[fi]), rep)
		}
		res, err := core.RunContext(ctx, core.Options{
			Params:         s.Base,
			Seed:           seed,
			MaxVirtualTime: budget,
			Prebuilt:       pre,
			Workspace:      env.ws,
			Faults: &fault.Spec{
				CrashFrac:    s.CrashFracs[fi],
				CrashWindow:  window,
				RecoverAfter: s.RecoverAfter,
				LinkLoss:     s.LinkLoss,
				AckLoss:      s.AckLoss,
				RetryCap:     s.RetryCap,
			},
		})
		var ce *core.CanceledError
		if errors.As(err, &ce) {
			return outcome{err: err, canceled: true}
		}
		var dl *core.DeadlineExceededError
		deadline := errors.As(err, &dl)
		if err != nil && !deadline {
			return outcome{err: err}
		}
		out = outcome{
			delivery: res.DeliveryRatio,
			delay:    res.DelaySlots,
			deadline: deadline,
		}
		if res.Fault != nil {
			out.repairs = float64(res.Fault.Repairs)
			out.drops = float64(res.Fault.Drops)
		}
		return out
	}
	cache := newTopoCache()
	outs := make([]outcome, len(s.CrashFracs)*reps)
	claimSlots(s.Workers, len(outs), func() func(int) {
		env := &runEnv{cache: cache, ws: core.NewWorkspace()}
		return func(i int) { outs[i] = runJob(i/reps, i%reps, env) }
	})

	res := &FaultSweepResult{}
	total := 0
	var firstErr error
	for fi, f := range s.CrashFracs {
		p := FaultPoint{CrashFrac: f}
		var delivery, delay, repairs, drops []float64
		for _, o := range outs[fi*reps : (fi+1)*reps] {
			if o.canceled {
				continue // cut short, not failed: the point just has fewer reps
			}
			if o.err != nil {
				p.Failed++
				if firstErr == nil {
					firstErr = o.err
				}
				continue
			}
			if o.deadline {
				p.Deadlines++
			}
			delivery = append(delivery, o.delivery)
			delay = append(delay, o.delay)
			repairs = append(repairs, o.repairs)
			drops = append(drops, o.drops)
		}
		p.Delivery, p.Delay = stats.Summarize(delivery), stats.Summarize(delay)
		p.Repairs, p.Drops = stats.Summarize(repairs), stats.Summarize(drops)
		res.Points = append(res.Points, p)
		total += len(delivery)
	}
	res.Elapsed = time.Since(start)
	if cause := ctxErr(ctx); cause != nil {
		return res, fmt.Errorf("experiment: fault sweep interrupted: %w", cause)
	}
	if total == 0 && firstErr != nil {
		return nil, fmt.Errorf("experiment: fault sweep produced no results: %w", firstErr)
	}
	return res, nil
}

// FormatTable renders the fault sweep result.
func (r *FaultSweepResult) FormatTable() string {
	var sb strings.Builder
	sb.WriteString("ADDC delivery ratio vs SU crash fraction (extension ext2)\n")
	fmt.Fprintf(&sb, "%-12s %-20s %-22s %-10s %-10s %s\n",
		"crash-frac", "delivery ratio", "delay (slots)", "repairs", "drops", "reps")
	for _, p := range r.Points {
		fmt.Fprintf(&sb, "%-12.2f %8.3f ±%-9.3f %10.1f ±%-9.1f %8.1f %10.1f %8d",
			p.CrashFrac, p.Delivery.Mean, p.Delivery.CI95(),
			p.Delay.Mean, p.Delay.CI95(), p.Repairs.Mean, p.Drops.Mean, p.Delivery.N)
		if p.Deadlines > 0 {
			fmt.Fprintf(&sb, "  (%d deadline)", p.Deadlines)
		}
		if p.Failed > 0 {
			fmt.Fprintf(&sb, "  (%d failed)", p.Failed)
		}
		sb.WriteByte('\n')
	}
	fmt.Fprintf(&sb, "(wall clock %v)\n", r.Elapsed.Round(1e7))
	return sb.String()
}
