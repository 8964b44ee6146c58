package experiment

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"addcrn/internal/multichannel"
	"addcrn/internal/netmodel"
	"addcrn/internal/rng"
	"addcrn/internal/stats"
)

// ChannelSweep measures the multi-channel extension: ADDC delay as a
// function of the number of licensed channels (experiment id "ext1"; not a
// paper artifact — see DESIGN.md Extensions).
type ChannelSweep struct {
	Base     netmodel.Params
	Channels []int
	Reps     int
	Seed     uint64
	Assign   multichannel.AssignMode
	Workers  int
	// ShareTopology memoizes one deployment per repetition and shares it
	// across every channel count (the axis only re-licenses the spectrum,
	// it never moves a node). Opt-in: it changes the seed derivation to
	// depend only on the repetition.
	ShareTopology bool
}

// ChannelPoint is one channel-count measurement.
type ChannelPoint struct {
	Channels int
	Delay    stats.Summary
	Deafness stats.Summary
	Failed   int
}

// ChannelSweepResult is the outcome of ChannelSweep.Run.
type ChannelSweepResult struct {
	Points  []ChannelPoint
	Elapsed time.Duration
}

// Run executes the sweep on up to Workers goroutines, one deterministic
// simulation per (channel count, repetition) pair. Each pair fills its own
// result slot and points summarize in repetition order, so the result does
// not depend on Workers or scheduling.
func (s *ChannelSweep) Run() (*ChannelSweepResult, error) {
	if len(s.Channels) == 0 {
		return nil, fmt.Errorf("experiment: channel sweep has no channel counts")
	}
	reps := s.Reps
	if reps <= 0 {
		reps = 10
	}
	start := time.Now()

	type outcome struct {
		delay    float64
		deafness float64
		err      error
	}
	cache := newTopoCache()
	run := func(ci, rep int) outcome {
		opts := multichannel.Options{
			Params:   s.Base,
			Channels: s.Channels[ci],
			Assign:   s.Assign,
		}
		if s.ShareTopology {
			seed := rng.ChildSeedN(s.Seed, "ext1/topo", rep)
			topo, err := cache.get(s.Base, seed)
			if err != nil {
				return outcome{err: err}
			}
			opts.Seed = seed
			opts.Prebuilt = topo.prebuilt()
		} else {
			opts.Seed = rng.ChildSeedN(s.Seed, fmt.Sprintf("ext1/c%d", s.Channels[ci]), rep)
		}
		res, err := multichannel.Run(opts)
		if err != nil {
			return outcome{err: err}
		}
		return outcome{delay: res.DelaySlots, deafness: float64(res.DeafnessLosses)}
	}
	outs := make([]outcome, len(s.Channels)*reps)
	claimSlots(s.Workers, len(outs), func() func(int) {
		return func(i int) { outs[i] = run(i/reps, i%reps) }
	})

	res := &ChannelSweepResult{}
	total := 0
	var firstErr error
	for ci, c := range s.Channels {
		p := ChannelPoint{Channels: c}
		var delays, deaf []float64
		for _, o := range outs[ci*reps : (ci+1)*reps] {
			if o.err != nil {
				p.Failed++
				if firstErr == nil {
					firstErr = o.err
				}
				continue
			}
			delays = append(delays, o.delay)
			deaf = append(deaf, o.deafness)
		}
		p.Delay, p.Deafness = stats.Summarize(delays), stats.Summarize(deaf)
		res.Points = append(res.Points, p)
		total += len(delays)
	}
	res.Elapsed = time.Since(start)
	if total == 0 && firstErr != nil {
		return nil, fmt.Errorf("experiment: channel sweep produced no results: %w", firstErr)
	}
	return res, nil
}

// claimSlots fills n result slots on up to workers goroutines (default
// GOMAXPROCS). Each goroutine builds its slot handler once with newWorker —
// the place for per-worker state — then claims slot indices from one atomic
// cursor until none remain.
func claimSlots(workers, n int, newWorker func() func(slot int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fill := newWorker()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fill(i)
			}
		}()
	}
	wg.Wait()
}

// FormatTable renders the channel sweep result.
func (r *ChannelSweepResult) FormatTable() string {
	var sb strings.Builder
	sb.WriteString("ADDC delay vs number of licensed channels (extension ext1)\n")
	fmt.Fprintf(&sb, "%-10s %-22s %-20s %s\n", "channels", "delay (slots)", "deafness losses", "reps")
	for _, p := range r.Points {
		fmt.Fprintf(&sb, "%-10d %10.1f ±%-9.1f %10.1f %12d", p.Channels,
			p.Delay.Mean, p.Delay.CI95(), p.Deafness.Mean, p.Delay.N)
		if p.Failed > 0 {
			fmt.Fprintf(&sb, "  (%d failed)", p.Failed)
		}
		sb.WriteByte('\n')
	}
	fmt.Fprintf(&sb, "(wall clock %v)\n", r.Elapsed.Round(1e7))
	return sb.String()
}
