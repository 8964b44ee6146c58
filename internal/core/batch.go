package core

import (
	"context"

	"addcrn/internal/mac"
	"addcrn/internal/metrics"
	"addcrn/internal/netmodel"
	"addcrn/internal/trace"
)

// Lane parameterizes one repetition of a batched collection: its seed and
// its private observability endpoints. Every other knob comes from the
// shared CollectConfig — a batch runs B repetitions of the same topology,
// tree and configuration, differing only in randomness.
type Lane struct {
	Seed    uint64
	Metrics *metrics.Registry
	Trace   *trace.Buffer
	Sink    trace.Sink
}

// LaneResult is one lane's outcome: exactly the (*Result, error) pair the
// same repetition would get from Collect. Err is a *DeadlineExceededError,
// *CanceledError, *InvariantError or stall error under the same conditions.
type LaneResult struct {
	Result *Result
	Err    error
}

// CollectBatch runs len(lanes) repetitions of one collection task as a
// single interleaved simulation: one event loop drives every lane in global
// virtual-time order, with each lane's mutable hot state packed into shared
// structure-of-arrays slabs (see mac.NewSlabs). Each lane is bit-identical
// to the same repetition run alone through Collect — same Result, same
// trace bytes, same metrics — because lanes share read-only inputs only;
// all mutable state, randomness and guards stay per-lane.
//
// Lanes that finish (complete, degrade gracefully, or exceed the virtual-
// time budget) stop consuming events while the rest run on. Cancellation
// interrupts every still-running lane, which then reports its own
// *CanceledError with per-lane partial counts; finished lanes keep their
// results. The returned slice is parallel to lanes. A batch-level error is
// returned only when the batch could not be set up at all.
//
// cfg.Seed, cfg.Metrics, cfg.Trace and cfg.Sink are ignored — those are
// per-lane (see Lane). cfg.Workspace is reused across batches like in
// Collect; a nil workspace allocates privately.
func CollectBatch(ctx context.Context, nw *netmodel.Network, parent []int32, cfg CollectConfig, lanes []Lane) ([]LaneResult, error) {
	if len(lanes) == 0 {
		return nil, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, &CanceledError{Cause: err}
	}
	envCfg := cfg
	envCfg.Seed = 0
	envCfg.Metrics = nil
	envCfg.Trace = nil
	envCfg.Sink = nil
	env, err := newCollectEnv(nw, parent, envCfg, nil)
	if err != nil {
		return nil, err
	}
	ws := cfg.Workspace
	if ws == nil {
		ws = NewWorkspace()
	}
	eng := ws.engine()
	b := len(lanes)
	eng.SetLanes(b)
	nn := nw.NumNodes()
	if !ws.slabs.Fits(b, nn) {
		ws.slabs = mac.NewSlabs(b, nn)
	}
	for len(ws.lanes) < b {
		ws.lanes = append(ws.lanes, laneScratch{})
	}
	lns := make([]*lane, b)
	for i, lc := range lanes {
		eng.SetLane(i)
		// Mirror the scalar run's phase set so per-lane metrics snapshots
		// have the same shape; the derivation itself ran once in env.
		stopPhase := lc.Metrics.StartPhase("pcr")
		stopPhase(0)
		ln, err := env.prepareLane(eng, laneIO{
			seed: lc.Seed,
			met:  lc.Metrics,
			sink: combineSinks(lc.Trace, lc.Sink),
		}, &ws.lanes[i], ws.slabs.Lane(i))
		if err != nil {
			return nil, err
		}
		lns[i] = ln
	}
	if ctx.Done() != nil {
		eng.SetInterrupt(cancelPollEvents, ctx.Err)
	}

	out := make([]LaneResult, b)
	finished := make([]bool, b)
	remaining := b
	// Lanes are independent simulations, so nothing requires executing their
	// events in global virtual-time order; a strict per-event interleave
	// round-robins B working sets through the cache and runs markedly slower
	// than B sequential runs. Instead the earliest lane runs a burst of its
	// own events before the cross-lane scan repeats — long enough to keep
	// the lane's state hot, short enough that cancellation and co-progress
	// stay within one burst of fair.
	const burstEvents = 4096
	for remaining > 0 {
		laneID := eng.NextLane()
		if laneID < 0 {
			// Every unfinished lane drained its queue: each of them stalled.
			for i, ln := range lns {
				if finished[i] {
					continue
				}
				ln.finish(eng.LaneNow(i), eng.LaneSteps(i))
				out[i] = LaneResult{ln.res, ln.stallErr()}
				finished[i] = true
				remaining--
			}
			break
		}
		i := int(laneID)
		ln := lns[i]
		// Per executed event the lane runs the scalar loop's checks in the
		// scalar loop's order: virtual-time budget first (the event past
		// the deadline still executed, exactly like Collect), then
		// completion, then starvation.
		for burst := 0; burst < burstEvents; burst++ {
			if !eng.StepInLane(laneID) {
				if cause := eng.InterruptErr(); cause != nil {
					for j, l := range lns {
						if finished[j] {
							continue
						}
						now, steps := eng.LaneNow(j), eng.LaneSteps(j)
						l.finish(now, steps)
						out[j] = LaneResult{l.res, l.canceledErr(cause, now)}
						finished[j] = true
						remaining--
					}
					return out, nil
				}
				// The lane's queue drained without completing: it stalled.
				ln.finish(eng.LaneNow(i), eng.LaneSteps(i))
				out[i] = LaneResult{ln.res, ln.stallErr()}
				finished[i] = true
				remaining--
				break
			}
			now := eng.LaneNow(i)
			switch {
			case now > env.deadline:
				eng.StopLane(i)
				ln.finish(now, eng.LaneSteps(i))
				out[i] = LaneResult{ln.res, ln.deadlineErr(now)}
			case ln.done:
				eng.StopLane(i)
				ln.finish(now, eng.LaneSteps(i))
				res, err := ln.seal()
				out[i] = LaneResult{res, err}
			case eng.LanePending(i) == 0:
				ln.finish(now, eng.LaneSteps(i))
				out[i] = LaneResult{ln.res, ln.stallErr()}
			default:
				continue
			}
			finished[i] = true
			remaining--
			break
		}
	}
	return out, nil
}
