// Command addc-sim runs a single data collection simulation from command
// line flags and prints the measured result, optionally for the Coolest
// baseline instead of ADDC. The -fault-* flags inject SU crashes, link/ACK
// loss and PU burst storms (see internal/fault); the run then reports its
// outcome, delivery ratio and fault counters.
//
// SIGINT/SIGTERM cancel the run cooperatively: the partial delivery state
// is reported on stderr before exiting nonzero. -timeout imposes the same
// cooperative cancellation on a wall-clock budget.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime/pprof"
	"syscall"
	"time"

	"addcrn/internal/coolest"
	"addcrn/internal/core"
	"addcrn/internal/fault"
	"addcrn/internal/metrics"
	"addcrn/internal/netmodel"
	"addcrn/internal/pcr"
	"addcrn/internal/trace"
)

// writeMetrics dumps the registry's full snapshot (wall timings included) as
// indented JSON.
func writeMetrics(path string, reg *metrics.Registry) error {
	data, err := reg.Snapshot().Marshal()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "addc-sim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("addc-sim", flag.ContinueOnError)
	base := netmodel.ScaledDefaultParams()
	var (
		area    = fs.Float64("area", base.Area, "deployment square side (m)")
		alpha   = fs.Float64("alpha", base.Alpha, "path loss exponent")
		numPU   = fs.Int("N", base.NumPU, "number of primary users")
		numSU   = fs.Int("n", base.NumSU, "number of secondary users")
		powerPU = fs.Float64("Pp", base.PowerPU, "PU power")
		powerSU = fs.Float64("Ps", base.PowerSU, "SU power")
		radPU   = fs.Float64("R", base.RadiusPU, "PU radius (m)")
		radSU   = fs.Float64("r", base.RadiusSU, "SU radius (m)")
		etaPU   = fs.Float64("etaP", base.SIRThresholdPUdB, "PU SIR threshold (dB)")
		etaSU   = fs.Float64("etaS", base.SIRThresholdSUdB, "SU SIR threshold (dB)")
		pt      = fs.Float64("pt", base.ActiveProb, "PU per-slot activity probability")
		seed    = fs.Uint64("seed", 1, "run seed")
		runs    = fs.Int("runs", 1, "repeat the simulation with seeds seed, seed+1, ... reusing one simulation workspace between runs")
		alg     = fs.String("alg", "addc", "algorithm: addc or coolest")
		budget  = fs.Duration("max-virtual", 30*time.Minute, "virtual-time budget")
		timeout = fs.Duration("timeout", 0, "wall-clock budget for the whole invocation (0: none); expiry interrupts the run like SIGINT, reporting the partial delivery state")
		handoff = fs.Bool("handoff", true, "abort transmissions on PU arrival")
		guard   = fs.Bool("guard", false, "enable runtime invariant guards (concurrent-set separation, tree integrity, packet conservation)")

		metricsOut = fs.String("metrics-out", "", "write a JSON metrics snapshot to this file")
		traceOut   = fs.String("trace-out", "", "stream the run's trace as JSONL to this file")
		traceMAC   = fs.Bool("trace-mac", false, "with -trace-out: also record every transmission and backoff draw (high volume)")
		pprofOut   = fs.String("pprof", "", "write a CPU profile to this file")

		faultCrash    = fs.Float64("fault-crash", 0, "fraction of SUs that crash (0 disables)")
		faultWindow   = fs.Duration("fault-crash-window", 0, "virtual window the crashes land in (0: fault package default)")
		faultRecover  = fs.Duration("fault-recover", 0, "bring crashed SUs back after this long (0: crashed forever)")
		faultLoss     = fs.Float64("fault-loss", 0, "per-transmission link loss probability")
		faultAckLoss  = fs.Float64("fault-ack-loss", 0, "per-transmission ACK loss probability")
		faultBursts   = fs.Int("fault-bursts", 0, "number of PU burst storms")
		faultBurstLen = fs.Duration("fault-burst-len", 0, "burst storm duration (0: fault package default)")
		faultRetryCap = fs.Int("fault-retry-cap", 0, "per-packet retransmission cap (0: MAC default)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *runs < 1 {
		return fmt.Errorf("-runs must be at least 1, got %d", *runs)
	}
	if *runs > 1 && (*metricsOut != "" || *traceOut != "") {
		return fmt.Errorf("-runs > 1 does not combine with -metrics-out or -trace-out")
	}

	params := base
	params.Area = *area
	params.Alpha = *alpha
	params.NumPU = *numPU
	params.NumSU = *numSU
	params.PowerPU = *powerPU
	params.PowerSU = *powerSU
	params.RadiusPU = *radPU
	params.RadiusSU = *radSU
	params.SIRThresholdPUdB = *etaPU
	params.SIRThresholdSUdB = *etaSU
	params.ActiveProb = *pt

	cfg := core.CollectConfig{
		MaxVirtualTime: *budget,
		DisableHandoff: !*handoff,
		Guard:          *guard,
	}
	spec := fault.Spec{
		CrashFrac:    *faultCrash,
		CrashWindow:  *faultWindow,
		RecoverAfter: *faultRecover,
		LinkLoss:     *faultLoss,
		AckLoss:      *faultAckLoss,
		Bursts:       *faultBursts,
		BurstLen:     *faultBurstLen,
		RetryCap:     *faultRetryCap,
	}
	if !spec.Zero() {
		cfg.Faults = &spec
	}

	var reg *metrics.Registry
	if *metricsOut != "" {
		reg = metrics.NewRegistry()
		cfg.Metrics = reg
	}
	var sink *trace.JSONLSink
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		defer f.Close()
		sink = trace.NewJSONLSink(f)
		cfg.Sink = sink
		cfg.TraceMAC = *traceMAC
	}
	if *pprofOut != "" {
		f, err := os.Create(*pprofOut)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	// SIGINT/SIGTERM cancel the simulation at event-loop granularity; the
	// partial result still flushes traces and metrics below.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	if *timeout > 0 {
		var cancelTimeout context.CancelFunc
		ctx, cancelTimeout = context.WithTimeout(ctx, *timeout)
		defer cancelTimeout()
	}

	// setup resolves one deployment and the algorithm's routing structure on
	// it. The returned config still needs its per-run Seed.
	setup := func(topoSeed uint64) (*netmodel.Network, []int32, core.CollectConfig, error) {
		nw, err := core.BuildNetwork(core.Options{
			Params:         params,
			Seed:           topoSeed,
			MaxVirtualTime: *budget,
		})
		if err != nil {
			return nil, nil, cfg, err
		}
		runCfg := cfg
		var parents []int32
		switch *alg {
		case "addc":
			tree, err := core.BuildTree(nw)
			if err != nil {
				return nil, nil, cfg, err
			}
			parents = tree.Parent
			runCfg.Tree = tree // repair prefers dominators/connectors
		case "coolest":
			consts, err := pcr.Compute(params)
			if err != nil {
				return nil, nil, cfg, err
			}
			parents, err = coolest.BuildParents(nw, consts.Range, coolest.MetricAccumulated)
			if err != nil {
				return nil, nil, cfg, err
			}
		default:
			return nil, nil, cfg, fmt.Errorf("unknown algorithm %q", *alg)
		}
		return nw, parents, runCfg, nil
	}

	// report prints one run's outcome, or its cancellation state on stderr.
	report := func(runSeed uint64, res *core.Result, err error, last bool) error {
		var ce *core.CanceledError
		if errors.As(err, &ce) {
			fmt.Fprintf(os.Stderr, "addc-sim: interrupted at %v (virtual): %d/%d delivered, %d lost\n",
				ce.Elapsed.Duration(), ce.Delivered, ce.Expected, ce.Lost)
			if res != nil && res.Guard != nil {
				fmt.Fprintf(os.Stderr, "addc-sim: guard: %d checks, %d violations before interruption\n",
					res.Guard.ConcurrencyChecks+res.Guard.TreeChecks+res.Guard.ConservationChecks,
					res.Guard.ViolationCount())
			}
			return err
		}
		if err != nil {
			return err
		}
		fmt.Printf("algorithm=%s n=%d N=%d pt=%.2f alpha=%.1f seed=%d pu-model=exact\n",
			*alg, params.NumSU, params.NumPU, params.ActiveProb, params.Alpha, runSeed)
		fmt.Printf("PCR: kappa=%.3f range=%.1fm\n", res.PCR.Kappa, res.PCR.Range)
		fmt.Printf("delivered %d/%d in %v (%.0f slots)\n",
			res.Delivered, res.Expected, res.Delay.Duration(), res.DelaySlots)
		fmt.Printf("capacity %.1f kbit/s, transmissions=%d, aborts=%d\n",
			res.Capacity/1e3, res.TotalTransmissions, res.TotalAborts)
		fmt.Printf("hops: %s\n", res.HopStats)
		fmt.Printf("latency(slots): %s\n", res.LatencySlots)
		fmt.Printf("engine steps: %d\n", res.EngineSteps)
		if th := res.Theory; th != nil {
			fmt.Printf("theorem1 bound %.0f slots, service tightness %.3f, per-hop tightness %.3f\n",
				th.Theorem1Slots, th.ServiceTightness, th.PerHopTightness)
		}
		if g := res.Guard; g != nil {
			fmt.Printf("guard: concurrency=%d tree=%d conservation=%d checks, %d violations\n",
				g.ConcurrencyChecks, g.TreeChecks, g.ConservationChecks, g.ViolationCount())
		}
		if res.Fault != nil {
			fmt.Printf("outcome=%s delivery-ratio=%.3f lost=%d\n", res.Outcome, res.DeliveryRatio, res.Lost)
			fr := res.Fault
			fmt.Printf("faults: crashes=%d recoveries=%d repairs=%d link-losses=%d ack-losses=%d retries=%d drops=%d\n",
				fr.Crashes, fr.Recoveries, fr.Repairs, fr.LinkLosses, fr.AckLosses, fr.Retries, fr.Drops)
		}
		if !last {
			fmt.Println()
		}
		return nil
	}

	// Repeated runs (-runs > 1) share one workspace: the event arena, MAC
	// state and scratch buffers are wiped in place between runs instead of
	// reallocated, matching the sweep layer's per-worker engine reuse.
	ws := core.NewWorkspace()
	for i := 0; i < *runs; i++ {
		runSeed := *seed + uint64(i)
		nw, parents, runCfg, err := setup(runSeed)
		if err != nil {
			return err
		}
		runCfg.Seed = runSeed
		runCfg.Workspace = ws

		res, err := core.CollectContext(ctx, nw, parents, runCfg)
		if sink != nil {
			if ferr := sink.Flush(); ferr != nil && err == nil {
				err = ferr
			}
		}
		if reg != nil {
			if werr := writeMetrics(*metricsOut, reg); werr != nil && err == nil {
				err = werr
			}
		}
		if err := report(runSeed, res, err, i+1 == *runs); err != nil {
			return err
		}
	}
	return nil
}
