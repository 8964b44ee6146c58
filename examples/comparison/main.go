// Command comparison runs ADDC and the Coolest baseline on one shared
// topology (the paper's Section V comparison, single operating point) and
// prints both results side by side, for both baseline MAC profiles:
// the generic CSMA the paper's comparison implies, and the routing-only
// ablation where Coolest borrows ADDC's PCR MAC.
package main

import (
	"fmt"
	"log"
	"time"

	"addcrn/internal/coolest"
	"addcrn/internal/core"
	"addcrn/internal/pcr"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	opts := core.DefaultOptions()
	opts.Seed = 7

	nw, err := core.BuildNetwork(opts)
	if err != nil {
		return err
	}
	consts, err := pcr.Compute(nw.Params)
	if err != nil {
		return err
	}
	fmt.Printf("topology: n=%d SUs, N=%d PUs, p_t=%.2f, PCR=%.1fm\n\n",
		nw.Params.NumSU, nw.Params.NumPU, nw.Params.ActiveProb, consts.Range)

	cfg := core.CollectConfig{Seed: opts.Seed, MaxVirtualTime: 30 * time.Minute}

	tree, err := core.BuildTree(nw)
	if err != nil {
		return err
	}
	addc, err := core.Collect(nw, tree.Parent, cfg)
	if err != nil {
		return err
	}
	report("ADDC (CDS tree + PCR MAC)", addc)

	coolParents, err := coolest.BuildParents(nw, consts.Range, coolest.MetricAccumulated)
	if err != nil {
		return err
	}

	genericCfg := cfg
	genericCfg.GenericCSMA = true
	coolGeneric, err := core.Collect(nw, coolParents, genericCfg)
	if err != nil {
		return err
	}
	report("Coolest (temperature routing + generic CSMA)", coolGeneric)

	coolSame, err := core.Collect(nw, coolParents, cfg)
	if err != nil {
		return err
	}
	report("Coolest (routing-only ablation: ADDC's MAC)", coolSame)

	fmt.Printf("delay ratio Coolest(generic)/ADDC: %.2fx\n",
		coolGeneric.DelaySlots/addc.DelaySlots)
	fmt.Printf("delay ratio Coolest(same MAC)/ADDC: %.2fx\n",
		coolSame.DelaySlots/addc.DelaySlots)
	return nil
}

func report(name string, res *core.Result) {
	fmt.Printf("%s\n", name)
	fmt.Printf("  delay %.0f slots, capacity %.1f kbit/s\n", res.DelaySlots, res.Capacity/1e3)
	fmt.Printf("  transmissions=%d aborts=%d collisions=%d, mean hops %.2f\n\n",
		res.TotalTransmissions, res.TotalAborts, res.TotalCollisions, res.HopStats.Mean)
}
