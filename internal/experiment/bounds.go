package experiment

import (
	"fmt"
	"strings"
	"time"

	"addcrn/internal/core"
	"addcrn/internal/netmodel"
	"addcrn/internal/rng"
	"addcrn/internal/spectrum"
	"addcrn/internal/stats"
	"addcrn/internal/theory"
)

// BoundsCheck compares the paper's analytical bounds (Theorem 1, Theorem 2)
// against measured values over several repetitions.
type BoundsCheck struct {
	// Base is the operating point; NumPU is forced to zero when
	// StandAlone is set (the regime of Theorem 1's proof).
	Base       netmodel.Params
	StandAlone bool
	Reps       int
	Seed       uint64
}

// BoundsResult reports measured vs bound values; all delays in slots.
type BoundsResult struct {
	// MaxServiceSlots is the measured max per-packet service time.
	MaxServiceSlots stats.Summary
	// Theorem1Slots is the bound with the realized tree degree.
	Theorem1Slots float64
	// DelaySlots is the measured total data collection delay.
	DelaySlots stats.Summary
	// Theorem2Slots is the total-delay bound.
	Theorem2Slots float64
	// Capacity is the measured collection capacity (bit/s).
	Capacity stats.Summary
	// CapacityLower and CapacityUpper are Theorem 2's capacity bounds.
	CapacityLower float64
	CapacityUpper float64
	// MaxTreeDegree is the realized Delta over the repetitions.
	MaxTreeDegree int
	// DeltaBound is Lemma 6's high-probability Delta bound.
	DeltaBound float64
}

// Run executes the check.
func (b *BoundsCheck) Run() (*BoundsResult, error) {
	params := b.Base
	if b.StandAlone {
		params.NumPU = 0
	}
	reps := b.Reps
	if reps <= 0 {
		reps = 10
	}
	var maxService, delays, capacities []float64
	maxDegree := 0
	for rep := 0; rep < reps; rep++ {
		res, err := core.Run(core.Options{
			Params:         params,
			Seed:           rng.ChildSeedN(b.Seed, "bounds", rep),
			PUModel:        spectrum.ModelExact,
			MaxVirtualTime: 120 * time.Minute,
		})
		if err != nil {
			return nil, fmt.Errorf("experiment: bounds rep %d: %w", rep, err)
		}
		maxService = append(maxService, res.MaxServiceSlots)
		delays = append(delays, res.DelaySlots)
		capacities = append(capacities, res.Capacity)
		if res.TreeStats.MaxDegree > maxDegree {
			maxDegree = res.TreeStats.MaxDegree
		}
	}
	bounds, err := theory.ComputeBoundsWithDegree(params, maxDegree)
	if err != nil {
		return nil, err
	}
	lemma6, err := theory.ComputeBounds(params)
	if err != nil {
		return nil, err
	}
	return &BoundsResult{
		MaxServiceSlots: stats.Summarize(maxService),
		Theorem1Slots:   bounds.Theorem1Slots,
		DelaySlots:      stats.Summarize(delays),
		Theorem2Slots:   bounds.Theorem2Slots,
		Capacity:        stats.Summarize(capacities),
		CapacityLower:   bounds.CapacityLower,
		CapacityUpper:   bounds.CapacityUpper,
		MaxTreeDegree:   maxDegree,
		DeltaBound:      lemma6.DeltaBound,
	}, nil
}

// Format renders the comparison.
func (r *BoundsResult) Format() string {
	var sb strings.Builder
	sb.WriteString("Analytical bounds vs measurement\n")
	fmt.Fprintf(&sb, "  realized max tree degree Delta=%d (Lemma 6 bound %.1f)\n",
		r.MaxTreeDegree, r.DeltaBound)
	fmt.Fprintf(&sb, "  Theorem 1: max per-packet service %.1f slots (mean of max) <= bound %.1f slots: %v\n",
		r.MaxServiceSlots.Mean, r.Theorem1Slots, r.MaxServiceSlots.Max <= r.Theorem1Slots)
	fmt.Fprintf(&sb, "  Theorem 2: total delay %.1f slots <= bound %.1f slots: %v\n",
		r.DelaySlots.Mean, r.Theorem2Slots, r.DelaySlots.Max <= r.Theorem2Slots)
	fmt.Fprintf(&sb, "  capacity: measured %.1f bit/s in [lower %.2f, upper %.0f]\n",
		r.Capacity.Mean, r.CapacityLower, r.CapacityUpper)
	return sb.String()
}
