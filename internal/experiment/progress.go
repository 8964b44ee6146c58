package experiment

import (
	"fmt"
	"time"

	"addcrn/internal/coolest"
	"addcrn/internal/core"
	"addcrn/internal/netmodel"
	"addcrn/internal/pcr"
	"addcrn/internal/rng"
	"addcrn/internal/viz"
)

// DeliveryCurves runs ADDC and the Coolest baseline once on a shared
// topology with progress recording and renders both delivery curves
// (packets delivered vs time) as one SVG — the single-run view behind the
// Fig. 6 averages.
func DeliveryCurves(params netmodel.Params, seed uint64) (string, error) {
	src := rng.New(seed)
	nw, err := netmodel.DeployConnected(params, src, netmodel.DeployAttempts)
	if err != nil {
		return "", err
	}
	tree, err := core.BuildTree(nw)
	if err != nil {
		return "", err
	}
	consts, err := pcr.Compute(params)
	if err != nil {
		return "", err
	}
	coolParents, err := coolest.BuildParents(nw, consts.Range, coolest.MetricAccumulated)
	if err != nil {
		return "", err
	}

	cfg := core.CollectConfig{
		Seed:           seed,
		RecordProgress: true,
		MaxVirtualTime: 2 * time.Hour,
	}
	addc, err := core.Collect(nw, tree.Parent, cfg)
	if err != nil {
		return "", err
	}
	coolCfg := cfg
	coolCfg.GenericCSMA = true
	cool, err := core.Collect(nw, coolParents, coolCfg)
	if err != nil {
		return "", err
	}

	plot := viz.Plot{
		Title:  fmt.Sprintf("Delivery progress (n=%d, N=%d, p_t=%.2f, seed=%d)", params.NumSU, params.NumPU, params.ActiveProb, seed),
		XLabel: "time (slots)",
		YLabel: "packets delivered",
		Series: []viz.Series{
			progressSeries("ADDC", addc.ProgressSlots),
			progressSeries("Coolest", cool.ProgressSlots),
		},
	}
	return plot.SVG()
}

func progressSeries(name string, progress []float64) viz.Series {
	s := viz.Series{Name: name}
	// Thin to at most 200 points so the SVG stays small.
	stride := len(progress)/200 + 1
	for i := 0; i < len(progress); i += stride {
		s.Xs = append(s.Xs, progress[i])
		s.Ys = append(s.Ys, float64(i+1))
	}
	if len(progress) > 0 {
		s.Xs = append(s.Xs, progress[len(progress)-1])
		s.Ys = append(s.Ys, float64(len(progress)))
	}
	return s
}
