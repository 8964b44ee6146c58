package experiment

import (
	"fmt"
	"strings"

	"addcrn/internal/viz"
)

// FormatTable renders a sweep result as the paper-style delay table: one
// row per x value, columns for both algorithms (mean ± 95% CI over the
// repetitions, in slots) and the Coolest/ADDC delay ratio. The ADDC-only
// extension figures get ADDC's delay and delivery ratio (mean ± 95% CI)
// and its mean repairs, drops and deafness losses per run instead.
func (r *SweepResult) FormatTable() string {
	if r.Sweep.addcOnly() {
		return r.formatExtensionTable()
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", r.Sweep.Title)
	fmt.Fprintf(&sb, "%-12s %-22s %-22s %-10s %-9s %-8s %s\n",
		r.Sweep.XLabel, "ADDC delay (slots)", "Coolest delay (slots)", "ratio", "tightness", "pu-busy", "reps")
	for _, p := range r.Points {
		ratio := p.DelayRatio()
		fmt.Fprintf(&sb, "%-12.4g %10.1f ±%-9.1f %10.1f ±%-9.1f %8.2fx %9.3f %8.3f %4d",
			p.X, p.ADDCDelay.Mean, p.ADDCDelay.CI95(),
			p.CoolestDelay.Mean, p.CoolestDelay.CI95(), ratio,
			p.ADDCTightness.Mean, p.ADDCPUBusy.Mean, p.ADDCDelay.N)
		if p.Failed > 0 {
			fmt.Fprintf(&sb, "  (%d failed: %s)", p.Failed, firstLine(p.LastError, 100))
		}
		sb.WriteByte('\n')
	}
	fmt.Fprintf(&sb, "mean Coolest/ADDC delay ratio: %.2fx  (wall clock %v)\n",
		r.MeanDelayRatio(), r.Elapsed.Round(1e7))
	return sb.String()
}

func (r *SweepResult) formatExtensionTable() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", r.Sweep.Title)
	fmt.Fprintf(&sb, "%-12s %-22s %-20s %-10s %-10s %-10s %s\n",
		r.Sweep.XLabel, "ADDC delay (slots)", "delivery ratio", "repairs", "drops", "deafness", "reps")
	for _, p := range r.Points {
		fmt.Fprintf(&sb, "%-12.4g %10.1f ±%-9.1f %8.3f ±%-9.3f %10.1f %10.1f %10.1f %4d",
			p.X, p.ADDCDelay.Mean, p.ADDCDelay.CI95(), p.ADDCDelivery.Mean, p.ADDCDelivery.CI95(),
			p.ADDCRepairs.Mean, p.ADDCDrops.Mean, p.ADDCDeafness.Mean, p.ADDCDelay.N)
		if p.Failed > 0 {
			fmt.Fprintf(&sb, "  (%d failed: %s)", p.Failed, firstLine(p.LastError, 100))
		}
		sb.WriteByte('\n')
	}
	fmt.Fprintf(&sb, "(wall clock %v)\n", r.Elapsed.Round(1e7))
	return sb.String()
}

// SVG renders the sweep as a two-series line chart (delay in slots, log y
// axis, one line per algorithm) — the visual counterpart of the paper's
// Fig. 6 panels.
func (r *SweepResult) SVG() (string, error) {
	addc := viz.Series{Name: "ADDC"}
	cool := viz.Series{Name: "Coolest"}
	for _, p := range r.Points {
		if p.ADDCDelay.N > 0 {
			addc.Xs = append(addc.Xs, p.X)
			addc.Ys = append(addc.Ys, p.ADDCDelay.Mean)
		}
		if p.CoolestDelay.N > 0 {
			cool.Xs = append(cool.Xs, p.X)
			cool.Ys = append(cool.Ys, p.CoolestDelay.Mean)
		}
	}
	plot := viz.Plot{
		Title:  r.Sweep.Title,
		XLabel: r.Sweep.XLabel,
		YLabel: "delay (slots, log)",
		Series: []viz.Series{addc, cool},
		LogY:   true,
	}
	if r.Sweep.addcOnly() {
		plot.Series = plot.Series[:1]
	}
	return plot.SVG()
}

// FormatCSV renders the sweep result as CSV with a header row, suitable for
// external plotting. The ADDC-only extension figures carry ADDC's columns
// and the extension columns instead of the Coolest comparison.
func (r *SweepResult) FormatCSV() string {
	var sb strings.Builder
	if r.Sweep.addcOnly() {
		sb.WriteString("x,addc_delay_mean,addc_delay_ci95,addc_delivery_mean,addc_delivery_ci95," +
			"addc_repairs_mean,addc_drops_mean,addc_deafness_mean,addc_aborts_mean," +
			"addc_tightness_mean,addc_pu_busy_mean,reps,failed,last_error\n")
		for _, p := range r.Points {
			fmt.Fprintf(&sb, "%g,%g,%g,%g,%g,%g,%g,%g,%g,%g,%g,%d,%d,%s\n",
				p.X, p.ADDCDelay.Mean, p.ADDCDelay.CI95(), p.ADDCDelivery.Mean, p.ADDCDelivery.CI95(),
				p.ADDCRepairs.Mean, p.ADDCDrops.Mean, p.ADDCDeafness.Mean, p.ADDCAborts.Mean,
				p.ADDCTightness.Mean, p.ADDCPUBusy.Mean, p.ADDCDelay.N, p.Failed, csvField(firstLine(p.LastError, 0)))
		}
		return sb.String()
	}
	sb.WriteString("x,addc_delay_mean,addc_delay_ci95,coolest_delay_mean,coolest_delay_ci95," +
		"addc_capacity_mean,coolest_capacity_mean,addc_aborts_mean,coolest_aborts_mean,ratio," +
		"addc_tightness_mean,addc_pu_busy_mean,addc_fairness_mean,reps,failed,last_error\n")
	for _, p := range r.Points {
		fmt.Fprintf(&sb, "%g,%g,%g,%g,%g,%g,%g,%g,%g,%g,%g,%g,%g,%d,%d,%s\n",
			p.X, p.ADDCDelay.Mean, p.ADDCDelay.CI95(),
			p.CoolestDelay.Mean, p.CoolestDelay.CI95(),
			p.ADDCCapacity.Mean, p.CoolestCapacity.Mean,
			p.ADDCAborts.Mean, p.CoolestAborts.Mean,
			p.DelayRatio(), p.ADDCTightness.Mean, p.ADDCPUBusy.Mean, p.ADDCFairness.Mean,
			p.ADDCDelay.N, p.Failed, csvField(firstLine(p.LastError, 0)))
	}
	return sb.String()
}

// firstLine truncates s to its first line, and to max runes when max > 0
// (panic messages carry multi-line stacks that would wreck tabular output).
func firstLine(s string, max int) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	if max > 0 && len(s) > max {
		s = s[:max] + "..."
	}
	return s
}

// csvField quotes a free-form string for a CSV cell when it needs it.
func csvField(s string) string {
	if !strings.ContainsAny(s, ",\"\n") {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}
