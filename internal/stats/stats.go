// Package stats provides the small statistical toolkit the experiment
// harness needs: summary statistics with confidence intervals, Jain's
// fairness index, and histogram building.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary describes a sample of float64 observations.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64 // sample standard deviation (n-1 denominator)
	Min    float64
	Max    float64
	Median float64
}

// Summarize computes a Summary of xs. It returns a zero Summary for an
// empty sample.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{
		N:   len(xs),
		Min: math.Inf(1),
		Max: math.Inf(-1),
	}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(s.N)
	if s.N > 1 {
		var ss float64
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.StdDev = math.Sqrt(ss / float64(s.N-1))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		s.Median = sorted[mid]
	} else {
		s.Median = (sorted[mid-1] + sorted[mid]) / 2
	}
	return s
}

// CI95 returns the half-width of the 95% confidence interval of the mean
// using the normal approximation (adequate at the 10-repetition level the
// paper uses; we report it as indicative, not inferential).
func (s Summary) CI95() float64 {
	if s.N < 2 {
		return 0
	}
	return 1.96 * s.StdDev / math.Sqrt(float64(s.N))
}

// String implements fmt.Stringer.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g ±%.2g sd=%.4g min=%.4g med=%.4g max=%.4g",
		s.N, s.Mean, s.CI95(), s.StdDev, s.Min, s.Median, s.Max)
}

// JainIndex computes Jain's fairness index of xs:
// (sum x)^2 / (n * sum x^2). It is 1 for perfectly equal allocations and
// 1/n in the most unfair case. Returns 0 for empty or all-zero samples.
func JainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// Ratio returns a/b, or NaN when b is zero; convenience for delay-ratio
// reporting (Coolest vs ADDC).
func Ratio(a, b float64) float64 {
	if b == 0 {
		return math.NaN()
	}
	return a / b
}
