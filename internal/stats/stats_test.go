package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 {
		t.Errorf("empty summary: %+v", s)
	}
	if s.CI95() != 0 {
		t.Errorf("empty CI = %v", s.CI95())
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{5})
	if s.N != 1 || s.Mean != 5 || s.Min != 5 || s.Max != 5 || s.Median != 5 {
		t.Errorf("single summary: %+v", s)
	}
	if s.StdDev != 0 || s.CI95() != 0 {
		t.Errorf("single-sample spread: sd=%v ci=%v", s.StdDev, s.CI95())
	}
}

func TestSummarizeKnown(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if math.Abs(s.Mean-5) > 1e-12 {
		t.Errorf("mean = %v", s.Mean)
	}
	// Sample stddev with n-1: sqrt(32/7).
	if math.Abs(s.StdDev-math.Sqrt(32.0/7)) > 1e-12 {
		t.Errorf("stddev = %v", s.StdDev)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Errorf("min/max = %v/%v", s.Min, s.Max)
	}
	if math.Abs(s.Median-4.5) > 1e-12 {
		t.Errorf("median = %v", s.Median)
	}
}

func TestSummarizeOddMedian(t *testing.T) {
	s := Summarize([]float64{9, 1, 5})
	if s.Median != 5 {
		t.Errorf("median = %v", s.Median)
	}
}

func TestSummarizeDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Summarize(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("input reordered: %v", xs)
	}
}

func TestSummaryInvariants(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, math.Mod(x, 1e9))
			}
		}
		if len(xs) == 0 {
			return true
		}
		s := Summarize(xs)
		return s.Min <= s.Median && s.Median <= s.Max &&
			s.Min <= s.Mean && s.Mean <= s.Max && s.StdDev >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCI95ShrinksWithN(t *testing.T) {
	small := Summary{N: 4, StdDev: 2}
	large := Summary{N: 100, StdDev: 2}
	if small.CI95() <= large.CI95() {
		t.Errorf("CI did not shrink: %v vs %v", small.CI95(), large.CI95())
	}
}

func TestJainIndex(t *testing.T) {
	if got := JainIndex(nil); got != 0 {
		t.Errorf("empty Jain = %v", got)
	}
	if got := JainIndex([]float64{0, 0}); got != 0 {
		t.Errorf("all-zero Jain = %v", got)
	}
	if got := JainIndex([]float64{3, 3, 3}); math.Abs(got-1) > 1e-12 {
		t.Errorf("equal Jain = %v, want 1", got)
	}
	// One user hogs everything: 1/n.
	if got := JainIndex([]float64{10, 0, 0, 0}); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("monopoly Jain = %v, want 0.25", got)
	}
}

func TestJainIndexRange(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, math.Abs(math.Mod(x, 1e6)))
			}
		}
		if len(xs) == 0 {
			return true
		}
		j := JainIndex(xs)
		return j >= 0 && j <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHistogram(t *testing.T) {
	bins := Histogram([]float64{0.5, 1.5, 1.6, 2.5, -5, 99}, 0, 3, 3)
	// -5 clamps into bin 0; 99 clamps into bin 2.
	if bins[0] != 2 || bins[1] != 2 || bins[2] != 2 {
		t.Errorf("bins = %v", bins)
	}
	if Histogram(nil, 0, 1, 0) != nil {
		t.Error("zero bins should return nil")
	}
	if Histogram(nil, 1, 0, 3) != nil {
		t.Error("inverted range should return nil")
	}
}

func TestRatio(t *testing.T) {
	if got := Ratio(6, 3); got != 2 {
		t.Errorf("Ratio = %v", got)
	}
	if got := Ratio(1, 0); !math.IsNaN(got) {
		t.Errorf("Ratio by zero = %v, want NaN", got)
	}
}

func TestSummarizeTable(t *testing.T) {
	cases := []struct {
		name string
		xs   []float64
		want Summary
	}{
		{"nil", nil, Summary{}},
		{"empty", []float64{}, Summary{}},
		{"single", []float64{7}, Summary{N: 1, Mean: 7, Min: 7, Max: 7, Median: 7}},
		{"single-zero", []float64{0}, Summary{N: 1}},
		{"single-negative", []float64{-3}, Summary{N: 1, Mean: -3, Min: -3, Max: -3, Median: -3}},
		{"pair", []float64{1, 3}, Summary{N: 2, Mean: 2, StdDev: math.Sqrt2, Min: 1, Max: 3, Median: 2}},
		{"constant", []float64{4, 4, 4, 4}, Summary{N: 4, Mean: 4, Min: 4, Max: 4, Median: 4}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := Summarize(tc.xs)
			if got.N != tc.want.N || math.Abs(got.Mean-tc.want.Mean) > 1e-12 ||
				math.Abs(got.StdDev-tc.want.StdDev) > 1e-12 ||
				got.Min != tc.want.Min || got.Max != tc.want.Max ||
				math.Abs(got.Median-tc.want.Median) > 1e-12 {
				t.Errorf("Summarize(%v) = %+v, want %+v", tc.xs, got, tc.want)
			}
		})
	}
}

func TestJainIndexTable(t *testing.T) {
	cases := []struct {
		name string
		xs   []float64
		want float64
	}{
		{"nil", nil, 0},
		{"empty", []float64{}, 0},
		{"single", []float64{5}, 1},
		{"single-zero", []float64{0}, 0},
		{"two-equal", []float64{2, 2}, 1},
		{"two-skewed", []float64{1, 3}, 16.0 / 20},
		{"monopoly-of-5", []float64{7, 0, 0, 0, 0}, 0.2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := JainIndex(tc.xs); math.Abs(got-tc.want) > 1e-12 {
				t.Errorf("JainIndex(%v) = %v, want %v", tc.xs, got, tc.want)
			}
		})
	}
}

func TestHistogramTable(t *testing.T) {
	cases := []struct {
		name   string
		xs     []float64
		lo, hi float64
		nbins  int
		want   []int
	}{
		{"empty-input", nil, 0, 1, 2, []int{0, 0}},
		{"zero-bins", []float64{1}, 0, 1, 0, nil},
		{"negative-bins", []float64{1}, 0, 1, -3, nil},
		{"inverted-range", []float64{1}, 1, 0, 2, nil},
		{"degenerate-range", []float64{1}, 1, 1, 2, nil},
		{"single-value", []float64{0.4}, 0, 1, 2, []int{1, 0}},
		{"boundary-value", []float64{0.5}, 0, 1, 2, []int{0, 1}},
		{"boundary-clamps", []float64{-1, 2}, 0, 1, 2, []int{1, 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := Histogram(tc.xs, tc.lo, tc.hi, tc.nbins)
			if len(got) != len(tc.want) {
				t.Fatalf("Histogram = %v, want %v", got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("Histogram = %v, want %v", got, tc.want)
				}
			}
		})
	}
}

func TestSummaryString(t *testing.T) {
	if s := Summarize([]float64{1, 2, 3}).String(); s == "" {
		t.Error("empty summary string")
	}
}

// Histogram counts xs into nbins equal-width bins spanning [lo, hi]; values
// outside the range clamp into the boundary bins.
func Histogram(xs []float64, lo, hi float64, nbins int) []int {
	if nbins <= 0 || hi <= lo {
		return nil
	}
	bins := make([]int, nbins)
	width := (hi - lo) / float64(nbins)
	for _, x := range xs {
		i := int((x - lo) / width)
		if i < 0 {
			i = 0
		}
		if i >= nbins {
			i = nbins - 1
		}
		bins[i]++
	}
	return bins
}
