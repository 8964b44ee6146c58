package addcrn

// The statistical re-baselining gate. A change that alters every random
// stream (a new generator, a new seed derivation) cannot keep results
// bit-identical, so instead it must keep them statistically
// indistinguishable: results/rebaseline/ holds per-point summaries of a
// 30-repetition Fig. 6a–6f run before and after such a change (written by
// scripts/rebaseline-fig6.sh), and this test compares them. The gate was
// fixed before any post-change data existed:
//
//   - for every sweep point, a two-sample z-test each on the mean ADDC
//     delay, the mean Coolest delay and the mean per-repetition
//     ln(Coolest/ADDC);
//   - all tests across all points form one Holm–Bonferroni family at
//     α = 0.05, and no test may reject;
//   - the Theorem 1/2 verdicts in results/thm1.txt and thm2.txt stay true.
//
// A per-point "new mean inside the old 95% interval" rule is deliberately
// not used: two samples of one distribution fail it about 17% of the time
// per point, so over a hundred checks some would fail by chance alone.

import (
	"encoding/csv"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

const (
	rebaselineBefore = "results/rebaseline/fig6_reps30_mathrand.csv"
	rebaselineAfter  = "results/rebaseline/fig6_reps30_pcg.csv"
	rebaselineAlpha  = 0.05
)

// pointSummary is one row of a rebaseline CSV: n delivered repetitions and
// the mean and sample standard deviation of each compared statistic.
type pointSummary struct {
	n        int
	mean, sd [3]float64 // ADDC delay, Coolest delay, ln(Coolest/ADDC)
}

var rebaselineStats = [3]string{"ADDC delay", "Coolest delay", "ln(Coolest/ADDC)"}

// readRebaseline loads a rebaseline CSV keyed by "fig x=value".
func readRebaseline(t *testing.T, path string) map[string]pointSummary {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	want := "fig,x,n,failed,addc_mean,addc_sd,coolest_mean,coolest_sd,logratio_mean,logratio_sd"
	if len(rows) < 2 || strings.Join(rows[0], ",") != want {
		t.Fatalf("%s: want header %q and at least one point", path, want)
	}
	out := make(map[string]pointSummary, len(rows)-1)
	for _, row := range rows[1:] {
		key := row[0] + " x=" + row[1]
		var p pointSummary
		if p.n, err = strconv.Atoi(row[2]); err != nil {
			t.Fatalf("%s %s: n: %v", path, key, err)
		}
		if p.n > 0 {
			for i := range p.mean {
				p.mean[i], err = strconv.ParseFloat(row[4+2*i], 64)
				if err == nil {
					p.sd[i], err = strconv.ParseFloat(row[5+2*i], 64)
				}
				if err != nil {
					t.Fatalf("%s %s: %v", path, key, err)
				}
			}
		}
		out[key] = p
	}
	return out
}

// zTestP returns the two-sided p-value of a two-sample z-test on means.
func zTestP(m1, s1 float64, n1 int, m2, s2 float64, n2 int) float64 {
	se := math.Sqrt(s1*s1/float64(n1) + s2*s2/float64(n2))
	if se == 0 {
		if m1 == m2 {
			return 1
		}
		return 0
	}
	return math.Erfc(math.Abs(m1-m2) / se / math.Sqrt2)
}

func TestRebaselineFig6(t *testing.T) {
	before := readRebaseline(t, rebaselineBefore)
	after := readRebaseline(t, rebaselineAfter)
	if len(before) != len(after) {
		t.Fatalf("%d points before, %d after", len(before), len(after))
	}
	type test struct {
		name string
		p    float64
	}
	var family []test
	for key, b := range before {
		a, ok := after[key]
		if !ok {
			t.Fatalf("point %s missing after the change", key)
		}
		if (b.n == 0) != (a.n == 0) {
			t.Fatalf("point %s: delivered repetitions %d before, %d after", key, b.n, a.n)
		}
		if b.n < 2 || a.n < 2 {
			continue
		}
		for i, stat := range rebaselineStats {
			family = append(family, test{
				name: key + " " + stat,
				p:    zTestP(b.mean[i], b.sd[i], b.n, a.mean[i], a.sd[i], a.n),
			})
		}
	}
	if len(family) == 0 {
		t.Fatal("no comparable points")
	}
	// Holm–Bonferroni: walk the p-values in ascending order against
	// α/(m-k); the first that clears its threshold stops the rejections.
	sort.Slice(family, func(i, j int) bool { return family[i].p < family[j].p })
	m := len(family)
	for k, tt := range family {
		threshold := rebaselineAlpha / float64(m-k)
		if tt.p > threshold {
			break
		}
		t.Errorf("%s: p = %.3g rejects at Holm threshold %.3g (%d tests)", tt.name, tt.p, threshold, m)
	}
	t.Logf("%d z-tests; smallest p = %.3g (%s), Holm's first threshold %.3g",
		m, family[0].p, family[0].name, rebaselineAlpha/float64(m))
}

func TestRebaselineTheoremVerdicts(t *testing.T) {
	for _, name := range []string{"thm1.txt", "thm2.txt"} {
		data, err := os.ReadFile(filepath.Join("results", name))
		if err != nil {
			t.Fatal(err)
		}
		verdicts := 0
		for _, line := range strings.Split(string(data), "\n") {
			line = strings.TrimSpace(line)
			if !strings.HasPrefix(line, "Theorem 1:") && !strings.HasPrefix(line, "Theorem 2:") {
				continue
			}
			verdicts++
			if !strings.HasSuffix(line, ": true") {
				t.Errorf("%s: verdict changed: %s", name, line)
			}
		}
		if verdicts != 2 {
			t.Errorf("%s: found %d Theorem 1/2 verdicts, want 2", name, verdicts)
		}
	}
}
