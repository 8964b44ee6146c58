package promtest

import (
	"math"
	"os"
	"sort"
	"strings"
	"testing"

	"addcrn/internal/metrics"
)

// FuzzParsePromText: arbitrary bytes must never panic the parser, and an
// exposition it accepts, re-rendered through metrics.PromWriter, must parse
// back to equal families. The seed corpus starts from a real addc-serve
// scrape (testdata/scrape.txt, taken after one finished job, so its
// histograms carry observations).
func FuzzParsePromText(f *testing.F) {
	scrape, err := os.ReadFile("testdata/scrape.txt")
	if err != nil {
		f.Fatal(err)
	}
	if _, err := ParsePromText(scrape); err != nil {
		f.Fatalf("seed scrape rejected: %v", err)
	}
	f.Add(scrape)
	f.Add([]byte("# HELP g a \\\\ and a \\n\n# TYPE g gauge\ng{k=\"a\\\"b\\\\c\\nd\"} NaN 17\n"))
	f.Add([]byte("# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 3.5\nh_count 2\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		fams, err := ParsePromText(data)
		if err != nil {
			return
		}
		text := render(fams)
		back, err := ParsePromText([]byte(text))
		if err != nil {
			t.Fatalf("re-rendered exposition rejected: %v\n%s", err, text)
		}
		if msg := diffFamilies(fams, back); msg != "" {
			t.Fatalf("round trip changed the families: %s\n%s", msg, text)
		}
	})
}

// render writes fams through a PromWriter: families in name order, each
// family's samples in parse order with their labels sorted by key.
func render(fams map[string]*PromFamily) string {
	var sb strings.Builder
	p := metrics.NewPromWriter(&sb)
	names := make([]string, 0, len(fams))
	for name := range fams {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f := fams[name]
		p.Family(f.Name, f.Type, f.Help)
		for _, s := range f.Samples {
			labels := make([]metrics.Label, 0, len(s.Labels))
			for k, v := range s.Labels {
				labels = append(labels, metrics.L(k, v))
			}
			sort.Slice(labels, func(i, j int) bool { return labels[i].Key < labels[j].Key })
			p.Sample(s.Name, labels, s.Value)
		}
	}
	return sb.String()
}

// diffFamilies describes the first difference between a and b, or returns
// "" when they agree. Sample values compare equal when both are NaN.
func diffFamilies(a, b map[string]*PromFamily) string {
	if len(a) != len(b) {
		return "family count differs"
	}
	for name, fa := range a {
		fb := b[name]
		switch {
		case fb == nil:
			return "family " + name + " lost"
		case fa.Name != fb.Name, fa.Type != fb.Type, fa.Help != fb.Help:
			return "family " + name + " header differs"
		case len(fa.Samples) != len(fb.Samples):
			return "family " + name + " sample count differs"
		}
		for i, sa := range fa.Samples {
			sb := fb.Samples[i]
			sameValue := sa.Value == sb.Value || math.IsNaN(sa.Value) && math.IsNaN(sb.Value)
			if sa.Name != sb.Name || !sameValue || !sameLabels(sa.Labels, sb.Labels) {
				return "family " + name + " sample " + sa.Name + " differs"
			}
		}
	}
	return ""
}

func sameLabels(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}
