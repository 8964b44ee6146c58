package metrics

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"
	"time"

	"addcrn/internal/metrics/promtest"
)

// The encoder's output must survive its own strict parser — every family
// typed, every histogram cumulative — and round-trip the values exactly.
func TestPromWriterRoundTrip(t *testing.T) {
	var sb strings.Builder
	p := NewPromWriter(&sb)

	p.Family("jobs_total", "counter", "submitted jobs")
	p.Int("jobs_total", nil, 42)
	p.Family("queue_depth", "gauge", "queued jobs")
	p.Sample("queue_depth", []Label{L("pool", `a"b\c`), L("zone", "eu\nwest")}, 3)

	var h WallHistogram
	h.Observe(time.Millisecond)
	h.Observe(20 * time.Millisecond)
	h.Observe(2 * time.Hour) // overflow bucket
	p.WallHist("wait_seconds", "queue wait", nil, &h)

	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	fams, err := promtest.ParsePromText([]byte(sb.String()))
	if err != nil {
		t.Fatalf("encoder output failed strict parse: %v\noutput:\n%s", err, sb.String())
	}

	if v, err := fams["jobs_total"].Value(); err != nil || v != 42 {
		t.Fatalf("jobs_total = %v (%v), want 42", v, err)
	}
	gd, ok := fams["queue_depth"].Series(map[string]string{"pool": `a"b\c`, "zone": "eu\nwest"})
	if !ok || gd.Value != 3 {
		t.Fatalf("escaped label series lost: %+v", fams["queue_depth"])
	}
	wf := fams["wait_seconds"]
	if wf == nil || wf.Type != "histogram" {
		t.Fatalf("wait_seconds family = %+v, want histogram", wf)
	}
	// _count carries the total including the overflow observation.
	count, ok := findSample(wf, "wait_seconds_count")
	if !ok || count != 3 {
		t.Fatalf("wait_seconds_count = %v, want 3", count)
	}
	sum, ok := findSample(wf, "wait_seconds_sum")
	if !ok || math.Abs(sum-(0.001+0.020+7200)) > 1e-9 {
		t.Fatalf("wait_seconds_sum = %v", sum)
	}
}

func findSample(f *promtest.PromFamily, name string) (float64, bool) {
	for _, s := range f.Samples {
		if s.Name == name && s.Labels["le"] == "" {
			return s.Value, true
		}
	}
	return 0, false
}

// A registry snapshot — counters, gauges and virtual-time histograms with
// labels — exposes as valid text format under a prefix.
func TestPromWriterSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("mac_backoffs_total", L("node", "7")).Add(5)
	r.Counter("mac_backoffs_total", L("node", "9")).Add(2)
	r.Gauge("pu_busy_fraction").Set(0.25)
	hist := r.Histogram("delivery_latency_us", ExpBuckets(100, 10, 4))
	hist.Observe(50)
	hist.Observe(5000)

	var sb strings.Builder
	p := NewPromWriter(&sb)
	p.WriteSnapshot("addc_sim_", r.Snapshot())
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	fams, err := promtest.ParsePromText([]byte(sb.String()))
	if err != nil {
		t.Fatalf("snapshot exposition failed strict parse: %v\noutput:\n%s", err, sb.String())
	}
	bf := fams["addc_sim_mac_backoffs_total"]
	if bf == nil || bf.Type != "counter" || len(bf.Samples) != 2 {
		t.Fatalf("backoffs family = %+v", bf)
	}
	if s, ok := bf.Series(map[string]string{"node": "7"}); !ok || s.Value != 5 {
		t.Fatalf("node=7 sample = %+v, %v", s, ok)
	}
	hf := fams["addc_sim_delivery_latency_us"]
	if hf == nil || hf.Type != "histogram" {
		t.Fatalf("latency family = %+v", hf)
	}
}

func TestPromWriterSanitizesNames(t *testing.T) {
	var sb strings.Builder
	p := NewPromWriter(&sb)
	p.Family("9bad name-with.dots", "gauge", "sanitized")
	p.Sample("9bad name-with.dots", []Label{L("bad key", "v")}, 1)
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	if _, err := promtest.ParsePromText([]byte(sb.String())); err != nil {
		t.Fatalf("sanitized output still invalid: %v\n%s", err, sb.String())
	}
}

// The strict parser is itself strict: the failure modes the golden tests
// rely on are actually rejected.
func TestParsePromTextRejects(t *testing.T) {
	cases := map[string]string{
		"untyped sample":         "foo 1\n",
		"duplicate series":       "# TYPE foo counter\nfoo 1\nfoo 2\n",
		"negative counter":       "# TYPE foo counter\nfoo -1\n",
		"bad value":              "# TYPE foo gauge\nfoo x\n",
		"bad HELP escape":        "# HELP foo a\\x\n# TYPE foo gauge\nfoo 1\n",
		"repeated TYPE":          "# TYPE foo gauge\n# TYPE foo gauge\nfoo 1\n",
		"repeated empty HELP":    "# HELP foo \n# HELP foo x\n# TYPE foo gauge\nfoo 1\n",
		"non-cumulative buckets": "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n",
		"missing inf bucket":     "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_sum 1\nh_count 5\n",
		"inf bucket != count":    "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 6\n",
	}
	for name, body := range cases {
		if _, err := promtest.ParsePromText([]byte(body)); err == nil {
			t.Errorf("%s: accepted invalid exposition:\n%s", name, body)
		}
	}
}

// Sticky errors: a failing writer poisons the PromWriter instead of
// producing torn output.
func TestPromWriterStickyError(t *testing.T) {
	p := NewPromWriter(failWriter{})
	p.Family("foo", "counter", "x")
	p.Int("foo", nil, 1)
	if p.Err() == nil {
		t.Fatal("write error not retained")
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("boom") }

// WallHist writes one WallHistogram as a complete histogram family.
func (p *PromWriter) WallHist(name, help string, labels []Label, h *WallHistogram) {
	p.WallHistSnapshot(name, help, labels, h.Snapshot())
}

// WriteSnapshot exposes a registry Snapshot, prefixing every metric name
// (pass e.g. "addc_sim_"). Families sharing a name across label sets emit
// one header and one sample per label set; names are emitted in sorted
// order so output is deterministic for deterministic snapshots.
func (p *PromWriter) WriteSnapshot(prefix string, s Snapshot) {
	type sample struct {
		labels []Label
		value  float64
		hist   *HistogramSnapshot
	}
	families := make(map[string]*struct {
		typ     string
		samples []sample
	})
	addFamily := func(name, typ string, smp sample) {
		f := families[name]
		if f == nil {
			f = &struct {
				typ     string
				samples []sample
			}{typ: typ}
			families[name] = f
		}
		f.samples = append(f.samples, smp)
	}
	toLabels := func(m map[string]string) []Label {
		if len(m) == 0 {
			return nil
		}
		out := make([]Label, 0, len(m))
		for k, v := range m {
			out = append(out, Label{Key: k, Value: v})
		}
		sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
		return out
	}
	for _, c := range s.Counters {
		addFamily(c.Name, "counter", sample{labels: toLabels(c.Labels), value: float64(c.Value)})
	}
	for _, g := range s.Gauges {
		addFamily(g.Name, "gauge", sample{labels: toLabels(g.Labels), value: g.Value})
	}
	for i := range s.Histograms {
		h := &s.Histograms[i]
		addFamily(h.Name, "histogram", sample{labels: toLabels(h.Labels), hist: h})
	}

	names := make([]string, 0, len(families))
	for name := range families {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f := families[name]
		full := prefix + name
		p.Family(full, f.typ, fmt.Sprintf("simulation metric %s", name))
		for _, smp := range f.samples {
			if smp.hist != nil {
				p.histogram(full, smp.labels, smp.hist.Bounds, smp.hist.Counts, smp.hist.Count, smp.hist.Sum)
			} else {
				p.Sample(full, smp.labels, smp.value)
			}
		}
	}
}
