// Prometheus text-format exposition (version 0.0.4) over this package's
// instruments: the service layer's atomic family (AtomicCounter,
// AtomicPeak, WallHistogram) and plain samples. The encoder is
// dependency-free and hand-rolled — the repo is stdlib-only — and emits
// strictly valid exposition text: HELP/TYPE comment pairs before each
// family, escaped label values, cumulative histogram buckets ending at
// le="+Inf", and `name_sum`/`name_count` companions. A scrape endpoint
// builds one PromWriter per request, writes its families, and checks Err.
package metrics

import (
	"io"
	"math"
	"strconv"
	"strings"
)

// PromContentType is the Content-Type a /metrics handler should serve.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// PromWriter streams Prometheus text-format families to an io.Writer.
// Errors are sticky: the first write failure is retained and every later
// call is a no-op, so call sites chain without per-line checks.
type PromWriter struct {
	w   io.Writer
	buf []byte
	err error
}

// NewPromWriter returns a writer exposing metrics to w.
func NewPromWriter(w io.Writer) *PromWriter {
	return &PromWriter{w: w, buf: make([]byte, 0, 256)}
}

// Err returns the first write error, if any.
func (p *PromWriter) Err() error { return p.err }

func (p *PromWriter) flushLine() {
	if p.err != nil {
		return
	}
	if _, err := p.w.Write(p.buf); err != nil {
		p.err = err
	}
	p.buf = p.buf[:0]
}

// sanitizeName maps an arbitrary metric or label name onto the Prometheus
// grammar [a-zA-Z_:][a-zA-Z0-9_:]* by replacing every invalid rune with
// '_' (prefixing one when the first rune is a digit).
func sanitizeName(name string) string {
	if name == "" {
		return "_"
	}
	valid := func(i int, r rune) bool {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
			return true
		case r >= '0' && r <= '9':
			return i > 0
		}
		return false
	}
	ok := true
	for i, r := range name {
		if !valid(i, r) {
			ok = false
			break
		}
	}
	if ok {
		return name
	}
	var sb strings.Builder
	for i, r := range name {
		if valid(i, r) {
			sb.WriteRune(r)
		} else if i == 0 && r >= '0' && r <= '9' {
			sb.WriteByte('_')
			sb.WriteRune(r)
		} else {
			sb.WriteByte('_')
		}
	}
	return sb.String()
}

// appendEscaped appends s with backslash, quote and newline escaped — the
// label-value escaping rules of the text format.
func appendEscaped(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '\\':
			b = append(b, '\\', '\\')
		case '"':
			b = append(b, '\\', '"')
		case '\n':
			b = append(b, '\\', 'n')
		default:
			b = append(b, c)
		}
	}
	return b
}

// appendHelpEscaped escapes HELP text (backslash and newline only; quotes
// are legal there).
func appendHelpEscaped(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '\\':
			b = append(b, '\\', '\\')
		case '\n':
			b = append(b, '\\', 'n')
		default:
			b = append(b, c)
		}
	}
	return b
}

// appendValue renders v per the text format: shortest-round-trip floats,
// with +Inf/-Inf/NaN spelled the way Prometheus parsers expect.
func appendValue(b []byte, v float64) []byte {
	switch {
	case math.IsInf(v, +1):
		return append(b, "+Inf"...)
	case math.IsInf(v, -1):
		return append(b, "-Inf"...)
	case math.IsNaN(v):
		return append(b, "NaN"...)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// Family writes the `# HELP` / `# TYPE` header pair for name. typ is one of
// "counter", "gauge", "histogram", "summary" or "untyped". Samples of the
// family must follow before the next Family call.
func (p *PromWriter) Family(name, typ, help string) {
	name = sanitizeName(name)
	p.buf = append(p.buf, "# HELP "...)
	p.buf = append(p.buf, name...)
	p.buf = append(p.buf, ' ')
	p.buf = appendHelpEscaped(p.buf, help)
	p.buf = append(p.buf, "\n# TYPE "...)
	p.buf = append(p.buf, name...)
	p.buf = append(p.buf, ' ')
	p.buf = append(p.buf, typ...)
	p.buf = append(p.buf, '\n')
	p.flushLine()
}

// Sample writes one sample line: name{labels} value. Labels may be nil.
func (p *PromWriter) Sample(name string, labels []Label, value float64) {
	p.buf = append(p.buf, sanitizeName(name)...)
	p.buf = p.appendLabels(p.buf, labels, "", 0)
	p.buf = append(p.buf, ' ')
	p.buf = appendValue(p.buf, value)
	p.buf = append(p.buf, '\n')
	p.flushLine()
}

// Int is Sample for integer-valued instruments (counters, gauges over
// counts) — exact for the full int64 range the atomics hold.
func (p *PromWriter) Int(name string, labels []Label, value int64) {
	p.buf = append(p.buf, sanitizeName(name)...)
	p.buf = p.appendLabels(p.buf, labels, "", 0)
	p.buf = append(p.buf, ' ')
	p.buf = strconv.AppendInt(p.buf, value, 10)
	p.buf = append(p.buf, '\n')
	p.flushLine()
}

// appendLabels renders {k="v",...}, optionally with a trailing le bucket
// label (leVal used when leName is non-empty). Nothing is rendered when
// there are no labels at all.
func (p *PromWriter) appendLabels(b []byte, labels []Label, leName string, leVal float64) []byte {
	if len(labels) == 0 && leName == "" {
		return b
	}
	b = append(b, '{')
	for i, l := range labels {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, sanitizeName(l.Key)...)
		b = append(b, '=', '"')
		b = appendEscaped(b, l.Value)
		b = append(b, '"')
	}
	if leName != "" {
		if len(labels) > 0 {
			b = append(b, ',')
		}
		b = append(b, leName...)
		b = append(b, '=', '"')
		b = appendValue(b, leVal)
		b = append(b, '"')
	}
	return append(b, '}')
}

// histogram writes the bucket/sum/count triplet for one histogram series
// from per-bucket counts (the final count is the overflow bucket). The
// caller has already written the family header.
func (p *PromWriter) histogram(name string, labels []Label, bounds []float64, counts []uint64, count uint64, sum float64) {
	name = sanitizeName(name)
	var cum uint64
	for i, bound := range bounds {
		if i < len(counts) {
			cum += counts[i]
		}
		p.buf = append(p.buf, name...)
		p.buf = append(p.buf, "_bucket"...)
		p.buf = p.appendLabels(p.buf, labels, "le", bound)
		p.buf = append(p.buf, ' ')
		p.buf = strconv.AppendUint(p.buf, cum, 10)
		p.buf = append(p.buf, '\n')
	}
	p.buf = append(p.buf, name...)
	p.buf = append(p.buf, "_bucket"...)
	p.buf = p.appendLabels(p.buf, labels, "le", math.Inf(1))
	p.buf = append(p.buf, ' ')
	p.buf = strconv.AppendUint(p.buf, count, 10)
	p.buf = append(p.buf, '\n')

	p.buf = append(p.buf, name...)
	p.buf = append(p.buf, "_sum"...)
	p.buf = p.appendLabels(p.buf, labels, "", 0)
	p.buf = append(p.buf, ' ')
	p.buf = appendValue(p.buf, sum)
	p.buf = append(p.buf, '\n')

	p.buf = append(p.buf, name...)
	p.buf = append(p.buf, "_count"...)
	p.buf = p.appendLabels(p.buf, labels, "", 0)
	p.buf = append(p.buf, ' ')
	p.buf = strconv.AppendUint(p.buf, count, 10)
	p.buf = append(p.buf, '\n')
	p.flushLine()
}

// WallHistSnapshot writes one WallHistogram snapshot as a complete
// histogram family. The +Inf bucket uses the snapshot's total count, so a
// scrape taken while writers are active stays internally consistent
// (cumulative buckets are each <= count by construction).
func (p *PromWriter) WallHistSnapshot(name, help string, labels []Label, s WallHistogramSnapshot) {
	// Clamp the cumulative finite buckets to the sampled count: each field
	// is read atomically but not the set as one unit.
	var finite uint64
	for i := 0; i < len(s.Bounds) && i < len(s.Counts); i++ {
		finite += s.Counts[i]
	}
	if finite > s.Count && len(s.Bounds) > 0 {
		// A concurrent Observe landed between the bucket and count reads;
		// fold the surplus out of the last finite bucket.
		over := finite - s.Count
		last := len(s.Bounds) - 1
		counts := append([]uint64(nil), s.Counts...)
		if counts[last] >= over {
			counts[last] -= over
		}
		s.Counts = counts
	}
	p.Family(name, "histogram", help)
	p.histogram(name, labels, s.Bounds, s.Counts, s.Count, s.Sum)
}
