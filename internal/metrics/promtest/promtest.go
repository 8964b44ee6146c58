// Package promtest is test support: a strict parser/validator for the
// Prometheus text exposition format, the verifying counterpart of the
// metrics package's PromWriter. The golden tests feed every scrape through
// ParsePromText so an encoder regression (bad escaping, missing TYPE,
// non-cumulative buckets) fails loudly instead of silently producing output
// a lenient real-world scraper might half-accept. Only _test.go files
// import it.
package promtest

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// PromSample is one parsed sample line.
type PromSample struct {
	// Name is the full sample name (for histograms: including the
	// _bucket/_sum/_count suffix).
	Name   string
	Labels map[string]string
	Value  float64
}

// PromFamily is one parsed metric family: its declared TYPE and samples in
// file order.
type PromFamily struct {
	Name    string
	Type    string
	Help    string
	Samples []PromSample
}

// Series returns the sample for the exact label set, or false.
func (f *PromFamily) Series(labels map[string]string) (PromSample, bool) {
	for _, s := range f.Samples {
		if len(s.Labels) != len(labels) {
			continue
		}
		match := true
		for k, v := range labels {
			if s.Labels[k] != v {
				match = false
				break
			}
		}
		if match {
			return s, true
		}
	}
	return PromSample{}, false
}

// Value returns the single unlabeled sample's value; it errors when the
// family has no such sample (histograms, labeled-only families).
func (f *PromFamily) Value() (float64, error) {
	s, ok := f.Series(nil)
	if !ok {
		return 0, fmt.Errorf("family %s has no unlabeled sample", f.Name)
	}
	return s.Value, nil
}

func validPromName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// baseFamily maps a histogram sample name onto its family name.
func baseFamily(name string, families map[string]*PromFamily) *PromFamily {
	if f := families[name]; f != nil {
		return f
	}
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(name, suffix); ok {
			if f := families[base]; f != nil && f.Type == "histogram" {
				return f
			}
		}
	}
	return nil
}

// parseLabels parses `{k="v",...}` starting after the '{'; returns the
// label map and the rest of the line after the closing '}'.
func parseLabels(s string, line int) (map[string]string, string, error) {
	labels := make(map[string]string)
	for {
		s = strings.TrimLeft(s, " ")
		if strings.HasPrefix(s, "}") {
			return labels, s[1:], nil
		}
		eq := strings.IndexByte(s, '=')
		if eq < 0 {
			return nil, "", fmt.Errorf("line %d: label without '='", line)
		}
		key := strings.TrimSpace(s[:eq])
		if !validPromName(key) {
			return nil, "", fmt.Errorf("line %d: invalid label name %q", line, key)
		}
		if _, dup := labels[key]; dup {
			return nil, "", fmt.Errorf("line %d: duplicate label %q", line, key)
		}
		s = s[eq+1:]
		if !strings.HasPrefix(s, `"`) {
			return nil, "", fmt.Errorf("line %d: label %q value not quoted", line, key)
		}
		s = s[1:]
		var val strings.Builder
		i := 0
		for {
			if i >= len(s) {
				return nil, "", fmt.Errorf("line %d: unterminated label value", line)
			}
			c := s[i]
			if c == '\\' {
				if i+1 >= len(s) {
					return nil, "", fmt.Errorf("line %d: dangling escape", line)
				}
				switch s[i+1] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return nil, "", fmt.Errorf("line %d: invalid escape \\%c", line, s[i+1])
				}
				i += 2
				continue
			}
			if c == '"' {
				i++
				break
			}
			val.WriteByte(c)
			i++
		}
		labels[key] = val.String()
		s = s[i:]
		if strings.HasPrefix(s, ",") {
			s = s[1:]
		}
	}
}

// unescapeHelp decodes HELP text, whose only escapes are \\ and \n.
func unescapeHelp(s string) (string, error) {
	if !strings.Contains(s, `\`) {
		return s, nil
	}
	var sb strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] != '\\' {
			sb.WriteByte(s[i])
			continue
		}
		i++
		if i == len(s) {
			return "", fmt.Errorf("dangling escape in HELP")
		}
		switch s[i] {
		case '\\':
			sb.WriteByte('\\')
		case 'n':
			sb.WriteByte('\n')
		default:
			return "", fmt.Errorf("invalid HELP escape \\%c", s[i])
		}
	}
	return sb.String(), nil
}

func promValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

func seriesKey(name string, labels map[string]string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	sb.WriteString(name)
	for _, k := range keys {
		sb.WriteByte(0)
		sb.WriteString(k)
		sb.WriteByte(0)
		sb.WriteString(labels[k])
	}
	return sb.String()
}

// ParsePromText strictly parses a text-format exposition. It rejects
// samples without a declared TYPE, repeated TYPE/HELP lines, malformed
// names, labels, HELP escapes or values, duplicate series, and histograms whose buckets
// are not cumulative, not le-ascending, missing le="+Inf", or whose +Inf
// bucket disagrees with _count.
func ParsePromText(data []byte) (map[string]*PromFamily, error) {
	families := make(map[string]*PromFamily)
	seen := make(map[string]bool)
	helped := make(map[string]bool)
	for n, raw := range strings.Split(string(data), "\n") {
		line := n + 1
		if raw == "" {
			continue
		}
		if strings.HasPrefix(raw, "#") {
			fields := strings.SplitN(raw, " ", 4)
			if len(fields) < 3 {
				return nil, fmt.Errorf("line %d: malformed comment %q", line, raw)
			}
			kind, name := fields[1], fields[2]
			switch kind {
			case "HELP":
				if !validPromName(name) {
					return nil, fmt.Errorf("line %d: invalid family name %q", line, name)
				}
				if helped[name] {
					return nil, fmt.Errorf("line %d: repeated HELP for %s", line, name)
				}
				helped[name] = true
				f := families[name]
				if f == nil {
					f = &PromFamily{Name: name}
					families[name] = f
				}
				if len(fields) == 4 {
					help, err := unescapeHelp(fields[3])
					if err != nil {
						return nil, fmt.Errorf("line %d: %v", line, err)
					}
					f.Help = help
				}
			case "TYPE":
				if !validPromName(name) {
					return nil, fmt.Errorf("line %d: invalid family name %q", line, name)
				}
				if len(fields) != 4 {
					return nil, fmt.Errorf("line %d: TYPE without a type", line)
				}
				typ := fields[3]
				switch typ {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return nil, fmt.Errorf("line %d: unknown type %q", line, typ)
				}
				f := families[name]
				if f == nil {
					f = &PromFamily{Name: name}
					families[name] = f
				}
				if f.Type != "" {
					return nil, fmt.Errorf("line %d: repeated TYPE for %s", line, name)
				}
				if len(f.Samples) > 0 {
					return nil, fmt.Errorf("line %d: TYPE for %s after its samples", line, name)
				}
				f.Type = typ
			default:
				// Other comments are legal and ignored.
			}
			continue
		}

		// Sample line: name[{labels}] value [timestamp].
		rest := raw
		nameEnd := strings.IndexAny(rest, "{ ")
		if nameEnd < 0 {
			return nil, fmt.Errorf("line %d: no value on sample line %q", line, raw)
		}
		name := rest[:nameEnd]
		if !validPromName(name) {
			return nil, fmt.Errorf("line %d: invalid sample name %q", line, name)
		}
		rest = rest[nameEnd:]
		var labels map[string]string
		if strings.HasPrefix(rest, "{") {
			var err error
			labels, rest, err = parseLabels(rest[1:], line)
			if err != nil {
				return nil, err
			}
		}
		fields := strings.Fields(rest)
		if len(fields) < 1 || len(fields) > 2 {
			return nil, fmt.Errorf("line %d: want 'value [timestamp]', got %q", line, rest)
		}
		value, err := promValue(fields[0])
		if err != nil {
			return nil, fmt.Errorf("line %d: bad value %q: %v", line, fields[0], err)
		}
		if len(fields) == 2 {
			if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
				return nil, fmt.Errorf("line %d: bad timestamp %q", line, fields[1])
			}
		}
		f := baseFamily(name, families)
		if f == nil || f.Type == "" {
			return nil, fmt.Errorf("line %d: sample %s has no preceding TYPE", line, name)
		}
		key := seriesKey(name, labels)
		if seen[key] {
			return nil, fmt.Errorf("line %d: duplicate series %s%v", line, name, labels)
		}
		seen[key] = true
		if f.Type == "counter" && value < 0 {
			return nil, fmt.Errorf("line %d: counter %s is negative (%v)", line, name, value)
		}
		f.Samples = append(f.Samples, PromSample{Name: name, Labels: labels, Value: value})
	}

	for name, f := range families {
		if f.Type == "" {
			return nil, fmt.Errorf("family %s has HELP but no TYPE", name)
		}
		if f.Type == "histogram" {
			if err := validateHistogram(f); err != nil {
				return nil, err
			}
		}
	}
	return families, nil
}

// validateHistogram checks one histogram family's bucket discipline per
// label set: le strictly ascending, counts cumulative, +Inf present and
// equal to _count, and _sum/_count present.
func validateHistogram(f *PromFamily) error {
	type series struct {
		les     []float64
		counts  []float64
		sum     *float64
		count   *float64
		withInf bool
	}
	groups := make(map[string]*series)
	groupKey := func(labels map[string]string) string {
		rest := make(map[string]string, len(labels))
		for k, v := range labels {
			if k != "le" {
				rest[k] = v
			}
		}
		return seriesKey("", rest)
	}
	for i := range f.Samples {
		s := &f.Samples[i]
		k := groupKey(s.Labels)
		g := groups[k]
		if g == nil {
			g = &series{}
			groups[k] = g
		}
		switch s.Name {
		case f.Name + "_bucket":
			le, ok := s.Labels["le"]
			if !ok {
				return fmt.Errorf("histogram %s: bucket without le label", f.Name)
			}
			v, err := promValue(le)
			if err != nil {
				return fmt.Errorf("histogram %s: bad le %q", f.Name, le)
			}
			if math.IsInf(v, 1) {
				g.withInf = true
			}
			g.les = append(g.les, v)
			g.counts = append(g.counts, s.Value)
		case f.Name + "_sum":
			v := s.Value
			g.sum = &v
		case f.Name + "_count":
			v := s.Value
			g.count = &v
		default:
			return fmt.Errorf("histogram %s: stray sample %s", f.Name, s.Name)
		}
	}
	for _, g := range groups {
		if !g.withInf {
			return fmt.Errorf("histogram %s: missing le=\"+Inf\" bucket", f.Name)
		}
		if g.sum == nil || g.count == nil {
			return fmt.Errorf("histogram %s: missing _sum or _count", f.Name)
		}
		for i := 1; i < len(g.les); i++ {
			if g.les[i] <= g.les[i-1] {
				return fmt.Errorf("histogram %s: le not ascending (%v after %v)", f.Name, g.les[i], g.les[i-1])
			}
			if g.counts[i] < g.counts[i-1] {
				return fmt.Errorf("histogram %s: buckets not cumulative (%v after %v)", f.Name, g.counts[i], g.counts[i-1])
			}
		}
		if n := len(g.counts); n > 0 && g.counts[n-1] != *g.count {
			return fmt.Errorf("histogram %s: +Inf bucket %v != count %v", f.Name, g.counts[n-1], *g.count)
		}
	}
	return nil
}
