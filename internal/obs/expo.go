package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// MetricsJSONSchema identifies the JSON metrics snapshot document.
const MetricsJSONSchema = "jade-metrics/v1"

// ComponentsJSONSchema identifies the /components document.
const ComponentsJSONSchema = "jade-components/v1"

// LoopsJSONSchema identifies the /loops document.
const LoopsJSONSchema = "jade-loops/v1"

// appendFloat appends a sample value: Go's shortest exact representation,
// with the exposition format's spellings of the infinities and NaN.
func appendFloat(b []byte, v float64) []byte {
	switch {
	case math.IsInf(v, 1):
		return append(b, "+Inf"...)
	case math.IsInf(v, -1):
		return append(b, "-Inf"...)
	case math.IsNaN(v):
		return append(b, "NaN"...)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// PrometheusText renders a snapshot in Prometheus text exposition format
// 0.0.4: HELP/TYPE headers, families sorted by name, series sorted by
// label signature, histograms as cumulative _bucket{le=...}/_sum/_count.
// Output is a pure function of the snapshot, so same-trajectory runs
// produce byte-identical pages. Every line is appended to one buffer:
// no number or sample name becomes a string of its own.
func PrometheusText(s *Snapshot) []byte {
	b := make([]byte, 0, 4096)
	for _, f := range s.Families {
		b = append(b, "# HELP "...)
		b = append(b, f.Name...)
		b = append(b, ' ')
		b = append(b, escapeHelp(f.Help)...)
		b = append(b, "\n# TYPE "...)
		b = append(b, f.Name...)
		b = append(b, ' ')
		b = append(b, f.Type...)
		b = append(b, '\n')
		for _, m := range f.Series {
			switch f.Type {
			case HistogramType:
				h := m.Histogram
				for i, bound := range h.Bounds {
					b = appendBucket(b, f.Name, m.Sig, bound, float64(h.Cumulative[i]))
				}
				b = appendBucket(b, f.Name, m.Sig, math.Inf(1), float64(h.Count))
				b = appendSample(b, f.Name, "_sum", m.Sig, h.Sum)
				b = appendSample(b, f.Name, "_count", m.Sig, float64(h.Count))
			default:
				b = appendSample(b, f.Name, "", m.Sig, m.Value)
			}
		}
	}
	return b
}

// escapeHelp escapes a HELP docstring per text exposition format 0.0.4:
// backslash and newline are the only escaped characters.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// appendSample appends one sample line of the series with label
// signature sig, its name the family's followed by suffix.
func appendSample(b []byte, name, suffix, sig string, v float64) []byte {
	b = append(b, name...)
	b = append(b, suffix...)
	if sig != "" {
		b = append(b, '{')
		b = append(b, sig...)
		b = append(b, '}')
	}
	b = append(b, ' ')
	b = appendFloat(b, v)
	return append(b, '\n')
}

// appendBucket appends one histogram bucket line, splicing the le label
// after the series' own labels.
func appendBucket(b []byte, name, sig string, le, v float64) []byte {
	b = append(b, name...)
	b = append(b, "_bucket{"...)
	if sig != "" {
		b = append(b, sig...)
		b = append(b, ',')
	}
	b = append(b, `le="`...)
	b = appendFloat(b, le)
	b = append(b, `"} `...)
	b = appendFloat(b, v)
	return append(b, '\n')
}

// jsonSeries mirrors SeriesSnapshot with wire-stable JSON tags.
type jsonSeries struct {
	Labels map[string]string `json:"labels,omitempty"`
	Value  *float64          `json:"value,omitempty"`
	Hist   *jsonHistogram    `json:"histogram,omitempty"`
}

type jsonHistogram struct {
	Bounds     []float64 `json:"bounds"`
	Cumulative []uint64  `json:"cumulative"`
	Count      uint64    `json:"count"`
	Sum        float64   `json:"sum"`
	Min        float64   `json:"min"`
	Max        float64   `json:"max"`
	P50        float64   `json:"p50"`
	P95        float64   `json:"p95"`
	P99        float64   `json:"p99"`
}

type jsonFamily struct {
	Name   string       `json:"name"`
	Help   string       `json:"help"`
	Type   MetricType   `json:"type"`
	Series []jsonSeries `json:"series"`
}

type jsonSnapshot struct {
	Schema   string       `json:"schema"`
	Time     float64      `json:"time"`
	Families []jsonFamily `json:"families"`
}

// MetricsJSON renders a snapshot as an indented JSON document with schema
// MetricsJSONSchema. encoding/json sorts map keys, and families/series
// are pre-sorted by Snapshot, so the document is deterministic.
func MetricsJSON(s *Snapshot) []byte {
	doc := jsonSnapshot{Schema: MetricsJSONSchema, Time: s.Time}
	for _, f := range s.Families {
		jf := jsonFamily{Name: f.Name, Help: f.Help, Type: f.Type, Series: []jsonSeries{}}
		for _, m := range f.Series {
			js := jsonSeries{}
			if len(m.Labels) > 0 {
				js.Labels = make(map[string]string, len(m.Labels))
				for _, l := range m.Labels {
					js.Labels[l.Key] = l.Value
				}
			}
			if m.Histogram != nil {
				js.Hist = &jsonHistogram{
					Bounds:     m.Histogram.Bounds,
					Cumulative: m.Histogram.Cumulative,
					Count:      m.Histogram.Count,
					Sum:        m.Histogram.Sum,
					Min:        m.Histogram.Min,
					Max:        m.Histogram.Max,
					P50:        m.Histogram.P50,
					P95:        m.Histogram.P95,
					P99:        m.Histogram.P99,
				}
			} else {
				v := m.Value
				js.Value = &v
			}
			jf.Series = append(jf.Series, js)
		}
		doc.Families = append(doc.Families, jf)
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil { // all value types are marshalable; unreachable
		panic(err)
	}
	return append(out, '\n')
}

// ValidatePrometheusText checks a page against the text exposition format
// 0.0.4: every family needs HELP then TYPE before its samples, sample
// lines must parse, and every histogram series must carry cumulative
// le-buckets, a +Inf bucket, and _sum/_count samples with +Inf agreeing
// with _count. It returns the number of sample lines.
func ValidatePrometheusText(page []byte) (int, error) {
	lines := strings.Split(string(page), "\n")
	samples := 0
	typed := map[string]string{}
	helped := map[string]bool{}
	// histogram bookkeeping, keyed by series signature (labels minus le)
	histSeries := map[string]bool{}
	lastBucket := map[string]float64{}
	counts := map[string]float64{}
	sums := map[string]bool{}
	infs := map[string]float64{}
	for ln, line := range lines {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			rest := strings.TrimPrefix(line, "# HELP ")
			name, _, ok := strings.Cut(rest, " ")
			if !ok || name == "" {
				return 0, fmt.Errorf("line %d: malformed HELP", ln+1)
			}
			helped[name] = true
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			rest := strings.TrimPrefix(line, "# TYPE ")
			name, typ, ok := strings.Cut(rest, " ")
			if !ok || name == "" {
				return 0, fmt.Errorf("line %d: malformed TYPE", ln+1)
			}
			switch typ {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				return 0, fmt.Errorf("line %d: unknown type %q", ln+1, typ)
			}
			if !helped[name] {
				return 0, fmt.Errorf("line %d: TYPE %s before HELP", ln+1, name)
			}
			typed[name] = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		// Sample line: name[{labels}] value
		idx := strings.LastIndexByte(line, ' ')
		if idx < 0 {
			return 0, fmt.Errorf("line %d: no value separator", ln+1)
		}
		nameAndLabels, valStr := line[:idx], line[idx+1:]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			return 0, fmt.Errorf("line %d: bad value %q: %v", ln+1, valStr, err)
		}
		name := nameAndLabels
		labels := ""
		if i := strings.IndexByte(nameAndLabels, '{'); i >= 0 {
			if !strings.HasSuffix(nameAndLabels, "}") {
				return 0, fmt.Errorf("line %d: unterminated label set", ln+1)
			}
			name = nameAndLabels[:i]
			labels = nameAndLabels[i+1 : len(nameAndLabels)-1]
		}
		base := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if strings.HasSuffix(name, suf) {
				trimmed := strings.TrimSuffix(name, suf)
				if typed[trimmed] == "histogram" || typed[trimmed] == "summary" {
					base = trimmed
				}
				break
			}
		}
		if typed[base] == "" {
			return 0, fmt.Errorf("line %d: sample for untyped family %q", ln+1, base)
		}
		if typed[base] == "histogram" {
			sig := stripLabel(labels, "le")
			key := base + "{" + sig + "}"
			histSeries[key] = true
			switch {
			case strings.HasSuffix(name, "_bucket"):
				if val+1e-9 < lastBucket[key] {
					return 0, fmt.Errorf("line %d: non-cumulative histogram bucket for %s", ln+1, key)
				}
				lastBucket[key] = val
				if strings.Contains(labels, `le="+Inf"`) {
					infs[key] = val
				}
			case strings.HasSuffix(name, "_count"):
				counts[key] = val
			case strings.HasSuffix(name, "_sum"):
				sums[key] = true
			}
		}
		samples++
	}
	if samples == 0 {
		return 0, fmt.Errorf("no samples in page")
	}
	for key := range histSeries {
		inf, ok := infs[key]
		if !ok {
			return 0, fmt.Errorf("histogram %s has no +Inf bucket", key)
		}
		c, ok := counts[key]
		if !ok {
			return 0, fmt.Errorf("histogram %s has no _count sample", key)
		}
		if !sums[key] {
			return 0, fmt.Errorf("histogram %s has no _sum sample", key)
		}
		if inf != c {
			return 0, fmt.Errorf("histogram %s: +Inf bucket %v != count %v", key, inf, c)
		}
	}
	return samples, nil
}

// stripLabel removes one key="..." pair from a comma-joined label string.
func stripLabel(labels, key string) string {
	if labels == "" {
		return ""
	}
	parts := strings.Split(labels, ",")
	out := parts[:0]
	for _, p := range parts {
		if !strings.HasPrefix(p, key+"=") {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return strings.Join(out, ",")
}

// ValidateMetricsJSON checks schema and basic shape of a JSON metrics
// snapshot, returning the family count.
func ValidateMetricsJSON(doc []byte) (int, error) {
	var snap jsonSnapshot
	if err := json.Unmarshal(doc, &snap); err != nil {
		return 0, fmt.Errorf("metrics json: %v", err)
	}
	if snap.Schema != MetricsJSONSchema {
		return 0, fmt.Errorf("metrics json: schema %q, want %q", snap.Schema, MetricsJSONSchema)
	}
	if len(snap.Families) == 0 {
		return 0, fmt.Errorf("metrics json: no families")
	}
	for _, f := range snap.Families {
		if f.Name == "" {
			return 0, fmt.Errorf("metrics json: family with empty name")
		}
		for _, s := range f.Series {
			if s.Value == nil && s.Hist == nil {
				return 0, fmt.Errorf("metrics json: family %s has series with neither value nor histogram", f.Name)
			}
			if s.Hist != nil && len(s.Hist.Cumulative) != len(s.Hist.Bounds)+1 {
				return 0, fmt.Errorf("metrics json: family %s histogram bucket/bound mismatch", f.Name)
			}
		}
	}
	return len(snap.Families), nil
}

// componentsDoc is the /components wire shape (fractal.View roots).
type componentsDoc struct {
	Schema string            `json:"schema"`
	Time   float64           `json:"time"`
	Roots  []json.RawMessage `json:"roots"`
}

// ValidateComponentsJSON checks the /components document: schema string,
// at least one root, every component object carrying name and state.
// It returns the number of component nodes seen.
func ValidateComponentsJSON(doc []byte) (int, error) {
	var d componentsDoc
	if err := json.Unmarshal(doc, &d); err != nil {
		return 0, fmt.Errorf("components json: %v", err)
	}
	if d.Schema != ComponentsJSONSchema {
		return 0, fmt.Errorf("components json: schema %q, want %q", d.Schema, ComponentsJSONSchema)
	}
	if len(d.Roots) == 0 {
		return 0, fmt.Errorf("components json: no roots")
	}
	total := 0
	var walk func(raw json.RawMessage) error
	walk = func(raw json.RawMessage) error {
		var node struct {
			Name     string            `json:"name"`
			State    string            `json:"state"`
			Children []json.RawMessage `json:"children"`
		}
		if err := json.Unmarshal(raw, &node); err != nil {
			return fmt.Errorf("components json: bad node: %v", err)
		}
		if node.Name == "" {
			return fmt.Errorf("components json: node with empty name")
		}
		if node.State == "" {
			return fmt.Errorf("components json: node %q with empty state", node.Name)
		}
		total++
		for _, c := range node.Children {
			if err := walk(c); err != nil {
				return err
			}
		}
		return nil
	}
	for _, r := range d.Roots {
		if err := walk(r); err != nil {
			return 0, err
		}
	}
	return total, nil
}
