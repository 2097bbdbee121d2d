package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"unicode/utf8"
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
// produce byte-identical pages. Every line is appended to one buffer,
// sized up front for the whole page: no number or sample name becomes a
// string of its own.
func PrometheusText(s *Snapshot) []byte {
	b := make([]byte, 0, prometheusTextSize(s))
	for _, f := range s.Families {
		b = append(b, "# HELP "...)
		b = append(b, f.Name...)
		b = append(b, ' ')
		b = appendHelp(b, f.Help)
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

// The most bytes one float64 takes: the shortest 'g' spelling on the
// text page ("-1.2345678901234567e-300"), and the shortest 'f' or 'e'
// one in JSON ("-0.0000012345678901234567"), where the quoted non-finite
// spellings are shorter.
const (
	maxTextFloatLen = 24
	maxJSONFloatLen = 25
)

// prometheusTextSize bounds PrometheusText's output for s: exact but for
// sample values and sums, each counted at its longest.
func prometheusTextSize(s *Snapshot) int {
	n := 0
	var bounds boundsLen
	for _, f := range s.Families {
		n += len("# HELP  \n# TYPE  \n") + 2*len(f.Name) + helpLen(f.Help) + len(f.Type)
		for _, m := range f.Series {
			labels, bucketLabels := 0, 0 // {sig}, and a bucket's sig,
			if m.Sig != "" {
				labels, bucketLabels = len(m.Sig)+len("{}"), len(m.Sig)+len(",")
			}
			line := len(f.Name) + labels + len(" \n") // less suffix and value
			if f.Type != HistogramType {
				n += line + maxTextFloatLen
				continue
			}
			h := m.Histogram
			n += (len(h.Bounds)+1)*(len(f.Name)+len(`_bucket{le=""} `+"\n")+bucketLabels) + bounds.of(h.Bounds) + len("+Inf")
			for _, c := range h.Cumulative[:len(h.Bounds)] {
				n += countLen(c)
			}
			n += countLen(h.Count) + line + len("_sum") + maxTextFloatLen + line + len("_count") + countLen(h.Count)
		}
	}
	return n
}

// countLen is the length of a count on the text page: the shortest 'g'
// spelling of a whole number below 1e6 is its digits.
func countLen(c uint64) int {
	if c < 1e6 {
		return uintLen(c)
	}
	var buf [maxTextFloatLen]byte
	return len(appendFloat(buf[:0], float64(c)))
}

// boundsLen measures the spelled length of a histogram's bounds,
// remembering the bounds it measured last: the histograms of a registry
// all have DefaultBuckets' bounds, so a page spells them about once to
// size itself.
type boundsLen struct {
	json   bool // spelled by appendJSONFloat, not appendFloat
	bounds []float64
	n      int
}

func (m *boundsLen) of(bounds []float64) int {
	if !slices.Equal(bounds, m.bounds) {
		var buf [maxJSONFloatLen]byte
		m.bounds, m.n = bounds, 0
		for _, v := range bounds {
			if m.json {
				m.n += len(appendJSONFloat(buf[:0], v))
			} else {
				m.n += len(appendFloat(buf[:0], v))
			}
		}
	}
	return m.n
}

// appendHelp appends a HELP docstring escaped per text exposition format
// 0.0.4: backslash and newline are the only escaped characters.
func appendHelp(b []byte, s string) []byte {
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

// helpLen is the length of s escaped by appendHelp.
func helpLen(s string) int {
	return len(s) + strings.Count(s, `\`) + strings.Count(s, "\n")
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

// MetricsJSON renders a snapshot as an indented JSON document with schema
// MetricsJSONSchema, byte for byte what encoding/json's MarshalIndent
// (two-space indent) wrote for it: HTML-safe strings, label keys sorted,
// no families as null and a family without series as []. A non-finite
// value, which JSON has no number for, is written as the string the text
// page spells it with: "+Inf", "-Inf" or "NaN". Families and series come
// in the snapshot's order: a registry's is by name and by signature. The
// document is appended to one buffer sized up front, with no reflection
// and no maps.
func MetricsJSON(s *Snapshot) []byte {
	b := make([]byte, 0, metricsJSONSize(s))
	b = append(b, "{\n  \"schema\": "...)
	b = appendJSONString(b, MetricsJSONSchema)
	b = append(b, ",\n  \"time\": "...)
	b = appendJSONFloat(b, s.Time)
	b = append(b, ",\n  \"families\": "...)
	if len(s.Families) == 0 {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range s.Families {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendJSONFamily(b, &s.Families[i])
		}
		b = appendClose(b, ']', 1, len(s.Families))
	}
	return append(b, "\n}\n"...)
}

// indent is a newline and the deepest indentation a metrics document
// needs: a histogram's bound or count, seven levels of two spaces.
const indent = "\n              "

// appendIndent starts a new line at the given depth.
func appendIndent(b []byte, depth int) []byte {
	return append(b, indent[:jsonLine(depth)]...)
}

// appendClose closes an array or object at the given depth that held n
// elements: MarshalIndent keeps an empty one on the opening line.
func appendClose(b []byte, c byte, depth, n int) []byte {
	if n > 0 {
		b = appendIndent(b, depth)
	}
	return append(b, c)
}

// appendJSONKey starts a new line at depth with "key": .
func appendJSONKey(b []byte, depth int, key string) []byte {
	b = appendIndent(b, depth)
	b = append(b, '"')
	b = append(b, key...)
	return append(b, `": `...)
}

func appendJSONFamily(b []byte, f *FamilySnapshot) []byte {
	b = appendIndent(b, 2)
	b = append(b, '{')
	b = appendJSONKey(b, 3, "name")
	b = appendJSONString(b, f.Name)
	b = append(b, ',')
	b = appendJSONKey(b, 3, "help")
	b = appendJSONString(b, f.Help)
	b = append(b, ',')
	b = appendJSONKey(b, 3, "type")
	b = appendJSONString(b, string(f.Type))
	b = append(b, ',')
	b = appendJSONKey(b, 3, "series")
	b = append(b, '[')
	for i := range f.Series {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendJSONSeries(b, &f.Series[i])
	}
	b = appendClose(b, ']', 3, len(f.Series))
	return appendClose(b, '}', 2, 1)
}

func appendJSONSeries(b []byte, m *SeriesSnapshot) []byte {
	b = appendIndent(b, 4)
	b = append(b, '{')
	if len(m.Labels) > 0 {
		b = appendJSONKey(b, 5, "labels")
		b = appendJSONLabels(b, m.Labels)
		b = append(b, ',')
	}
	h := m.Histogram
	if h == nil {
		b = appendJSONKey(b, 5, "value")
		b = appendJSONFloat(b, m.Value)
		return appendClose(b, '}', 4, 1)
	}
	b = appendJSONKey(b, 5, "histogram")
	b = append(b, '{')
	b = appendJSONKey(b, 6, "bounds")
	b = appendJSONArray(b, h.Bounds, appendJSONFloat)
	b = append(b, ',')
	b = appendJSONKey(b, 6, "cumulative")
	b = appendJSONArray(b, h.Cumulative, appendUint)
	b = append(b, ',')
	b = appendJSONKey(b, 6, "count")
	b = appendUint(b, h.Count)
	for _, kv := range [...]struct {
		key string
		v   float64
	}{{"sum", h.Sum}, {"min", h.Min}, {"max", h.Max}, {"p50", h.P50}, {"p95", h.P95}, {"p99", h.P99}} {
		b = append(b, ',')
		b = appendJSONKey(b, 6, kv.key)
		b = appendJSONFloat(b, kv.v)
	}
	b = appendClose(b, '}', 5, 1)
	return appendClose(b, '}', 4, 1)
}

// appendJSONArray appends a histogram's array, one number a line: null
// for a nil slice, as encoding/json writes it.
func appendJSONArray[T any](b []byte, vs []T, spell func([]byte, T) []byte) []byte {
	if vs == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, v := range vs {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendIndent(b, 7)
		b = spell(b, v)
	}
	return appendClose(b, ']', 6, len(vs))
}

func appendUint(b []byte, v uint64) []byte { return strconv.AppendUint(b, v, 10) }

// appendJSONLabels appends a label set as the object encoding/json makes
// of a map: keys in byte order, and of a key given twice the value given
// last. A registry series' labels are sorted already; others are sorted
// on a copy.
func appendJSONLabels(b []byte, ls []Label) []byte {
	if !slices.IsSortedFunc(ls, compareLabelKeys) {
		ls = slices.Clone(ls)
		slices.SortStableFunc(ls, compareLabelKeys)
	}
	b = append(b, '{')
	n := 0
	for i, l := range ls {
		if i+1 < len(ls) && ls[i+1].Key == l.Key {
			continue // a later value for the same key wins
		}
		if n > 0 {
			b = append(b, ',')
		}
		n++
		b = appendIndent(b, 6)
		b = appendJSONString(b, l.Key)
		b = append(b, ": "...)
		b = appendJSONString(b, l.Value)
	}
	return appendClose(b, '}', 5, n)
}

func compareLabelKeys(a, b Label) int { return strings.Compare(a.Key, b.Key) }

// appendJSONFloat appends v as encoding/json spells a float64: the
// shortest 'f' form, or the 'e' form with a one-digit negative exponent
// kept short (1e-7, not 1e-07) below 1e-6 and from 1e21 on. A
// non-finite v is appended as a string in the text page's spelling.
func appendJSONFloat(b []byte, v float64) []byte {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		b = append(b, '"')
		b = appendFloat(b, v)
		return append(b, '"')
	}
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, v, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// jsonSafe marks the ASCII bytes encoding/json writes as they are in an
// HTML-safe string: printable, and none of " \\ < > &.
var jsonSafe = func() (safe [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		safe[c] = !strings.ContainsRune(`"\<>&`, c)
	}
	return safe
}()

// appendJSONString appends s quoted and escaped as encoding/json does
// with HTML escaping on: \b \f \n \r \t, \" and \\ by name, other
// control bytes and < > & as \u00XX, U+2028 and U+2029 as \u202X, and
// each byte of invalid UTF-8 as \ufffd.
func appendJSONString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if jsonSafe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// jsonStringLen is the length of s as appendJSONString writes it.
func jsonStringLen(s string) int {
	n := len(s) + 2
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			switch {
			case jsonSafe[c]:
			case c == '\\' || c == '"' || c == '\b' || c == '\f' || c == '\n' || c == '\r' || c == '\t':
				n++
			default:
				n += 5
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			n += 5
		case r == '\u2028' || r == '\u2029':
			n += 3
		}
		i += size
	}
	return n
}

// metricsJSONSize bounds MetricsJSON's output for s: exact but for the
// floats other than bucket bounds, each counted at its longest, and for
// label keys given twice.
func metricsJSONSize(s *Snapshot) int {
	bounds := boundsLen{json: true}
	// {, the three keys, and }
	n := len("{") + 3*jsonLine(1) + len(`"schema": ,"time": ,"families": null`) +
		jsonStringLen(MetricsJSONSchema) + maxJSONFloatLen + jsonLine(0) + len("}\n")
	if len(s.Families) > 0 {
		n += len("[]") - len("null") + jsonLine(1) + len(s.Families) - 1
	}
	for _, f := range s.Families {
		// {, the four keys, and }
		n += 2*jsonLine(2) + len("{}") + 4*jsonLine(3) + len(`"name": ,"help": ,"type": ,"series": []`) +
			jsonStringLen(f.Name) + jsonStringLen(f.Help) + jsonStringLen(string(f.Type))
		if len(f.Series) > 0 {
			n += jsonLine(3) + len(f.Series) - 1
		}
		for _, m := range f.Series {
			n += 2*jsonLine(4) + len("{}")
			if len(m.Labels) > 0 {
				n += 2*jsonLine(5) + len(`"labels": {},`) + len(m.Labels) - 1
				for _, l := range m.Labels {
					n += jsonLine(6) + jsonStringLen(l.Key) + len(": ") + jsonStringLen(l.Value)
				}
			}
			h := m.Histogram
			if h == nil {
				n += jsonLine(5) + len(`"value": `) + maxJSONFloatLen
				continue
			}
			// "histogram": {, its nine keys, and }
			n += 2*jsonLine(5) + len(`"histogram": {}`) + 9*jsonLine(6) +
				len(`"bounds": ,"cumulative": ,"count": ,"sum": ,"min": ,"max": ,"p50": ,"p95": ,"p99": `) +
				uintLen(h.Count) + 6*maxJSONFloatLen
			n += jsonArrayLen(len(h.Bounds), h.Bounds == nil) + bounds.of(h.Bounds)
			n += jsonArrayLen(len(h.Cumulative), h.Cumulative == nil)
			for _, c := range h.Cumulative {
				n += uintLen(c)
			}
		}
	}
	return n
}

// jsonLine is the newline and indentation that start a line at depth d.
func jsonLine(d int) int { return 1 + 2*d }

// jsonArrayLen is the bytes of a histogram's array of n numbers, less
// the numbers: null, [], or one number a line.
func jsonArrayLen(n int, null bool) int {
	switch {
	case null:
		return len("null")
	case n == 0:
		return len("[]")
	}
	return len("[]") + n*jsonLine(7) + n - 1 + jsonLine(6)
}

// uintLen is the number of decimal digits of v.
func uintLen(v uint64) int {
	n := 1
	for ; v >= 10; v /= 10 {
		n++
	}
	return n
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

// JSONFloat is a float read from a jade-metrics/v1 document: a JSON
// number, or one of the strings "+Inf", "-Inf" and "NaN" that MetricsJSON
// writes for the values JSON has no number for.
type JSONFloat float64

// UnmarshalJSON reads a number or one of the three non-finite spellings.
func (f *JSONFloat) UnmarshalJSON(data []byte) error {
	switch string(data) {
	case `"+Inf"`:
		*f = JSONFloat(math.Inf(1))
	case `"-Inf"`:
		*f = JSONFloat(math.Inf(-1))
	case `"NaN"`:
		*f = JSONFloat(math.NaN())
	default:
		return json.Unmarshal(data, (*float64)(f))
	}
	return nil
}

// metricsDoc is what ValidateMetricsJSON reads of a jade-metrics/v1
// document.
type metricsDoc struct {
	Schema   string    `json:"schema"`
	Time     JSONFloat `json:"time"`
	Families []struct {
		Name   string `json:"name"`
		Series []struct {
			Labels map[string]string `json:"labels"`
			Value  *JSONFloat        `json:"value"`
			Hist   *struct {
				Bounds     []JSONFloat `json:"bounds"`
				Cumulative []uint64    `json:"cumulative"`
				Count      uint64      `json:"count"`
				Sum        JSONFloat   `json:"sum"`
				Min        JSONFloat   `json:"min"`
				Max        JSONFloat   `json:"max"`
				P50        JSONFloat   `json:"p50"`
				P95        JSONFloat   `json:"p95"`
				P99        JSONFloat   `json:"p99"`
			} `json:"histogram"`
		} `json:"series"`
	} `json:"families"`
}

// ValidateMetricsJSON checks schema and basic shape of a JSON metrics
// snapshot, returning the family count.
func ValidateMetricsJSON(doc []byte) (int, error) {
	var snap metricsDoc
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
