package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// referenceMetricsJSON is the renderer MetricsJSON replaced: the
// document built from maps and tagged structs and written by
// encoding/json's MarshalIndent. It is the oracle the appender must match
// byte for byte. encoding/json refuses non-finite floats, so refNum hands
// it those as the strings MetricsJSON writes; every finite float is still
// a float64 that encoding/json spells.
func referenceMetricsJSON(s *Snapshot) []byte {
	type jsonHistogram struct {
		Bounds     []any    `json:"bounds"`
		Cumulative []uint64 `json:"cumulative"`
		Count      uint64   `json:"count"`
		Sum        any      `json:"sum"`
		Min        any      `json:"min"`
		Max        any      `json:"max"`
		P50        any      `json:"p50"`
		P95        any      `json:"p95"`
		P99        any      `json:"p99"`
	}
	type jsonSeries struct {
		Labels map[string]string `json:"labels,omitempty"`
		Value  any               `json:"value,omitempty"`
		Hist   *jsonHistogram    `json:"histogram,omitempty"`
	}
	type jsonFamily struct {
		Name   string       `json:"name"`
		Help   string       `json:"help"`
		Type   MetricType   `json:"type"`
		Series []jsonSeries `json:"series"`
	}
	type jsonSnapshot struct {
		Schema   string       `json:"schema"`
		Time     any          `json:"time"`
		Families []jsonFamily `json:"families"`
	}
	doc := jsonSnapshot{Schema: MetricsJSONSchema, Time: refNum(s.Time)}
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
			if h := m.Histogram; h != nil {
				var bounds []any
				if h.Bounds != nil {
					bounds = make([]any, len(h.Bounds))
					for i, v := range h.Bounds {
						bounds[i] = refNum(v)
					}
				}
				js.Hist = &jsonHistogram{
					Bounds:     bounds,
					Cumulative: h.Cumulative,
					Count:      h.Count,
					Sum:        refNum(h.Sum),
					Min:        refNum(h.Min),
					Max:        refNum(h.Max),
					P50:        refNum(h.P50),
					P95:        refNum(h.P95),
					P99:        refNum(h.P99),
				}
			} else {
				js.Value = refNum(m.Value)
			}
			jf.Series = append(jf.Series, js)
		}
		doc.Families = append(doc.Families, jf)
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err)
	}
	return append(out, '\n')
}

func refNum(v float64) any {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return string(appendFloat(nil, v))
	}
	return v
}

// trickyStrings need escaping in JSON, or look as if they might.
var trickyStrings = []string{
	"", "plain", `quo"te`, `back\slash`, "<b>&amp;</b>", "\x00\x01\b\f\n\r\t\x1f\x7f",
	"line\u2028sep\u2029par", "bad\xffutf8\xc3", "\xe2\x80", "é日本🙂", "tab\tand space ",
}

// trickyFloats sit at the edges of encoding/json's float spelling.
var trickyFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1 + 0.2, 1e-6, -1e-6,
	math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1), -math.Nextafter(1e-6, 0),
	1e21, -1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)),
	1e-7, 1.5e-7, 1e-10, 1e-100, 1e100, 1e20, 123456789, 1 << 53, 1<<53 + 2,
	5e-324, -5e-324, 2.2250738585072009e-308, math.MaxFloat64, math.SmallestNonzeroFloat64,
	-1.2345678901234567e-308, -1.2345678901234567e-6, -1.2345678901234567e20,
	math.Inf(1), math.Inf(-1), math.NaN(),
}

// randomSnapshot builds a snapshot by hand, with what no registry
// produces: unsorted and repeated label keys, nil, empty and custom
// bounds, a family without series, and a histogram under a gauge family.
func randomSnapshot(rng *rand.Rand) *Snapshot {
	str := func() string { return trickyStrings[rng.Intn(len(trickyStrings))] }
	num := func() float64 {
		if rng.Intn(3) == 0 {
			return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
		}
		return trickyFloats[rng.Intn(len(trickyFloats))]
	}
	s := &Snapshot{Time: num()}
	switch rng.Intn(8) {
	case 0:
		return s // nil families
	case 1:
		s.Families = []FamilySnapshot{} // empty families
		return s
	}
	for range 1 + rng.Intn(4) {
		f := FamilySnapshot{Name: str(), Help: str(), Type: []MetricType{CounterType, GaugeType, HistogramType}[rng.Intn(3)]}
		for range rng.Intn(4) {
			m := SeriesSnapshot{Value: num()}
			for range rng.Intn(4) {
				m.Labels = append(m.Labels, Label{Key: str(), Value: str()})
			}
			if rng.Intn(2) == 0 {
				h := &HistogramSnapshot{Count: rng.Uint64() >> rng.Intn(64), Sum: num(), Min: num(), Max: num(), P50: num(), P95: num(), P99: num()}
				switch rng.Intn(4) {
				case 0: // nil bounds
				case 1:
					h.Bounds = []float64{}
				default:
					for range 1 + rng.Intn(5) {
						h.Bounds = append(h.Bounds, num())
					}
				}
				if rng.Intn(8) > 0 {
					h.Cumulative = make([]uint64, len(h.Bounds)+1)
					for i := range h.Cumulative {
						h.Cumulative[i] = rng.Uint64() >> rng.Intn(64)
					}
				}
				m.Histogram = h
			}
			f.Series = append(f.Series, m)
		}
		s.Families = append(s.Families, f)
	}
	return s
}

// randomRegistry registers counters, gauges and histograms with tricky
// names, labels and values, an empty histogram among them.
func randomRegistry(rng *rand.Rand) *Registry {
	str := func() string { return trickyStrings[rng.Intn(len(trickyStrings))] }
	now := trickyFloats[rng.Intn(len(trickyFloats))]
	r := NewRegistry(func() float64 { return now })
	for i := range 1 + rng.Intn(6) {
		var ls []Label
		for range rng.Intn(3) {
			ls = append(ls, L(str(), str()))
		}
		name := fmt.Sprintf("%s_%d", str(), i)
		switch rng.Intn(3) {
		case 0:
			r.Counter(name+"_total", str(), ls...).Add(rng.Uint64() >> rng.Intn(64))
		case 1:
			r.Gauge(name, str(), ls...).Set(trickyFloats[rng.Intn(len(trickyFloats))])
		default:
			h := r.Histogram(name+"_seconds", str(), ls...)
			for range rng.Intn(20) {
				h.Observe(trickyFloats[rng.Intn(len(trickyFloats))] * rng.Float64())
			}
		}
	}
	return r
}

// checkMetricsJSON compares MetricsJSON with the reference, checks the
// page was written into the one buffer it was sized for, and reads it
// back: the validator's reader must take every value, non-finite ones
// included, and return the same float64 bits (any NaN for NaN).
func checkMetricsJSON(t *testing.T, s *Snapshot) {
	t.Helper()
	got, want := MetricsJSON(s), referenceMetricsJSON(s)
	if !bytes.Equal(got, want) {
		t.Fatalf("MetricsJSON differs from the reference:\n%s\n--- reference ---\n%s", got, want)
	}
	if size := metricsJSONSize(s); cap(got) != size {
		t.Fatalf("MetricsJSON grew its buffer: %d bytes written, %d sized", len(got), size)
	}
	if textRenderable(s) {
		if page, size := PrometheusText(s), prometheusTextSize(s); cap(page) != size {
			t.Fatalf("PrometheusText grew its buffer: %d bytes written, %d sized", len(page), size)
		}
	}
	var doc metricsDoc
	if err := json.Unmarshal(got, &doc); err != nil {
		t.Fatalf("the page does not read back: %v\n%s", err, got)
	}
	sameBits := func(a float64, b JSONFloat) bool {
		return math.Float64bits(a) == math.Float64bits(float64(b)) || math.IsNaN(a) && math.IsNaN(float64(b))
	}
	if !sameBits(s.Time, doc.Time) || len(doc.Families) != len(s.Families) {
		t.Fatalf("time %v or %d families read back as %v, %d", s.Time, len(s.Families), doc.Time, len(doc.Families))
	}
	for i, f := range s.Families {
		for j, m := range f.Series {
			rm := doc.Families[i].Series[j]
			h := m.Histogram
			if h == nil {
				if rm.Value == nil || !sameBits(m.Value, *rm.Value) {
					t.Fatalf("value %v read back as %v", m.Value, rm.Value)
				}
				continue
			}
			rh := rm.Hist
			for k, v := range []float64{h.Sum, h.Min, h.Max, h.P50, h.P95, h.P99} {
				if r := []JSONFloat{rh.Sum, rh.Min, rh.Max, rh.P50, rh.P95, rh.P99}[k]; !sameBits(v, r) {
					t.Fatalf("histogram float %d: %v read back as %v", k, v, r)
				}
			}
			for k, v := range h.Bounds {
				if !sameBits(v, rh.Bounds[k]) {
					t.Fatalf("bound %v read back as %v", v, rh.Bounds[k])
				}
			}
			if rh.Count != h.Count || !reflect.DeepEqual(rh.Cumulative, h.Cumulative) && len(h.Cumulative) > 0 {
				t.Fatalf("counts %d %v read back as %d %v", h.Count, h.Cumulative, rh.Count, rh.Cumulative)
			}
		}
	}
}

// textRenderable reports whether PrometheusText can render s: it reads
// a histogram for every series of a histogram family and a cumulative
// count for every bound.
func textRenderable(s *Snapshot) bool {
	for _, f := range s.Families {
		for _, m := range f.Series {
			if f.Type == HistogramType && (m.Histogram == nil || len(m.Histogram.Cumulative) < len(m.Histogram.Bounds)) {
				return false
			}
		}
	}
	return true
}

func TestMetricsJSONMatchesReference(t *testing.T) {
	checkMetricsJSON(t, &Snapshot{})
	checkMetricsJSON(t, buildTestRegistry().Snapshot())
	checkMetricsJSON(t, NewRegistry(nil).Snapshot())
	for seed := int64(1); seed <= 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		checkMetricsJSON(t, randomRegistry(rng).Snapshot())
		checkMetricsJSON(t, randomSnapshot(rng))
	}
}

// TestMetricsJSONNonFinite: an infinite gauge and a histogram that saw
// NaN render on both pages, and the JSON page spells them as the text
// page does, in strings, which the validator accepts.
func TestMetricsJSONNonFinite(t *testing.T) {
	r := NewRegistry(nil)
	r.Gauge("jade_up", "Inf.", L("sign", "+")).Set(math.Inf(1))
	r.Gauge("jade_up", "Inf.", L("sign", "-")).Set(math.Inf(-1))
	h := r.Histogram("jade_latency_seconds", "Saw NaN.")
	h.Observe(0.5)
	h.Observe(math.NaN())
	s := r.Snapshot()
	doc := MetricsJSON(s)
	for _, want := range []string{`"value": "+Inf"`, `"value": "-Inf"`, `"sum": "NaN"`} {
		if !bytes.Contains(doc, []byte(want)) {
			t.Errorf("page lacks %s:\n%s", want, doc)
		}
	}
	if _, err := ValidateMetricsJSON(doc); err != nil {
		t.Fatal(err)
	}
	if _, err := ValidatePrometheusText(PrometheusText(s)); err != nil {
		t.Fatal(err)
	}
	checkMetricsJSON(t, s)
	var f JSONFloat
	if err := json.Unmarshal([]byte(`"Infinity"`), &f); err == nil {
		t.Fatal(`"Infinity" read as a float`)
	}
}

func FuzzMetricsJSON(f *testing.F) {
	f.Add("jade_requests_total", "Requests.", "tier", "app", 0.25, 3.0, uint64(7))
	f.Add(`q"\<>&`, "\x00\u2028\xff", "\u2029", "\xc3", 1e-7, 1e21, uint64(1)<<63)
	f.Add("", "", "", "", math.Nextafter(1e-6, 0), math.Nextafter(1e21, 0), uint64(0))
	f.Add("n", "h", "k", "v", math.Inf(1), math.NaN(), uint64(1))
	f.Add("n", "h", "k", "v", 5e-324, math.Copysign(0, -1), uint64(10))
	f.Fuzz(func(t *testing.T, name, help, key, value string, x, y float64, n uint64) {
		r := NewRegistry(func() float64 { return x })
		r.Counter(name+"_total", help, L(key, value), L(value, key)).Add(n)
		r.Gauge(name, help, L(key, value)).Set(y)
		h := r.Histogram(name+"_seconds", help)
		h.Observe(x)
		h.Observe(y)
		r.Histogram(name+"_seconds", help, L(key, value)) // empty
		checkMetricsJSON(t, r.Snapshot())
		checkMetricsJSON(t, &Snapshot{Time: y, Families: []FamilySnapshot{
			{Name: name, Help: help, Type: GaugeType, Series: []SeriesSnapshot{{Labels: []Label{{value, key}, {key, value}}, Value: x}}},
			{Name: help, Type: HistogramType, Series: []SeriesSnapshot{
				{Histogram: &HistogramSnapshot{Bounds: []float64{x, y}, Cumulative: []uint64{n, n, n}, Count: n, Sum: y, Min: x, Max: y}},
			}},
			{Name: value},
		}})
	})
}

// referenceSnapshot is the Registry.Snapshot that sorted the families
// and every family's series on each call and copied each histogram's
// bounds.
func referenceSnapshot(r *Registry) *Snapshot {
	r.mu.Lock()
	names := make([]string, 0, len(r.byName))
	for n := range r.byName {
		names = append(names, n)
	}
	sort.Strings(names)
	snap := &Snapshot{Time: r.now()}
	for _, n := range names {
		f := r.byName[n]
		fs := FamilySnapshot{Name: f.name, Help: f.help, Type: f.typ}
		ms := append([]*metric(nil), f.metrics...)
		sort.Slice(ms, func(i, j int) bool { return ms[i].sig < ms[j].sig })
		for _, m := range ms {
			ss := SeriesSnapshot{Labels: m.labels, Sig: m.sig}
			switch {
			case m.ctr != nil:
				ss.Value = float64(m.ctr.Value())
			case m.gauge != nil:
				ss.Value = m.gauge.Value()
			case m.hist != nil:
				hs := m.hist.snapshot()
				hs.Bounds = append([]float64(nil), hs.Bounds...)
				ss.Histogram = &hs
			}
			fs.Series = append(fs.Series, ss)
		}
		snap.Families = append(snap.Families, fs)
	}
	r.mu.Unlock()
	return snap
}

// TestSnapshotMatchesSortingSnapshot registers one set of series in many
// orders, snapshotting midway, and holds each snapshot to the reference
// that sorted on every call; every order must render the same pages.
func TestSnapshotMatchesSortingSnapshot(t *testing.T) {
	type reg struct {
		typ          MetricType
		name, k, v   string
		count, value float64
	}
	var regs []reg
	for i, name := range []string{"jade_b", "jade_a", "jade_c_total", "jade_a_seconds", "jade_ab", "jade_b_total"} {
		typ := []MetricType{GaugeType, GaugeType, CounterType, HistogramType, GaugeType, CounterType}[i]
		for j, v := range []string{"web", "app", "db", "", `x"y`, "app1", "app10", "app2"} {
			regs = append(regs, reg{typ, name, "tier", v, float64(i + j), float64(i*j) / 7})
		}
		regs = append(regs, reg{typ, name, "", "", 1, 2}) // no labels
	}
	register := func(r *Registry, g reg) {
		var ls []Label
		if g.k != "" {
			ls = append(ls, L(g.k, g.v), L("z", g.v+g.name))
		}
		switch g.typ {
		case CounterType:
			r.Counter(g.name, "help "+g.name, ls...).Add(uint64(g.count))
		case GaugeType:
			r.Gauge(g.name, "help "+g.name, ls...).Set(g.value)
		default:
			h := r.Histogram(g.name, "help "+g.name, ls...)
			for k := range int(g.count) {
				h.Observe(g.value * float64(k))
			}
		}
	}
	check := func(r *Registry, where string) *Snapshot {
		got, want := r.Snapshot(), referenceSnapshot(r)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: snapshot differs from the sorting snapshot", where)
		}
		// Slices cut from one slab end where their part does, so an
		// append to one cannot write over the next.
		for _, f := range got.Families {
			if cap(f.Series) != len(f.Series) {
				t.Fatalf("%s: %s's series run into the next family's", where, f.Name)
			}
			for _, m := range f.Series {
				if h := m.Histogram; h != nil && cap(h.Cumulative) != len(h.Cumulative) {
					t.Fatalf("%s: %s's counts run into the next histogram's", where, f.Name)
				}
			}
		}
		return got
	}
	var first []byte
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		order := append([]reg(nil), regs...)
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		r := NewRegistry(func() float64 { return 42 })
		half := rng.Intn(len(order))
		for _, g := range order[:half] {
			register(r, g)
		}
		check(r, fmt.Sprintf("seed %d, %d of %d registered", seed, half, len(order)))
		for _, g := range order[half:] {
			register(r, g)
		}
		page := MetricsJSON(check(r, fmt.Sprintf("seed %d, all registered", seed)))
		if first == nil {
			first = page
		} else if !bytes.Equal(page, first) {
			t.Fatalf("seed %d: registration order changed the page", seed)
		}
	}
	if !strings.Contains(string(first), `"name": "jade_a_seconds"`) {
		t.Fatalf("page lacks the histogram family:\n%s", first)
	}
}

// allocRegistry registers n series of each type, every histogram with
// samples it has already ordered.
func allocRegistry(n int) *Registry {
	r := NewRegistry(nil)
	for i := range n {
		inst := L("instance", fmt.Sprintf("app%d", i))
		r.Counter("jade_requests_total", "Requests.", inst).Add(uint64(i))
		r.Gauge("jade_queue", "Queue.", inst).Set(float64(i) / 3)
		h := r.Histogram("jade_latency_seconds", "Latency.", inst)
		for k := range 50 {
			h.Observe(float64(k*i) / 1000)
		}
	}
	r.Snapshot()
	return r
}

// TestSnapshotAndPagesAllocateConstant: a snapshot takes five objects
// (the Snapshot and four slabs) and each page one buffer, at n series as
// at 2n.
func TestSnapshotAndPagesAllocateConstant(t *testing.T) {
	for _, n := range []int{20, 40} {
		r := allocRegistry(n)
		s := r.Snapshot()
		for _, c := range []struct {
			what string
			fn   func()
			want float64
		}{
			{"Snapshot", func() { r.Snapshot() }, 5},
			{"PrometheusText", func() { PrometheusText(s) }, 1},
			{"MetricsJSON", func() { MetricsJSON(s) }, 1},
		} {
			if got := testing.AllocsPerRun(20, c.fn); got != c.want {
				t.Errorf("%s over %d series allocates %v objects, want %v", c.what, 3*n, got, c.want)
			}
		}
	}
}

// TestPageSizesExact: when every float a page's size counts at its
// longest is spelled that long, each page is exactly as long as its
// size, and written without growing its buffer.
func TestPageSizesExact(t *testing.T) {
	for _, c := range []struct {
		page  func(*Snapshot) []byte
		size  func(*Snapshot) int
		spell func([]byte, float64) []byte
		v     float64
		max   int
	}{
		{PrometheusText, prometheusTextSize, appendFloat, -1.2345678901234567e-300, maxTextFloatLen},
		{MetricsJSON, metricsJSONSize, appendJSONFloat, -1.2345678901234567e-6, maxJSONFloatLen},
	} {
		v := c.v
		if n := len(c.spell(nil, v)); n != c.max {
			t.Fatalf("%v takes %d bytes, want the longest, %d", v, n, c.max)
		}
		counts := make([]uint64, len(DefaultBuckets())+1)
		for i := range counts {
			counts[i] = uint64(i) * 555555 // past 1e6, the text page spells 5.55555e+06
		}
		wide := DefaultBuckets() // as many bounds, spelled longer
		for i := range wide {
			wide[i] *= 1.001
		}
		hist := func(bounds []float64, cum []uint64) *HistogramSnapshot {
			return &HistogramSnapshot{Bounds: bounds, Cumulative: cum, Count: 1 << 60, Sum: v, Min: v, Max: v, P50: v, P95: v, P99: v}
		}
		labels := []Label{{"instance", `x"<`}, {"tier", "\u2028\xff\n"}}
		sig := labelSig(labels)
		s := &Snapshot{Time: v, Families: []FamilySnapshot{
			{Name: "jade_up", Help: "Up.\nback\\slash", Type: GaugeType, Series: []SeriesSnapshot{
				{Value: v}, {Labels: labels, Sig: sig, Value: v},
			}},
			{Name: "jade_seconds", Help: "Latency.", Type: HistogramType, Series: []SeriesSnapshot{
				{Histogram: hist(DefaultBuckets(), counts)},
				{Labels: labels, Sig: sig, Histogram: hist(wide, counts)},
				{Labels: labels[:1], Sig: labelSig(labels[:1]), Histogram: hist([]float64{}, []uint64{7})},
				{Labels: labels[1:], Sig: labelSig(labels[1:]), Histogram: hist(nil, nil)},
			}},
			{Name: "jade_none", Type: CounterType},
		}}
		if page, size := c.page(s), c.size(s); len(page) != size || cap(page) != size {
			t.Errorf("a page of %d bytes was sized %d, its buffer %d:\n%s", len(page), size, cap(page), page)
		}
	}
}
