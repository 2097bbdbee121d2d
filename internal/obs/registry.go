// Package obs is Jade's live introspection plane: a deterministic metrics
// registry (counters, gauges, log-bucketed latency histograms) clocked on
// the simulation's virtual time, dual Prometheus-text/JSON exposition, an
// SLO engine evaluating per-tier objectives continuously, and an admin
// HTTP endpoint serving published snapshots.
//
// Determinism contract: all metric *writes* happen on the simulation
// goroutine; counters and gauges are atomics and histograms take a
// per-histogram mutex, so a concurrent HTTP reader observes a consistent
// snapshot without ever perturbing the simulation schedule. Snapshot
// rendering orders families by name and series by label signature, so the
// same trajectory always produces byte-identical exposition.
//
// All instrument methods are nil-receiver safe (like the trace.Tracer
// pattern): un-instrumented unit tests pass nil and every call no-ops.
package obs

import (
	"cmp"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Label is one metric dimension. Labels are ordered by key in exposition.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// MetricType discriminates exposition families.
type MetricType string

// Metric types.
const (
	CounterType   MetricType = "counter"
	GaugeType     MetricType = "gauge"
	HistogramType MetricType = "histogram"
)

// Counter is a monotonically increasing uint64.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add increases the counter by n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// SetBool stores 1 or 0.
func (g *Gauge) SetBool(b bool) {
	if b {
		g.Set(1)
	} else {
		g.Set(0)
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// DefaultBuckets are log-spaced latency bounds in seconds: 1 ms doubling
// up to ~65 s. Log spacing keeps relative error constant.
func DefaultBuckets() []float64 {
	out := make([]float64, 17)
	b := 0.001
	for i := range out {
		out[i] = b
		b *= 2
	}
	return out
}

// Histogram observes a distribution: log-spaced cumulative-exposable
// buckets plus every raw sample, so quantiles
// are exact rather than bucket-interpolated.
//
// Each sample is kept in its bucket, except NaN: SearchFloat64s files it
// under +Inf, where exposition counts it, but sort.Float64s ranks it
// first, so it is kept in the first bucket. The buckets partition the
// samples by value, so every bucket ordered and concatenated in bucket
// order is the slice sort.Float64s over all samples would leave. A read
// finds the buckets holding the ranks it needs from the buckets' exact
// sizes and orders only those, so quantiles and exposition do not depend
// on when reads happened.
//
// Invariant, per bucket: samples[:ordered] is ascending in sort.Float64s
// order (NaN first) and samples[ordered:] is the tail observed since, in
// arrival order. Observe only appends; order sorts the tail alone and
// merges it into the prefix from the back. A read after k new samples in
// a bucket costs O(k log k) comparisons to sort them and O(log d) to place
// each one d samples from the prefix's end, plus moving the prefix above
// the tail's minimum; nothing in the buckets it does not read, and nothing
// when k = 0. No sample is dropped or approximated; bounding retention is
// a separate decision (ROADMAP).
type Histogram struct {
	mu      sync.Mutex
	bounds  []float64 // ascending upper bounds; +Inf implicit
	held    []bucket  // the samples, one bucket per bound, then +Inf
	nans    int       // NaN samples, held in the first bucket
	scratch []float64 // reused by order: the sorted tail while it is merged
	sum     float64
	min     float64
	max     float64
}

// bucket holds one bucket's raw samples: an ascending prefix and the
// tail observed since it was last ordered.
type bucket struct {
	samples []float64
	ordered int
}

// NewHistogram builds a histogram over the given ascending bucket bounds
// (DefaultBuckets when nil). Prefer Registry.Histogram for registered use.
func NewHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefaultBuckets()
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		held:   make([]bucket, len(bounds)+1),
		min:    math.Inf(1),
		max:    math.Inf(-1),
	}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	if v != v {
		i = 0 // NaN: where sort.Float64s ranks it
		h.nans++
	}
	h.held[i].samples = append(h.held[i].samples, v)
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.mu.Unlock()
}

// Count returns the number of samples (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return uint64(h.count())
}

// count is the number of samples held. The caller holds h.mu.
func (h *Histogram) count() int {
	n := 0
	for i := range h.held {
		n += len(h.held[i].samples)
	}
	return n
}

// Sum returns the sum of samples.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Quantile returns the exact p-quantile (0 <= p <= 1) over the raw
// samples, using the same linear-interpolation convention as
// metrics.Percentile. Empty histograms yield 0.
func (h *Histogram) Quantile(p float64) float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.quantile(p)
}

// quantile is metrics.Percentile over all samples in sort.Float64s order,
// reading only the ranks it interpolates between. The caller holds h.mu.
func (h *Histogram) quantile(p float64) float64 {
	n := h.count()
	switch {
	case n == 0:
		return 0
	case p <= 0:
		return h.at(0)
	case p >= 1:
		return h.at(n - 1)
	}
	pos := p * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return h.at(lo)
	}
	frac := pos - float64(lo)
	return h.at(lo)*(1-frac) + h.at(hi)*frac
}

// at returns the sample of rank r in sort.Float64s order over all
// samples, ordering only the bucket that holds it. The caller holds h.mu.
func (h *Histogram) at(r int) float64 {
	for i := range h.held {
		b := &h.held[i]
		if r < len(b.samples) {
			h.scratch = b.order(h.scratch)
			return b.samples[r]
		}
		r -= len(b.samples)
	}
	panic("obs: histogram rank out of range")
}

// order restores the bucket's ascending order after appends, using
// scratch as merge space, and returns scratch for reuse.
func (b *bucket) order(scratch []float64) []float64 {
	n := len(b.samples)
	if b.ordered == n {
		return scratch
	}
	tail := b.samples[b.ordered:]
	sort.Float64s(tail)
	// A tail that starts at or above the prefix maximum is already in place.
	if b.ordered > 0 && cmp.Less(tail[0], b.samples[b.ordered-1]) {
		scratch = append(scratch[:0], tail...)
		// Largest tail sample first: the prefix run above it (samples[p:i])
		// moves up past the j+1 tail samples still to be placed at or below
		// it. Once the tail is placed, the rest of the prefix is in place.
		i := b.ordered
		for j := len(scratch) - 1; j >= 0; j-- {
			v := scratch[j]
			p := insertionPoint(b.samples[:i], v)
			copy(b.samples[p+j+1:], b.samples[p:i])
			b.samples[p+j] = v
			i = p
		}
	}
	b.ordered = n
	return scratch
}

// insertionPoint returns the first index of the ascending s whose sample
// v sorts before (len(s) if none). It gallops down from the end, since
// each tail sample lands at or below the one placed before it, and then
// binary-searches the last step: O(log d) comparisons for a landing point
// d samples from the end.
func insertionPoint(s []float64, v float64) int {
	hi, step := len(s), 1
	for hi-step >= 0 && cmp.Less(v, s[hi-step]) {
		hi -= step
		step *= 2
	}
	lo := max(hi-step+1, 0)
	return lo + sort.Search(hi-lo, func(x int) bool { return cmp.Less(v, s[lo+x]) })
}

// HistogramSnapshot is an immutable view used by exposition.
type HistogramSnapshot struct {
	Bounds        []float64 // upper bounds; +Inf implicit as last bucket
	Cumulative    []uint64  // cumulative counts per bound, then +Inf
	Count         uint64
	Sum           float64
	Min, Max      float64
	P50, P95, P99 float64
}

func (h *Histogram) snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	// NaN is held in the first bucket but counted under +Inf.
	cum := make([]uint64, len(h.held))
	run := -h.nans
	for i := range h.held {
		run += len(h.held[i].samples)
		cum[i] = uint64(run)
	}
	cum[len(cum)-1] += uint64(h.nans)
	n := int(cum[len(cum)-1])
	mn, mx := h.min, h.max
	if n == 0 {
		mn, mx = 0, 0
	}
	return HistogramSnapshot{
		Bounds:     append([]float64(nil), h.bounds...),
		Cumulative: cum,
		Count:      uint64(n),
		Sum:        h.sum,
		Min:        mn,
		Max:        mx,
		P50:        h.quantile(0.50),
		P95:        h.quantile(0.95),
		P99:        h.quantile(0.99),
	}
}

// metric is one registered series: a family name, a label set and exactly
// one instrument.
type metric struct {
	name   string
	labels []Label // sorted by key
	sig    string  // rendered label signature for ordering
	ctr    *Counter
	gauge  *Gauge
	hist   *Histogram
}

// family groups same-named metrics for HELP/TYPE exposition.
type family struct {
	name    string
	help    string
	typ     MetricType
	metrics []*metric
}

// Registry holds the platform's metrics. Registration is get-or-create:
// asking twice for the same name+labels returns the same instrument, so
// restartable wrappers can re-attach without duplication.
type Registry struct {
	now func() float64

	mu       sync.Mutex
	families map[string]*family
	byKey    map[string]*metric
	order    []string // family registration order (exposition sorts anyway)
}

// NewRegistry builds a registry clocked by now (the sim engine's virtual
// clock). A nil now defaults to a constant zero clock.
func NewRegistry(now func() float64) *Registry {
	if now == nil {
		now = func() float64 { return 0 }
	}
	return &Registry{
		now:      now,
		families: make(map[string]*family),
		byKey:    make(map[string]*metric),
	}
}

// Now returns the registry's virtual time (0 on nil).
func (r *Registry) Now() float64 {
	if r == nil {
		return 0
	}
	return r.now()
}

func labelSig(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	out := make([]byte, 0, 32)
	for i, l := range labels {
		if i > 0 {
			out = append(out, ',')
		}
		out = append(out, l.Key...)
		out = append(out, '=', '"')
		out = append(out, escapeLabel(l.Value)...)
		out = append(out, '"')
	}
	return string(out)
}

func escapeLabel(v string) string {
	// Prometheus label escaping: backslash, double-quote, newline.
	needs := false
	for i := 0; i < len(v); i++ {
		if v[i] == '\\' || v[i] == '"' || v[i] == '\n' {
			needs = true
			break
		}
	}
	if !needs {
		return v
	}
	out := make([]byte, 0, len(v)+4)
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			out = append(out, '\\', '\\')
		case '"':
			out = append(out, '\\', '"')
		case '\n':
			out = append(out, '\\', 'n')
		default:
			out = append(out, v[i])
		}
	}
	return string(out)
}

// get returns the metric for name+labels, creating it with build when new.
// It panics when the same family name is reused with a different type —
// always a programming error.
func (r *Registry) get(name, help string, typ MetricType, labels []Label, build func() *metric) *metric {
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	sig := labelSig(ls)
	key := name + "{" + sig + "}"
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byKey[key]; ok {
		return m
	}
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ}
		r.families[name] = f
		r.order = append(r.order, name)
	} else if f.typ != typ {
		panic("obs: metric family " + name + " registered as " + string(f.typ) + " and " + string(typ))
	}
	m := build()
	m.name, m.labels, m.sig = name, ls, sig
	f.metrics = append(f.metrics, m)
	r.byKey[key] = m
	return m
}

// Counter returns (registering on first use) a counter. Nil registries
// return nil, which is safe to use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return r.get(name, help, CounterType, labels, func() *metric { return &metric{ctr: &Counter{}} }).ctr
}

// Gauge returns (registering on first use) a gauge.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return r.get(name, help, GaugeType, labels, func() *metric { return &metric{gauge: &Gauge{}} }).gauge
}

// Histogram returns (registering on first use) a histogram with
// DefaultBuckets.
func (r *Registry) Histogram(name, help string, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	return r.get(name, help, HistogramType, labels, func() *metric { return &metric{hist: NewHistogram(nil)} }).hist
}

// SeriesSnapshot is one series in a Snapshot.
type SeriesSnapshot struct {
	Labels    []Label
	Sig       string
	Value     float64 // counters (as float) and gauges
	Histogram *HistogramSnapshot
}

// FamilySnapshot is one family in a Snapshot.
type FamilySnapshot struct {
	Name   string
	Help   string
	Type   MetricType
	Series []SeriesSnapshot
}

// Snapshot is an immutable, deterministically ordered view of the
// registry: families by name, series by label signature.
type Snapshot struct {
	Time     float64
	Families []FamilySnapshot
}

// Snapshot captures the registry. Safe to call from any goroutine; the
// result shares nothing with live instruments.
func (r *Registry) Snapshot() *Snapshot {
	if r == nil {
		return &Snapshot{}
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, n := range names {
		fams = append(fams, r.families[n])
	}
	// Copy the per-family metric slices under the lock; instrument reads
	// happen outside it (they synchronize on their own atomics/mutexes).
	type famView struct {
		f  *family
		ms []*metric
	}
	views := make([]famView, len(fams))
	for i, f := range fams {
		views[i] = famView{f: f, ms: append([]*metric(nil), f.metrics...)}
	}
	now := r.now()
	r.mu.Unlock()

	snap := &Snapshot{Time: now}
	for _, v := range views {
		fs := FamilySnapshot{Name: v.f.name, Help: v.f.help, Type: v.f.typ}
		ms := append([]*metric(nil), v.ms...)
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
				ss.Histogram = &hs
			}
			fs.Series = append(fs.Series, ss)
		}
		snap.Families = append(snap.Families, fs)
	}
	return snap
}

// TierMetrics bundles the per-instance request instruments every tier
// server carries: requests/errors/drops plus a latency histogram. All
// methods are nil-safe, so un-instrumented servers cost two nil checks.
type TierMetrics struct {
	now      func() float64
	Requests *Counter
	Errors   *Counter
	Dropped  *Counter
	Latency  *Histogram
}

// NewTierMetrics registers the standard tier instruments labeled
// tier/instance. A nil registry yields nil (safe no-op instruments).
func NewTierMetrics(r *Registry, tier, instance string) *TierMetrics {
	if r == nil {
		return nil
	}
	ls := []Label{L("tier", tier), L("instance", instance)}
	return &TierMetrics{
		now:      r.now,
		Requests: r.Counter("jade_tier_requests_total", "Requests handled per tier instance.", ls...),
		Errors:   r.Counter("jade_tier_errors_total", "Requests failed per tier instance.", ls...),
		Dropped:  r.Counter("jade_tier_dropped_total", "Requests rejected before service per tier instance.", ls...),
		Latency:  r.Histogram("jade_tier_latency_seconds", "Per-request service latency per tier instance.", ls...),
	}
}

// Begin returns the virtual start time of a request (0 on nil).
func (m *TierMetrics) Begin() float64 {
	if m == nil {
		return 0
	}
	return m.now()
}

// End records a completed request that started at start.
func (m *TierMetrics) End(start float64, err error) {
	if m == nil {
		return
	}
	m.Requests.Inc()
	if err != nil {
		m.Errors.Inc()
	}
	m.Latency.Observe(m.now() - start)
}

// Drop records a request rejected before entering service.
func (m *TierMetrics) Drop() {
	if m == nil {
		return
	}
	m.Dropped.Inc()
}

// PoolMetrics instruments the cluster allocator.
type PoolMetrics struct {
	Allocs      *Counter
	Releases    *Counter
	AllocFailed *Counter
	Free        *Gauge
	Allocated   *Gauge
}

// NewPoolMetrics registers the allocator instruments. Nil registry yields
// nil (safe no-op).
func NewPoolMetrics(r *Registry) *PoolMetrics {
	if r == nil {
		return nil
	}
	return &PoolMetrics{
		Allocs:      r.Counter("jade_pool_allocations_total", "Nodes handed out by the cluster pool."),
		Releases:    r.Counter("jade_pool_releases_total", "Nodes returned to the cluster pool."),
		AllocFailed: r.Counter("jade_pool_allocation_failures_total", "Allocation requests that found no healthy free node."),
		Free:        r.Gauge("jade_pool_free_nodes", "Healthy free nodes in the pool."),
		Allocated:   r.Gauge("jade_pool_allocated_nodes", "Nodes currently allocated from the pool."),
	}
}

// SetSizes updates the pool occupancy gauges.
func (m *PoolMetrics) SetSizes(free, allocated int) {
	if m == nil {
		return
	}
	m.Free.Set(float64(free))
	m.Allocated.Set(float64(allocated))
}
