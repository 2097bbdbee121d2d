// Package trace is a deterministic, zero-dependency telemetry bus for
// the simulated Jade platform. Every event and span is timestamped from
// the virtual clock, IDs are assigned in execution order, and no wall
// clock or map iteration leaks into the record — so two runs with the
// same seed produce byte-identical exports.
//
// The bus records two shapes:
//
//   - Events: instantaneous structured records with typed fields
//     (loop samples, arbiter verdicts, membership changes, log lines).
//     Events live in a bounded ring buffer; the oldest are evicted.
//   - Spans: intervals with a parent ID forming causal trees — one
//     emulated request L4 → PLB → Tomcat → C-JDBC → MySQL, or one
//     reconfiguration sensor-sample → decision → actuation-complete.
//     Spans are bounded by refusing new spans once full (management
//     spans are low-rate; request spans are sampled by the caller).
//
// All Tracer methods are safe on a nil receiver, so instrumented code
// never needs a guard.
package trace

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// ID identifies an event or span. The zero ID means "none"; IDs are
// unique across both shapes and strictly increase in execution order.
type ID uint64

// Field is one typed key/value attribute. Fields are an ordered slice
// (not a map) so emission order is deterministic. A field holds its value
// as built — a string, a float, an integer or an ID — and formats it only
// when read (Value, the exporters), so recording a span formats nothing.
type Field struct {
	Key  string
	str  string
	bits uint64 // the float's bits, the integer or the ID, by kind
	kind fieldKind
}

type fieldKind uint8

const (
	stringField fieldKind = iota
	floatField
	intField
	idField
)

// Value returns the field's text: the string as given, a float in its
// shortest exact representation, an integer or ID in decimal.
func (f Field) Value() string {
	switch f.kind {
	case floatField:
		// FormatFloat's text, formatted on the stack: only the string
		// is allocated.
		var buf [32]byte
		return string(strconv.AppendFloat(buf[:0], math.Float64frombits(f.bits), 'g', -1, 64))
	case intField:
		return strconv.FormatInt(int64(f.bits), 10)
	case idField:
		return strconv.FormatUint(f.bits, 10)
	}
	return f.str
}

// Float returns the field's numeric value. Numeric fields answer without
// formatting or parsing; a string field parses its text.
func (f Field) Float() (float64, bool) {
	switch f.kind {
	case floatField:
		return math.Float64frombits(f.bits), true
	case intField:
		return float64(int64(f.bits)), true
	case idField:
		return float64(f.bits), true
	}
	v, err := strconv.ParseFloat(f.str, 64)
	return v, err == nil
}

// F builds a string field.
func F(key, value string) Field { return Field{Key: key, str: value} }

// Ff builds a float field, exported in the shortest exact representation
// so exports are byte-stable.
func Ff(key string, v float64) Field {
	return Field{Key: key, bits: math.Float64bits(v), kind: floatField}
}

// Fi builds an integer field.
func Fi(key string, v int) Field { return Field{Key: key, bits: uint64(v), kind: intField} }

// Fid builds a field referencing another event or span ID (a causal
// link that is not a parent relationship, e.g. the sensor sample a
// decision was based on).
func Fid(key string, id ID) Field { return Field{Key: key, bits: uint64(id), kind: idField} }

// Outcome builds the conventional span-closing field: "ok" on success,
// the error text otherwise.
func Outcome(err error) Field {
	if err != nil {
		return F("outcome", err.Error())
	}
	return F("outcome", "ok")
}

// Event is one instantaneous record.
type Event struct {
	ID     ID
	Span   ID // enclosing span, or 0
	T      float64
	Kind   string
	Name   string
	Fields []Field
}

// Span is one interval in a causal tree.
type Span struct {
	ID     ID
	Parent ID // parent span, or 0 for a root
	Kind   string
	Name   string
	Start  float64
	End    float64
	Open   bool
	Fields []Field
}

// DefaultEventCapacity bounds the event ring buffer.
const DefaultEventCapacity = 65536

// DefaultSpanCapacity bounds the span store.
const DefaultSpanCapacity = 65536

// endFields is the room Begin reserves after a span's own fields for the
// ones End appends: a hop closes with busy, svc, outcome and at most one
// more, so a hop's span is recorded without growing its fields.
const endFields = 4

// fieldChunk is the size, in fields, of one slab of span-field storage.
const fieldChunk = 1024

// Tracer is the telemetry bus. Construct with New; methods are
// nil-receiver-safe.
type Tracer struct {
	mu     sync.Mutex
	now    func() float64
	nextID uint64
	events []Event // ring of capEvents entries once full
	head   int     // index of the oldest event when the ring is full
	capEv  int
	// spans is in creation order, hence in ID order. Each span's Fields
	// is carved from slab, with room reserved for End's fields; copies
	// handed out are capped at their length, so a reader's append never
	// reaches storage the tracer will write.
	spans   []Span
	slab    []Field // the current chunk; its unused capacity is free
	capSp   int
	dropped uint64 // spans refused because the store was full
	evicted uint64 // events evicted from the ring
	cause   ID     // ambient causal parent, managed by WithCause
	sink    func(string, ...any)
	// disabled and hasSink are read lock-free on every instrumentation
	// call so a switched-off tracer costs two atomic loads and nothing
	// else — no lock, no formatting, no record.
	disabled atomic.Bool
	hasSink  atomic.Bool
}

// New builds a tracer on the given virtual clock. Non-positive
// capacities select the defaults.
func New(now func() float64, eventCap, spanCap int) *Tracer {
	if eventCap <= 0 {
		eventCap = DefaultEventCapacity
	}
	if spanCap <= 0 {
		spanCap = DefaultSpanCapacity
	}
	if now == nil {
		now = func() float64 { return 0 }
	}
	return &Tracer{now: now, capEv: eventCap, capSp: spanCap}
}

// SetLogSink routes Logf lines onward (typically the platform's -v
// printer) after they are recorded on the bus.
func (t *Tracer) SetLogSink(sink func(string, ...any)) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.sink = sink
	t.mu.Unlock()
	t.hasSink.Store(sink != nil)
}

// SetEnabled switches recording on or off. While disabled, Emit, Begin
// and friends return zero IDs without taking the lock or copying
// anything, and Logf skips formatting entirely unless a log sink still
// needs the line. Sweeps and benchmarks disable tracing to take the bus
// off the hot path; the default is enabled.
func (t *Tracer) SetEnabled(on bool) {
	if t == nil {
		return
	}
	t.disabled.Store(!on)
}

// Enabled reports whether the tracer is recording.
func (t *Tracer) Enabled() bool { return t != nil && !t.disabled.Load() }

func (t *Tracer) id() ID {
	t.nextID++
	return ID(t.nextID)
}

func (t *Tracer) pushEvent(ev Event) {
	if len(t.events) < t.capEv {
		t.events = append(t.events, ev)
		return
	}
	t.events[t.head] = ev
	t.head = (t.head + 1) % t.capEv
	t.evicted++
}

// Emit records an instantaneous event under the ambient cause (if any)
// and returns its ID.
func (t *Tracer) Emit(kind, name string, fields ...Field) ID {
	if t == nil || t.disabled.Load() {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.emitLocked(t.cause, kind, name, fields)
}

// EmitIn records an instantaneous event inside an explicit span.
func (t *Tracer) EmitIn(span ID, kind, name string, fields ...Field) ID {
	if t == nil || t.disabled.Load() {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.emitLocked(span, kind, name, fields)
}

func (t *Tracer) emitLocked(span ID, kind, name string, fields []Field) ID {
	id := t.id()
	t.pushEvent(Event{ID: id, Span: span, T: t.now(), Kind: kind, Name: name, Fields: fields})
	return id
}

// Begin opens a span. A zero parent uses the ambient cause (set by
// WithCause), so actuators opened from a reactor's decision nest under
// it without explicit plumbing. The fields are copied: the tracer keeps
// no reference to the caller's slice, so it may live on the stack.
func (t *Tracer) Begin(parent ID, kind, name string, fields ...Field) ID {
	if t == nil || t.disabled.Load() {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if parent == 0 {
		parent = t.cause
	}
	if len(t.spans) >= t.capSp {
		t.dropped++
		return 0
	}
	id := t.id()
	now := t.now()
	own := append(t.carve(len(fields)+endFields), fields...)
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Kind: kind, Name: name, Start: now, End: now, Open: true, Fields: own})
	return id
}

// carve returns an empty slice with room for n fields, cut from the
// current slab or from a new one when it has too little left.
func (t *Tracer) carve(n int) []Field {
	if cap(t.slab)-len(t.slab) < n {
		t.slab = make([]Field, 0, max(fieldChunk, n))
	}
	off := len(t.slab)
	t.slab = t.slab[:off+n]
	return t.slab[off : off : off+n]
}

// End closes a span, appending copies of any final fields. Ending an
// unknown or already-closed span, or an event, is a no-op.
func (t *Tracer) End(id ID, fields ...Field) {
	if t == nil || id == 0 || t.disabled.Load() {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	i, ok := t.spanIdx(id)
	if !ok || !t.spans[i].Open {
		return
	}
	s := &t.spans[i]
	s.Open = false
	s.End = t.now()
	s.Fields = append(s.Fields, fields...) // past the reserved room, a new array
}

// spanIdx finds a retained span by ID. Spans are stored in ID order, so
// it is a binary search.
func (t *Tracer) spanIdx(id ID) (int, bool) {
	lo, hi := 0, len(t.spans)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if t.spans[m].ID < id {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(t.spans) && t.spans[lo].ID == id
}

// WithCause runs fn with the ambient causal parent set to id, restoring
// the previous cause afterwards. It lets a decision span become the
// parent of whatever the actuator records during its synchronous entry,
// without changing actuator signatures.
func (t *Tracer) WithCause(id ID, fn func()) {
	if t == nil || t.disabled.Load() {
		fn()
		return
	}
	t.mu.Lock()
	prev := t.cause
	t.cause = id
	t.mu.Unlock()
	fn()
	t.mu.Lock()
	t.cause = prev
	t.mu.Unlock()
}

// Cause returns the ambient causal parent, for async continuations that
// need to re-establish it later via WithCause.
func (t *Tracer) Cause() ID {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.cause
}

// Logf records a formatted log line as a "log" event and forwards it to
// the sink, so verbose output and the trace can never disagree. When
// recording is disabled and no sink is attached, it returns before
// formatting — the call does no work at all.
func (t *Tracer) Logf(format string, args ...any) {
	if t == nil {
		return
	}
	off := t.disabled.Load()
	if off && !t.hasSink.Load() {
		return
	}
	msg := fmt.Sprintf(format, args...)
	t.mu.Lock()
	if !off {
		t.emitLocked(t.cause, "log", msg, nil)
	}
	sink := t.sink
	t.mu.Unlock()
	if sink != nil {
		sink("%s", msg)
	}
}

// Events returns all retained events in time order (oldest first).
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.eventsLocked()
}

func (t *Tracer) eventsLocked() []Event {
	out := make([]Event, 0, len(t.events))
	if len(t.events) < t.capEv {
		return append(out, t.events...)
	}
	out = append(out, t.events[t.head:]...)
	return append(out, t.events[:t.head]...)
}

// Since returns retained events with T >= from.
func (t *Tracer) Since(from float64) []Event {
	evs := t.Events()
	i := sort.Search(len(evs), func(i int) bool { return evs[i].T >= from })
	return evs[i:]
}

// ByKind returns retained events of one kind, in time order.
func (t *Tracer) ByKind(kind string) []Event {
	var out []Event
	for _, ev := range t.Events() {
		if ev.Kind == kind {
			out = append(out, ev)
		}
	}
	return out
}

// Spans returns all retained spans in creation order.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := append([]Span(nil), t.spans...)
	for i := range out {
		out[i].Fields = capped(out[i].Fields)
	}
	return out
}

// capped returns fs with its capacity cut to its length.
func capped(fs []Field) []Field { return fs[:len(fs):len(fs)] }

// SpanByID returns a retained span by ID.
func (t *Tracer) SpanByID(id ID) (Span, bool) {
	if t == nil {
		return Span{}, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	i, ok := t.spanIdx(id)
	if !ok {
		return Span{}, false
	}
	s := t.spans[i]
	s.Fields = capped(s.Fields)
	return s, true
}

// SpanNode is one node of the causal tree returned by SpanTree.
type SpanNode struct {
	Span     Span
	Children []*SpanNode
}

// SpanTree assembles the retained spans into causal trees, returning
// the roots in creation order. A span whose parent was not retained
// becomes a root. The forest is three allocations whatever its size: the
// nodes, a counting pass's scratch, and one array of node pointers that
// holds the roots and then each node's children in turn.
func (t *Tracer) SpanTree() []*SpanNode {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := len(t.spans)
	if n == 0 {
		return nil
	}
	nodes := make([]SpanNode, n)
	// parent[i] is the index of span i's parent, -1 for a root; kids[p]
	// counts p's children.
	scratch := make([]int32, 2*n)
	parent, kids := scratch[:n], scratch[n:]
	roots := 0
	for i := range t.spans {
		s := &t.spans[i]
		nodes[i].Span = *s
		nodes[i].Span.Fields = capped(s.Fields)
		parent[i] = -1
		if s.Parent != s.ID {
			if p, ok := t.spanIdx(s.Parent); ok {
				parent[i] = int32(p)
				kids[p]++
				continue
			}
		}
		roots++
	}
	ptrs := make([]*SpanNode, n)
	next := roots
	for p, c := range kids {
		if c > 0 {
			nodes[p].Children = ptrs[next : next : next+int(c)]
			next += int(c)
		}
	}
	out := ptrs[:0:roots]
	for i, p := range parent {
		if p < 0 {
			out = append(out, &nodes[i])
		} else {
			nodes[p].Children = append(nodes[p].Children, &nodes[i])
		}
	}
	return out
}

// Stats reports retention counters.
type Stats struct {
	Events        int
	Spans         int
	EventsEvicted uint64
	SpansDropped  uint64
}

// Stat returns retention counters.
func (t *Tracer) Stat() Stats {
	if t == nil {
		return Stats{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return Stats{Events: len(t.events), Spans: len(t.spans), EventsEvicted: t.evicted, SpansDropped: t.dropped}
}

// Tail formats the last n events as human-readable lines, newest last —
// the invariant harness attaches this to every violation artifact.
func (t *Tracer) Tail(n int) []string {
	evs := t.Events()
	if n > 0 && len(evs) > n {
		evs = evs[len(evs)-n:]
	}
	out := make([]string, len(evs))
	for i, ev := range evs {
		out[i] = FormatEvent(ev)
	}
	return out
}

// FormatEvent renders one event as a stable single-line string.
func FormatEvent(ev Event) string {
	s := fmt.Sprintf("[t=%8.1f] %s", ev.T, ev.Kind)
	if ev.Name != "" {
		s += " " + ev.Name
	}
	for _, f := range ev.Fields {
		s += fmt.Sprintf(" %s=%s", f.Key, f.Value())
	}
	return s
}

// WellFormed verifies the span store's causal integrity: every non-zero
// parent that is retained is a span (not self), children start no
// earlier than their parent, and closed children end no later than a
// closed parent. It returns the first problem found, or nil.
func (t *Tracer) WellFormed() error {
	return CheckWellFormed(t.Spans())
}

// CheckWellFormed implements WellFormed over an explicit span slice.
func CheckWellFormed(spans []Span) error {
	const eps = 1e-9
	byID := make(map[ID]Span, len(spans))
	for _, s := range spans {
		if s.ID == 0 {
			return fmt.Errorf("trace: span %q has zero ID", s.Name)
		}
		if _, dup := byID[s.ID]; dup {
			return fmt.Errorf("trace: duplicate span ID %d", s.ID)
		}
		byID[s.ID] = s
	}
	for _, s := range spans {
		if !s.Open && s.End+eps < s.Start {
			return fmt.Errorf("trace: span %d (%s) ends at %g before start %g", s.ID, s.Name, s.End, s.Start)
		}
		if s.Parent == 0 {
			continue
		}
		if s.Parent == s.ID {
			return fmt.Errorf("trace: span %d (%s) is its own parent", s.ID, s.Name)
		}
		p, ok := byID[s.Parent]
		if !ok {
			return fmt.Errorf("trace: span %d (%s) references missing parent %d", s.ID, s.Name, s.Parent)
		}
		if s.Parent >= s.ID {
			return fmt.Errorf("trace: span %d (%s) precedes its parent %d", s.ID, s.Name, s.Parent)
		}
		if s.Start+eps < p.Start {
			return fmt.Errorf("trace: span %d (%s) starts at %g before parent %d start %g", s.ID, s.Name, s.Start, p.ID, p.Start)
		}
		if !s.Open && !p.Open && s.End > p.End+eps {
			return fmt.Errorf("trace: span %d (%s) ends at %g after parent %d end %g", s.ID, s.Name, s.End, p.ID, p.End)
		}
	}
	return nil
}
