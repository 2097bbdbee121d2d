package trace

import (
	"bytes"
	"fmt"
	"testing"
)

func clock(t *float64) func() float64 { return func() float64 { return *t } }

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	if id := tr.Emit("k", "n"); id != 0 {
		t.Fatalf("nil Emit returned %d", id)
	}
	if id := tr.Begin(0, "k", "n"); id != 0 {
		t.Fatalf("nil Begin returned %d", id)
	}
	tr.End(1)
	tr.Logf("hello %d", 1)
	ran := false
	tr.WithCause(7, func() { ran = true })
	if !ran {
		t.Fatal("nil WithCause did not run fn")
	}
	if tr.Cause() != 0 || tr.Events() != nil || tr.Spans() != nil {
		t.Fatal("nil queries not empty")
	}
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestEventsSpansAndQueries(t *testing.T) {
	now := 1.0
	tr := New(clock(&now), 0, 0)
	root := tr.Begin(0, "request", "Home", F("interaction", "Home"))
	now = 2.0
	fwd := tr.Begin(root, "forward", "plb1", F("replica", "tomcat1"))
	tr.EmitIn(fwd, "hop", "queued")
	now = 3.0
	tr.End(fwd)
	now = 4.0
	tr.End(root, F("status", "ok"))
	tr.Emit("loop.sample", "app", Ff("value", 0.5))

	if got := len(tr.ByKind("loop.sample")); got != 1 {
		t.Fatalf("ByKind loop.sample = %d", got)
	}
	if got := len(tr.Since(2.5)); got != 1 {
		t.Fatalf("Since(2.5) = %d events", got)
	}
	roots := tr.SpanTree()
	if len(roots) != 1 || roots[0].Span.ID != root || len(roots[0].Children) != 1 {
		t.Fatalf("unexpected span tree: %+v", roots)
	}
	if err := tr.WellFormed(); err != nil {
		t.Fatal(err)
	}
	sp, ok := tr.SpanByID(root)
	if !ok || sp.Open || sp.End != 4.0 {
		t.Fatalf("root span wrong: %+v", sp)
	}
	if len(sp.Fields) != 2 {
		t.Fatalf("End did not append fields: %+v", sp.Fields)
	}
}

func TestWithCauseNesting(t *testing.T) {
	now := 0.0
	tr := New(clock(&now), 0, 0)
	decision := tr.Begin(0, "decision", "grow")
	var actuate ID
	tr.WithCause(decision, func() {
		actuate = tr.Begin(0, "actuate", "app:grow")
	})
	if tr.Cause() != 0 {
		t.Fatal("cause not restored")
	}
	sp, _ := tr.SpanByID(actuate)
	if sp.Parent != decision {
		t.Fatalf("actuate parent = %d, want %d", sp.Parent, decision)
	}
}

func TestRingEviction(t *testing.T) {
	now := 0.0
	tr := New(clock(&now), 4, 4)
	for i := 0; i < 10; i++ {
		now = float64(i)
		tr.Emit("k", "e")
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	if evs[0].T != 6 || evs[3].T != 9 {
		t.Fatalf("ring order wrong: first %g last %g", evs[0].T, evs[3].T)
	}
	st := tr.Stat()
	if st.EventsEvicted != 6 {
		t.Fatalf("evicted = %d, want 6", st.EventsEvicted)
	}
	// Span store refuses new spans when full; End of a refused span is a
	// no-op and children of refused spans become roots (parent 0).
	for i := 0; i < 6; i++ {
		id := tr.Begin(0, "s", "x")
		if i >= 4 && id != 0 {
			t.Fatalf("span %d accepted beyond capacity", i)
		}
		tr.End(id)
	}
	if tr.Stat().SpansDropped != 2 {
		t.Fatalf("dropped = %d, want 2", tr.Stat().SpansDropped)
	}
	if err := tr.WellFormed(); err != nil {
		t.Fatal(err)
	}
}

func TestLogfRecordsAndForwards(t *testing.T) {
	now := 5.0
	tr := New(clock(&now), 0, 0)
	var lines []string
	tr.SetLogSink(func(format string, args ...any) {
		lines = append(lines, fmt.Sprintf(format, args...))
	})
	tr.Logf("deploy: %s is up (%d components)", "rubis", 4)
	if len(lines) != 1 || lines[0] != "deploy: rubis is up (4 components)" {
		t.Fatalf("sink got %v", lines)
	}
	logs := tr.ByKind("log")
	if len(logs) != 1 || logs[0].Name != "deploy: rubis is up (4 components)" {
		t.Fatalf("bus got %+v", logs)
	}
}

func TestWellFormedCatchesViolations(t *testing.T) {
	bad := []Span{
		{ID: 1, Kind: "a", Start: 10, End: 20},
		{ID: 2, Parent: 1, Kind: "b", Start: 5, End: 6},
	}
	if err := CheckWellFormed(bad); err == nil {
		t.Fatal("child starting before parent not caught")
	}
	bad = []Span{
		{ID: 1, Kind: "a", Start: 10, End: 20},
		{ID: 2, Parent: 1, Kind: "b", Start: 12, End: 25},
	}
	if err := CheckWellFormed(bad); err == nil {
		t.Fatal("child ending after parent not caught")
	}
	bad = []Span{{ID: 2, Parent: 9, Kind: "b", Start: 0, End: 1}}
	if err := CheckWellFormed(bad); err == nil {
		t.Fatal("missing parent not caught")
	}
	ok := []Span{
		{ID: 1, Kind: "a", Start: 10, End: 20},
		{ID: 2, Parent: 1, Kind: "b", Start: 10, End: 20},
		{ID: 3, Parent: 1, Kind: "c", Start: 12, Open: true},
	}
	if err := CheckWellFormed(ok); err != nil {
		t.Fatal(err)
	}
}

func TestExportsAreDeterministicAndValid(t *testing.T) {
	build := func() *Tracer {
		now := 0.0
		tr := New(clock(&now), 0, 0)
		req := tr.Begin(0, "request", "Browse", F("interaction", "Browse"))
		now = 0.25
		tr.Emit("arbiter.verdict", "app-sizing", F("granted", "true"), Ff("at", now))
		fwd := tr.Begin(req, "forward", "plb1", F("replica", "tomcat2"))
		now = 0.5
		tr.End(fwd)
		tr.End(req)
		tr.Logf("selfsize: %s grew to %d replicas", "app", 2)
		return tr
	}
	var a, b bytes.Buffer
	if err := build().WriteJSONL(&a); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("JSONL not byte-identical:\n%s\n---\n%s", a.String(), b.String())
	}
	if a.Len() == 0 {
		t.Fatal("empty JSONL export")
	}

	var c1, c2 bytes.Buffer
	if err := build().WriteChromeTrace(&c1); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteChromeTrace(&c2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(c1.Bytes(), c2.Bytes()) {
		t.Fatal("Chrome trace not byte-identical")
	}
	n, err := ValidateChromeTrace(c1.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if n < 5 {
		t.Fatalf("only %d trace events", n)
	}
}

func TestValidateChromeTraceRejectsGarbage(t *testing.T) {
	if _, err := ValidateChromeTrace([]byte("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ValidateChromeTrace([]byte(`{"foo":1}`)); err == nil {
		t.Fatal("missing traceEvents accepted")
	}
	if _, err := ValidateChromeTrace([]byte(`{"traceEvents":[{"name":"x","ph":"?","ts":1,"pid":1,"tid":1}]}`)); err == nil {
		t.Fatal("bad phase accepted")
	}
	if _, err := ValidateChromeTrace([]byte(`{"traceEvents":[{"name":"x","ph":"i","ts":-5,"pid":1,"tid":1}]}`)); err == nil {
		t.Fatal("negative ts accepted")
	}
}

func TestSetEnabledDropsRecords(t *testing.T) {
	now := 0.0
	tr := New(clock(&now), 0, 0)
	if !tr.Enabled() {
		t.Fatal("new tracer not enabled")
	}
	tr.SetEnabled(false)
	if tr.Enabled() {
		t.Fatal("Enabled after SetEnabled(false)")
	}
	if id := tr.Emit("k", "n"); id != 0 {
		t.Fatalf("disabled Emit returned %d", id)
	}
	if id := tr.Begin(0, "k", "n"); id != 0 {
		t.Fatalf("disabled Begin returned %d", id)
	}
	ran := false
	tr.WithCause(7, func() { ran = true })
	if !ran {
		t.Fatal("disabled WithCause skipped fn")
	}
	tr.Logf("dropped %d", 1)
	if st := tr.Stat(); st.Events != 0 || st.Spans != 0 {
		t.Fatalf("disabled tracer recorded: %+v", st)
	}

	// Re-enabling resumes recording.
	tr.SetEnabled(true)
	sp := tr.Begin(0, "k", "n")
	tr.Emit("k", "n")
	tr.End(sp)
	if st := tr.Stat(); st.Events != 1 || st.Spans != 1 {
		t.Fatalf("re-enabled tracer state: %+v", st)
	}
}

func TestDisabledLogfStillReachesSink(t *testing.T) {
	now := 0.0
	tr := New(clock(&now), 0, 0)
	var got []string
	tr.SetLogSink(func(f string, args ...any) { got = append(got, fmt.Sprintf(f, args...)) })
	tr.SetEnabled(false)
	tr.Logf("line %d", 42)
	if len(got) != 1 || got[0] != "line 42" {
		t.Fatalf("sink got %q", got)
	}
	if st := tr.Stat(); st.Events != 0 {
		t.Fatalf("disabled Logf recorded an event: %+v", st)
	}
}

// Locked-in allocation budgets: a switched-off tracer with no sink must
// cost nothing on the instrumentation paths.
func TestDisabledTracerAllocs(t *testing.T) {
	now := 0.0
	tr := New(clock(&now), 0, 0)
	tr.SetEnabled(false)
	if n := testing.AllocsPerRun(1000, func() { tr.Logf("probe line") }); n != 0 {
		t.Fatalf("disabled Logf: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { tr.Emit("kind", "name") }); n != 0 {
		t.Fatalf("disabled Emit: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		id := tr.Begin(0, "kind", "name")
		tr.End(id)
	}); n != 0 {
		t.Fatalf("disabled Begin/End: %v allocs/op, want 0", n)
	}
}

// hop records one span shaped like a request hop: one field at Begin,
// busy, svc, outcome and the balancer's member at End.
func hop(tr *Tracer, parent ID) ID {
	id := tr.Begin(parent, "forward", "plb1", F("replica", "tomcat1"))
	tr.End(id, Ff("busy", 0.125), Ff("svc", 0.0625), Outcome(nil), F("worker", "tomcat2"))
	return id
}

// Locked-in allocation budgets for a recording tracer: a request's spans
// cost nothing once the store's and the slabs' growth is amortized over a
// full store, a refused span costs nothing, and the span tree is a fixed
// number of allocations whatever its size.
func TestRecordingTracerAllocs(t *testing.T) {
	now := 0.0
	tr := New(clock(&now), 0, 0)
	root := tr.Begin(0, "request", "ViewItem", Fi("client", 1))
	if n := testing.AllocsPerRun(DefaultSpanCapacity-2, func() { hop(tr, root) }); n != 0 {
		t.Fatalf("hop span over a store fill: %v allocs/op, want 0", n)
	}
	if st := tr.Stat(); st.Spans != DefaultSpanCapacity || st.SpansDropped != 0 {
		t.Fatalf("store after the fill: %+v", st)
	}
	if n := testing.AllocsPerRun(1000, func() { hop(tr, root) }); n != 0 {
		t.Fatalf("refused span: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(3, func() { tr.SpanTree() }); n > 4 {
		t.Fatalf("SpanTree over %d spans: %v allocs, want at most 4", DefaultSpanCapacity, n)
	}
	roots := tr.SpanTree()
	if len(roots) != 1 || len(roots[0].Children) != DefaultSpanCapacity-1 {
		t.Fatalf("tree of the fill: %d roots", len(roots))
	}
}

// TestEndIsANoOpOffOpenSpans pins what the span index map used to
// guarantee: End touches only a retained, open span.
func TestEndIsANoOpOffOpenSpans(t *testing.T) {
	now := 1.0
	tr := New(clock(&now), 0, 3)
	a := tr.Begin(0, "s", "a", F("k", "v"))
	ev := tr.Emit("e", "x")
	b := tr.Begin(a, "s", "b")
	tr.End(ev, F("end", "event")) // an event's ID, just before an open span's
	if sp, _ := tr.SpanByID(b); !sp.Open || len(sp.Fields) != 0 {
		t.Fatalf("ending an event touched the next span: %+v", sp)
	}
	now = 2
	tr.End(b, F("end", "1"))
	before := tr.Spans()
	now = 3
	tr.End(ID(99), F("end", "99")) // never issued
	tr.End(b, F("end", "2"))       // already closed
	c := tr.Begin(0, "s", "c")
	refused := tr.Begin(0, "s", "refused")
	tr.End(refused, F("end", "refused")) // refused: the store is full
	after := tr.Spans()
	if refused != 0 || len(after) != 3 {
		t.Fatalf("store full: refused=%d, %d spans", refused, len(after))
	}
	if fmt.Sprint(after[:2]) != fmt.Sprint(before) {
		t.Fatalf("End changed spans it should not touch:\n%v\n%v", before, after[:2])
	}
	// A retained span still closes once the store is full.
	tr.End(c, Outcome(nil))
	if sp, _ := tr.SpanByID(c); sp.Open || sp.End != 3 || len(sp.Fields) != 1 {
		t.Fatalf("c after End: %+v", sp)
	}
	tr.End(a, F("a", "1"), F("a", "2"), F("a", "3"), F("a", "4"), F("a", "5"))
	if sp, _ := tr.SpanByID(a); len(sp.Fields) != 6 || sp.Fields[0].Value() != "v" || sp.Fields[5].Value() != "5" {
		t.Fatalf("fields past the reserved room: %+v", sp.Fields)
	}
}

// TestSpansHandOutCappedFields checks a reader's append cannot reach the
// room a span keeps for End's fields.
func TestSpansHandOutCappedFields(t *testing.T) {
	now := 0.0
	tr := New(clock(&now), 0, 0)
	id := tr.Begin(0, "s", "open", F("k", "v"))
	sp, _ := tr.SpanByID(id)
	readers := [][]Field{
		append(sp.Fields, F("reader", "x")),
		append(tr.Spans()[0].Fields, F("reader", "y")),
		append(tr.SpanTree()[0].Span.Fields, F("reader", "z")),
	}
	tr.End(id, Outcome(nil))
	sp, _ = tr.SpanByID(id)
	if len(sp.Fields) != 2 || sp.Fields[1].Key != "outcome" {
		t.Fatalf("fields after End: %+v", sp.Fields)
	}
	for _, r := range readers {
		if r[1].Key != "reader" {
			t.Fatalf("End wrote into a reader's slice: %+v", r)
		}
	}
}

// referenceSpanTree is the map-based SpanTree the in-place build replaced.
func referenceSpanTree(spans []Span) []*SpanNode {
	nodes := make(map[ID]*SpanNode, len(spans))
	for _, s := range spans {
		nodes[s.ID] = &SpanNode{Span: s}
	}
	var roots []*SpanNode
	for _, s := range spans {
		n := nodes[s.ID]
		if p, ok := nodes[s.Parent]; ok && s.Parent != s.ID {
			p.Children = append(p.Children, n)
		} else {
			roots = append(roots, n)
		}
	}
	return roots
}

func TestSpanTreeMatchesReference(t *testing.T) {
	now := 0.0
	tr := New(clock(&now), 0, 400)
	var ids []ID
	tr.WithCause(1, func() { ids = append(ids, tr.Begin(0, "s", "own parent")) })
	rng := uint64(1)
	next := func(n int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int(rng>>33) % n
	}
	for i := 0; i < 500; i++ {
		now += 0.01
		var parent ID
		switch next(4) {
		case 0: // a root
		case 1: // an event: its children become roots
			parent = tr.Emit("e", "x")
		default:
			if len(ids) > 0 {
				parent = ids[next(len(ids))]
			}
		}
		id := tr.Begin(parent, "s", "n", Fi("i", i))
		if id != 0 {
			ids = append(ids, id)
		}
		if next(3) == 0 && len(ids) > 0 {
			tr.End(ids[next(len(ids))], Fi("end", i))
		}
	}
	got, want := tr.SpanTree(), referenceSpanTree(tr.Spans())
	var render func(ns []*SpanNode) string
	render = func(ns []*SpanNode) string {
		s := "["
		for _, n := range ns {
			s += fmt.Sprintf("%v%s ", n.Span, render(n.Children))
		}
		return s + "]"
	}
	if render(got) != render(want) {
		t.Fatal("SpanTree differs from the map-based reference")
	}
	if n := testing.AllocsPerRun(3, func() { tr.SpanTree() }); n > 4 {
		t.Fatalf("SpanTree over a forest: %v allocs, want at most 4", n)
	}
	if len(want) < 50 || tr.Stat().SpansDropped == 0 {
		t.Fatalf("the forest has %d roots and %d dropped spans", len(want), tr.Stat().SpansDropped)
	}
}

func BenchmarkDisabledLogf(b *testing.B) {
	now := 0.0
	tr := New(clock(&now), 0, 0)
	tr.SetEnabled(false)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Logf("probe line")
	}
}
