package attrib

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"jade/internal/trace"
)

// node builds one closed span; the fields are what a tier's End attaches.
func node(kind, name string, start, end float64, fields []trace.Field, children ...*trace.SpanNode) *trace.SpanNode {
	return &trace.SpanNode{
		Span:     trace.Span{Kind: kind, Name: name, Start: start, End: end, Fields: fields},
		Children: children,
	}
}

// done is the field set of a span that ended well after busy seconds on
// its node, svc of them ideal service.
func done(busy, svc float64) []trace.Field {
	return []trace.Field{trace.Ff("busy", busy), trace.Ff("svc", svc), trace.Outcome(nil)}
}

var okOnly = []trace.Field{trace.Outcome(nil)}

// one analyzes a single root and returns its breakdown.
func one(t *testing.T, root *trace.SpanNode) Breakdown {
	t.Helper()
	a := Analyze([]*trace.SpanNode{root})
	if len(a.Breakdowns) != 1 || a.Errors != 0 || a.Skipped != 0 {
		t.Fatalf("analysis = %d breakdowns, %d errors, %d skipped; want 1, 0, 0", len(a.Breakdowns), a.Errors, a.Skipped)
	}
	return a.Breakdowns[0]
}

// requireParts checks the breakdown part for part (order included) and
// that the parts sum to the root span.
func requireParts(t *testing.T, b Breakdown, want []Part) {
	t.Helper()
	if len(b.Parts) != len(want) {
		t.Fatalf("parts = %+v, want %+v", b.Parts, want)
	}
	for i, w := range want {
		g := b.Parts[i]
		if g.Tier != w.Tier || g.Component != w.Component || math.Abs(g.Seconds-w.Seconds) > 1e-12 {
			t.Fatalf("part %d = %+v, want %+v (all: %+v)", i, g, w, b.Parts)
		}
	}
	if e := b.ConservationErr(); e > 1e-12 {
		t.Fatalf("components miss the root span by %g of it: %+v", e, b.Parts)
	}
}

// Every tier's span in one another: each level's self-time splits into
// service (svc), queue (busy - svc) and network (the rest), and the levels
// add up to the root.
func TestSelfTimeSplitsAndSumsToRoot(t *testing.T) {
	const s = 1.0 / 16
	root := node("request", "ViewItem", 0, 1, okOnly,
		node("forward", "l41", 1*s, 15*s, done(2.0/64, 1.0/64),
			node("web", "apache1", 2*s, 14*s, done(2*s, s),
				node("forward", "plb1", 3*s, 13*s, done(2.0/64, 1.0/64),
					node("app", "tomcat1", 4*s, 12*s, done(4*s, 2*s),
						node("sql", "cjdbc1", 5*s, 9*s, done(2.0/64, 1.0/64),
							node("db", "mysql1", 6*s, 8*s, done(s, s/2))))))))
	b := one(t, root)
	if b.Interaction != "ViewItem" || b.Start != 0 || b.Total != 1 {
		t.Fatalf("breakdown header = %q start %g total %g", b.Interaction, b.Start, b.Total)
	}
	requireParts(t, b, []Part{
		{"app", Queue, 2 * s}, {"app", Service, 2 * s}, // busy covers all of app's self-time: no network part
		{"cjdbc", Network, 3.0 / 32}, {"cjdbc", Queue, 1.0 / 64}, {"cjdbc", Service, 1.0 / 64},
		{"client", Network, 2 * s}, // the root carries no busy field: all self-time is off-node
		{"db", Network, s}, {"db", Queue, s / 2}, {"db", Service, s / 2},
		{"l4", Network, 3.0 / 32}, {"l4", Queue, 1.0 / 64}, {"l4", Service, 1.0 / 64},
		{"plb", Network, 3.0 / 32}, {"plb", Queue, 1.0 / 64}, {"plb", Service, 1.0 / 64},
		{"web", Queue, s}, {"web", Service, s},
	})
}

// A C-JDBC write broadcast: two overlapping db children count for the
// union of their intervals, not the sum, and the controller's off-node
// wait is queueing for the tier named by waits-on.
func TestConcurrentChildrenScaledToUnion(t *testing.T) {
	sql := append([]trace.Field{trace.F("waits-on", "db")}, done(1.0/8, 1.0/16)...)
	root := node("request", "StoreBid", 0, 1, okOnly,
		node("sql", "cjdbc1", 0, 1, sql,
			node("db", "mysql1", 0.25, 0.5, done(0.25, 0.125)),
			node("db", "mysql2", 0.25, 0.75, done(0.5, 0.25))))
	// Children sum to 3/4 over a union of 1/2: each is scaled by 2/3, so the
	// db tier's own work is 1/4 service + 1/4 queue; the controller's 3/8 of
	// off-node self-time joins db queue.
	requireParts(t, one(t, root), []Part{
		{"cjdbc", Queue, 1.0 / 16}, {"cjdbc", Service, 1.0 / 16},
		{"db", Queue, 0.25 + 3.0/8}, {"db", Service, 0.25},
	})
}

// A netsim timeout closes the caller's span while the callee still runs:
// the child counts only inside its parent's window, its busy time is cut
// to fit, and a grandchild wholly outside the window counts for nothing.
func TestChildOutlivingParentIsClamped(t *testing.T) {
	root := node("request", "ViewItem", 0, 1, okOnly,
		node("app", "tomcat1", 0, 0.5, done(1.0/8, 1.0/16),
			node("sql", "cjdbc1", 0.25, 1, done(1, 0.5),
				node("db", "mysql1", 0.75, 1, done(0.25, 0.25)))))
	requireParts(t, one(t, root), []Part{
		{"app", Network, 1.0 / 8}, {"app", Queue, 1.0 / 16}, {"app", Service, 1.0 / 16},
		{"cjdbc", Service, 0.25},
		{"client", Network, 0.5},
	})
}

// A failed attempt is charged whole to the tier that retried; nothing
// under it is attributed.
func TestFailedChildChargedToParentRetry(t *testing.T) {
	failed := []trace.Field{trace.Ff("busy", 1.0/16), trace.Ff("svc", 1.0/32), trace.Outcome(errors.New("backend down"))}
	root := node("request", "ViewItem", 0, 1, okOnly,
		node("app", "tomcat1", 0, 1, done(0.25, 0.125),
			node("sql", "cjdbc1", 1.0/8, 3.0/8, failed,
				node("db", "mysql1", 1.0/8, 2.0/8, done(1.0/8, 1.0/8))),
			node("sql", "cjdbc1", 3.0/8, 5.0/8, done(1.0/16, 1.0/32))))
	requireParts(t, one(t, root), []Part{
		{"app", Network, 0.25}, {"app", Queue, 0.125}, {"app", Retry, 0.25}, {"app", Service, 0.125},
		{"cjdbc", Network, 3.0 / 16}, {"cjdbc", Queue, 1.0 / 32}, {"cjdbc", Service, 1.0 / 32},
	})
}

func TestTierOf(t *testing.T) {
	for _, tc := range []struct{ kind, name, want string }{
		{"request", "ViewItem", "client"},
		{"forward", "l41", "l4"},
		{"forward", "plb1", "plb"},
		{"forward", "anything-else", "plb"},
		{"web", "apache1", "web"},
		{"app", "tomcat1", "app"},
		{"sql", "cjdbc1", "cjdbc"},
		{"db", "mysql1", "db"},
		// Management spans are never under a request; they map to themselves.
		{"decision", "app:grow", "decision"},
		{"config", "operator", "config"},
	} {
		if got := TierOf(tc.kind, tc.name); got != tc.want {
			t.Errorf("TierOf(%q, %q) = %q, want %q", tc.kind, tc.name, got, tc.want)
		}
	}
}

// What Analyze leaves out, and how Window cuts by root start.
func TestAnalyzeSelectsClosedSuccessfulRequests(t *testing.T) {
	open := node("app", "tomcat1", 2, 2, nil)
	open.Span.Open = true
	a := Analyze([]*trace.SpanNode{
		node("request", "ViewItem", 0, 1, okOnly),
		node("decision", "app:grow", 0, 5, okOnly), // not a request
		node("request", "ViewItem", 1, 2, []trace.Field{trace.Outcome(errors.New("503"))}),
		node("request", "ViewItem", 2, 3, okOnly, open),
		node("request", "ViewItem", 3, 3, nil), // never ended: no outcome
		node("request", "BrowseCategories", 4, 6, okOnly),
	})
	if len(a.Breakdowns) != 2 || a.Errors != 2 || a.Skipped != 1 {
		t.Fatalf("analysis = %d breakdowns, %d errors, %d skipped; want 2, 2, 1", len(a.Breakdowns), a.Errors, a.Skipped)
	}
	if w := a.Window(0, 4); len(w.Breakdowns) != 1 || w.Breakdowns[0].Interaction != "ViewItem" {
		t.Fatalf("Window(0, 4) = %+v, want the ViewItem request only", w.Breakdowns)
	}
	if w := a.Window(4, math.Inf(1)); len(w.Breakdowns) != 1 || w.Breakdowns[0].Start != 4 {
		t.Fatalf("Window(4, +Inf) = %+v, want the request that started at 4", w.Breakdowns)
	}
}

// The span store filling mid-request (planes_on drops 94 118 spans after
// the first 65 536) leaves a request whose deeper spans were refused. Pinned
// behaviour: it is reported, not skipped; the time its missing subtree took
// stays in the deepest retained span's self-time and so reads as that
// tier's network; conservation still holds. A request begun after the
// store filled leaves no span and is not counted at all.
func TestRequestTruncatedByFullSpanStore(t *testing.T) {
	var now float64
	tr := trace.New(func() float64 { return now }, 0, 3)
	const s = 1.0 / 16
	req := tr.Begin(0, "request", "ViewItem")
	now = 1 * s
	fwd := tr.Begin(req, "forward", "l41")
	now = 2 * s
	web := tr.Begin(fwd, "web", "apache1")
	now = 3 * s
	app := tr.Begin(web, "app", "tomcat1") // refused: the store holds 3
	now = 4 * s
	sql := tr.Begin(app, "sql", "cjdbc1") // refused
	now = 10 * s
	tr.End(sql, done(s, s)...)
	tr.End(app, done(s, s)...)
	now = 12 * s
	tr.End(web, done(2*s, s)...)
	now = 13 * s
	tr.End(fwd, done(2.0/64, 1.0/64)...)
	now = 14 * s
	tr.End(req, trace.Outcome(nil))
	late := tr.Begin(0, "request", "ViewItem") // refused
	now = 15 * s
	tr.End(late, trace.Outcome(nil))
	if st := tr.Stat(); st.Spans != 3 || st.SpansDropped != 3 {
		t.Fatalf("tracer kept %d spans and dropped %d, want 3 and 3", st.Spans, st.SpansDropped)
	}

	a := FromTracer(tr)
	if len(a.Breakdowns) != 1 || a.Skipped != 0 || a.Errors != 0 {
		t.Fatalf("analysis = %d breakdowns, %d errors, %d skipped; want 1, 0, 0", len(a.Breakdowns), a.Errors, a.Skipped)
	}
	requireParts(t, a.Breakdowns[0], []Part{
		{"client", Network, 2 * s},
		{"l4", Network, 3.0 / 32}, {"l4", Queue, 1.0 / 64}, {"l4", Service, 1.0 / 64},
		{"web", Network, 8 * s}, {"web", Queue, s}, {"web", Service, s}, // 8/16 is the unseen app+sql time
	})
	if r := BuildReport(a, nil); r.Requests != 1 || r.MaxConservationErr > 1e-12 {
		t.Fatalf("report counts %d requests with conservation error %g", r.Requests, r.MaxConservationErr)
	}
}

// workload returns an analysis of four class-A requests lasting 1, 2, 3 and
// 4 s (a quarter app service, the rest app queue) and one 10 s class-B
// request that is all db service.
func workload() *Analysis {
	var roots []*trace.SpanNode
	for i, total := range []float64{3, 1, 4, 2} {
		start := float64(10 * i)
		roots = append(roots, node("request", "A", start, start+total, okOnly,
			node("app", "tomcat1", start, start+total, done(total, total/4))))
	}
	roots = append(roots, node("request", "B", 50, 60, okOnly,
		node("db", "mysql1", 50, 60, done(10, 10))))
	return Analyze(roots)
}

func TestBuildReportProfilesAndCriticalPath(t *testing.T) {
	r := BuildReport(workload(), nil)
	if r.Schema != BudgetSchema || r.Requests != 5 || r.Errors != 0 || r.Skipped != 0 || r.MaxConservationErr > 1e-12 {
		t.Fatalf("report header = %+v", r)
	}
	wantProfiles := []Profile{
		{Interaction: "A", Requests: 4, TotalP50Sec: 2.5, TotalP95Sec: 3.85, TotalP99Sec: 3.97, Components: []ComponentStat{
			{Tier: "app", Component: Queue, MeanSec: 1.875, P50Sec: 1.875, P95Sec: 2.8875, P99Sec: 2.9775, Share: 0.75},
			{Tier: "app", Component: Service, MeanSec: 0.625, P50Sec: 0.625, P95Sec: 0.9625, P99Sec: 0.9925, Share: 0.25},
		}},
		{Interaction: "B", Requests: 1, TotalP50Sec: 10, TotalP95Sec: 10, TotalP99Sec: 10, Components: []ComponentStat{
			{Tier: "db", Component: Service, MeanSec: 10, P50Sec: 10, P95Sec: 10, P99Sec: 10, Share: 1},
		}},
	}
	if len(r.Profiles) != len(wantProfiles) {
		t.Fatalf("profiles = %+v", r.Profiles)
	}
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-12 }
	for i, w := range wantProfiles {
		g := r.Profiles[i]
		if g.Interaction != w.Interaction || g.Requests != w.Requests || len(g.Components) != len(w.Components) ||
			!near(g.TotalP50Sec, w.TotalP50Sec) || !near(g.TotalP95Sec, w.TotalP95Sec) || !near(g.TotalP99Sec, w.TotalP99Sec) {
			t.Fatalf("profile %d = %+v, want %+v", i, g, w)
		}
		for j, wc := range w.Components {
			gc := g.Components[j]
			if gc.Tier != wc.Tier || gc.Component != wc.Component || !near(gc.MeanSec, wc.MeanSec) ||
				!near(gc.P50Sec, wc.P50Sec) || !near(gc.P95Sec, wc.P95Sec) || !near(gc.P99Sec, wc.P99Sec) || !near(gc.Share, wc.Share) {
				t.Fatalf("profile %s component %d = %+v, want %+v", w.Interaction, j, gc, wc)
			}
		}
	}
	// Sorted totals 1 2 3 4 10 cut at 2 | 4 | 4 | 10: the p95-p99 band is
	// empty and is left out.
	wantPath := []BandBlame{
		{Band: "p50", Requests: 2, MeanSec: 1.5, Tier: "app", Component: Queue, Share: 0.75},
		{Band: "p50-p95", Requests: 2, MeanSec: 3.5, Tier: "app", Component: Queue, Share: 0.75},
		{Band: "p99", Requests: 1, MeanSec: 10, Tier: "db", Component: Service, Share: 1},
	}
	if !reflect.DeepEqual(r.CriticalPath, wantPath) {
		t.Fatalf("critical path = %+v, want %+v", r.CriticalPath, wantPath)
	}
	if b, ok := r.Dominant("p99"); !ok || b.Tier != "db" {
		t.Fatalf("Dominant(p99) = %+v, %v", b, ok)
	}
	if _, ok := r.Dominant("p95-p99"); ok {
		t.Fatal("Dominant reports a band the report left out")
	}
}

func TestEmptyInputYieldsWellFormedReport(t *testing.T) {
	for _, a := range []*Analysis{Analyze(nil), {}} {
		r := BuildReport(a, nil)
		if r.Schema != BudgetSchema || r.Requests != 0 || r.MaxConservationErr != 0 ||
			len(r.Profiles) != 0 || len(r.CriticalPath) != 0 || len(r.Fluid) != 0 {
			t.Fatalf("empty report = %+v", r)
		}
		back, err := ParseReport(r.Marshal())
		if err != nil {
			t.Fatalf("empty report does not parse: %v", err)
		}
		if !reflect.DeepEqual(back, r) {
			t.Fatalf("empty report round-trips to %+v, want %+v", back, r)
		}
	}
}

func TestReportRoundTripsThroughJSON(t *testing.T) {
	fluid := []FluidTier{{Station: "app", Rho: 0.7, PeakRho: 0.93, QueueSec: 0.012, ServiceSec: 0.004, PeakSec: 0.31}}
	r := BuildReport(workload(), fluid)
	raw := r.Marshal()
	back, err := ParseReport(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, r) {
		t.Fatalf("round trip changed the report:\n%+v\nvs\n%+v", back, r)
	}
	if again := back.Marshal(); string(again) != string(raw) {
		t.Fatalf("re-marshalled report differs:\n%s\nvs\n%s", again, raw)
	}
}

func TestParseReportRejects(t *testing.T) {
	for _, tc := range []struct{ name, raw, want string }{
		{"not JSON", `{"schema":`, "parsing budget report"},
		{"other schema", `{"schema":"jade-latbudget/v0"}`, "budget schema"},
		{"profile without a class", `{"schema":"jade-latbudget/v1","profiles":[{"interaction":""}]}`, "empty interaction"},
		{"component without a tier", `{"schema":"jade-latbudget/v1","profiles":[{"interaction":"A","components":[{"component":"queue"}]}]}`, "without tier/component"},
	} {
		if _, err := ParseReport([]byte(tc.raw)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one mentioning %q", tc.name, err, tc.want)
		}
	}
}
