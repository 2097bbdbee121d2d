// Package attrib decomposes traced request latency into per-tier
// components. It walks each completed request's causal span tree
// (client → L4/PLB → Apache → Tomcat → C-JDBC → MySQL) and splits the
// end-to-end latency into queue-wait, service, network and retry time
// per tier, using the "busy"/"svc" fields every tier's instrumentation
// attaches to its span: a span's self-time (its interval minus its
// children's) is busy + network, busy splits into ideal service plus
// queue-wait, and a failed child subtree is charged whole to the
// parent tier's retry component.
//
// Concurrent children (a C-JDBC write broadcast to several replicas)
// are scaled so their attributed time equals the wall-clock union of
// their intervals; children are clamped to the parent window (a netsim
// timeout can close a parent before a server-side child finishes).
// Both together make the components sum to the root span exactly, up
// to float rounding — the conservation check every report carries.
//
// All inputs come off the deterministic trace bus and every output
// slice is sorted, so same-seed runs produce byte-identical budget
// artifacts.
package attrib

import (
	"math"
	"strings"

	"jade/internal/trace"
)

// Components of a request's latency budget.
const (
	Queue   = "queue"   // waiting in a node's run queue (incl. overload degradation)
	Service = "service" // ideal CPU service time at full capacity
	Network = "network" // netsim link latency (span self-time not spent on-node)
	Retry   = "retry"   // failed child attempts charged to the retrying tier
)

// Components lists the component names in canonical order.
var Components = []string{Queue, Service, Network, Retry}

// TierOf maps a span to the tier it accounts for. The span kinds are
// fixed by each tier's instrumentation; "forward" is used by both
// balancers, split by instance name.
func TierOf(kind, name string) string {
	switch kind {
	case "request":
		return "client"
	case "forward":
		if strings.HasPrefix(name, "l4") {
			return "l4"
		}
		return "plb"
	case "web":
		return "web"
	case "app":
		return "app"
	case "sql":
		return "cjdbc"
	case "db":
		return "db"
	}
	return kind
}

// Part is one (tier, component) share of a request's latency.
type Part struct {
	Tier      string
	Component string
	Seconds   float64
}

// Breakdown is one attributed request.
type Breakdown struct {
	Interaction string  // root span name (the workload class)
	Start       float64 // root span start, virtual seconds
	Total       float64 // root span end-to-end latency
	Parts       []Part  // sorted by tier then component
}

// ConservationErr returns the relative error between the summed
// components and the root span's end-to-end latency.
func (b *Breakdown) ConservationErr() float64 {
	var sum float64
	for _, p := range b.Parts {
		sum += p.Seconds
	}
	if b.Total <= 0 {
		return math.Abs(sum)
	}
	return math.Abs(sum-b.Total) / b.Total
}

// Analysis is the result of walking a span forest.
type Analysis struct {
	Breakdowns []Breakdown
	Errors     int // failed-outcome roots, excluded from the budget
	Skipped    int // roots with open (still-running) spans underneath
}

// Window returns the subset of the analysis whose roots started in
// [from, to) — the experiment's pre-/post-resize comparison.
func (a *Analysis) Window(from, to float64) *Analysis {
	out := &Analysis{}
	for _, b := range a.Breakdowns {
		if b.Start >= from && b.Start < to {
			out.Breakdowns = append(out.Breakdowns, b)
		}
	}
	return out
}

// Analyze walks every closed "request" root in the forest and
// decomposes it. Roots (or subtrees) still open are skipped; roots
// that failed are counted but not attributed.
func Analyze(roots []*trace.SpanNode) *Analysis {
	a := &Analysis{Breakdowns: make([]Breakdown, 0, len(roots))}
	ac := make(accum, 0, 16) // reused by every root
	for _, r := range roots {
		if r.Span.Kind != "request" {
			continue
		}
		if hasOpen(r) {
			a.Skipped++
			continue
		}
		if outcome(&r.Span) != "ok" {
			a.Errors++
			continue
		}
		a.Breakdowns = append(a.Breakdowns, decompose(r, &ac))
	}
	return a
}

// FromTracer analyzes the tracer's current span forest.
func FromTracer(tr *trace.Tracer) *Analysis {
	return Analyze(tr.SpanTree())
}

func hasOpen(n *trace.SpanNode) bool {
	if n.Span.Open {
		return true
	}
	for _, c := range n.Children {
		if hasOpen(c) {
			return true
		}
	}
	return false
}

func outcome(s *trace.Span) string {
	for i := len(s.Fields) - 1; i >= 0; i-- {
		if s.Fields[i].Key == "outcome" {
			return s.Fields[i].Value()
		}
	}
	return ""
}

// accum collects (tier, component) → seconds during one walk. It is a
// small linear slice — a request touches at most a dozen or so
// tier/component pairs — so attribution's hot loop does no map work.
type accum []Part

func (ac *accum) add(tier, component string, sec float64) {
	if sec <= 0 {
		return
	}
	s := *ac
	for i := range s {
		if s[i].Tier == tier && s[i].Component == component {
			// sec is mostly a product; converting it keeps it rounded,
			// so arm64 cannot fuse the product into this sum.
			s[i].Seconds += float64(sec)
			return
		}
	}
	*ac = append(s, Part{Tier: tier, Component: component, Seconds: sec})
}

// decompose attributes one root, collecting its parts in ac (emptied
// first); the breakdown's Parts is a slice of their own length.
func decompose(root *trace.SpanNode, ac *accum) Breakdown {
	*ac = (*ac)[:0]
	walk(root, root.Span.Start, root.Span.End, 1, ac)
	// Few parts, nearly sorted already: a closure-free insertion sort
	// avoids sort.Slice's func-value indirection in this hot path.
	ps := *ac
	for i := 1; i < len(ps); i++ {
		for j := i; j > 0 && (ps[j].Tier < ps[j-1].Tier ||
			(ps[j].Tier == ps[j-1].Tier && ps[j].Component < ps[j-1].Component)); j-- {
			ps[j], ps[j-1] = ps[j-1], ps[j]
		}
	}
	return Breakdown{
		Interaction: root.Span.Name,
		Start:       root.Span.Start,
		Total:       root.Span.End - root.Span.Start,
		Parts:       append(make([]Part, 0, len(ps)), ps...),
	}
}

// clampedLen returns a span's length clamped to a window.
func clampedLen(s *trace.Span, winStart, winEnd float64) float64 {
	start := math.Max(s.Start, winStart)
	end := math.Min(s.End, winEnd)
	if end < start {
		return 0
	}
	return end - start
}

// walk attributes node n's interval, clamped to [winStart, winEnd] and
// scaled by k (concurrent siblings share their wall-clock union).
func walk(n *trace.SpanNode, winStart, winEnd, k float64, ac *accum) {
	start := math.Max(n.Span.Start, winStart)
	end := math.Min(n.Span.End, winEnd)
	if end < start {
		return
	}
	total := end - start
	tier := TierOf(n.Span.Kind, n.Span.Name)

	// Children: failed subtrees are charged whole to this tier's retry
	// component; the rest recurse. Overlapping children (write
	// broadcast) are scaled so their attributed sum equals the
	// wall-clock union of their intervals. Spans begin in time order so
	// the intervals are nearly sorted — insertion sort on a stack
	// buffer beats sort.Slice (whose closure forces a heap escape) in
	// this per-request hot path.
	var childSum, unionLen float64
	type iv struct{ s, e float64 }
	var ivBuf [8]iv
	var clBuf [8]float64
	ivs := ivBuf[:0]
	cls := clBuf[:0]
	for _, c := range n.Children {
		cl := clampedLen(&c.Span, start, end)
		cls = append(cls, cl)
		if cl <= 0 {
			continue
		}
		childSum += cl
		ivs = append(ivs, iv{math.Max(c.Span.Start, start), math.Min(c.Span.End, end)})
	}
	for i := 1; i < len(ivs); i++ {
		for j := i; j > 0 && (ivs[j].s < ivs[j-1].s ||
			(ivs[j].s == ivs[j-1].s && ivs[j].e < ivs[j-1].e)); j-- {
			ivs[j], ivs[j-1] = ivs[j-1], ivs[j]
		}
	}
	cursor := math.Inf(-1)
	for _, v := range ivs {
		if v.s > cursor {
			unionLen += v.e - v.s
			cursor = v.e
		} else if v.e > cursor {
			unionLen += v.e - cursor
			cursor = v.e
		}
	}
	scale := 1.0
	if childSum > 0 {
		scale = unionLen / childSum
	}
	for i, c := range n.Children {
		cl := cls[i]
		if cl <= 0 {
			continue
		}
		if outcome(&c.Span) != "ok" && c.Span.Kind != "request" {
			ac.add(tier, Retry, k*scale*cl)
			continue
		}
		walk(c, start, end, k*scale, ac)
	}

	// Self time: this span's interval minus its children's union.
	self := total - unionLen
	if self < 0 {
		self = 0
	}
	busy, svc, downstream, hasBusy := accountingFields(&n.Span)
	if !hasBusy {
		// No on-node accounting (the client root): all self-time is
		// network/think overhead outside any node.
		ac.add(tier, Network, k*self)
		return
	}
	if busy > self {
		busy = self
	}
	if svc > busy {
		svc = busy
	}
	ac.add(tier, Service, k*svc)
	ac.add(tier, Queue, k*(busy-svc))
	// Off-node self-time is network by default; a span marked
	// "waits-on" (the C-JDBC write broadcast) charges it as queueing
	// for the named downstream tier instead.
	if downstream != "" {
		ac.add(downstream, Queue, k*(self-busy))
	} else {
		ac.add(tier, Network, k*(self-busy))
	}
}

// accountingFields extracts busy/svc/waits-on in one pass over the
// span's fields (last occurrence wins) — the walk is cost-budgeted
// and separate scans per key showed up in its profile.
func accountingFields(s *trace.Span) (busy, svc float64, downstream string, hasBusy bool) {
	var hasSvc, hasWaits bool
	for i := len(s.Fields) - 1; i >= 0; i-- {
		switch s.Fields[i].Key {
		case "busy":
			if !hasBusy {
				if v, ok := s.Fields[i].Float(); ok {
					busy, hasBusy = v, true
				}
			}
		case "svc":
			if !hasSvc {
				if v, ok := s.Fields[i].Float(); ok {
					svc, hasSvc = v, true
				}
			}
		case "waits-on":
			if !hasWaits {
				downstream, hasWaits = s.Fields[i].Value(), true
			}
		}
	}
	return busy, svc, downstream, hasBusy
}
