package legacy

import (
	"jade/internal/cluster"
	"jade/internal/obs"
	"jade/internal/trace"
)

// Hop is the part of a request's stay at one tier that every tier shares:
// the instruments' in-flight bracket, the tier's span under the one the
// request arrived with, the CPU job on the tier's node and how long it took
// there. Each tier's per-request record (an Apache page, a balancer's
// forward, a Tomcat servlet, a C-JDBC request, a MySQL execution) embeds
// one and is the job's owner. The tier takes the record from a FreeList of
// its own in the handler and puts it back in the record's one finish, so a
// warm hop allocates nothing:
//
//	r := t.records.Get()
//	r.Begin(now, metrics, tracer, parentSpan, "kind", name)
//	node.Run(&r.Job, cost, r)        // r.JobDone: r.Ran(now), the tier's work
//
//	// finish, reached exactly once:
//	r.End(metrics, tracer, svc, err)
//	done := r.done                   // and anything else it still needs
//	t.records.Put(r)
//	done.Reply(err)                  // last: the caller may reuse r at once
//
// finish is reached exactly once because two contracts say so. A record is
// its job's cluster.JobOwner, and the node calls exactly one of JobDone and
// JobFailed, once (JobFailed from inside Run when the node is already
// down, so nothing after Run may touch the record). A record is also the
// netsim.Reply of the call it makes to the next hop, and Fabric.Start fires
// done exactly once, however many attempts the call makes. A refusal
// because the tier is not running answers before taking a record.
//
// The client's WebRequest is recycled too, by the client, but only once no
// fabric call carries it (WebRequest.Held): a delivery that arrives after
// its call settled still reads it, after the client was answered.
type Hop struct {
	// Job is the hop's CPU job, queued by the record with Node.Run.
	Job cluster.Job
	// Span is the hop's span, zero when the request is untraced; the record
	// hands it to the next tier as the parent.
	Span trace.ID

	began     float64 // TierMetrics.Begin
	submitted float64 // when the hop began, just before its job is queued
	busy      float64 // queue wait + service on the node; zero until Ran
}

// Begin opens the hop at virtual time now. The span opens before the job
// is queued, so it covers the local queue wait; fields are recorded on it.
func (h *Hop) Begin(now float64, m *obs.TierMetrics, tr *trace.Tracer, parent trace.ID, kind, name string, fields ...trace.Field) {
	h.began = m.Begin()
	h.submitted = now
	if parent != 0 {
		// The tracer copies the fields into its own storage, so the
		// caller's slice stays on its stack, traced or not.
		h.Span = tr.Begin(parent, kind, name, fields...)
	}
}

// Ran records the interval the job spent on the node, queue wait included.
// Records call it from JobDone; the balancers, which have always reported
// the interval up to a crash, from JobFailed too.
func (h *Hop) Ran(now float64) { h.busy = now - h.submitted }

// End closes the span with "busy" (the local interval), "svc" (the ideal
// service time; the attribution walker splits the span's self-time into
// queue, service and network from the two), the outcome and extra, then
// records the outcome in the instruments.
func (h *Hop) End(m *obs.TierMetrics, tr *trace.Tracer, svc float64, err error, extra ...trace.Field) {
	if h.Span != 0 {
		var buf [4]trace.Field // room for a balancer's member: the fields stay on the stack
		fields := append(buf[:0], trace.Ff("busy", h.busy), trace.Ff("svc", svc), trace.Outcome(err))
		tr.End(h.Span, append(fields, extra...)...)
	}
	m.End(h.began, err)
}

// FreeList is a stack of idle records of one type, owned by the server,
// balancer or controller whose records they are. Get returns a zeroed
// record, allocating one only when none is idle; Put zeroes the record and
// keeps it. An idle record therefore pins nothing for the collector, and a
// reused one starts idle: its Job's idx is zero, so Node.Run's "job queued
// twice" panic still guards it. The engine runs on one goroutine, so there
// is no lock. The zero value is an empty list.
type FreeList[T any] struct{ idle []*T }

// Get returns an idle record, or a new one.
func (l *FreeList[T]) Get() *T {
	n := len(l.idle)
	if n == 0 {
		return new(T)
	}
	r := l.idle[n-1]
	l.idle[n-1] = nil
	l.idle = l.idle[:n-1]
	return r
}

// Put zeroes r and keeps it for the next Get. r must not be used after.
func (l *FreeList[T]) Put(r *T) {
	var zero T
	*r = zero
	l.idle = append(l.idle, r)
}

// Len returns the number of idle records.
func (l *FreeList[T]) Len() int { return len(l.idle) }
