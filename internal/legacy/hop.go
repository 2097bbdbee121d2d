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
// one and is the job's owner, so a hop is a single allocation:
//
//	r := &record{...}
//	r.Begin(now, metrics, tracer, parentSpan, "kind", name)
//	node.Run(&r.Job, cost, r)        // r.JobDone: r.Ran(now), the tier's work
//	r.End(metrics, tracer, svc, err) // then answer the caller
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
