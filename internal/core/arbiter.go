package core

import (
	"fmt"

	"jade/internal/metrics"
	"jade/internal/trace"
)

// Arbiter implements the conflict-arbitration manager the paper lists as
// future work (§7): "Managers have their own goal and control loops and
// therefore require a way to arbitrate potential conflicts."
//
// Each autonomic manager requests permission before actuating, with a
// priority. The arbiter grants one reconfiguration at a time and holds a
// quiet window afterwards (generalizing the shared Inhibitor); a
// higher-priority manager (e.g. self-recovery) may preempt the window a
// lower-priority one (e.g. self-optimization) opened, but never the
// reverse. Every decision is recorded for introspection.
type Arbiter struct {
	// QuietSeconds is the post-grant window during which equal- or
	// lower-priority requests are denied (the paper's one minute).
	QuietSeconds float64
	// Trace, when set, records every decision as an "arbiter.verdict"
	// event on the telemetry bus.
	Trace *trace.Tracer

	holder   string
	priority int
	until    float64

	decisions []ArbiterDecision
}

// ArbiterDecision records one arbitration outcome.
type ArbiterDecision struct {
	T         float64
	Requester string
	Priority  int
	Granted   bool
	Reason    string
}

// Standard priorities: repair beats optimization.
const (
	PriorityOptimization = 1
	PriorityRecovery     = 10
)

// NewArbiter returns an arbiter with the given quiet window.
func NewArbiter(quietSeconds float64) *Arbiter {
	return &Arbiter{QuietSeconds: quietSeconds}
}

// Request asks permission to reconfigure now. It returns true when the
// requester may proceed; the quiet window is then re-armed on its
// behalf.
func (a *Arbiter) Request(now float64, requester string, priority int) bool {
	if now < a.until && priority <= a.priority {
		a.record(now, requester, priority, false,
			fmt.Sprintf("quiet window held by %s (priority %d) until t=%.1f", a.holder, a.priority, a.until))
		return false
	}
	reason := "idle"
	if now < a.until {
		reason = fmt.Sprintf("preempted %s (priority %d < %d)", a.holder, a.priority, priority)
	}
	a.holder = requester
	a.priority = priority
	a.until = now + a.QuietSeconds
	a.record(now, requester, priority, true, reason)
	return true
}

// Decisions returns the recorded decision log.
func (a *Arbiter) Decisions() []ArbiterDecision {
	return append([]ArbiterDecision(nil), a.decisions...)
}

func (a *Arbiter) record(t float64, requester string, prio int, granted bool, reason string) {
	a.decisions = append(a.decisions, ArbiterDecision{
		T: t, Requester: requester, Priority: prio, Granted: granted, Reason: reason,
	})
	verdict := "denied"
	if granted {
		verdict = "granted"
	}
	a.Trace.Emit("arbiter.verdict", requester,
		trace.F("verdict", verdict), trace.Fi("priority", prio), trace.F("reason", reason))
}

// AdaptiveTuner implements the other piece of the paper's future work:
// "improving the self-optimizing algorithm by setting incrementally and
// dynamically its parameters." It is itself a control loop: it observes
// the client-perceived response time and nudges a threshold reactor's
// Max threshold — down when the latency objective is violated (react
// earlier to load) and up when latency is comfortably met (pack the
// nodes tighter), within bounds.
type AdaptiveTuner struct {
	reactor *ThresholdReactor
	// ReadLatency returns the current windowed mean latency in seconds
	// and whether the reading is valid.
	ReadLatency func(now float64) (float64, bool)

	// SLOSeconds is the latency objective.
	SLOSeconds float64
	// Comfort is the fraction of the SLO under which Max may rise.
	Comfort float64
	// Step is the per-adjustment threshold increment.
	Step float64
	// FloorMax and CeilMax bound the tuned threshold.
	FloorMax, CeilMax float64

	// MaxSeries traces the tuned threshold over time.
	MaxSeries *metrics.Series

	raises, lowers uint64
}

// NewAdaptiveTuner builds a tuner with sensible defaults (SLO 1 s,
// comfort 0.3, step 0.02, bounds [0.5, 0.9]).
func NewAdaptiveTuner(reactor *ThresholdReactor, readLatency func(now float64) (float64, bool), slo float64) *AdaptiveTuner {
	return &AdaptiveTuner{
		reactor:     reactor,
		ReadLatency: readLatency,
		SLOSeconds:  slo,
		Comfort:     0.3,
		Step:        0.02,
		FloorMax:    0.5,
		CeilMax:     0.9,
		MaxSeries:   metrics.NewSeries("tuned-max-threshold"),
	}
}

// Sample implements Sensor (the tuner is its own loop's sensor).
func (t *AdaptiveTuner) Sample(now float64) (float64, bool) {
	return t.ReadLatency(now)
}

// React implements Reactor: nudge the threshold.
func (t *AdaptiveTuner) React(now float64, latency float64) {
	switch {
	case latency > t.SLOSeconds && t.reactor.Max > t.FloorMax:
		t.reactor.Max -= t.Step
		if t.reactor.Max < t.FloorMax {
			t.reactor.Max = t.FloorMax
		}
		t.lowers++
		t.MaxSeries.Add(now, t.reactor.Max)
	case latency < t.SLOSeconds*t.Comfort && t.reactor.Max < t.CeilMax:
		t.reactor.Max += t.Step
		if t.reactor.Max > t.CeilMax {
			t.reactor.Max = t.CeilMax
		}
		t.raises++
		t.MaxSeries.Add(now, t.reactor.Max)
	}
}

// Adjustments returns (raises, lowers) counters.
func (t *AdaptiveTuner) Adjustments() (raises, lowers uint64) { return t.raises, t.lowers }
