package alert

import (
	"fmt"

	"jade/internal/trace"
)

// TimelineEntry is one causal step in an incident: an alert transition,
// a φ-accrual suspicion change, a control-loop decision, or a routing
// eviction, in virtual-time order.
type TimelineEntry struct {
	T         float64  `json:"t"`
	Kind      string   `json:"kind"`   // alert.fire, detector.suspect, loop.reconfig, route.evict, ...
	Source    string   `json:"source"` // alert-plane, detector, control-loop, router
	Component string   `json:"component,omitempty"`
	Detail    string   `json:"detail,omitempty"`
	TraceID   trace.ID `json:"trace_id,omitempty"`
}

// Incident folds overlapping alerts into one causal object. It opens
// with its first alert, absorbs every alert that fires while it is
// open (plus correlationGapSeconds after the last one resolves), and
// carries a timeline that splices the alert stream together with the
// context events fed via Engine.Observe. Each incident is also a trace
// span, so request/decision spans and incidents share one causal bus.
type Incident struct {
	ID          int
	StartedAt   float64
	ResolvedAt  float64 // -1 while open
	Severity    Severity
	Suspect     string // component the evidence blames (replica-level alerts preferred)
	SuspectTier string
	Alerts      []*Alert
	Timeline    []TimelineEntry
	SpanID      trace.ID

	activeAlerts int
	lastActivity float64
}

// Open reports whether the incident is still open.
func (inc *Incident) Open() bool { return inc.ResolvedAt < 0 }

func (inc *Incident) attach(a *Alert, now float64) {
	inc.Alerts = append(inc.Alerts, a)
	inc.activeAlerts++
	inc.lastActivity = now
	inc.noteSeverity(a.Severity)
}

func (inc *Incident) noteSeverity(s Severity) {
	if sevRank(s) > sevRank(inc.Severity) {
		inc.Severity = s
	}
}

// computeSuspect picks the component the incident blames: among its
// alerts, replica-level findings (a specific backend named by a skew or
// per-replica anomaly rule) outrank service-level symptoms (a burning
// tier SLO); within a class, higher severity wins, then earlier fire
// time, then lexicographic component order for determinism.
func (inc *Incident) computeSuspect() {
	best := -1
	better := func(a, b *Alert) bool { // a strictly better suspect than b
		if a.ServiceLevel != b.ServiceLevel {
			return !a.ServiceLevel
		}
		if sevRank(a.Severity) != sevRank(b.Severity) {
			return sevRank(a.Severity) > sevRank(b.Severity)
		}
		if a.FiredAt != b.FiredAt {
			return a.FiredAt < b.FiredAt
		}
		return a.Component < b.Component
	}
	for i, a := range inc.Alerts {
		if a.Component == "" {
			continue
		}
		if best < 0 || better(a, inc.Alerts[best]) {
			best = i
		}
	}
	if best >= 0 {
		inc.Suspect = inc.Alerts[best].Component
		inc.SuspectTier = inc.Alerts[best].Tier
	}
}

// ensureIncident returns the open incident, creating one (seeded with
// lookbackSeconds of context) if none is open.
func (e *Engine) ensureIncident(now float64, f Finding) *Incident {
	if e.open != nil {
		e.open.lastActivity = now
		return e.open
	}
	inc := &Incident{
		ID:           len(e.incidents) + 1,
		StartedAt:    now,
		ResolvedAt:   -1,
		lastActivity: now,
	}
	if e.tr != nil {
		inc.SpanID = e.tr.Begin(0, "incident", fmt.Sprintf("incident-%d", inc.ID),
			trace.F("first_component", f.Component), trace.F("first_severity", string(f.Severity)))
	}
	cut := now - lookbackSeconds
	for _, entry := range e.context {
		if entry.T >= cut {
			inc.Timeline = append(inc.Timeline, entry)
		}
	}
	e.incidents = append(e.incidents, inc)
	e.open = inc
	if e.incidentsC != nil {
		e.incidentsC.Inc()
	}
	return inc
}

func (e *Engine) closeIncident(now float64) {
	inc := e.open
	inc.ResolvedAt = inc.lastActivity
	inc.computeSuspect()
	inc.Timeline = append(inc.Timeline, TimelineEntry{
		T: now, Kind: "incident.close", Source: "alert-plane",
		Component: inc.Suspect,
		Detail:    fmt.Sprintf("incident-%d closed; suspect=%s", inc.ID, orDash(inc.Suspect)),
	})
	if e.tr != nil {
		e.tr.End(inc.SpanID, trace.F("suspect", inc.Suspect), trace.Fi("alerts", len(inc.Alerts)))
	}
	e.open = nil
}

func (e *Engine) incidentByID(id int) *Incident {
	if id <= 0 || id > len(e.incidents) {
		return nil
	}
	return e.incidents[id-1]
}

// Incidents returns every incident in open order. Suspects of still-open
// incidents are recomputed from the evidence so far.
func (e *Engine) Incidents() []*Incident {
	if e == nil {
		return nil
	}
	for _, inc := range e.incidents {
		if inc.Open() {
			inc.computeSuspect()
		}
	}
	return e.incidents
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}
