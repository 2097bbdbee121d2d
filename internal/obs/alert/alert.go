// Package alert is the deterministic alerting plane of the
// observability stack: SLO error-budget burn-rate alerts, streaming
// anomaly detectors over any measurement series, and an incident
// correlation engine that folds overlapping alerts — together with
// φ-accrual suspicion history, control-loop decisions and routing
// evictions — into causal incident timelines.
//
// Everything is clocked on sim virtual time and evaluated on the
// simulation goroutine only: rules run in registration order on a
// fixed-interval ticker, alert and incident IDs are assigned in fire
// order, and the exporters are pure functions of the engine state, so
// equal seeds produce byte-identical alerts.jsonl and incidents.json.
// HTTP readers only ever see immutable pages published at snapshot
// ticks (the same non-perturbation guarantee as the metrics plane).
package alert

import (
	"fmt"

	"jade/internal/obs"
	"jade/internal/trace"
)

// Severity grades an alert.
type Severity string

// Severities, ordered warn < page.
const (
	SevWarn Severity = "warn"
	SevPage Severity = "page"
)

func sevRank(s Severity) int {
	if s == SevPage {
		return 2
	}
	return 1
}

// The plane's tuning, in virtual seconds where it is a time. Each is a
// typed float64, so an expression over them rounds as it would over
// variables.
const (
	// EvalInterval is the rule evaluation period (the run's ticker).
	EvalInterval float64 = 5
	// fastWindow / slowWindow are the burn-rate windows: a page needs the
	// error budget burning in both, so a single flapping window cannot
	// strobe the pager.
	fastWindow float64 = 60
	slowWindow float64 = 600
	// errorBudget is the fraction of evaluation windows allowed to miss
	// their objective (a 99% compliance target).
	errorBudget float64 = 0.01
	// pageBurnRate / warnBurnRate are the burn-rate thresholds, the
	// classic multi-window multi-burn-rate pairing.
	pageBurnRate float64 = 14.4
	warnBurnRate float64 = 3
	// zTrip is the EWMA z-score at which an anomaly rule trips.
	zTrip float64 = 4
	// skewRatio is the pool-skew multiplier: a backend whose decayed mean
	// latency (or in-flight depth, or failure reservoir) sits at
	// skewRatio times the pool median is flagged.
	skewRatio float64 = 3
	// clearSeconds is how long a firing alert's condition must stay clear
	// before the alert resolves.
	clearSeconds float64 = 30
	// lookbackSeconds is how much pre-incident context (suspicions,
	// decisions, evictions) is copied into a new incident's timeline.
	lookbackSeconds float64 = 60
)

// The rules' fixed constants.
const (
	// zWarmup is how many samples an anomaly baseline needs before its
	// z-scores are trusted.
	zWarmup = 12
	// ewmaHalfLifeSeconds is the anomaly baselines' decay half-life.
	ewmaHalfLifeSeconds = 60
	// spikeFactor is the rate-of-change multiplier: a sample at
	// spikeFactor times the EWMA baseline is anomalous regardless of
	// variance.
	spikeFactor = 4
	// pagePersistSeconds is how long a skew finding must hold
	// continuously before it escalates from warn to page even when the
	// instantaneous ratio stays below 2x skewRatio. A gray replica that
	// is merely a few times slower than its pool — but stays that way —
	// still pages.
	pagePersistSeconds = 20
	// correlationGapSeconds is how long after its last alert resolves an
	// incident stays open to fold late-arriving alerts.
	correlationGapSeconds = 120
)

// Finding is one rule's verdict at one evaluation tick: the component it
// blames, how badly, and whether the finding is a service-level symptom
// (a burning SLO) or names a specific replica (a probable cause — the
// incident suspect computation prefers these).
type Finding struct {
	Component    string
	Tier         string
	Severity     Severity
	Value        float64
	Threshold    float64
	Detail       string
	ServiceLevel bool
}

// Rule is one alerting rule, evaluated every tick on the simulation
// goroutine. Implementations must be deterministic functions of their
// observed streams and now; a nil/empty return means "nothing to say".
type Rule interface {
	Name() string
	Evaluate(now float64) []Finding
}

// Alert is one firing (or resolved) alert instance.
type Alert struct {
	ID           int
	Rule         string
	Component    string
	Tier         string
	Severity     Severity
	Detail       string
	Value        float64 // worst value observed while firing
	Threshold    float64
	FiredAt      float64
	ResolvedAt   float64 // -1 while firing
	IncidentID   int
	TraceID      trace.ID
	ServiceLevel bool

	key      string
	lastSeen float64
}

// Firing reports whether the alert is still active.
func (a *Alert) Firing() bool { return a.ResolvedAt < 0 }

// Transition is one line of the alerts.jsonl stream: an alert firing,
// escalating from warn to page, or resolving.
type Transition struct {
	T          float64  `json:"t"`
	Event      string   `json:"event"` // fire | escalate | resolve
	AlertID    int      `json:"alert_id"`
	Rule       string   `json:"rule"`
	Component  string   `json:"component,omitempty"`
	Tier       string   `json:"tier,omitempty"`
	Severity   Severity `json:"severity"`
	Value      float64  `json:"value"`
	Threshold  float64  `json:"threshold"`
	Detail     string   `json:"detail,omitempty"`
	IncidentID int      `json:"incident_id"`
	TraceID    uint64   `json:"trace_id,omitempty"`
}

// maxContext bounds the pre-incident context ring.
const maxContext = 512

// Engine drives the rules, reconciles findings into alerts with
// hysteresis, and folds overlapping alerts into incidents. The
// simulation goroutine is the only caller of every method; concurrent
// readers see only pages previously rendered and published.
type Engine struct {
	off bool
	tr  *trace.Tracer

	rules       []Rule
	activeByKey map[string]*Alert
	active      []*Alert
	alerts      []*Alert
	incidents   []*Incident
	open        *Incident
	context     []TimelineEntry
	transitions []Transition

	firstPage      float64
	firstPageAlert *Alert

	activePagesG *obs.Gauge
	activeWarnsG *obs.Gauge
	alertsC      *obs.Counter
	incidentsC   *obs.Counter
	openIncG     *obs.Gauge
}

// NewEngine builds an alerting engine; off turns rule evaluation off.
// tr may be nil (no trace links).
func NewEngine(off bool, tr *trace.Tracer) *Engine {
	return &Engine{
		off:         off,
		tr:          tr,
		activeByKey: make(map[string]*Alert),
		firstPage:   -1,
	}
}

// Enabled reports whether rule evaluation is on.
func (e *Engine) Enabled() bool { return e != nil && !e.off }

// Instrument registers the plane's own metrics on reg (optional).
func (e *Engine) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	e.activePagesG = reg.Gauge("jade_alerts_active", "Currently firing alerts by severity.", obs.L("severity", string(SevPage)))
	e.activeWarnsG = reg.Gauge("jade_alerts_active", "Currently firing alerts by severity.", obs.L("severity", string(SevWarn)))
	e.alertsC = reg.Counter("jade_alerts_fired_total", "Alerts fired since the run started.")
	e.incidentsC = reg.Counter("jade_incidents_total", "Incidents opened since the run started.")
	e.openIncG = reg.Gauge("jade_incidents_open", "1 while an incident is open.")
}

// AddRule registers a rule; evaluation order is registration order.
func (e *Engine) AddRule(r Rule) {
	e.rules = append(e.rules, r)
}

// Tick evaluates every rule and reconciles the findings against the
// active alert set. Call it from a fixed-interval sim ticker.
func (e *Engine) Tick(now float64) {
	if !e.Enabled() {
		return
	}
	seen := make(map[string]Finding)
	var order []string
	for _, r := range e.rules {
		for _, f := range r.Evaluate(now) {
			k := r.Name() + "|" + f.Component
			if old, ok := seen[k]; ok {
				if sevRank(f.Severity) > sevRank(old.Severity) {
					seen[k] = f
				}
				continue
			}
			seen[k] = f
			order = append(order, k)
		}
	}
	for _, k := range order {
		f := seen[k]
		a := e.activeByKey[k]
		if a == nil {
			e.fire(now, k, f)
			continue
		}
		a.lastSeen = now
		a.Detail = f.Detail
		if worse(f, a) {
			a.Value, a.Threshold = f.Value, f.Threshold
		}
		if sevRank(f.Severity) > sevRank(a.Severity) {
			e.escalate(now, a, f)
		}
	}
	remaining := e.active[:0]
	for _, a := range e.active {
		if a.lastSeen < now && now-a.lastSeen >= clearSeconds {
			e.resolve(now, a)
			continue
		}
		remaining = append(remaining, a)
	}
	e.active = remaining
	if e.open != nil && e.open.activeAlerts == 0 && now-e.open.lastActivity >= correlationGapSeconds {
		e.closeIncident(now)
	}
	e.setGauges()
}

// worse reports whether the finding is a worse observation than the
// alert's recorded worst (higher value relative to threshold).
func worse(f Finding, a *Alert) bool {
	return f.Value > a.Value
}

func (e *Engine) fire(now float64, key string, f Finding) {
	inc := e.ensureIncident(now, f)
	rule := key
	if i := len(rule) - len(f.Component) - 1; f.Component != "" && i >= 0 {
		rule = key[:i]
	}
	a := &Alert{
		ID:           len(e.alerts) + 1,
		Rule:         rule,
		Component:    f.Component,
		Tier:         f.Tier,
		Severity:     f.Severity,
		Detail:       f.Detail,
		Value:        f.Value,
		Threshold:    f.Threshold,
		FiredAt:      now,
		ResolvedAt:   -1,
		IncidentID:   inc.ID,
		ServiceLevel: f.ServiceLevel,
		key:          key,
		lastSeen:     now,
	}
	if e.tr != nil {
		a.TraceID = e.tr.EmitIn(inc.SpanID, "alert", "alert.fire",
			trace.F("rule", a.Rule), trace.F("component", a.Component),
			trace.F("severity", string(a.Severity)), trace.Ff("value", a.Value),
			trace.Fi("incident", inc.ID))
	}
	e.alerts = append(e.alerts, a)
	e.active = append(e.active, a)
	e.activeByKey[key] = a
	inc.attach(a, now)
	e.record(now, "fire", a)
	inc.Timeline = append(inc.Timeline, TimelineEntry{
		T: now, Kind: "alert.fire", Source: "alert-plane",
		Component: a.Component, Detail: fmt.Sprintf("[%s] %s: %s", a.Severity, a.Rule, a.Detail),
		TraceID: a.TraceID,
	})
	if e.alertsC != nil {
		e.alertsC.Inc()
	}
	if f.Severity == SevPage && e.firstPage < 0 {
		e.firstPage = now
		e.firstPageAlert = a
	}
}

func (e *Engine) escalate(now float64, a *Alert, f Finding) {
	a.Severity = f.Severity
	a.Value, a.Threshold = f.Value, f.Threshold
	inc := e.incidentByID(a.IncidentID)
	if e.tr != nil {
		var span trace.ID
		if inc != nil {
			span = inc.SpanID
		}
		e.tr.EmitIn(span, "alert", "alert.escalate",
			trace.F("rule", a.Rule), trace.F("component", a.Component),
			trace.F("severity", string(a.Severity)), trace.Ff("value", a.Value))
	}
	e.record(now, "escalate", a)
	if inc != nil {
		inc.noteSeverity(a.Severity)
		inc.Timeline = append(inc.Timeline, TimelineEntry{
			T: now, Kind: "alert.escalate", Source: "alert-plane",
			Component: a.Component, Detail: fmt.Sprintf("[%s] %s: %s", a.Severity, a.Rule, a.Detail),
		})
	}
	if f.Severity == SevPage && e.firstPage < 0 {
		e.firstPage = now
		e.firstPageAlert = a
	}
}

func (e *Engine) resolve(now float64, a *Alert) {
	a.ResolvedAt = now
	delete(e.activeByKey, a.key)
	inc := e.incidentByID(a.IncidentID)
	if e.tr != nil {
		var span trace.ID
		if inc != nil {
			span = inc.SpanID
		}
		e.tr.EmitIn(span, "alert", "alert.resolve",
			trace.F("rule", a.Rule), trace.F("component", a.Component))
	}
	e.record(now, "resolve", a)
	if inc != nil {
		inc.activeAlerts--
		inc.lastActivity = now
		inc.Timeline = append(inc.Timeline, TimelineEntry{
			T: now, Kind: "alert.resolve", Source: "alert-plane",
			Component: a.Component, Detail: fmt.Sprintf("%s resolved after %.0f s", a.Rule, now-a.FiredAt),
		})
	}
}

func (e *Engine) record(now float64, event string, a *Alert) {
	e.transitions = append(e.transitions, Transition{
		T: now, Event: event, AlertID: a.ID, Rule: a.Rule,
		Component: a.Component, Tier: a.Tier, Severity: a.Severity,
		Value: a.Value, Threshold: a.Threshold, Detail: a.Detail,
		IncidentID: a.IncidentID, TraceID: uint64(a.TraceID),
	})
}

func (e *Engine) setGauges() {
	if e.activePagesG == nil {
		return
	}
	pages, warns := 0, 0
	for _, a := range e.active {
		if a.Severity == SevPage {
			pages++
		} else {
			warns++
		}
	}
	e.activePagesG.Set(float64(pages))
	e.activeWarnsG.Set(float64(warns))
	e.openIncG.SetBool(e.open != nil)
}

// Observe feeds one context event (a φ-accrual suspicion transition, a
// control-loop decision, a routing eviction) into the correlation plane:
// it lands in the open incident's timeline, and in the lookback ring so
// a future incident can reconstruct what preceded it.
func (e *Engine) Observe(now float64, kind, source, component, detail string, id trace.ID) {
	if !e.Enabled() {
		return
	}
	entry := TimelineEntry{T: now, Kind: kind, Source: source, Component: component, Detail: detail, TraceID: id}
	e.context = append(e.context, entry)
	if len(e.context) > maxContext {
		e.context = append(e.context[:0], e.context[len(e.context)-maxContext/2:]...)
	}
	if e.open != nil {
		e.open.Timeline = append(e.open.Timeline, entry)
	}
}

// Alerts returns every alert in fire order (live slice; do not mutate).
func (e *Engine) Alerts() []*Alert {
	if e == nil {
		return nil
	}
	return e.alerts
}

// ActiveCount returns the number of currently firing alerts.
func (e *Engine) ActiveCount() int {
	if e == nil {
		return 0
	}
	return len(e.active)
}

// Transitions returns the alert transition stream in emission order.
func (e *Engine) Transitions() []Transition {
	if e == nil {
		return nil
	}
	return e.transitions
}

// FirstPageTime returns the virtual time of the first page-severity
// alert, or -1 when none fired.
func (e *Engine) FirstPageTime() float64 {
	if e == nil {
		return -1
	}
	return e.firstPage
}

// FirstPage returns the first page-severity alert, or nil.
func (e *Engine) FirstPage() *Alert {
	if e == nil {
		return nil
	}
	return e.firstPageAlert
}

// FirstContextTime returns the time of the earliest context entry of the
// given kind fed via Observe (e.g. "detector.suspect"), or -1.
func (e *Engine) FirstContextTime(kind string) float64 {
	if e == nil {
		return -1
	}
	for _, entry := range e.context {
		if entry.Kind == kind {
			return entry.T
		}
	}
	return -1
}
