package alert

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
)

// Schemas stamped into the exported documents.
const (
	AlertsPageSchema = "jade-alerts/v1"
	IncidentsSchema  = "jade-incidents/v1"
)

// alertWire is the JSON shape of one alert on the /alerts page.
type alertWire struct {
	ID         int      `json:"id"`
	Rule       string   `json:"rule"`
	Component  string   `json:"component,omitempty"`
	Tier       string   `json:"tier,omitempty"`
	Severity   Severity `json:"severity"`
	Value      float64  `json:"value"`
	Threshold  float64  `json:"threshold"`
	Detail     string   `json:"detail,omitempty"`
	FiredAt    float64  `json:"fired_at"`
	ResolvedAt *float64 `json:"resolved_at,omitempty"`
	IncidentID int      `json:"incident_id"`
	TraceID    uint64   `json:"trace_id,omitempty"`
}

func toWire(a *Alert) alertWire {
	w := alertWire{
		ID: a.ID, Rule: a.Rule, Component: a.Component, Tier: a.Tier,
		Severity: a.Severity, Value: a.Value, Threshold: a.Threshold,
		Detail: a.Detail, FiredAt: a.FiredAt, IncidentID: a.IncidentID,
		TraceID: uint64(a.TraceID),
	}
	if !a.Firing() {
		t := a.ResolvedAt
		w.ResolvedAt = &t
	}
	return w
}

// alertsPage is the document served at /alerts.
type alertsPage struct {
	Schema      string      `json:"schema"`
	Time        float64     `json:"time"`
	Active      []alertWire `json:"active"`
	Resolved    []alertWire `json:"resolved"`
	FiredTotal  int         `json:"fired_total"`
	FirstPageAt *float64    `json:"first_page_at,omitempty"`
}

// incidentWire is the JSON shape of one incident.
type incidentWire struct {
	ID          int             `json:"id"`
	Open        bool            `json:"open"`
	StartedAt   float64         `json:"started_at"`
	ResolvedAt  *float64        `json:"resolved_at,omitempty"`
	Severity    Severity        `json:"severity"`
	Suspect     string          `json:"suspect,omitempty"`
	SuspectTier string          `json:"suspect_tier,omitempty"`
	AlertIDs    []int           `json:"alert_ids"`
	SpanID      uint64          `json:"span_id,omitempty"`
	Timeline    []TimelineEntry `json:"timeline"`
}

// incidentsDoc is the document served at /incidents and written to
// incidents.json.
type incidentsDoc struct {
	Schema    string         `json:"schema"`
	Time      float64        `json:"time"`
	Incidents []incidentWire `json:"incidents"`
}

// AlertsJSONL renders the full alert transition stream, one JSON object
// per line, deterministically (same seed ⇒ same bytes).
func (e *Engine) AlertsJSONL() []byte {
	var buf bytes.Buffer
	for _, tr := range e.Transitions() {
		b, err := json.Marshal(tr)
		if err != nil {
			continue
		}
		buf.Write(b)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// AlertsPage renders the /alerts document as of now.
func (e *Engine) AlertsPage(now float64) []byte {
	page := alertsPage{Schema: AlertsPageSchema, Time: now, Active: []alertWire{}, Resolved: []alertWire{}}
	if e != nil {
		for _, a := range e.alerts {
			if a.Firing() {
				page.Active = append(page.Active, toWire(a))
			} else {
				page.Resolved = append(page.Resolved, toWire(a))
			}
		}
		page.FiredTotal = len(e.alerts)
		if e.firstPage >= 0 {
			t := e.firstPage
			page.FirstPageAt = &t
		}
	}
	b, _ := json.MarshalIndent(page, "", "  ")
	return append(b, '\n')
}

// IncidentsJSON renders the /incidents document (also written to
// incidents.json) as of now.
func (e *Engine) IncidentsJSON(now float64) []byte {
	doc := incidentsDoc{Schema: IncidentsSchema, Time: now, Incidents: []incidentWire{}}
	for _, inc := range e.Incidents() {
		w := incidentWire{
			ID: inc.ID, Open: inc.Open(), StartedAt: inc.StartedAt,
			Severity: inc.Severity, Suspect: inc.Suspect, SuspectTier: inc.SuspectTier,
			SpanID: uint64(inc.SpanID), AlertIDs: []int{}, Timeline: inc.Timeline,
		}
		if w.Timeline == nil {
			w.Timeline = []TimelineEntry{}
		}
		if !inc.Open() {
			t := inc.ResolvedAt
			w.ResolvedAt = &t
		}
		for _, a := range inc.Alerts {
			w.AlertIDs = append(w.AlertIDs, a.ID)
		}
		doc.Incidents = append(doc.Incidents, w)
	}
	b, _ := json.MarshalIndent(doc, "", "  ")
	return append(b, '\n')
}

// RenderText renders a human-readable alert + incident report for
// `jadectl scenario -alerts`.
func (e *Engine) RenderText() string {
	if !e.Enabled() {
		return "  alerting disabled\n"
	}
	var b strings.Builder
	if len(e.alerts) == 0 {
		b.WriteString("  no alerts fired\n")
	}
	for _, a := range e.alerts {
		state := "firing"
		if !a.Firing() {
			state = fmt.Sprintf("resolved %8.1fs", a.ResolvedAt)
		}
		fmt.Fprintf(&b, "  #%-3d %-5s %-28s %-10s fired %8.1fs  %-16s %s\n",
			a.ID, a.Severity, a.Rule, orDash(a.Component), a.FiredAt, state, a.Detail)
	}
	for _, inc := range e.Incidents() {
		state := "open"
		if !inc.Open() {
			state = fmt.Sprintf("resolved %.1fs", inc.ResolvedAt)
		}
		fmt.Fprintf(&b, "\n  incident-%d [%s] started %.1fs (%s) suspect=%s alerts=%d\n",
			inc.ID, inc.Severity, inc.StartedAt, state, orDash(inc.Suspect), len(inc.Alerts))
		for _, entry := range inc.Timeline {
			fmt.Fprintf(&b, "    %8.1fs  %-16s %-14s %-10s %s\n",
				entry.T, entry.Kind, entry.Source, orDash(entry.Component), entry.Detail)
		}
	}
	return b.String()
}

// ValidateAlertsJSONL checks an alerts.jsonl stream: every line parses,
// times are monotonically non-decreasing, events are known, and IDs are
// positive. Returns the number of transitions.
func ValidateAlertsJSONL(data []byte) (int, error) {
	n := 0
	last := -1.0
	for _, line := range bytes.Split(data, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var tr Transition
		if err := json.Unmarshal(line, &tr); err != nil {
			return n, fmt.Errorf("alerts.jsonl line %d: %w", n+1, err)
		}
		switch tr.Event {
		case "fire", "escalate", "resolve":
		default:
			return n, fmt.Errorf("alerts.jsonl line %d: unknown event %q", n+1, tr.Event)
		}
		if tr.AlertID <= 0 || tr.IncidentID <= 0 {
			return n, fmt.Errorf("alerts.jsonl line %d: non-positive id", n+1)
		}
		if tr.T < last {
			return n, fmt.Errorf("alerts.jsonl line %d: time went backwards (%.3f < %.3f)", n+1, tr.T, last)
		}
		last = tr.T
		n++
	}
	return n, nil
}

// ValidateAlertsPage checks a /alerts document.
func ValidateAlertsPage(data []byte) error {
	var page alertsPage
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&page); err != nil {
		return fmt.Errorf("alerts page: %w", err)
	}
	if page.Schema != AlertsPageSchema {
		return fmt.Errorf("alerts page: schema %q, want %q", page.Schema, AlertsPageSchema)
	}
	if got := len(page.Active) + len(page.Resolved); got != page.FiredTotal {
		return fmt.Errorf("alerts page: active+resolved = %d, fired_total = %d", got, page.FiredTotal)
	}
	for _, a := range page.Active {
		if a.ResolvedAt != nil {
			return fmt.Errorf("alerts page: active alert %d has resolved_at", a.ID)
		}
	}
	return nil
}

// ValidateIncidentsJSON checks a /incidents (incidents.json) document.
func ValidateIncidentsJSON(data []byte) error {
	var doc incidentsDoc
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		return fmt.Errorf("incidents: %w", err)
	}
	if doc.Schema != IncidentsSchema {
		return fmt.Errorf("incidents: schema %q, want %q", doc.Schema, IncidentsSchema)
	}
	for _, inc := range doc.Incidents {
		if inc.Open == (inc.ResolvedAt != nil) {
			return fmt.Errorf("incident %d: open/resolved_at mismatch", inc.ID)
		}
		if len(inc.AlertIDs) == 0 {
			return fmt.Errorf("incident %d: no alerts", inc.ID)
		}
		last := -1.0
		for i, entry := range inc.Timeline {
			if entry.T < last {
				return fmt.Errorf("incident %d: timeline entry %d out of order", inc.ID, i)
			}
			last = entry.T
		}
	}
	return nil
}
