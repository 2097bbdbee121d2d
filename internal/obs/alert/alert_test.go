package alert

import (
	"bytes"
	"testing"
)

// tickTo advances the engine through fixed 5 s ticks up to end.
func tickTo(e *Engine, from, end float64) float64 {
	for t := from; t <= end; t += 5 {
		e.Tick(t)
	}
	return end
}

// scriptedRule replays a fixed findings schedule keyed by tick time.
type scriptedRule struct {
	name   string
	script map[float64][]Finding
}

func (r *scriptedRule) Name() string                   { return r.name }
func (r *scriptedRule) Evaluate(now float64) []Finding { return r.script[now] }

func TestBurnRulePagesOnBothWindows(t *testing.T) {
	r := NewBurnRule("client-latency-p95", "client")
	// Healthy history fills the slow window.
	for ts := 10.0; ts <= 600; ts += 10 {
		r.Observe(ts, 0.5, true)
	}
	if fs := r.Evaluate(600); fs != nil {
		t.Fatalf("healthy stream produced findings: %+v", fs)
	}
	// Every interval bad from 610 on: the fast window saturates quickly
	// (burn 100x), the slow window climbs past pageBurnRate once ~15% of its
	// samples are bad.
	var got []Finding
	var at float64
	for ts := 610.0; ts <= 800; ts += 10 {
		r.Observe(ts, 3.5, false)
		if fs := r.Evaluate(ts); len(fs) > 0 && fs[0].Severity == SevPage && got == nil {
			got, at = fs, ts
		}
	}
	if got == nil {
		t.Fatal("burn rule never paged on a fully burning stream")
	}
	if !got[0].ServiceLevel || got[0].Component != "client" {
		t.Fatalf("finding = %+v, want service-level client", got[0])
	}
	if at > 720 {
		t.Fatalf("page at t=%.0f, want within ~2 minutes of the outage", at)
	}
}

func TestBurnRuleSingleBadIntervalDoesNotPage(t *testing.T) {
	r := NewBurnRule("client-abandon-rate", "client")
	for ts := 10.0; ts <= 600; ts += 10 {
		r.Observe(ts, 0, true)
	}
	r.Observe(610, 0.5, false)
	if fs := r.Evaluate(610); len(fs) > 0 && fs[0].Severity == SevPage {
		// fast burn is ~16x but slow burn is ~1.6x: min() must gate it.
		t.Fatalf("single bad interval paged: %+v", fs[0])
	}
}

func TestEngineHysteresisAndResolve(t *testing.T) {
	f := Finding{Component: "tomcat2", Tier: "app", Severity: SevWarn, Value: 3, Threshold: 2, Detail: "slow"}
	script := map[float64][]Finding{}
	for ts := 10.0; ts <= 40; ts += 5 {
		script[ts] = []Finding{f}
	}
	e := NewEngine(false, nil)
	e.AddRule(&scriptedRule{name: "skew:test", script: script})
	tickTo(e, 5, 40)
	if e.ActiveCount() != 1 {
		t.Fatalf("active = %d, want 1", e.ActiveCount())
	}
	// Condition clear from 45 on; the alert must survive until 30 s of
	// silence have passed (last seen at 40, so resolution lands at 70).
	tickTo(e, 45, 65)
	if e.ActiveCount() != 1 {
		t.Fatalf("alert resolved before hysteresis elapsed (active=%d)", e.ActiveCount())
	}
	tickTo(e, 70, 80)
	if e.ActiveCount() != 0 {
		t.Fatalf("alert still active after hysteresis (active=%d)", e.ActiveCount())
	}
	alerts := e.Alerts()
	if len(alerts) != 1 || alerts[0].Firing() {
		t.Fatalf("alerts = %+v", alerts)
	}
	// The incident stays open for the correlation gap (120 s) after the
	// resolve at 70, then closes and blames the replica.
	tickTo(e, 75, 185)
	if incs := e.Incidents(); len(incs) != 1 || !incs[0].Open() {
		t.Fatalf("incident closed before the correlation gap: %+v", incs)
	}
	tickTo(e, 190, 200)
	incs := e.Incidents()
	if len(incs) != 1 || incs[0].Open() || incs[0].Suspect != "tomcat2" {
		t.Fatalf("incidents = %+v", incs)
	}
}

func TestZScoreRuleFiresAndFreezesBaseline(t *testing.T) {
	series := map[float64]float64{}
	for ts := 5.0; ts <= 60; ts += 5 { // the 12 warmup samples, around 1.0
		series[ts] = 1.0 + 0.01*float64(int(ts)%3)
	}
	for ts := 65.0; ts <= 120; ts += 5 { // sustained step to 5.0
		series[ts] = 5.0
	}
	r := NewZScoreRule("anomaly:test", "client", "client", true, 0.1,
		func(now float64) (float64, bool) { v, ok := series[now]; return v, ok })
	var first float64 = -1
	for ts := 5.0; ts <= 120; ts += 5 {
		if fs := r.Evaluate(ts); len(fs) > 0 && first < 0 {
			first = ts
		}
	}
	if first < 0 {
		t.Fatal("z-score rule never fired on a 5x step")
	}
	if first != 70 { // anomalous at 65, 2nd consecutive at 70
		t.Fatalf("first finding at t=%.0f, want 70 (two consecutive anomalous ticks)", first)
	}
	// The frozen baseline must still be near 1.0 — the sustained
	// degradation may not absorb itself into normality.
	if r.mean > 1.5 {
		t.Fatalf("baseline absorbed the anomaly: mean=%.2f", r.mean)
	}
}

func TestSkewRuleNamesSlowBackendAndEscalates(t *testing.T) {
	stats := []BackendStat{
		{Name: "tomcat1", MeanLatency: 0.06, LatencySamples: 10},
		{Name: "tomcat2", MeanLatency: 0.20, LatencySamples: 10}, // ~3.3x median
		{Name: "tomcat3", MeanLatency: 0.06, LatencySamples: 10},
	}
	r := NewSkewRule("skew:app-pool", "app", 0.05, func() []BackendStat { return stats })
	e := NewEngine(false, nil)
	e.AddRule(r)
	e.Tick(5)
	if e.ActiveCount() != 0 {
		t.Fatal("skew fired on the first hot tick (needs two)")
	}
	e.Tick(10)
	alerts := e.Alerts()
	if len(alerts) != 1 || alerts[0].Component != "tomcat2" || alerts[0].Severity != SevWarn {
		t.Fatalf("alerts after 2 ticks = %+v", alerts)
	}
	// Moderate (<2x skewRatio) but persistent: escalates to page once
	// the skew has held pagePersistSeconds.
	tickTo(e, 15, 30)
	if alerts[0].Severity != SevPage {
		t.Fatalf("persistent skew never paged: %+v", alerts[0])
	}
	if e.FirstPage() == nil || e.FirstPage().Component != "tomcat2" {
		t.Fatalf("first page = %+v", e.FirstPage())
	}
}

func TestSkewRuleExtremeRatioPagesImmediately(t *testing.T) {
	stats := []BackendStat{
		{Name: "mysql1", MeanLatency: 0.05, LatencySamples: 10},
		{Name: "mysql2", MeanLatency: 0.80, LatencySamples: 10}, // 16x median
	}
	r := NewSkewRule("skew:db-pool", "db", 0.05, func() []BackendStat { return stats })
	fs := r.Evaluate(5)
	if len(fs) != 0 {
		t.Fatal("fired on first tick")
	}
	fs = r.Evaluate(10)
	if len(fs) != 1 || fs[0].Severity != SevPage || fs[0].Component != "mysql2" {
		t.Fatalf("findings = %+v, want immediate page on 16x skew", fs)
	}
}

func TestSkewRuleFailureReservoir(t *testing.T) {
	stats := []BackendStat{
		{Name: "tomcat1", MeanLatency: 0.06, LatencySamples: 10, Failures: 0},
		{Name: "tomcat2", MeanLatency: 0.06, LatencySamples: 10, Failures: 12},
		{Name: "tomcat3", MeanLatency: 0.06, LatencySamples: 10, Failures: 0},
	}
	r := NewSkewRule("skew:app-pool", "app", 0.05, func() []BackendStat { return stats })
	r.Evaluate(5)
	fs := r.Evaluate(10)
	if len(fs) != 1 || fs[0].Component != "tomcat2" || fs[0].Severity != SevPage {
		t.Fatalf("findings = %+v, want page naming tomcat2 on hot failure reservoir", fs)
	}
}

func TestIncidentFoldsOverlappingAlertsAndPrefersReplicaSuspect(t *testing.T) {
	burnF := Finding{Component: "client", Tier: "client", Severity: SevPage, Value: 20, Threshold: 14.4, ServiceLevel: true}
	skewF := Finding{Component: "tomcat2", Tier: "app", Severity: SevWarn, Value: 3.4, Threshold: 3}
	burnScript, skewScript := map[float64][]Finding{}, map[float64][]Finding{}
	for ts := 10.0; ts <= 30; ts += 5 {
		burnScript[ts] = []Finding{burnF}
	}
	for ts := 20.0; ts <= 40; ts += 5 { // overlaps the burn alert
		skewScript[ts] = []Finding{skewF}
	}
	e := NewEngine(false, nil)
	e.AddRule(&scriptedRule{name: "burn:client-latency-p95", script: burnScript})
	e.AddRule(&scriptedRule{name: "skew:app-pool", script: skewScript})
	e.Observe(5, "detector.suspect", "detector", "tomcat9", "phi crossed", 0)
	tickTo(e, 5, 200)
	incs := e.Incidents()
	if len(incs) != 1 {
		t.Fatalf("incidents = %d, want the overlapping alerts folded into 1", len(incs))
	}
	inc := incs[0]
	if inc.Open() {
		t.Fatal("incident never closed after the gap")
	}
	if len(inc.Alerts) != 2 {
		t.Fatalf("incident alerts = %d, want 2", len(inc.Alerts))
	}
	// The replica-level warn must outrank the service-level page.
	if inc.Suspect != "tomcat2" || inc.SuspectTier != "app" {
		t.Fatalf("suspect = %q/%q, want tomcat2/app", inc.Suspect, inc.SuspectTier)
	}
	if inc.Severity != SevPage {
		t.Fatalf("incident severity = %q, want page", inc.Severity)
	}
	// Pre-incident context within lookbackSeconds is spliced in.
	foundContext := false
	for _, entry := range inc.Timeline {
		if entry.Kind == "detector.suspect" && entry.Component == "tomcat9" {
			foundContext = true
		}
	}
	if !foundContext {
		t.Fatalf("lookback context missing from timeline: %+v", inc.Timeline)
	}
}

func TestSeparatedAlertsOpenSeparateIncidents(t *testing.T) {
	f := Finding{Component: "tomcat2", Tier: "app", Severity: SevWarn, Value: 4, Threshold: 3}
	script := map[float64][]Finding{10: {f}, 15: {f}, 200: {f}, 205: {f}}
	e := NewEngine(false, nil)
	e.AddRule(&scriptedRule{name: "skew:app-pool", script: script})
	tickTo(e, 5, 300)
	if n := len(e.Incidents()); n != 2 {
		t.Fatalf("incidents = %d, want 2 (episodes separated beyond the correlation gap)", n)
	}
}

func TestExportsValidateAndAreDeterministic(t *testing.T) {
	build := func() *Engine {
		pageF := Finding{Component: "client", Tier: "client", Severity: SevPage, Value: 20, Threshold: 14.4, ServiceLevel: true}
		warnF := Finding{Component: "tomcat2", Tier: "app", Severity: SevWarn, Value: 3.4, Threshold: 3}
		burnScript, skewScript := map[float64][]Finding{}, map[float64][]Finding{}
		for ts := 10.0; ts <= 30; ts += 5 {
			burnScript[ts] = []Finding{pageF}
			skewScript[ts+10] = []Finding{warnF}
		}
		e := NewEngine(false, nil)
		e.AddRule(&scriptedRule{name: "burn:client-latency-p95", script: burnScript})
		e.AddRule(&scriptedRule{name: "skew:app-pool", script: skewScript})
		e.Observe(2, "loop.reconfig", "control-loop", "", "db grow", 0)
		tickTo(e, 5, 200)
		return e
	}
	a, b := build(), build()

	jsonl := a.AlertsJSONL()
	if n, err := ValidateAlertsJSONL(jsonl); err != nil || n == 0 {
		t.Fatalf("AlertsJSONL invalid (n=%d): %v\n%s", n, err, jsonl)
	}
	if !bytes.Equal(jsonl, b.AlertsJSONL()) {
		t.Fatal("AlertsJSONL not deterministic")
	}
	page := a.AlertsPage(200)
	if err := ValidateAlertsPage(page); err != nil {
		t.Fatalf("AlertsPage invalid: %v\n%s", err, page)
	}
	if !bytes.Equal(page, b.AlertsPage(200)) {
		t.Fatal("AlertsPage not deterministic")
	}
	incs := a.IncidentsJSON(200)
	if err := ValidateIncidentsJSON(incs); err != nil {
		t.Fatalf("IncidentsJSON invalid: %v\n%s", err, incs)
	}
	if !bytes.Equal(incs, b.IncidentsJSON(200)) {
		t.Fatal("IncidentsJSON not deterministic")
	}
	if txt := a.RenderText(); txt == "" || txt != b.RenderText() {
		t.Fatal("RenderText empty or not deterministic")
	}
}

func TestDisabledEngineIsInert(t *testing.T) {
	e := NewEngine(true, nil)
	e.AddRule(&scriptedRule{name: "skew:x", script: map[float64][]Finding{
		5: {{Component: "c", Severity: SevPage, Value: 1}},
	}})
	e.Tick(5)
	if e.ActiveCount() != 0 || len(e.Alerts()) != 0 {
		t.Fatal("disabled engine evaluated rules")
	}
	if err := ValidateAlertsPage(e.AlertsPage(5)); err != nil {
		t.Fatalf("disabled AlertsPage invalid: %v", err)
	}
	if err := ValidateIncidentsJSON(e.IncidentsJSON(5)); err != nil {
		t.Fatalf("disabled IncidentsJSON invalid: %v", err)
	}
	if e.RenderText() != "  alerting disabled\n" {
		t.Fatalf("RenderText = %q", e.RenderText())
	}
}
