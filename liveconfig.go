package jade

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"

	"jade/internal/refresh"
)

// OperatorEvent is one scripted live-configuration change: at At seconds
// after workload start, apply Patch (the same JSON grammar the admin
// /config endpoint accepts) through the run's refresh hub. Because the
// event fires at an exact virtual tick on the simulation goroutine,
// equal seeds with equal schedules replay byte-identically.
type OperatorEvent struct {
	At    float64         `json:"at"`
	Patch json.RawMessage `json:"patch"`
}

// OperatorSchedule is a scripted live-configuration schedule, applied in
// At order.
type OperatorSchedule []OperatorEvent

// Sorted returns the schedule ordered by At (stable, original intact).
func (s OperatorSchedule) Sorted() OperatorSchedule {
	out := append(OperatorSchedule(nil), s...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// ConfigPatch is the refreshable subset of Spec, with every field
// optional: absent fields keep their current value. It is the wire
// grammar of the admin POST /config body, Spec.Operator events and chaos
// "config" events. Fields outside this grammar (workload shape, node
// counts, telemetry sinks, ...) are structural and rejected as "not
// refreshable at runtime".
type ConfigPatch struct {
	Sizing   *SizingPatchGroup `json:"sizing,omitempty"`
	Routing  *RoutingPatch     `json:"routing,omitempty"`
	Faults   *FaultsPatch      `json:"faults,omitempty"`
	Checks   *ChecksPatch      `json:"checks,omitempty"`
	Alerting *AlertingPatch    `json:"alerting,omitempty"`
}

// SizingPatchGroup addresses the two sizing loops.
type SizingPatchGroup struct {
	App *SizingPatch `json:"app,omitempty"`
	DB  *SizingPatch `json:"db,omitempty"`
}

// SizingPatch retunes one sizing loop's thresholds and hysteresis.
type SizingPatch struct {
	Min            *float64 `json:"min,omitempty"`
	Max            *float64 `json:"max,omitempty"`
	InhibitSeconds *float64 `json:"inhibit_seconds,omitempty"`
}

// RoutingPatch swaps selector policies and tuning live. Policy, when
// set, applies to every tier; per-tier fields override it.
type RoutingPatch struct {
	Policy            *string  `json:"policy,omitempty"`
	L4                *string  `json:"l4,omitempty"`
	App               *string  `json:"app,omitempty"`
	DB                *string  `json:"db,omitempty"`
	ProbeAfterSeconds *float64 `json:"probe_after_seconds,omitempty"`
	HalfLifeSeconds   *float64 `json:"half_life_seconds,omitempty"`
}

// FaultsPatch reaches the network fabric's refreshable knobs.
type FaultsPatch struct {
	Network *NetworkPatch `json:"network,omitempty"`
}

// NetworkPatch replaces per-tier RPC timeout/retry budgets.
type NetworkPatch struct {
	RPC map[string]RPCBudget `json:"rpc,omitempty"`
}

// ChecksPatch retargets SLO objectives by name.
type ChecksPatch struct {
	SLOTargets map[string]float64 `json:"slo_targets,omitempty"`
}

// AlertingPatch retunes the alerting plane's rule thresholds. The
// evaluation ticker period and the on/off switch are structural (they
// change the event schedule) and deliberately absent.
type AlertingPatch struct {
	FastWindowSeconds *float64 `json:"fast_window_seconds,omitempty"`
	SlowWindowSeconds *float64 `json:"slow_window_seconds,omitempty"`
	BudgetFraction    *float64 `json:"budget_fraction,omitempty"`
	PageBurn          *float64 `json:"page_burn,omitempty"`
	WarnBurn          *float64 `json:"warn_burn,omitempty"`
	ZThreshold        *float64 `json:"z_threshold,omitempty"`
	SkewFactor        *float64 `json:"skew_factor,omitempty"`
	HysteresisSeconds *float64 `json:"hysteresis_seconds,omitempty"`
}

// empty reports whether the patch changes nothing.
func (p *ConfigPatch) empty() bool {
	return p == nil || (p.Sizing == nil && p.Routing == nil && p.Faults == nil && p.Checks == nil && p.Alerting == nil)
}

// ParseConfigPatch decodes a refreshable-config patch, rejecting fields
// outside the refreshable grammar with a structured FieldError.
func ParseConfigPatch(patch []byte) (*ConfigPatch, error) {
	if len(bytes.TrimSpace(patch)) == 0 {
		return nil, &ValidationError{Fields: []FieldError{{Msg: "empty patch"}}}
	}
	dec := json.NewDecoder(bytes.NewReader(patch))
	dec.DisallowUnknownFields()
	var p ConfigPatch
	if err := dec.Decode(&p); err != nil {
		if name, ok := unknownField(err); ok {
			return nil, &ValidationError{Fields: []FieldError{{Path: name, Msg: "not refreshable at runtime (or unknown)"}}}
		}
		return nil, &ValidationError{Fields: []FieldError{{Msg: "invalid patch JSON: " + err.Error()}}}
	}
	if dec.More() {
		return nil, &ValidationError{Fields: []FieldError{{Msg: "trailing data after patch object"}}}
	}
	return &p, nil
}

// unknownField extracts the field name from encoding/json's
// DisallowUnknownFields error.
func unknownField(err error) (string, bool) {
	msg := err.Error()
	const marker = `unknown field "`
	i := strings.Index(msg, marker)
	if i < 0 {
		return "", false
	}
	rest := msg[i+len(marker):]
	j := strings.Index(rest, `"`)
	if j < 0 {
		return "", false
	}
	return rest[:j], true
}

// CheckPatch validates a patch's syntax and grammar without a running
// scenario (Spec.Validate uses it for operator schedules and chaos
// config events; value constraints against the live state are re-checked
// at application time).
func CheckPatch(patch []byte) error {
	p, err := ParseConfigPatch(patch)
	if err != nil {
		return err
	}
	var ve ValidationError
	if p.empty() {
		ve.addf("", "patch changes nothing")
	}
	if r := p.Routing; r != nil {
		ve.checkPolicies([4]*string{r.Policy, r.L4, r.App, r.DB})
	}
	return ve.or()
}

// ConfigChange is one applied (or rejected) live configuration change,
// as reported on the /config page and in ScenarioResult.ConfigChanges.
type ConfigChange struct {
	T      float64         `json:"t"`
	Source string          `json:"source"`
	Patch  json.RawMessage `json:"patch"`
	Error  string          `json:"error,omitempty"`
}

// ConfigSnapshot is the GET /config wire document (jade-config/v1): the
// current refreshable configuration plus the applied-change log.
type ConfigSnapshot struct {
	Schema      string  `json:"schema"`
	Time        float64 `json:"time"`
	Generation  uint64  `json:"generation"`
	Refreshable struct {
		Sizing struct {
			App SizingConfig `json:"app"`
			DB  SizingConfig `json:"db"`
		} `json:"sizing"`
		Routing struct {
			L4                string  `json:"l4"`
			App               string  `json:"app"`
			DB                string  `json:"db"`
			ProbeAfterSeconds float64 `json:"probe_after_seconds"`
			HalfLifeSeconds   float64 `json:"half_life_seconds"`
		} `json:"routing"`
		RPC        map[string]RPCBudget `json:"rpc,omitempty"`
		SLOTargets map[string]float64   `json:"slo_targets,omitempty"`
		Alerting   struct {
			FastWindowSeconds float64 `json:"fast_window_seconds"`
			SlowWindowSeconds float64 `json:"slow_window_seconds"`
			BudgetFraction    float64 `json:"budget_fraction"`
			PageBurn          float64 `json:"page_burn"`
			WarnBurn          float64 `json:"warn_burn"`
			ZThreshold        float64 `json:"z_threshold"`
			SkewFactor        float64 `json:"skew_factor"`
			HysteresisSeconds float64 `json:"hysteresis_seconds"`
		} `json:"alerting"`
	} `json:"refreshable"`
	Applied  []ConfigChange `json:"applied"`
	Rejected int            `json:"rejected"`
	Pending  int            `json:"pending"`
}

// ConfigSnapshotSchema identifies the /config document.
const ConfigSnapshotSchema = "jade-config/v1"

// ParseConfigSnapshot decodes and schema-checks a GET /config document
// (jadectl's config subcommand and the smoke tests share it).
func ParseConfigSnapshot(data []byte) (*ConfigSnapshot, error) {
	var doc ConfigSnapshot
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("jade: config snapshot: %w", err)
	}
	if doc.Schema != ConfigSnapshotSchema {
		return nil, fmt.Errorf("jade: config snapshot: schema %q, want %q", doc.Schema, ConfigSnapshotSchema)
	}
	return &doc, nil
}

// configRuntime owns a scenario's refreshable configuration: the typed
// views the managers subscribe to, the hub every change funnels through,
// and the applied-change log. All mutation happens on the simulation
// goroutine via hub.Apply/Drain; the views' own locks make reads safe
// from anywhere.
type configRuntime struct {
	hub        *refresh.Hub
	appSizing  *refresh.View[SizingConfig]
	dbSizing   *refresh.View[SizingConfig]
	routing    *refresh.View[RoutingConfig]
	rpc        *refresh.View[map[string]RPCBudget]
	sloTargets *refresh.View[map[string]float64]
	alerting   *refresh.View[AlertConfig]

	mu  sync.Mutex
	log []ConfigChange
}

// newConfigRuntime seeds the views with the scenario's effective (post-
// default) configuration and binds the hub callbacks.
func newConfigRuntime(hub *refresh.Hub, app, db SizingConfig, routing RoutingConfig, rpc map[string]RPCBudget, sloTargets map[string]float64, alerting AlertConfig) *configRuntime {
	rt := &configRuntime{
		hub:        hub,
		appSizing:  refresh.NewView("sizing.app", app),
		dbSizing:   refresh.NewView("sizing.db", db),
		routing:    refresh.NewView("routing", routing),
		rpc:        refresh.NewView("faults.network.rpc", copyBudgets(rpc)),
		sloTargets: refresh.NewView("checks.slo_targets", copyTargets(sloTargets)),
		alerting:   refresh.NewView("alerting", alerting),
	}
	hub.Bind(rt.check, rt.apply)
	return rt
}

func copyBudgets(in map[string]RPCBudget) map[string]RPCBudget {
	out := make(map[string]RPCBudget, len(in))
	for k, v := range in {
		out[k] = v
	}
	return out
}

func copyTargets(in map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(in))
	for k, v := range in {
		out[k] = v
	}
	return out
}

// resolved is a fully-validated candidate configuration: the values the
// views would hold after the patch commits.
type resolved struct {
	app, db    SizingConfig
	routing    RoutingConfig
	rpc        map[string]RPCBudget
	sloTargets map[string]float64
	alerting   AlertConfig

	appChanged, dbChanged, routingChanged bool
	rpcChanged, sloChanged, alertChanged  bool
}

// resolve merges the patch over the current view values and validates
// the result, reporting every violated constraint with its field path.
func (rt *configRuntime) resolve(p *ConfigPatch) (resolved, error) {
	r := resolved{
		app:        rt.appSizing.Get(),
		db:         rt.dbSizing.Get(),
		routing:    rt.routing.Get(),
		rpc:        rt.rpc.Get(),
		sloTargets: rt.sloTargets.Get(),
		alerting:   rt.alerting.Get(),
	}
	var ve ValidationError
	if p.empty() {
		ve.addf("", "patch changes nothing")
		return r, ve.or()
	}
	if p.Sizing != nil {
		apply := func(path string, cur SizingConfig, sp *SizingPatch) (SizingConfig, bool) {
			if sp == nil {
				return cur, false
			}
			if sp.Min != nil {
				cur.Min = *sp.Min
			}
			if sp.Max != nil {
				cur.Max = *sp.Max
			}
			if sp.InhibitSeconds != nil {
				cur.InhibitSeconds = *sp.InhibitSeconds
			}
			if cur.Min < 0 {
				ve.addf(path+".min", "must be >= 0, got %g", cur.Min)
			}
			if cur.Max <= cur.Min {
				ve.addf(path+".max", "must be > %s.min (%g), got %g", path, cur.Min, cur.Max)
			}
			if cur.InhibitSeconds < 0 {
				ve.addf(path+".inhibit_seconds", "must be >= 0, got %g", cur.InhibitSeconds)
			}
			return cur, true
		}
		r.app, r.appChanged = apply("sizing.app", r.app, p.Sizing.App)
		r.db, r.dbChanged = apply("sizing.db", r.db, p.Sizing.DB)
	}
	if p.Routing != nil {
		rc := r.routing
		if p.Routing.Policy != nil {
			rc.L4, rc.App, rc.DB = *p.Routing.Policy, *p.Routing.Policy, *p.Routing.Policy
		}
		if p.Routing.L4 != nil {
			rc.L4 = *p.Routing.L4
		}
		if p.Routing.App != nil {
			rc.App = *p.Routing.App
		}
		if p.Routing.DB != nil {
			rc.DB = *p.Routing.DB
		}
		if p.Routing.ProbeAfterSeconds != nil {
			rc.ProbeAfterSeconds = *p.Routing.ProbeAfterSeconds
		}
		if p.Routing.HalfLifeSeconds != nil {
			rc.HalfLifeSeconds = *p.Routing.HalfLifeSeconds
		}
		ve.checkPolicies(givenPolicies("", rc.L4, rc.App, rc.DB))
		if rc.ProbeAfterSeconds < 0 {
			ve.addf("routing.probe_after_seconds", "must be >= 0, got %g", rc.ProbeAfterSeconds)
		}
		if rc.HalfLifeSeconds < 0 {
			ve.addf("routing.half_life_seconds", "must be >= 0, got %g", rc.HalfLifeSeconds)
		}
		r.routing, r.routingChanged = rc, true
	}
	if p.Faults != nil && p.Faults.Network != nil && p.Faults.Network.RPC != nil {
		rpc := copyBudgets(r.rpc)
		for tier, b := range p.Faults.Network.RPC {
			if b.TimeoutSeconds < 0 {
				ve.addf("faults.network.rpc["+tier+"].timeout_seconds", "must be >= 0, got %g", b.TimeoutSeconds)
			}
			if b.Attempts < 0 {
				ve.addf("faults.network.rpc["+tier+"].attempts", "must be >= 0, got %d", b.Attempts)
			}
			if b.BackoffSeconds < 0 {
				ve.addf("faults.network.rpc["+tier+"].backoff_seconds", "must be >= 0, got %g", b.BackoffSeconds)
			}
			rpc[tier] = b
		}
		r.rpc, r.rpcChanged = rpc, true
	}
	if p.Checks != nil && p.Checks.SLOTargets != nil {
		slo := copyTargets(r.sloTargets)
		for name, target := range p.Checks.SLOTargets {
			if target <= 0 {
				ve.addf("checks.slo_targets["+name+"]", "must be > 0, got %g", target)
			}
			slo[name] = target
		}
		r.sloTargets, r.sloChanged = slo, true
	}
	if p.Alerting != nil {
		ac := r.alerting
		set := func(dst *float64, src *float64) {
			if src != nil {
				*dst = *src
			}
		}
		set(&ac.FastWindowSeconds, p.Alerting.FastWindowSeconds)
		set(&ac.SlowWindowSeconds, p.Alerting.SlowWindowSeconds)
		set(&ac.BudgetFraction, p.Alerting.BudgetFraction)
		set(&ac.PageBurn, p.Alerting.PageBurn)
		set(&ac.WarnBurn, p.Alerting.WarnBurn)
		set(&ac.ZThreshold, p.Alerting.ZThreshold)
		set(&ac.SkewFactor, p.Alerting.SkewFactor)
		set(&ac.HysteresisSeconds, p.Alerting.HysteresisSeconds)
		for _, f := range []struct {
			path string
			v    float64
		}{
			{"alerting.fast_window_seconds", ac.FastWindowSeconds},
			{"alerting.slow_window_seconds", ac.SlowWindowSeconds},
			{"alerting.budget_fraction", ac.BudgetFraction},
			{"alerting.page_burn", ac.PageBurn},
			{"alerting.warn_burn", ac.WarnBurn},
			{"alerting.z_threshold", ac.ZThreshold},
			{"alerting.skew_factor", ac.SkewFactor},
			{"alerting.hysteresis_seconds", ac.HysteresisSeconds},
		} {
			if f.v <= 0 {
				ve.addf(f.path, "must be > 0, got %g", f.v)
			}
		}
		if ac.FastWindowSeconds > ac.SlowWindowSeconds {
			ve.addf("alerting.fast_window_seconds", "must be <= slow window (%g), got %g", ac.SlowWindowSeconds, ac.FastWindowSeconds)
		}
		if ac.WarnBurn > ac.PageBurn {
			ve.addf("alerting.warn_burn", "must be <= page burn (%g), got %g", ac.PageBurn, ac.WarnBurn)
		}
		if ac.BudgetFraction > 1 {
			ve.addf("alerting.budget_fraction", "must be <= 1, got %g", ac.BudgetFraction)
		}
		r.alerting, r.alertChanged = ac, true
	}
	return r, ve.or()
}

// check is the hub's advisory validator: it parses and resolves against
// the latest committed values. Safe from any goroutine.
func (rt *configRuntime) check(source string, patch []byte) error {
	p, err := ParseConfigPatch(patch)
	if err != nil {
		return err
	}
	_, err = rt.resolve(p)
	return err
}

// apply is the hub's authoritative applier: re-validate and commit the
// views. Simulation goroutine only; the hub has already opened the
// "config" trace span.
func (rt *configRuntime) apply(now float64, source string, patch []byte) error {
	p, perr := ParseConfigPatch(patch)
	var r resolved
	if perr == nil {
		r, perr = rt.resolve(p)
	}
	change := ConfigChange{T: now, Source: source, Patch: append(json.RawMessage(nil), patch...)}
	if perr != nil {
		change.Error = perr.Error()
		rt.mu.Lock()
		rt.log = append(rt.log, change)
		rt.mu.Unlock()
		return perr
	}
	if r.appChanged {
		rt.appSizing.Set(now, r.app)
	}
	if r.dbChanged {
		rt.dbSizing.Set(now, r.db)
	}
	if r.routingChanged {
		rt.routing.Set(now, r.routing)
	}
	if r.rpcChanged {
		rt.rpc.Set(now, r.rpc)
	}
	if r.sloChanged {
		rt.sloTargets.Set(now, r.sloTargets)
	}
	if r.alertChanged {
		rt.alerting.Set(now, r.alerting)
	}
	rt.mu.Lock()
	rt.log = append(rt.log, change)
	rt.mu.Unlock()
	return nil
}

// generation sums the view generations: it bumps on every committed
// change.
func (rt *configRuntime) generation() uint64 {
	return rt.appSizing.Generation() + rt.dbSizing.Generation() +
		rt.routing.Generation() + rt.rpc.Generation() +
		rt.sloTargets.Generation() + rt.alerting.Generation()
}

// changes returns a copy of the applied/rejected change log.
func (rt *configRuntime) changes() []ConfigChange {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return append([]ConfigChange(nil), rt.log...)
}

// renderPage renders the GET /config document.
func (rt *configRuntime) renderPage(now float64) []byte {
	doc := ConfigSnapshot{Schema: ConfigSnapshotSchema, Time: now, Generation: rt.generation()}
	doc.Refreshable.Sizing.App = rt.appSizing.Get()
	doc.Refreshable.Sizing.DB = rt.dbSizing.Get()
	routing := rt.routing.Get()
	doc.Refreshable.Routing.L4 = routing.L4
	doc.Refreshable.Routing.App = routing.App
	doc.Refreshable.Routing.DB = routing.DB
	doc.Refreshable.Routing.ProbeAfterSeconds = routing.ProbeAfterSeconds
	doc.Refreshable.Routing.HalfLifeSeconds = routing.HalfLifeSeconds
	doc.Refreshable.RPC = rt.rpc.Get()
	doc.Refreshable.SLOTargets = rt.sloTargets.Get()
	ac := rt.alerting.Get()
	doc.Refreshable.Alerting.FastWindowSeconds = ac.FastWindowSeconds
	doc.Refreshable.Alerting.SlowWindowSeconds = ac.SlowWindowSeconds
	doc.Refreshable.Alerting.BudgetFraction = ac.BudgetFraction
	doc.Refreshable.Alerting.PageBurn = ac.PageBurn
	doc.Refreshable.Alerting.WarnBurn = ac.WarnBurn
	doc.Refreshable.Alerting.ZThreshold = ac.ZThreshold
	doc.Refreshable.Alerting.SkewFactor = ac.SkewFactor
	doc.Refreshable.Alerting.HysteresisSeconds = ac.HysteresisSeconds
	doc.Applied = rt.changes()
	doc.Pending = rt.hub.Pending()
	// The applied log includes rejected submissions (with their error);
	// keep only committed ones in Applied and count the rest.
	applied := doc.Applied[:0]
	for _, c := range doc.Applied {
		if c.Error == "" {
			applied = append(applied, c)
		} else {
			doc.Rejected++
		}
	}
	doc.Applied = applied
	b, _ := json.MarshalIndent(&doc, "", "  ")
	return append(b, '\n')
}

// configPostResponse is the POST /config response body.
type configPostResponse struct {
	Status string       `json:"status"` // accepted | rejected
	Detail string       `json:"detail,omitempty"`
	Fields []FieldError `json:"fields,omitempty"`
}

// handleConfigPost validates and enqueues a live patch; the simulation
// goroutine drains it at the next config-drain tick. Never touches live
// sim state (the publisher serves it from the HTTP goroutine).
func (rt *configRuntime) handleConfigPost(body []byte) (int, []byte) {
	respond := func(status int, r configPostResponse) (int, []byte) {
		b, _ := json.MarshalIndent(&r, "", "  ")
		return status, append(b, '\n')
	}
	if err := rt.hub.Enqueue(refresh.SourceAdmin, body); err != nil {
		if err == refresh.ErrClosed {
			return respond(409, configPostResponse{Status: "rejected", Detail: "run complete; configuration frozen"})
		}
		return respond(400, configPostResponse{Status: "rejected", Detail: "validation failed", Fields: AsValidationError(err)})
	}
	return respond(202, configPostResponse{Status: "accepted", Detail: "patch applies at the next drain tick"})
}
