package jade

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
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

func (e OperatorEvent) at() float64 { return e.At }

// OperatorSchedule is a scripted live-configuration schedule, applied in
// At order.
type OperatorSchedule []OperatorEvent

// ConfigPatch is the refreshable subset of Spec, with every field
// optional: absent fields keep their current value. It is the wire
// grammar of the admin POST /config body, Spec.Operator events and chaos
// "config" events: the sizing loops' thresholds and inhibition, and the
// routing policies. Fields outside this grammar (workload shape, node
// counts, RPC budgets, telemetry sinks, ...) are structural, and the
// alerting rules' tuning and the SLO targets are constants; a patch
// naming one is rejected as "not refreshable at runtime".
type ConfigPatch struct {
	Sizing  *SizingPatchGroup `json:"sizing,omitempty"`
	Routing *RoutingPatch     `json:"routing,omitempty"`
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

// RoutingPatch swaps selector policies live. Policy, when set, applies
// to every tier; per-tier fields override it.
type RoutingPatch struct {
	Policy *string `json:"policy,omitempty"`
	L4     *string `json:"l4,omitempty"`
	App    *string `json:"app,omitempty"`
	DB     *string `json:"db,omitempty"`
}

// empty reports whether the patch changes nothing.
func (p *ConfigPatch) empty() bool {
	return p == nil || (p.Sizing == nil && p.Routing == nil)
}

// ParseConfigPatch decodes a refreshable-config patch, rejecting fields
// outside the refreshable grammar with a structured FieldError at their
// path.
func ParseConfigPatch(patch []byte) (*ConfigPatch, error) {
	if len(bytes.TrimSpace(patch)) == 0 {
		return nil, &ValidationError{Fields: []FieldError{{Msg: "empty patch"}}}
	}
	var p ConfigPatch
	if err := decodeStrict(patch, &p); err != nil {
		if strings.Contains(err.Error(), "json: unknown field ") {
			path := unknownPath(json.NewDecoder(bytes.NewReader(patch)), reflect.TypeOf(p))
			return nil, &ValidationError{Fields: []FieldError{{Path: path, Msg: "not refreshable at runtime (or unknown)"}}}
		}
		return nil, &ValidationError{Fields: []FieldError{{Msg: "invalid patch JSON: " + err.Error()}}}
	}
	return &p, nil
}

// unknownPath walks one JSON object in document order and returns the
// dotted path of the first key that names no field of the struct type t,
// or of the struct a known key nests: the key DisallowUnknownFields
// refused, whose error names it without the sections around it.
func unknownPath(dec *json.Decoder, t reflect.Type) string {
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return ""
	}
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return ""
		}
		key, _ := tok.(string)
		f, ok := jsonField(t, key)
		if !ok {
			return key
		}
		if ft := f.Type; ft.Kind() == reflect.Pointer && ft.Elem().Kind() == reflect.Struct {
			if path := unknownPath(dec, ft.Elem()); path != "" {
				return key + "." + path
			}
		} else if dec.Decode(new(json.RawMessage)) != nil {
			return ""
		}
	}
	dec.Token() // the object's closing brace
	return ""
}

// jsonField finds the field of the struct type t that a JSON key decodes
// into, matching its name case-insensitively as encoding/json does.
func jsonField(t reflect.Type, key string) (reflect.StructField, bool) {
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if name, _, _ := strings.Cut(f.Tag.Get("json"), ","); strings.EqualFold(name, key) {
			return f, true
		}
	}
	return reflect.StructField{}, false
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
		Routing RoutingConfig `json:"routing"`
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
	if err := decodeStrict(data, &doc); err != nil {
		return nil, fmt.Errorf("jade: config snapshot: %w", err)
	}
	if doc.Schema != ConfigSnapshotSchema {
		return nil, fmt.Errorf("jade: config snapshot: schema %q, want %q", doc.Schema, ConfigSnapshotSchema)
	}
	return &doc, nil
}

// liveState is the refreshable configuration: what the live views hold,
// and what Spec.Validate applies a spec's scripted patches to.
type liveState struct {
	app, db SizingConfig
	routing RoutingConfig
}

// initialLive is a run's live state before any patch, built from its
// defaulted configuration.
func initialLive(cfg *ScenarioConfig) liveState {
	return liveState{app: cfg.AppSizing, db: cfg.DBSizing, routing: cfg.Routing}
}

// patched is a live state after a patch, with the sections it touched.
type patched struct {
	liveState
	appSet, dbSet, routingSet bool
}

// resolve parses a patch, merges it over s and checks every section it
// touches with the field rules, reporting each violation at its path.
func (s liveState) resolve(raw []byte) (patched, error) {
	p, err := ParseConfigPatch(raw)
	if err != nil {
		return patched{}, err
	}
	n := patched{liveState: s}
	var ve ValidationError
	if p.empty() {
		ve.addf("", "patch changes nothing")
		return n, ve.or()
	}
	if p.Sizing != nil {
		n.appSet = overlay(&n.app, p.Sizing.App)
		n.dbSet = overlay(&n.db, p.Sizing.DB)
	}
	if r := p.Routing; r != nil {
		rc := &n.routing
		if r.Policy != nil {
			rc.L4, rc.App, rc.DB = *r.Policy, *r.Policy, *r.Policy
		}
		n.routingSet = overlay(rc, r)
	}
	if n.appSet {
		ve.checkSizing("sizing.app", n.app)
	}
	if n.dbSet {
		ve.checkSizing("sizing.db", n.db)
	}
	if n.routingSet {
		ve.checkRouting(n.routing)
	}
	return n, ve.or()
}

// overlay copies the fields a patch section gives onto the live value,
// whose JSON names are the section's, and reports whether the section was
// given at all.
func overlay[P any](dst any, section *P) bool {
	if section == nil {
		return false
	}
	b, _ := json.Marshal(section)
	return json.Unmarshal(b, dst) == nil
}

// configRuntime owns a scenario's refreshable configuration: the typed
// views the managers subscribe to, the hub every change funnels through,
// and the applied-change log. All mutation happens on the simulation
// goroutine via hub.Apply/Drain; the views' own locks make reads safe
// from anywhere.
type configRuntime struct {
	hub       *refresh.Hub
	appSizing *refresh.View[SizingConfig]
	dbSizing  *refresh.View[SizingConfig]
	routing   *refresh.View[RoutingConfig]

	mu  sync.Mutex
	log []ConfigChange
}

// newConfigRuntime seeds the views with the run's initial live state and
// binds the hub callbacks.
func newConfigRuntime(hub *refresh.Hub, s liveState) *configRuntime {
	rt := &configRuntime{
		hub:       hub,
		appSizing: refresh.NewView("sizing.app", s.app),
		dbSizing:  refresh.NewView("sizing.db", s.db),
		routing:   refresh.NewView("routing", s.routing),
	}
	hub.Bind(rt.check, rt.apply)
	return rt
}

// current returns the committed live state.
func (rt *configRuntime) current() liveState {
	return liveState{app: rt.appSizing.Get(), db: rt.dbSizing.Get(), routing: rt.routing.Get()}
}

// check is the hub's advisory validator: it resolves the patch against
// the latest committed values. Safe from any goroutine.
func (rt *configRuntime) check(source string, patch []byte) error {
	_, err := rt.current().resolve(patch)
	return err
}

// apply is the hub's authoritative applier: re-validate and commit the
// views. Simulation goroutine only; the hub has already opened the
// "config" trace span.
func (rt *configRuntime) apply(now float64, source string, patch []byte) error {
	r, perr := rt.current().resolve(patch)
	change := ConfigChange{T: now, Source: source, Patch: append(json.RawMessage(nil), patch...)}
	if perr != nil {
		change.Error = perr.Error()
		rt.mu.Lock()
		rt.log = append(rt.log, change)
		rt.mu.Unlock()
		return perr
	}
	if r.appSet {
		rt.appSizing.Set(now, r.app)
	}
	if r.dbSet {
		rt.dbSizing.Set(now, r.db)
	}
	if r.routingSet {
		rt.routing.Set(now, r.routing)
	}
	rt.mu.Lock()
	rt.log = append(rt.log, change)
	rt.mu.Unlock()
	return nil
}

// generation sums the view generations: it bumps on every committed
// change.
func (rt *configRuntime) generation() uint64 {
	return rt.appSizing.Generation() + rt.dbSizing.Generation() + rt.routing.Generation()
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
	doc.Refreshable.Routing = rt.routing.Get()
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
