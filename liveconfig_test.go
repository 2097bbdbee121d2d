package jade

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"sort"
	"strings"
	"testing"

	"jade/internal/refresh"
)

func testConfigRuntime() *configRuntime {
	alerting := AlertConfig{
		FastWindowSeconds: 300, SlowWindowSeconds: 3600, BudgetFraction: 0.1,
		PageBurn: 14, WarnBurn: 6, ZThreshold: 3, SkewFactor: 2, HysteresisSeconds: 120,
	}
	return newConfigRuntime(refresh.NewHub(nil), liveState{
		app:        AppSizingDefaults(),
		db:         DBSizingDefaults(),
		routing:    RoutingConfig{App: "round-robin", DB: "least-pending"},
		rpc:        map[string]RPCBudget{"app": {TimeoutSeconds: 2, Attempts: 3, BackoffSeconds: 0.1}},
		sloTargets: map[string]float64{"client-latency-p95": 2.0},
		alerting:   alerting,
	})
}

// TestConfigPatchValidationErrors: rejected patches carry structured
// field paths, the same ones the /config endpoint returns as JSON.
func TestConfigPatchValidationErrors(t *testing.T) {
	rt := testConfigRuntime()
	cases := []struct {
		name  string
		patch string
		paths []string // every path must appear among the field errors
	}{
		{"unknown top-level field", `{"wibble": 1}`, []string{"wibble"}},
		{"unknown nested field", `{"sizing":{"app":{"inhibit": 5}}}`, []string{"inhibit"}},
		{"bad policy name", `{"routing":{"app":"fastest"}}`, []string{"routing.app"}},
		{"max below min", `{"sizing":{"app":{"max":0.2}}}`, []string{"sizing.app.max"}},
		{"negative inhibit", `{"sizing":{"db":{"inhibit_seconds":-1}}}`, []string{"sizing.db.inhibit_seconds"}},
		{"windows out of order", `{"alerting":{"fast_window_seconds":7200}}`, []string{"alerting.fast_window_seconds"}},
		{"bad slo target", `{"checks":{"slo_targets":{"client-latency-p95":-1}}}`, []string{"checks.slo_targets[client-latency-p95]"}},
		{"negative rpc budget", `{"faults":{"network":{"rpc":{"app":{"timeout_seconds":-2}}}}}`, []string{"faults.network.rpc[app].timeout_seconds"}},
		{"empty patch", `{}`, []string{""}},
		{"malformed json", `{"sizing":`, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := rt.check("test", []byte(tc.patch))
			if err == nil {
				t.Fatalf("patch %s validated, want rejection", tc.patch)
			}
			fields := AsValidationError(err)
			if len(fields) == 0 {
				t.Fatalf("no structured fields in %v", err)
			}
			for _, want := range tc.paths {
				found := false
				for _, f := range fields {
					if f.Path == want {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("no field error with path %q in %v", want, fields)
				}
			}
		})
	}
	// Valid patches resolve clean against the same runtime.
	for _, patch := range []string{
		`{"routing":{"policy":"balanced"}}`,
		`{"sizing":{"app":{"min":0.3,"max":0.7}}}`,
		`{"alerting":{"page_burn":20}}`,
		`{"checks":{"slo_targets":{"client-latency-p95":1.5}}}`,
	} {
		if err := rt.check("test", []byte(patch)); err != nil {
			t.Fatalf("valid patch %s rejected: %v", patch, err)
		}
	}
}

// liveConfigSweepScenario is a short managed run whose operator schedule
// exercises every refreshable group mid-run.
func liveConfigSweepScenario(seed int64) ScenarioConfig {
	cfg := DefaultScenario(seed, true)
	cfg.Profile = ConstantProfile{Clients: 40, Length: 90}
	cfg.Operator = OperatorSchedule{
		{At: 20, Patch: json.RawMessage(`{"sizing":{"app":{"min":0.30,"max":0.70}},"checks":{"slo_targets":{"client-latency-p95":1.5}}}`)},
		{At: 35, Patch: json.RawMessage(`{"routing":{"policy":"balanced","half_life_seconds":20}}`)},
		{At: 50, Patch: json.RawMessage(`{"alerting":{"page_burn":20,"warn_burn":8},"faults":{"network":{"rpc":{"app":{"timeout_seconds":2,"attempts":2,"backoff_seconds":0.2}}}}}`)},
	}
	return cfg
}

// TestConfigDeterminismSweep: 20 seeds, each run twice with mid-run
// config changes touching every refreshable group; the full telemetry
// bus and config-change log must be byte-identical between same-seed
// runs.
func TestConfigDeterminismSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("20-seed sweep in -short mode")
	}
	const seeds = 20
	rs := make([]expRun, 2*seeds)
	for i := range rs {
		seed := int64(100 + i/2)
		rs[i] = expRun{name: fmt.Sprintf("seed %d", seed), cfg: liveConfigSweepScenario(seed)}
	}
	if err := runAll("config sweep", rs); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(rs); i += 2 {
		var prints [2][]byte
		for j, v := range rs[i : i+2] {
			if got := appliedOperatorChanges(v.res); got != 3 {
				t.Fatalf("%s: %d/3 operator changes applied: %+v", v.name, got, v.res.ConfigChanges)
			}
			b, err := traceFingerprint(v.res)
			if err != nil {
				t.Fatal(err)
			}
			prints[j] = b
		}
		if !bytes.Equal(prints[0], prints[1]) {
			t.Fatalf("%s: same-seed runs with mid-run config changes diverge (%d vs %d fingerprint bytes)",
				rs[i].name, len(prints[0]), len(prints[1]))
		}
	}
}

// TestNoopRefreshTrajectoryNeutral: applying a patch that rewrites
// refreshable values to what they already are must not perturb the
// workload trajectory — same request counts, same latency series, same
// SLO report as a run with no patch at all. (Routing is excluded: a
// policy write rebuilds the selector, which is a real change.)
func TestNoopRefreshTrajectoryNeutral(t *testing.T) {
	base := func(seed int64) ScenarioConfig {
		cfg := DefaultScenario(seed, true)
		cfg.Profile = ConstantProfile{Clients: 40, Length: 90}
		return cfg
	}
	plain, err := RunScenario(base(7))
	if err != nil {
		t.Fatal(err)
	}
	noop := base(7)
	app, db := AppSizingDefaults(), DBSizingDefaults()
	noop.Operator = OperatorSchedule{{At: 30, Patch: json.RawMessage(fmt.Sprintf(
		`{"sizing":{"app":{"min":%g,"max":%g,"inhibit_seconds":%g},"db":{"min":%g,"max":%g,"inhibit_seconds":%g}}}`,
		app.Min, app.Max, app.InhibitSeconds, db.Min, db.Max, db.InhibitSeconds))}}
	patched, err := RunScenario(noop)
	if err != nil {
		t.Fatal(err)
	}
	if got := appliedOperatorChanges(patched); got != 1 {
		t.Fatalf("no-op patch not applied: %+v", patched.ConfigChanges)
	}
	if plain.Stats.Completed != patched.Stats.Completed || plain.Stats.Failed != patched.Stats.Failed {
		t.Fatalf("request counts differ: (%d, %d) vs (%d, %d)",
			plain.Stats.Completed, plain.Stats.Failed, patched.Stats.Completed, patched.Stats.Failed)
	}
	if plain.Reconfigurations != patched.Reconfigurations {
		t.Fatalf("reconfigurations differ: %d vs %d", plain.Reconfigurations, patched.Reconfigurations)
	}
	a, b := plain.Stats.Latency.AppendPoints(nil), patched.Stats.Latency.AppendPoints(nil)
	if len(a) != len(b) {
		t.Fatalf("latency series lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("latency point %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	if r1, r2 := plain.SLOReport.Render(), patched.SLOReport.Render(); r1 != r2 {
		t.Fatalf("SLO reports differ:\n%s\nvs\n%s", r1, r2)
	}
}

// TestConfigPostRoundTrip: a live patch POSTed to /config before the
// run starts is accepted (202), applied at the first drain tick with
// source "admin", and visible in the GET /config document; an invalid
// patch is rejected (400) with field paths; once the run completes the
// endpoint freezes (409).
func TestConfigPostRoundTrip(t *testing.T) {
	cfg := DefaultScenario(21, true)
	cfg.Profile = ConstantProfile{Clients: 30, Length: 60}
	cfg.HTTPAddr = "127.0.0.1:0"
	var adminAddr string
	post := func(body string) (int, configPostResponse) {
		resp, err := http.Post("http://"+adminAddr+"/config", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		var pr configPostResponse
		if err := json.Unmarshal(data, &pr); err != nil {
			t.Fatalf("response %q: %v", data, err)
		}
		return resp.StatusCode, pr
	}
	cfg.AdminReady = func(addr string) {
		adminAddr = addr
		// Valid patch: accepted for the next drain tick.
		if code, pr := post(`{"routing":{"policy":"balanced"}}`); code != 202 || pr.Status != "accepted" {
			t.Errorf("valid POST: status %d %+v, want 202 accepted", code, pr)
		}
		// Invalid patch: structured 400 with the offending field path.
		code, pr := post(`{"routing":{"app":"fastest"}}`)
		if code != 400 || pr.Status != "rejected" {
			t.Errorf("invalid POST: status %d %+v, want 400 rejected", code, pr)
		}
		if len(pr.Fields) == 0 || pr.Fields[0].Path != "routing.app" {
			t.Errorf("invalid POST fields = %+v, want path routing.app", pr.Fields)
		}
	}
	res, err := RunScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Admin.Close()

	applied := 0
	for _, c := range res.ConfigChanges {
		if c.Source == "admin" && c.Error == "" {
			applied++
		}
	}
	if applied != 1 {
		t.Fatalf("admin changes applied = %d, want 1 (log: %+v)", applied, res.ConfigChanges)
	}

	// The published /config document reflects the committed change.
	resp, err := http.Get("http://" + adminAddr + "/config")
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := ParseConfigSnapshot(data)
	if err != nil {
		t.Fatalf("GET /config: %v\n%s", err, data)
	}
	if snap.Refreshable.Routing.App != "balanced" || snap.Refreshable.Routing.DB != "balanced" {
		t.Fatalf("GET /config routing = %+v, want balanced", snap.Refreshable.Routing)
	}
	if len(snap.Applied) != 1 || snap.Applied[0].Source != "admin" {
		t.Fatalf("GET /config applied = %+v, want one admin change", snap.Applied)
	}

	// The run is over: the hub is closed and the endpoint frozen.
	if code, pr := post(`{"routing":{"policy":"round-robin"}}`); code != 409 || pr.Status != "rejected" {
		t.Fatalf("post-run POST: status %d %+v, want 409 rejected", code, pr)
	}
}

// TestChaosConfigEvent: the chaos schedule's "config" kind injects a
// live patch through the same hub, logged with source "chaos", and the
// sweep grammar round-trips the patch.
func TestChaosConfigEvent(t *testing.T) {
	cfg := DefaultScenario(31, true)
	cfg.Profile = ConstantProfile{Clients: 30, Length: 60}
	cfg.Chaos = ChaosSchedule{
		{At: 20, Kind: ChaosConfig, Patch: json.RawMessage(`{"sizing":{"app":{"max":0.65}}}`)},
		{At: 30, Kind: ChaosConfig, Patch: json.RawMessage(`{"routing":{"app":"fastest"}}`)}, // invalid: rejected, run continues
	}
	res, err := RunScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var applied, rejected int
	for _, c := range res.ConfigChanges {
		if c.Source != "chaos" {
			t.Fatalf("unexpected change source %q", c.Source)
		}
		if c.Error == "" {
			applied++
		} else {
			rejected++
		}
	}
	if applied != 1 || rejected != 1 {
		t.Fatalf("chaos changes applied=%d rejected=%d, want 1/1 (log: %+v)", applied, rejected, res.ConfigChanges)
	}
	if got := res.AppManager.Reactor.Max; got != 0.65 {
		t.Fatalf("app reactor max = %g after chaos config event, want 0.65", got)
	}
	// The chaos event round-trips through the sweep artifact grammar.
	data, err := json.Marshal(cfg.Chaos)
	if err != nil {
		t.Fatal(err)
	}
	var back ChaosSchedule
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back[0].Kind != ChaosConfig || string(back[0].Patch) != `{"sizing":{"app":{"max":0.65}}}` {
		t.Fatalf("chaos config event did not round-trip: %+v", back[0])
	}
}

// TestLiveRetuneQuick runs the full self-checking experiment once in
// quick mode.
func TestLiveRetuneQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("liveretune in -short mode")
	}
	_, out := runEntry(t, testEnv(t, ExperimentOptions{Seed: 1, Quick: true}), "liveretune")
	if !strings.Contains(out, "same-seed replay byte-identical: true") {
		t.Fatalf("liveretune report:\n%s", out)
	}
}

// configRuleDoors holds, for each refreshable rule, a Spec mutation and
// the equivalent live patch: both doors must reach the same verdict at the
// same paths. A Spec's zero field takes its default, so each mutation
// leaves the fields it does not name at zero.
var configRuleDoors = []struct {
	name   string
	mutate func(*Spec)
	patch  string
	paths  []string // nil: accepted
}{
	{"thresholds", func(s *Spec) { s.Sizing.App = SizingConfig{Min: 0.3, Max: 0.7} },
		`{"sizing":{"app":{"min":0.3,"max":0.7}}}`, nil},
	{"min above the default max", func(s *Spec) { s.Sizing.App = SizingConfig{Min: 0.9} },
		`{"sizing":{"app":{"min":0.9}}}`, []string{"sizing.app.max"}},
	{"max below the default min", func(s *Spec) { s.Sizing.DB = SizingConfig{Max: 0.2} },
		`{"sizing":{"db":{"max":0.2}}}`, []string{"sizing.db.max"}},
	{"negative inhibit", func(s *Spec) { s.Sizing.DB.InhibitSeconds = -1 },
		`{"sizing":{"db":{"inhibit_seconds":-1}}}`, []string{"sizing.db.inhibit_seconds"}},
	{"policy", func(s *Spec) { s.Routing.Policy = "balanced" },
		`{"routing":{"policy":"balanced"}}`, nil},
	{"unknown policy", func(s *Spec) { s.Routing.Policy = "fastest" },
		`{"routing":{"policy":"fastest"}}`, []string{"routing.app", "routing.db", "routing.l4"}},
	{"unknown tier policy", func(s *Spec) { s.Routing.App = "fastest" },
		`{"routing":{"app":"fastest"}}`, []string{"routing.app"}},
	{"negative half-life", func(s *Spec) { s.Routing.HalfLifeSeconds = -1 },
		`{"routing":{"half_life_seconds":-1}}`, []string{"routing.half_life_seconds"}},
	{"rpc budget", func(s *Spec) { s.Faults.Network.RPC = map[string]RPCBudget{"app": {TimeoutSeconds: 2, Attempts: 2}} },
		`{"faults":{"network":{"rpc":{"app":{"timeout_seconds":2,"attempts":2}}}}}`, nil},
	{"negative rpc budget", func(s *Spec) {
		s.Faults.Network.RPC = map[string]RPCBudget{"app": {TimeoutSeconds: -2}, "db": {Attempts: -1, BackoffSeconds: -1}}
	}, `{"faults":{"network":{"rpc":{"app":{"timeout_seconds":-2},"db":{"attempts":-1,"backoff_seconds":-1}}}}}`,
		[]string{"faults.network.rpc[app].timeout_seconds", "faults.network.rpc[db].attempts", "faults.network.rpc[db].backoff_seconds"}},
	{"slo target", func(s *Spec) { s.Checks.SLOTargets = map[string]float64{"client-latency-p95": 1.5} },
		`{"checks":{"slo_targets":{"client-latency-p95":1.5}}}`, nil},
	{"negative slo target", func(s *Spec) { s.Checks.SLOTargets = map[string]float64{"client-latency-p95": -1} },
		`{"checks":{"slo_targets":{"client-latency-p95":-1}}}`, []string{"checks.slo_targets[client-latency-p95]"}},
	{"page burn", func(s *Spec) { s.Alerting.PageBurn = 20 },
		`{"alerting":{"page_burn":20}}`, nil},
	{"slow window under the default fast window", func(s *Spec) { s.Alerting.SlowWindowSeconds = 30 },
		`{"alerting":{"slow_window_seconds":30}}`, []string{"alerting.fast_window_seconds"}},
	{"negative page burn", func(s *Spec) { s.Alerting.PageBurn = -1 },
		`{"alerting":{"page_burn":-1}}`, []string{"alerting.page_burn", "alerting.warn_burn"}},
	{"warn above the default page burn", func(s *Spec) { s.Alerting.WarnBurn = 20 },
		`{"alerting":{"warn_burn":20}}`, []string{"alerting.warn_burn"}},
	{"budget above one", func(s *Spec) { s.Alerting.BudgetFraction = 2 },
		`{"alerting":{"budget_fraction":2}}`, []string{"alerting.budget_fraction"}},
}

func TestConfigRulesBothDoors(t *testing.T) {
	cfg := DefaultSpec(1, true).compile().withDefaults()
	rt := newConfigRuntime(refresh.NewHub(nil), initialLive(&cfg))
	paths := func(err error) []string {
		out := fieldPaths(err)
		sort.Strings(out)
		return out
	}
	for _, row := range configRuleDoors {
		t.Run(row.name, func(t *testing.T) {
			s := DefaultSpec(1, true)
			row.mutate(&s)
			spec, live := paths(s.Validate()), paths(rt.check("test", []byte(row.patch)))
			if !reflect.DeepEqual(spec, row.paths) || !reflect.DeepEqual(live, row.paths) {
				t.Fatalf("Spec refused at %v, patch at %v, want %v", spec, live, row.paths)
			}
		})
	}
}
