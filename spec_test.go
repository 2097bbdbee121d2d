package jade

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func TestSpecJSONRoundTrip(t *testing.T) {
	s := DefaultSpec(7, true)
	s.Recovery = true
	s.Faults.Network.Enabled = true
	s.Faults.Network.Default = LinkConfig{LatencyMS: 0.5, JitterMS: 0.1, Loss: 0.001}
	s.Faults.Network.Heartbeat = HeartbeatConfig{PeriodSeconds: 2, Window: 4, PhiThreshold: 5}
	s.Faults.Chaos = ChaosSchedule{{At: 30, Kind: ChaosPartition, Duration: 10, A: []string{"tomcat1"}, B: []string{ManagementEndpoint}}}
	s.Telemetry.TraceRequests = 50

	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	data2, err := json.MarshalIndent(back, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Fatalf("round trip changed the spec:\n%s\nvs\n%s", data, data2)
	}
}

func TestSpecRejectsUnknownFields(t *testing.T) {
	_, err := ParseSpec([]byte(`{"seed": 1, "wrokload": {}}`))
	if err == nil {
		t.Fatal("want an unknown-field error for a typoed key")
	}
}

// The knobs no run set are constants of the packages that read them: a
// Spec naming one is refused as naming an unknown field.
func TestSpecRefusesRemovedFields(t *testing.T) {
	for _, path := range []string{
		"alerting.eval_interval_seconds", "alerting.fast_window_seconds",
		"alerting.slow_window_seconds", "alerting.budget_fraction",
		"alerting.page_burn", "alerting.warn_burn", "alerting.z_threshold",
		"alerting.skew_factor", "alerting.hysteresis_seconds",
		"routing.probe_after_seconds", "routing.half_life_seconds",
		"checks.slo_targets", "workload.fluid_tick_seconds", "workload.fluid_min_sampled",
	} {
		section, field, _ := strings.Cut(path, ".")
		doc := fmt.Sprintf(`{%q: {%q: 1}}`, section, field)
		if _, err := ParseSpec([]byte(doc)); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("unknown field %q", field)) {
			t.Errorf("ParseSpec(%s): err = %v, want the unknown field %q", doc, err, field)
		}
	}
}

// Every parser of outside JSON decodes one value: a document followed by
// anything but whitespace is refused, and so is a key the document does
// not have. Each parser's document ends in a newline, as committed files
// do.
func TestParsersAreStrict(t *testing.T) {
	artifact, err := os.ReadFile(filepath.Join("testdata", "replay", "fabric-x8-seed1.json"))
	if err != nil {
		t.Fatal(err)
	}
	const snapshot = `{"schema": "jade-config/v1", "time": 0, "generation": 0,
		"refreshable": {"sizing": {"app": {}, "db": {}}, "routing": {"l4": "", "app": "", "db": ""}},
		"applied": null, "rejected": 0, "pending": 0}`
	parsers := []struct {
		name         string
		parse        func([]byte) error
		doc, unknown string
	}{
		{"ParseSpec", func(b []byte) error { _, err := ParseSpec(b); return err },
			`{"seed": 3}`, `{"seed": 3, "wibble": 1}`},
		{"ParseSweepArtifact", func(b []byte) error { _, err := ParseSweepArtifact(b); return err },
			string(bytes.TrimSpace(artifact)), `{"wibble": 1, ` + string(artifact[1:])},
		{"ParseConfigPatch", func(b []byte) error { _, err := ParseConfigPatch(b); return err },
			`{"routing": {"policy": "balanced"}}`, `{"routing": {"policy": "balanced", "wibble": 1}}`},
		{"ParseConfigSnapshot", func(b []byte) error { _, err := ParseConfigSnapshot(b); return err },
			snapshot, strings.Replace(snapshot, `"refreshable": {`, `"refreshable": {"alerting": {"page_burn": 14.4}, `, 1)},
	}
	for _, p := range parsers {
		t.Run(p.name, func(t *testing.T) {
			if err := p.parse([]byte(p.doc + "\n")); err != nil {
				t.Fatalf("refused its document: %v", err)
			}
			for _, trailer := range []string{` {"seed": 2}`, " garbage", " ]", " }"} {
				if err := p.parse([]byte(p.doc + trailer)); err == nil {
					t.Errorf("accepted the document followed by %q", trailer)
				}
			}
			if err := p.parse([]byte(p.unknown)); err == nil {
				t.Errorf("accepted %s", p.unknown)
			}
		})
	}
}

// An error without a path reads as its message alone.
func TestFieldErrorWithoutPath(t *testing.T) {
	if got := (FieldError{Msg: "empty patch"}).Error(); got != "empty patch" {
		t.Errorf("FieldError without a path = %q", got)
	}
	_, err := ParseConfigPatch([]byte(" "))
	if got := err.Error(); got != "jade: invalid spec: empty patch" {
		t.Errorf("empty patch: %q", got)
	}
	if got := (FieldError{Path: "sizing.app.max", Msg: "must be > sizing.app.min"}).Error(); got != "sizing.app.max: must be > sizing.app.min" {
		t.Errorf("FieldError with a path = %q", got)
	}
}

// specValidateCases mutate DefaultSpec(1, true) into specs Validate must
// accept or refuse; FuzzParseSpec seeds from them too.
var specValidateCases = []struct {
	name   string
	mutate func(*Spec)
	ok     bool
}{
	{"default", func(*Spec) {}, true},
	{"bad mix", func(s *Spec) { s.Workload.Mix = "write-heavy" }, false},
	{"bad profile kind", func(s *Spec) { s.Workload.Profile.Kind = "spike" }, false},
	{"browsing mix", func(s *Spec) { s.Workload.Mix = "browsing" }, true},
	{"loss too high", func(s *Spec) { s.Faults.Network.Default.Loss = 1 }, false},
	{"link loss negative", func(s *Spec) {
		s.Faults.Network.Links = map[string]LinkConfig{"node1->node2": {Loss: -0.1}}
	}, false},
	{"link key well formed", func(s *Spec) {
		s.Faults.Network.Links = map[string]LinkConfig{"node1->node2": {LatencyMS: 5}}
	}, true},
	{"link key without arrow", func(s *Spec) {
		s.Faults.Network.Links = map[string]LinkConfig{"node1-node2": {LatencyMS: 5}}
	}, false},
	{"link key without source", func(s *Spec) {
		s.Faults.Network.Links = map[string]LinkConfig{"->node2": {LatencyMS: 5}}
	}, false},
	{"link key without destination", func(s *Spec) {
		s.Faults.Network.Links = map[string]LinkConfig{"node1->": {LatencyMS: 5}}
	}, false},
	{"partition without network", func(s *Spec) {
		s.Faults.Chaos = ChaosSchedule{{At: 1, Kind: ChaosPartition, Duration: 30, A: []string{"tomcat1"}, B: []string{ManagementEndpoint}}}
	}, false},
	{"partition with network", func(s *Spec) {
		s.Faults.Network.Enabled = true
		s.Faults.Chaos = ChaosSchedule{{At: 1, Kind: ChaosPartition, A: []string{"tomcat1"}}}
	}, true},
	{"partition empty group", func(s *Spec) {
		s.Faults.Network.Enabled = true
		s.Faults.Chaos = ChaosSchedule{{At: 1, Kind: ChaosPartition}}
	}, false},
	{"chaos partition without network", func(s *Spec) {
		s.Faults.Chaos = ChaosSchedule{{At: 1, Kind: ChaosPartition, A: []string{"node1"}}}
	}, false},
	{"negative chaos duration", func(s *Spec) {
		s.Faults.Chaos = ChaosSchedule{{At: 1, Kind: ChaosSlow, Target: "tomcat1", Duration: -5}}
	}, false},
	{"heal without network", func(s *Spec) {
		s.Faults.Chaos = ChaosSchedule{{At: 1, Kind: ChaosHeal}}
	}, false},
	{"heal with network", func(s *Spec) {
		s.Faults.Network.Enabled = true
		s.Faults.Chaos = ChaosSchedule{{At: 1, Kind: ChaosHeal}}
	}, true},
	{"unknown chaos kind", func(s *Spec) {
		s.Faults.Chaos = ChaosSchedule{{At: 1, Kind: "meteor", Target: "tomcat1"}}
	}, false},
	{"recovery without managed", func(s *Spec) { s.Managed = false; s.Recovery = true }, false},
	{"monitor without network", func(s *Spec) { s.Alerting.MonitorReplicas = true }, false},
	{"rpc budget", func(s *Spec) {
		s.Faults.Network.RPC = map[string]RPCBudget{"app": {TimeoutSeconds: 2, Attempts: 2}}
	}, true},
	{"negative rpc budget", func(s *Spec) {
		s.Faults.Network.RPC = map[string]RPCBudget{"app": {TimeoutSeconds: -2}, "db": {Attempts: -1}}
	}, false},
	{"sub-second snapshots into a metrics dir", func(s *Spec) {
		s.Telemetry.MetricsDir, s.Telemetry.MetricsIntervalSeconds = "out", 0.5
	}, false},
	{"chaos target a pool node", func(s *Spec) {
		s.Faults.Chaos = ChaosSchedule{{At: 1, Kind: ChaosReboot, Target: "node9"}}
	}, true},
	{"chaos target past the pool", func(s *Spec) {
		s.Faults.Chaos = ChaosSchedule{{At: 1, Kind: ChaosReboot, Target: "node10"}}
	}, false},
	{"chaos target a replica a tier creates", func(s *Spec) {
		s.Faults.Chaos = ChaosSchedule{{At: 1, Kind: ChaosSlow, Target: "mysql-r2"}}
	}, true},
	{"chaos target a created replica unmanaged", func(s *Spec) {
		s.Managed = false
		s.Faults.Chaos = ChaosSchedule{{At: 1, Kind: ChaosSlow, Target: "mysql-r2"}}
	}, false},
	{"gray-failure adl", func(s *Spec) { s.ADL = GrayFailureADL }, true},
	{"malformed adl", func(s *Spec) { s.ADL = "<definition><unclosed></definition>" }, false},
	{"adl without the tier bindings", func(s *Spec) { s.ADL = FiveTierADL }, false},
}

// specOnly reports whether a path names a rule that compile cannot carry
// into a ScenarioConfig (the profile's kind and numbers, the mix name), so
// that only Spec.Validate applies it.
func specOnly(path string) bool {
	return strings.HasPrefix(path, "workload.profile.") || path == "workload.mix"
}

// fieldPaths lists the field paths of a validation error, in its order.
func fieldPaths(err error) []string {
	var out []string
	for _, fe := range AsValidationError(err) {
		out = append(out, fe.Path)
	}
	return out
}

// runRefusal runs the compiled spec through RunScenario, which every run
// that does not come from a Spec file enters by, and returns the paths of
// the *ValidationError it refused with. A panic or a completed run fails
// the test.
func runRefusal(t *testing.T, s Spec) []string {
	t.Helper()
	defer func() {
		if p := recover(); p != nil {
			t.Fatalf("RunScenario panicked: %v", p)
		}
	}()
	r, err := RunScenario(s.compile())
	if err == nil {
		r.Admin.Close()
		t.Fatal("RunScenario ran a configuration the Spec refuses")
	}
	var ve *ValidationError
	if !errors.As(err, &ve) {
		t.Fatalf("RunScenario refused with %T, not a *ValidationError: %v", err, err)
	}
	return fieldPaths(ve)
}

func TestSpecValidate(t *testing.T) {
	for _, tc := range specValidateCases {
		t.Run(tc.name, func(t *testing.T) {
			s := DefaultSpec(1, true)
			tc.mutate(&s)
			err := s.Validate()
			if tc.ok && err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if tc.ok {
				return
			}
			if err == nil {
				t.Fatal("want a validation error")
			}
			// RunScenario refuses at the same paths, bar the rules only a
			// Spec can break.
			want := slices.DeleteFunc(fieldPaths(err), specOnly)
			if len(want) == 0 {
				return
			}
			if got := runRefusal(t, s); !slices.Equal(got, want) {
				t.Fatalf("RunScenario refused at %v, Spec.Validate at %v", got, want)
			}
		})
	}
}

// Negative fault times and link delays used to pass Validate and then
// panic RunSpec in sim.Engine.Schedule ("scheduling ... before now"); each
// is now a FieldError at its path, from Spec.Validate and RunScenario alike.
func TestSpecValidateRejectsNegativeFaultTimes(t *testing.T) {
	cases := []struct {
		mutate func(*Spec)
		path   string
	}{
		{func(s *Spec) { s.Faults.Chaos = ChaosSchedule{{At: -5, Kind: ChaosCrash, Target: "tomcat1"}} }, "faults.chaos[0].at"},
		{func(s *Spec) {
			s.Faults.Chaos = ChaosSchedule{{At: 10, Kind: ChaosCrash, Target: "mysql1"}, {At: -1, Kind: ChaosCrash, Target: "tomcat1"}}
		}, "faults.chaos[1].at"},
		{func(s *Spec) {
			s.Faults.Chaos = ChaosSchedule{{At: 10, Kind: ChaosSlow, Target: "tomcat1", Duration: -5}}
		}, "faults.chaos[0].duration"},
		{func(s *Spec) {
			s.Faults.Chaos = ChaosSchedule{{At: 10, Kind: ChaosPartition, A: []string{"tomcat1"}, Duration: -1}}
		}, "faults.chaos[0].duration"},
		{func(s *Spec) { s.Faults.Network.Default.LatencyMS = -1 }, "faults.network.default.latency_ms"},
		{func(s *Spec) { s.Faults.Network.Default.JitterMS = -1 }, "faults.network.default.jitter_ms"},
		{func(s *Spec) {
			s.Faults.Network.Links = map[string]LinkConfig{"node1->node2": {LatencyMS: -2}}
		}, "faults.network.links[node1->node2].latency_ms"},
		{func(s *Spec) {
			s.Faults.Network.Links = map[string]LinkConfig{"node1->node2": {JitterMS: -2}}
		}, "faults.network.links[node1->node2].jitter_ms"},
	}
	for _, tc := range cases {
		t.Run(tc.path, func(t *testing.T) {
			s := DefaultSpec(1, true)
			s.Faults.Network.Enabled = true
			tc.mutate(&s)
			fields := AsValidationError(s.Validate())
			if len(fields) != 1 || fields[0].Path != tc.path {
				t.Fatalf("got %+v, want one error at %s", fields, tc.path)
			}
			if got := runRefusal(t, s); !slices.Equal(got, []string{tc.path}) {
				t.Fatalf("RunScenario refused at %v, want %s", got, tc.path)
			}
		})
	}
}

// A NaN or infinite number used to pass every "must be >= 0" rule, and a
// run whose horizon is NaN never ends. Each is now a FieldError at its
// path. These rows stay out of specValidateCases: json.Marshal refuses NaN
// and infinities, so they cannot seed FuzzParseSpec.
func TestSpecValidateRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		mutate func(*Spec)
		path   string
	}{
		{func(s *Spec) {
			s.Workload.Profile = ProfileSpec{Kind: "constant", Clients: 10, DurationSeconds: nan}
		}, "workload.profile.duration_seconds"},
		{func(s *Spec) {
			s.Workload.Profile = ProfileSpec{Kind: "constant", Clients: 10, DurationSeconds: inf}
		}, "workload.profile.duration_seconds"},
		{func(s *Spec) {
			s.Workload.Profile = ProfileSpec{Kind: "ramp", Base: 10, Peak: 20, StepPerMinute: 5, HoldAtPeakSeconds: inf}
		}, "workload.profile.hold_at_peak_seconds"},
		{func(s *Spec) { s.Workload.ThinkTimeSeconds = nan }, "workload.think_time_seconds"},
		{func(s *Spec) { s.Sizing.App.InhibitSeconds = inf }, "sizing.app.inhibit_seconds"},
		{func(s *Spec) { s.Faults.Network.Default.LatencyMS = nan }, "faults.network.default.latency_ms"},
		{func(s *Spec) { s.Faults.Chaos = ChaosSchedule{{At: nan, Kind: ChaosCrash, Target: "tomcat1"}} }, "faults.chaos[0].at"},
	}
	for _, tc := range cases {
		t.Run(tc.path, func(t *testing.T) {
			s := DefaultSpec(1, true)
			tc.mutate(&s)
			fields := AsValidationError(s.Validate())
			if !slices.ContainsFunc(fields, func(f FieldError) bool { return f.Path == tc.path }) {
				t.Fatalf("got %+v, want an error at %s", fields, tc.path)
			}
		})
	}
}

// A profile whose horizon is not finite is refused before the run starts,
// however the configuration was built.
func TestRunScenarioRejectsNonFiniteHorizon(t *testing.T) {
	cfg := DefaultScenario(1, true)
	cfg.Profile = ConstantProfile{Clients: 10, Length: math.NaN()}
	if _, err := RunScenario(cfg); err == nil || !strings.Contains(err.Error(), "workload.profile") {
		t.Fatalf("RunScenario with a NaN horizon: err = %v", err)
	}
}

// TestSpecValidateChecksMetricsInterval: a negative snapshot period used
// to become the 60 s default, and one below a second with a metrics
// directory silently overwrote snapshot files that round to the same
// second's name.
func TestSpecValidateChecksMetricsInterval(t *testing.T) {
	const path = "telemetry.metrics_interval_seconds"
	for _, tc := range []struct {
		dir      string
		interval float64
		ok       bool
	}{
		{"", -5, false},
		{"out", -5, false},
		{"out", 0.5, false},
		{"out", 0.999, false},
		{"", 0.5, true},  // nothing written, nothing to collide
		{"out", 0, true}, // unset: the 60 s default applies
		{"out", 1, true},
		{"out", 10, true},
	} {
		s := DefaultSpec(1, true)
		s.Telemetry.MetricsDir, s.Telemetry.MetricsIntervalSeconds = tc.dir, tc.interval
		fields := AsValidationError(s.Validate())
		if tc.ok && len(fields) != 0 {
			t.Errorf("dir %q interval %g: got %+v, want no error", tc.dir, tc.interval, fields)
		}
		if !tc.ok && (len(fields) != 1 || fields[0].Path != path) {
			t.Errorf("dir %q interval %g: got %+v, want one error at %s", tc.dir, tc.interval, fields, path)
		}
	}
}

// A link key that can never match a directed pair is reported by its field
// path, like every other spec error (it used to be accepted and ignored).
func TestSpecLinkKeyErrorNamesTheKey(t *testing.T) {
	s := DefaultSpec(1, true)
	s.Faults.Network.Links = map[string]LinkConfig{"node1-node2": {LatencyMS: 5}}
	fields := AsValidationError(s.Validate())
	if len(fields) != 1 || fields[0].Path != "faults.network.links[node1-node2]" {
		t.Fatalf("got %+v, want one error at faults.network.links[node1-node2]", fields)
	}
}

// TestSpecFlattenMatchesDefaultScenario pins the compat shim: the grouped
// default spec must flatten to the same knobs as the flat default.
func TestSpecFlattenMatchesDefaultScenario(t *testing.T) {
	for _, managed := range []bool{false, true} {
		cfg, err := DefaultSpec(3, managed).Flatten()
		if err != nil {
			t.Fatal(err)
		}
		want := DefaultScenario(3, managed)
		if cfg.Seed != want.Seed || cfg.Managed != want.Managed ||
			cfg.Nodes != want.Nodes || cfg.ThinkTime != want.ThinkTime ||
			cfg.DrainSeconds != want.DrainSeconds ||
			cfg.MaxAppReplicas != want.MaxAppReplicas ||
			cfg.MaxDBReplicas != want.MaxDBReplicas ||
			cfg.AppSizing != want.AppSizing || cfg.DBSizing != want.DBSizing ||
			cfg.ThrashThreshold != want.ThrashThreshold ||
			cfg.ThrashFactor != want.ThrashFactor {
			t.Fatalf("managed=%v: flattened spec diverges from DefaultScenario:\n%+v\nvs\n%+v", managed, cfg, want)
		}
	}
}

// partitionSpec builds the regression scenario: a managed, recovering,
// invariant-checked run on an enabled network where the app replica's
// heartbeats to the management node are cut mid-run — long enough for the
// detector to (wrongly) suspect it.
func partitionSpec(seed int64) Spec {
	s := DefaultSpec(seed, true)
	s.Recovery = true
	s.Workload.Profile = ProfileSpec{Kind: "constant", Clients: 40, DurationSeconds: 240}
	s.Checks.Invariants = true
	s.Faults.Network.Enabled = true
	s.Faults.Chaos = ChaosSchedule{{At: 60, Kind: ChaosPartition, Duration: 30, A: []string{"tomcat1"}, B: []string{ManagementEndpoint}}}
	return s
}

// TestFalsePositiveUnderPartition is the headline regression: cutting a
// live replica's heartbeats must produce a false-positive suspicion, the
// resulting repair must terminate the survivor (double-repair invariant
// confirms it), and no invariant may trip.
func TestFalsePositiveUnderPartition(t *testing.T) {
	r, err := RunSpec(partitionSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if r.InvariantViolation != nil {
		t.Fatalf("invariant violation: %v", r.InvariantViolation)
	}
	if r.Detector == nil {
		t.Fatal("no detector stats despite recovery over an enabled fabric")
	}
	if r.Detector.FalsePositives < 1 {
		t.Fatalf("want >=1 false-positive suspicion, got %+v", *r.Detector)
	}
	if r.RepairDiscards < 1 {
		t.Fatalf("want >=1 repair discard, got %d", r.RepairDiscards)
	}
	if r.RepairsConfirmedLegal < uint64(r.RepairDiscards) {
		t.Fatalf("double-repair invariant confirmed %d of %d discards",
			r.RepairsConfirmedLegal, r.RepairDiscards)
	}
	if r.Net.Partitions != 1 {
		t.Fatalf("want exactly 1 injected partition, got %d", r.Net.Partitions)
	}
}

// TestNoFalsePositivesOnHealthyNetwork pins the detector's quiet side:
// with the fabric enabled but no faults, suspicions must be zero.
func TestNoFalsePositivesOnHealthyNetwork(t *testing.T) {
	s := DefaultSpec(2, true)
	s.Recovery = true
	s.Workload.Profile = ProfileSpec{Kind: "constant", Clients: 40, DurationSeconds: 240}
	s.Checks.Invariants = true
	s.Faults.Network.Enabled = true
	r, err := RunSpec(s)
	if err != nil {
		t.Fatal(err)
	}
	if r.InvariantViolation != nil {
		t.Fatalf("invariant violation: %v", r.InvariantViolation)
	}
	if r.Detector == nil || r.Detector.Suspicions != 0 {
		t.Fatalf("healthy network produced suspicions: %+v", r.Detector)
	}
	if r.Net.Messages == 0 || r.Net.Delivered == 0 {
		t.Fatalf("fabric carried no traffic: %+v", r.Net)
	}
}

// TestNetsimDeterminism sweeps 20 seeds and requires byte-identical trace
// exports for repeated runs with the network, detector, partitions and
// loss all enabled.
func TestNetsimDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("20-seed sweep")
	}
	for seed := int64(1); seed <= 20; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			var dumps [2][]byte
			for i := range dumps {
				s := partitionSpec(seed)
				s.Faults.Network.Default.Loss = 0.002
				r, err := RunSpec(s)
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := r.Trace().WriteJSONL(&buf); err != nil {
					t.Fatal(err)
				}
				dumps[i] = buf.Bytes()
			}
			if len(dumps[0]) == 0 {
				t.Fatal("empty JSONL export")
			}
			if !bytes.Equal(dumps[0], dumps[1]) {
				t.Fatalf("same-seed exports differ (%d vs %d bytes)", len(dumps[0]), len(dumps[1]))
			}
		})
	}
}

// A Spec that sets a sizing loop's thresholds but not its period used to
// run with the default thresholds: the whole loop was replaced by the
// defaults whenever period was zero. Each zero field now takes its own
// default.
func TestSpecSizingThresholdsWithoutPeriod(t *testing.T) {
	s, err := ParseSpec([]byte(`{"seed": 1, "managed": true,
		"workload": {"profile": {"kind": "constant", "clients": 20, "duration_seconds": 30}},
		"sizing": {"app": {"min": 0.01, "max": 0.02}, "db": {"min": 0.03, "max": 0.04}}}`))
	if err != nil {
		t.Fatal(err)
	}
	r, err := RunSpec(s)
	if err != nil {
		t.Fatal(err)
	}
	app, db := r.Config.AppSizing, r.Config.DBSizing
	wantApp, wantDB := AppSizingDefaults(), DBSizingDefaults()
	wantApp.Min, wantApp.Max = 0.01, 0.02
	wantDB.Min, wantDB.Max = 0.03, 0.04
	if app != wantApp || db != wantDB {
		t.Fatalf("sizing loops = %+v / %+v, want %+v / %+v", app, db, wantApp, wantDB)
	}
	if r.App.Min != 0.01 || r.App.Max != 0.02 || r.DB.Min != 0.03 || r.DB.Max != 0.04 {
		t.Fatalf("thresholds in force = app %g..%g, db %g..%g", r.App.Min, r.App.Max, r.DB.Min, r.DB.Max)
	}
}

// A negative drain used to end the run early (drain_seconds -50 cut a
// 60 s run about 10 s in), and a negative profile number silently became
// its default. Each is now refused at its path, and newRun refuses a
// negative drain from a ScenarioConfig through the same rule.
func TestSpecRefusesNegativeWorkloadNumbers(t *testing.T) {
	for _, tc := range []struct {
		path   string
		mutate func(*WorkloadSpec)
	}{
		{"workload.drain_seconds", func(w *WorkloadSpec) { w.DrainSeconds = -50 }},
		{"workload.profile.clients", func(w *WorkloadSpec) { w.Profile = ProfileSpec{Kind: "constant", Clients: -20} }},
		{"workload.profile.duration_seconds", func(w *WorkloadSpec) { w.Profile = ProfileSpec{Kind: "constant", DurationSeconds: -60} }},
		{"workload.profile.base", func(w *WorkloadSpec) { w.Profile = ProfileSpec{Kind: "ramp", Base: -1} }},
		{"workload.profile.peak", func(w *WorkloadSpec) { w.Profile = ProfileSpec{Kind: "ramp", Peak: -1} }},
		{"workload.profile.step_per_minute", func(w *WorkloadSpec) { w.Profile = ProfileSpec{Kind: "ramp", StepPerMinute: -1} }},
		{"workload.profile.hold_at_peak_seconds", func(w *WorkloadSpec) { w.Profile = ProfileSpec{Kind: "ramp", HoldAtPeakSeconds: -1} }},
	} {
		s := DefaultSpec(1, false)
		tc.mutate(&s.Workload)
		fields := AsValidationError(s.Validate())
		if len(fields) != 1 || fields[0].Path != tc.path {
			t.Errorf("%s: got %+v, want one error at it", tc.path, fields)
		}
	}
	cfg := DefaultScenario(1, false)
	cfg.Profile = ConstantProfile{Clients: 20, Length: 60}
	cfg.DrainSeconds = -50
	r, err := RunScenario(cfg)
	if fields := AsValidationError(err); len(fields) != 1 || fields[0].Path != "workload.drain_seconds" {
		t.Fatalf("RunScenario with a negative drain: %+v (completed %v)", fields, r != nil)
	}
}

// scriptedSpec carries config patches on both schedules: a chaos config
// event at 20 s and operator events out of time order, one of which is
// valid only after the chaos event and one only because an earlier patch
// was refused.
func scriptedSpec() Spec {
	s := DefaultSpec(1, true)
	s.Workload.Profile = ProfileSpec{Kind: "constant", Clients: 20, DurationSeconds: 60}
	s.Faults.Chaos = ChaosSchedule{{At: 20, Kind: ChaosConfig, Patch: json.RawMessage(`{"sizing":{"app":{"min":0.1,"max":0.2}}}`)}}
	s.Operator = OperatorSchedule{
		{At: 30, Patch: json.RawMessage(`{"sizing":{"app":{"min":0.5}}}`)},  // over max 0.2: refused
		{At: 20, Patch: json.RawMessage(`{"sizing":{"app":{"max":0.15}}}`)}, // after the chaos event: fine
		{At: 40, Patch: json.RawMessage(`{"sizing":{"app":{"max":0.12}}}`)}, // min is still 0.1: fine
		{At: 10, Patch: json.RawMessage(`{"alerting":{"page_burn":-1}}`)},   // not refreshable: refused
		{At: 50, Patch: json.RawMessage(`{"sizing":{"app":{"max":0.1}}}`)},  // not above min 0.1: refused
		{At: 55, Patch: json.RawMessage(`{"routing":{"db":"fastest"}}`)},    // refused
	}
	return s
}

// A Spec's scripted patches used to be checked only for their grammar and
// policy names at load, then refused mid-run with nothing printed. Now
// Validate applies them over the run's initial live state in the run's
// order, and refuses exactly the patches the run refuses.
func TestSpecChecksScriptedPatches(t *testing.T) {
	s := scriptedSpec()
	var got []string
	for _, fe := range AsValidationError(s.Validate()) {
		got = append(got, fe.Path)
	}
	want := []string{
		"operator[3].patch.alerting",
		"operator[0].patch.sizing.app.max",
		"operator[4].patch.sizing.app.max",
		"operator[5].patch.routing.db",
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("refused at %v, want %v", got, want)
	}
	r, err := RunScenario(s.compile())
	if err != nil {
		t.Fatal(err)
	}
	var rejected []string
	for _, c := range r.ConfigChanges {
		if c.Error != "" {
			rejected = append(rejected, string(c.Patch))
		}
	}
	wantRejected := []string{string(s.Operator[3].Patch), string(s.Operator[0].Patch), string(s.Operator[4].Patch), string(s.Operator[5].Patch)}
	if strings.Join(rejected, " ") != strings.Join(wantRejected, " ") {
		t.Fatalf("the run refused %v, Validate %v", rejected, wantRejected)
	}
}

// A chaos event whose target names nothing the run could resolve is
// refused at its target, by Spec.Validate and RunScenario alike; it used
// to be skipped at fire time without a word.
func TestChaosTargetMustNameSomething(t *testing.T) {
	s := DefaultSpec(1, true)
	s.Faults.Chaos = ChaosSchedule{{At: 1, Kind: ChaosCrash, Target: "tomcat1"}, {At: 2, Kind: ChaosCrash, Target: "tomcatl"}}
	err := s.Validate()
	if got := fieldPaths(err); !slices.Equal(got, []string{"faults.chaos[1].target"}) {
		t.Fatalf("refused at %v (%v), want faults.chaos[1].target", got, err)
	}
	if !strings.Contains(err.Error(), `"tomcatl"`) {
		t.Fatalf("error %q does not name the target", err)
	}
	if got := runRefusal(t, s); !slices.Equal(got, []string{"faults.chaos[1].target"}) {
		t.Fatalf("RunScenario refused at %v", got)
	}
}

// The tiers' initial replicas are the servers bound to plb1.workers and
// to cjdbc1.backends, in binding order.
func TestADLDerivesTierReplicas(t *testing.T) {
	for _, tc := range []struct {
		name    string
		adl     string
		app, db []string
	}{
		{"three-tier", ThreeTierADL, []string{"tomcat1"}, []string{"mysql1"}},
		{"gray-failure", GrayFailureADL, []string{"tomcat1", "tomcat2", "tomcat3"}, []string{"mysql1", "mysql2"}},
	} {
		a, err := parseArchitecture(tc.adl)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !slices.Equal(a.app, tc.app) || !slices.Equal(a.db, tc.db) {
			t.Errorf("%s: app %q db %q, want %q and %q", tc.name, a.app, a.db, tc.app, tc.db)
		}
	}
}
