package jade

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
)

func TestSpecJSONRoundTrip(t *testing.T) {
	s := DefaultSpec(7, true)
	s.Recovery = true
	s.Faults.Network.Enabled = true
	s.Faults.Network.Default = LinkConfig{LatencyMS: 0.5, JitterMS: 0.1, Loss: 0.001}
	s.Faults.Network.Heartbeat = HeartbeatConfig{PeriodSeconds: 2, Window: 4, PhiThreshold: 5}
	s.Faults.Partition = []PartitionSpec{{At: 30, DurationSeconds: 10, A: []string{"tomcat1"}, B: []string{ManagementEndpoint}}}
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
		s.Faults.Partition = []PartitionSpec{{At: 1, A: []string{"tomcat1"}}}
	}, false},
	{"partition with network", func(s *Spec) {
		s.Faults.Network.Enabled = true
		s.Faults.Partition = []PartitionSpec{{At: 1, A: []string{"tomcat1"}}}
	}, true},
	{"partition empty group", func(s *Spec) {
		s.Faults.Network.Enabled = true
		s.Faults.Partition = []PartitionSpec{{At: 1}}
	}, false},
	{"chaos partition without network", func(s *Spec) {
		s.Faults.Chaos = ChaosSchedule{{At: 1, Kind: ChaosPartition, A: []string{"node1"}}}
	}, false},
	{"recovery without managed", func(s *Spec) { s.Managed = false; s.Recovery = true }, false},
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
			if !tc.ok && err == nil {
				t.Fatal("want a validation error")
			}
		})
	}
}

// Negative fault times and link delays used to pass Validate and then
// panic RunSpec in sim.Engine.Schedule ("scheduling ... before now"); each
// is now a FieldError at its path.
func TestSpecValidateRejectsNegativeFaultTimes(t *testing.T) {
	cases := []struct {
		mutate func(*Spec)
		path   string
	}{
		{func(s *Spec) { s.Faults.Chaos = ChaosSchedule{{At: -5, Kind: ChaosCrash, Target: "tomcat1"}} }, "faults.chaos[0].at"},
		{func(s *Spec) { s.Faults.FailAt, s.Faults.FailComponent = -1, "tomcat1" }, "faults.fail_at"},
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
		})
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

func TestSpecFlattenPartitionBecomesChaos(t *testing.T) {
	s := DefaultSpec(1, true)
	s.Faults.Network.Enabled = true
	s.Faults.Partition = []PartitionSpec{{At: 42, DurationSeconds: 9, A: []string{"tomcat1"}, B: []string{ManagementEndpoint}}}
	cfg, err := s.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Chaos) != 1 {
		t.Fatalf("want 1 chaos event, got %d", len(cfg.Chaos))
	}
	ev := cfg.Chaos[0]
	if ev.Kind != ChaosPartition || ev.At != 42 || ev.Duration != 9 ||
		len(ev.A) != 1 || ev.A[0] != "tomcat1" || len(ev.B) != 1 || ev.B[0] != ManagementEndpoint {
		t.Fatalf("bad flattened partition event: %+v", ev)
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
	s.Faults.Partition = []PartitionSpec{{At: 60, DurationSeconds: 30, A: []string{"tomcat1"}, B: []string{ManagementEndpoint}}}
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
