package jade

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzParseSpec feeds arbitrary bytes to the run-spec parser (jadectl
// scenario -config). It must not panic. A Spec it accepts must encode to
// JSON that it accepts again, the encoding must be a fixpoint from its
// first application on, and the Spec must flatten into a run config that
// passes newRun's field rules once defaulted, its ADL giving both tiers
// an initial replica. Seeds are the committed example Specs, the specs of
// spec_test.go and the gray-failure run's (which carries an adl);
// found inputs go under testdata/fuzz/FuzzParseSpec.
func FuzzParseSpec(f *testing.F) {
	examples, err := filepath.Glob("examples/*.json")
	if err != nil || len(examples) == 0 {
		f.Fatalf("no example Specs to seed from (%v)", err)
	}
	for _, path := range examples {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	add := func(s Spec) {
		raw, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	for _, tc := range specValidateCases {
		s := DefaultSpec(1, true)
		tc.mutate(&s)
		add(s)
	}
	add(grayFailSpec(1, "balanced", true))
	s := DefaultSpec(7, true)
	s.Recovery = true
	s.Faults.Network.Enabled = true
	s.Faults.Network.Default = LinkConfig{LatencyMS: 0.5, JitterMS: 0.1, Loss: 0.001}
	s.Faults.Chaos = ChaosSchedule{
		{At: 5, Kind: ChaosCrash, Target: "tomcat1"},
		{At: 30, Kind: ChaosPartition, Duration: 10, A: []string{"tomcat1"}, B: []string{ManagementEndpoint}},
	}
	add(s)
	for _, seed := range []string{
		`{}`,
		`{"seed": 1, "wrokload": {}}`,
		`{"faults": {"chaos": [{"at": -5, "kind": "crash", "target": "tomcat1"}]}}`,
		`{"faults": {"network": {"enabled": true, "default": {"latency_ms": -1}}}}`,
		`{"workload": {"profile": {"kind": "constant", "clients": 10}}}`,
		`null`,
		`{"seed":`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := ParseSpec(data)
		if err != nil {
			return
		}
		once, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("accepted %q but cannot encode it: %v", data, err)
		}
		back, err := ParseSpec(once)
		if err != nil {
			t.Fatalf("accepted %q but refuses its encoding %s: %v", data, once, err)
		}
		twice, err := json.Marshal(back)
		if err != nil || string(twice) != string(once) {
			t.Fatalf("encoding moved: %s then %s (%v)", once, twice, err)
		}
		cfg, err := spec.Flatten()
		if err != nil {
			t.Fatalf("accepted %q but cannot flatten it: %v", data, err)
		}
		cfg = cfg.withDefaults()
		arch, err := cfg.check()
		if err != nil {
			t.Fatalf("accepted %q but newRun refuses it: %v", data, err)
		}
		if len(arch.app) == 0 || len(arch.db) == 0 {
			t.Fatalf("accepted %q but its ADL gives a tier no replica: app %q, db %q", data, arch.app, arch.db)
		}
	})
}
