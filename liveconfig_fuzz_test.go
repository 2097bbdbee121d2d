package jade

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// FuzzParseConfigPatch feeds arbitrary bytes to the admin POST /config
// grammar. It must not panic, and every refusal is a ValidationError. A
// patch it accepts must encode to JSON that it accepts again, and the
// encoding must be a fixpoint from its first application on; the live
// check, over the default run's initial live state, must reach the same
// verdict on the input and on its encoding. Seeds are
// the live-config tests' patches and each section of the committed example
// Specs posted as a patch (mostly structural, so refused). Found inputs go
// under testdata/fuzz/FuzzParseConfigPatch.
func FuzzParseConfigPatch(f *testing.F) {
	for _, seed := range []string{
		`{"routing":{"policy":"balanced"}}`,
		`{"sizing":{"app":{"min":0.3,"max":0.7}}}`,
		`{"alerting":{"page_burn":20,"warn_burn":8}}`,
		`{"checks":{"slo_targets":{"client-latency-p95":1.5}}}`,
		`{"sizing":{"app":{"min":0.30,"max":0.70}},"checks":{"slo_targets":{"client-latency-p95":1.5}}}`,
		`{"routing":{"policy":"balanced","half_life_seconds":20}}`,
		`{"faults":{"network":{"rpc":{"app":{"timeout_seconds":2,"attempts":2,"backoff_seconds":0.2}}}}}`,
		`{"routing":{"app":"fastest"}}`,
		`{"wibble": 1}`,
		`{"sizing":{"app":{"inhibit": 5}}}`,
		`{"faults":{"network":{"rpc":{}}}}`,
		`{}`,
		`null`,
		`{"sizing":`,
		`{} {}`,
	} {
		f.Add([]byte(seed))
	}
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
		var sections map[string]json.RawMessage
		if err := json.Unmarshal(raw, &sections); err != nil {
			f.Fatalf("%s: %v", path, err)
		}
		for name, body := range sections {
			patch, err := json.Marshal(map[string]json.RawMessage{name: body})
			if err != nil {
				f.Fatal(err)
			}
			f.Add(patch)
		}
	}
	def := DefaultScenario(1, true).withDefaults()
	live := initialLive(&def)
	f.Fuzz(func(t *testing.T, patch []byte) {
		_, verdict := live.resolve(patch)
		p, err := ParseConfigPatch(patch)
		if err != nil {
			var ve *ValidationError
			if !errors.As(err, &ve) {
				t.Fatalf("refused %q with %T %v, not a ValidationError", patch, err, err)
			}
			return
		}
		once, err := json.Marshal(p)
		if err != nil {
			t.Fatalf("accepted %q but cannot encode it: %v", patch, err)
		}
		back, err := ParseConfigPatch(once)
		if err != nil {
			t.Fatalf("accepted %q but refuses its encoding %s: %v", patch, once, err)
		}
		twice, err := json.Marshal(back)
		if err != nil || string(twice) != string(once) {
			t.Fatalf("encoding moved: %s then %s (%v)", once, twice, err)
		}
		if _, again := live.resolve(once); (verdict == nil) != (again == nil) {
			t.Fatalf("the live check says %v of %q and %v of its encoding %s", verdict, patch, again, once)
		}
	})
}
