package jade

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
)

// FuzzParseSweepArtifact feeds arbitrary bytes to the replay artifact's
// parser (jadectl replay). It must not panic. An artifact it accepts has
// a violation and a spec that ParseSpec accepts; its encoding parses back,
// and from the first encoding on, encoding and parsing give an equal
// artifact. Seeds are the committed artifact and edits of it; found inputs
// go under testdata/fuzz/FuzzParseSweepArtifact.
func FuzzParseSweepArtifact(f *testing.F) {
	committed, err := os.ReadFile(fabricArtifactPath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(committed)
	for _, c := range parseSweepArtifactRefusals {
		f.Add([]byte(strings.Replace(string(committed), c.old, c.new, 1)))
	}
	f.Add([]byte(`{"spec": {}, "violation": {"checker": "c"}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := ParseSweepArtifact(data)
		if err != nil {
			return
		}
		if a.Violation == nil {
			t.Fatalf("accepted %q without a violation", data)
		}
		spec, err := json.Marshal(a.Spec)
		if err != nil {
			t.Fatalf("accepted %q but cannot encode its spec: %v", data, err)
		}
		if _, err := ParseSpec(spec); err != nil {
			t.Fatalf("accepted %q but ParseSpec refuses its spec %s: %v", data, spec, err)
		}
		once, err := json.MarshalIndent(a, "", "  ")
		if err != nil {
			t.Fatalf("accepted %q but cannot encode it: %v", data, err)
		}
		back, err := ParseSweepArtifact(once)
		if err != nil {
			t.Fatalf("accepted %q but refuses its encoding %s: %v", data, once, err)
		}
		twice, err := json.MarshalIndent(back, "", "  ")
		if err != nil || string(twice) != string(once) {
			t.Fatalf("encoding moved: %s then %s (%v)", once, twice, err)
		}
		again, err := ParseSweepArtifact(twice)
		if err != nil || !reflect.DeepEqual(again, back) {
			t.Fatalf("round trip of %s: %+v, want %+v (%v)", twice, again, back, err)
		}
	})
}

// parseSweepArtifactRefusals are edits of the committed artifact that the
// parser must refuse, with the text its error must hold.
var parseSweepArtifactRefusals = []struct {
	name, old, new, err string
}{
	{"unknown field", `"shrunk_from"`, `"shrunk_form"`, `unknown field "shrunk_form"`},
	{"unknown spec field", `"managed"`, `"manged"`, `unknown field "manged"`},
	{"misspelt violation", `"violation": {`, `"violations": {`, `unknown field "violations"`},
	{"bad spec", `"step_per_minute": 168`, `"step_per_minute": -168`, "spec.workload.profile.step_per_minute: must be >= 0"},
}

// The parser refuses malformed JSON, unknown fields at any depth, a
// missing violation and a spec that ParseSpec refuses, naming the spec's
// fields by their path in the file.
func TestParseSweepArtifactRefuses(t *testing.T) {
	committed, err := os.ReadFile(fabricArtifactPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range parseSweepArtifactRefusals {
		data := strings.Replace(string(committed), c.old, c.new, 1)
		if data == string(committed) {
			t.Fatalf("%s: %s has no %s", c.name, fabricArtifactPath, c.old)
		}
		if _, err := ParseSweepArtifact([]byte(data)); err == nil || !strings.Contains(err.Error(), c.err) {
			t.Errorf("%s: err = %v, want one holding %q", c.name, err, c.err)
		}
	}
	for _, data := range []string{
		`{"spec": {}, "shrunk_from": 0}`,
		`{"spec": {}, "violation": null}`,
	} {
		if _, err := ParseSweepArtifact([]byte(data)); err == nil || !strings.Contains(err.Error(), "no violation") {
			t.Errorf("%s: err = %v, want no violation", data, err)
		}
	}
	if _, err := ParseSweepArtifact([]byte("{")); err == nil {
		t.Error("malformed JSON accepted")
	}
	if _, err := ParseSweepArtifact([]byte(`{"spec": {"recovery": true}, "violation": {}}`)); err == nil || !strings.Contains(err.Error(), "spec.recovery: requires managed") {
		t.Errorf("recovery without managed: err = %v, want spec.recovery refused", err)
	}
}
