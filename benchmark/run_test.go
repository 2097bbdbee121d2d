package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"jade"
)

// tiny is a workload small enough for the test suite: 40 clients for
// two virtual minutes.
var tiny = &workload{
	name: "tiny",
	config: func(seed int64, _ string) jade.ScenarioConfig {
		cfg := managedRamp(seed)
		cfg.Profile = jade.ConstantProfile{Clients: 40, Length: 120}
		return cfg
	},
	check: func(jade.ScenarioConfig, *jade.ScenarioResult) error { return nil },
}

func TestDigestStableAcrossRuns(t *testing.T) {
	rn := &runner{w: tiny, seed: 3, outDir: t.TempDir(), spans: newSpanLog()}
	cfg := tiny.config(3, rn.outDir)
	a, err := rn.iterate(cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := rn.iterate(cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rn.errs) > 0 {
		t.Fatalf("checks failed: %v", rn.errs)
	}
	if a.model.Digest == "" || a.model.Digest != b.model.Digest {
		t.Errorf("digests %q and %q of two runs of one seed", a.model.Digest, b.model.Digest)
	}
	if a.model.Completed == 0 || a.wall <= 0 || a.mallocs == 0 {
		t.Errorf("empty iteration: %+v", a)
	}

	other, err := rn.iterate(tiny.config(4, rn.outDir), false)
	if err != nil {
		t.Fatal(err)
	}
	if other.model.Digest == a.model.Digest {
		t.Error("another seed gave the same digest")
	}
	if len(rn.errs) != 1 || !strings.Contains(rn.errs[0], "model.digest") {
		t.Errorf("a changed outcome must fail the digest check, got %v", rn.errs)
	}
}

// fakeSet is a complete result set whose end-to-end metrics all read
// value, with every digest set to digest.
func fakeSet(t *testing.T, value float64, digest string) string {
	t.Helper()
	set := resultSet{Seed: 1, Workloads: map[string]*setMember{}}
	for _, w := range workloads {
		r := &result{Workload: w.name, Seed: 1, Correct: true, Metrics: map[string]measured{}}
		r.Model.Digest = digest
		for _, d := range endToEnd {
			r.Metrics[d.Name] = measured{Value: value, Unit: d.Unit}
		}
		set.Workloads[w.name] = &setMember{EndToEnd: r}
	}
	data, err := json.Marshal(set)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "results.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestCompare(t *testing.T) {
	base := fakeSet(t, 100, "aa")
	var out bytes.Buffer
	if err := compareSets(&out, base, fakeSet(t, 100.5, "aa")); err != nil {
		t.Errorf("sets 0.5%% apart must pass: %v\n%s", err, out.String())
	}
	for _, w := range workloads {
		for _, d := range endToEnd {
			if !strings.Contains(out.String(), w.name) || !strings.Contains(out.String(), d.Name) {
				t.Errorf("report misses %s %s", w.name, d.Name)
			}
		}
	}

	out.Reset()
	// 7% is inside some bounds and outside others.
	if err := compareSets(&out, base, fakeSet(t, 107, "aa")); err == nil {
		t.Error("sets 7% apart must fail on the metrics bounded at 6%")
	}
	if !strings.Contains(out.String(), "FAIL paper_ramp allocs_per_request") || strings.Contains(out.String(), "FAIL paper_ramp wall_s") {
		t.Errorf("7%% must fail allocs_per_request and pass wall_s:\n%s", out.String())
	}
	if err := compareSets(&out, base, fakeSet(t, 90, "aa")); err == nil {
		t.Error("a 10% gain must fail too: it needs a new baseline")
	}

	out.Reset()
	if err := compareSets(&out, base, fakeSet(t, 100, "bb")); err == nil || !strings.Contains(out.String(), "model.digest") {
		t.Errorf("differing digests must fail: %v\n%s", err, out.String())
	}
	if err := compareSets(&out, base, filepath.Join(t.TempDir(), "absent")); err == nil {
		t.Error("a missing result set must fail")
	}
}

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the tables in metrics.go and workloads.go")

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string    `json:"command"`
	Paths      []string    `json:"paths"`
	RunSeconds int         `json:"run_seconds"`
	Workloads  []nameWhy   `json:"workloads"`
	EndToEnd   []metricDef `json:"end_to_end"`
	PerLayer   []layerDef  `json:"per_layer"`
}

type nameWhy struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type layerDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// TestManifestInStep keeps BENCHMARK.json and the benchmark's own tables
// saying the same thing.
func TestManifestInStep(t *testing.T) {
	want := manifest{
		Command:    []string{"go", "run", "./benchmark"},
		Paths:      []string{"benchmark"},
		RunSeconds: defaultSeconds,
		EndToEnd:   endToEnd,
	}
	for _, w := range workloads {
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, over 200", w.name, len(w.why))
		}
		want.Workloads = append(want.Workloads, nameWhy{w.name, w.why})
	}
	for _, d := range perLayer {
		want.PerLayer = append(want.PerLayer, layerDef{d.Name, d.Unit, d.Better})
	}
	if len(want.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, over 128", len(want.PerLayer))
	}
	const path = "../BENCHMARK.json"
	if *update {
		data, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json and the benchmark's tables differ; go test ./benchmark -run TestManifestInStep -update rewrites the file")
	}
}
