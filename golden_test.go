package jade

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// goldenManifest is testdata/golden_digests.json: one SHA-256 per run
// artifact plus a readable scalar line, for a fixed run matrix. The
// manifest is generated once (`go test -run TestGoldenDigests -update .`)
// and then pins every later commit to the behaviour of the commit that
// wrote it, so a refactor is checked against the system before it rather
// than against itself.
type goldenManifest struct {
	// GOARCH the digests were taken on: floating-point contraction (FMA)
	// differs between architectures, so the digests do too.
	GOARCH string                       `json:"goarch"`
	Runs   map[string]map[string]string `json:"runs"`
}

type goldenCase struct {
	name string
	cfg  ScenarioConfig
}

// goldenRamp is the paper ramp at 8x time compression.
func goldenRamp() Profile {
	return RampProfile{Base: 80, Peak: 500, StepPerMinute: 21 * 8, HoldAtPeak: 120.0 / 8}
}

// goldenMatrix is the pinned run set. Every entry is built the way its
// users build it (LoadSpec + Flatten, i.e. RunSpec, for the example
// file; the experiment constructors for the flagship runs); between them
// they cross every plane and every fault-injection route of the run
// lifecycle.
func goldenMatrix(t *testing.T) []goldenCase {
	t.Helper()
	paper := func(managed bool) ScenarioConfig {
		cfg := DefaultScenario(1, managed)
		cfg.Profile = goldenRamp()
		cfg.TraceRequests = 25
		cfg.Net.Enabled = true
		return cfg
	}
	spec, err := LoadSpec(filepath.Join("examples", "netfault.json"))
	if err != nil {
		t.Fatal(err)
	}
	netfault, err := spec.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	liveRetune, _, _ := LiveRetuneScenario(1, true, true)
	recovery := DefaultScenario(1, true)
	recovery.Recovery = true
	recovery.Profile = ConstantProfile{Clients: 120, Length: 240}
	recovery.FailAt, recovery.FailComponent = 60, "tomcat1"
	churn := DefaultScenario(1, true)
	churn.Recovery = true
	churn.Profile = ConstantProfile{Clients: 120, Length: 300}
	churn.MTBFSeconds = 90
	sessions := DefaultScenario(1, true)
	sessions.Profile = goldenRamp()
	sessions.Sessions = true
	sweep := ChaosSweepScenario(8)
	sweep.Invariants = true
	sweep.Chaos = DefaultCrashSchedule(sweep.Profile.Duration())
	return []goldenCase{
		{"paper-managed", paper(true)},
		{"paper-unmanaged", paper(false)},
		{"paper-sessions", sessions},
		{"netfault-spec", netfault},
		{"grayfail-quick-balanced", GrayFailureScenario(1, "balanced", true)},
		{"liveretune-quick", liveRetune},
		{"recovery-failat", recovery},
		{"million-quick", MillionClientScenario(1, true)},
		{"mtbf-churn", churn},
		{"alertlat-quick-crash", AlertLatencyScenario(1, "crash", true)},
		{"chaos-sweep-arbitrated", sweep},
	}
}

// goldenRun executes one matrix entry with artifacts written to a scratch
// directory and returns artifact name -> digest (plus the scalar line).
func goldenRun(t *testing.T, cfg ScenarioConfig) map[string]string {
	t.Helper()
	dir := t.TempDir()
	cfg.MetricsDir = dir
	r, err := RunScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sum := func(b []byte) string { return fmt.Sprintf("%x", sha256.Sum256(b)) }
	out := map[string]string{}
	var trace bytes.Buffer
	if err := r.Trace().WriteJSONL(&trace); err != nil {
		t.Fatal(err)
	}
	out["trace.jsonl"] = sum(trace.Bytes())
	var proms []string
	for name, data := range readSnapshots(t, dir) {
		switch {
		case strings.HasSuffix(name, ".prom"):
			proms = append(proms, name)
		case strings.HasPrefix(name, "metrics-t"):
			// .json snapshots carry the same samples as the .prom ones.
		default:
			out[name] = sum(data)
		}
	}
	if len(proms) == 0 {
		t.Fatal("no metrics snapshot written")
	}
	sort.Strings(proms)
	final, err := os.ReadFile(filepath.Join(dir, proms[len(proms)-1]))
	if err != nil {
		t.Fatal(err)
	}
	out["metrics-final.prom"] = sum(final)
	out["scalars"] = fmt.Sprintf("events=%d completed=%d failed=%d reconfigurations=%d repairs=%d injected=%d node_seconds=%g peak_nodes=%d",
		r.Platform.Eng.Processed(), r.Stats.Completed, r.Stats.Failed,
		r.Reconfigurations, r.Repairs, r.InjectedFailures, r.NodeSeconds, r.PeakNodesUsed)
	return out
}

// TestGoldenDigests re-runs the matrix and compares every artifact digest
// with the committed manifest. Run `go test -run TestGoldenDigests
// -update .` to accept an intended behaviour change (and say in the commit
// which artifacts moved and why).
func TestGoldenDigests(t *testing.T) {
	path := filepath.Join("testdata", "golden_digests.json")
	var want goldenManifest
	if !*updateSurface {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing manifest (run `go test -run TestGoldenDigests -update .`): %v", err)
		}
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if want.GOARCH != runtime.GOARCH {
			t.Skipf("manifest was generated on %s, this is %s: floating-point contraction differs, digests are not comparable",
				want.GOARCH, runtime.GOARCH)
		}
	}
	got := goldenManifest{GOARCH: runtime.GOARCH, Runs: map[string]map[string]string{}}
	for _, m := range goldenMatrix(t) {
		m := m
		t.Run(m.name, func(t *testing.T) {
			got.Runs[m.name] = goldenRun(t, m.cfg)
			if *updateSurface {
				return
			}
			wantRun := want.Runs[m.name]
			for name, digest := range got.Runs[m.name] {
				if wantRun[name] != digest {
					t.Errorf("%s: got %s, manifest has %s", name, digest, wantRun[name])
				}
			}
			for name := range wantRun {
				if _, ok := got.Runs[m.name][name]; !ok {
					t.Errorf("%s: in the manifest but no longer produced", name)
				}
			}
		})
	}
	if *updateSurface {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if len(want.Runs) != len(got.Runs) {
		t.Errorf("manifest has %d runs, matrix has %d", len(want.Runs), len(got.Runs))
	}
}
