package jade

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
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
	// GOARCH the digests were taken on (see goldenArchs).
	GOARCH string                       `json:"goarch"`
	Runs   map[string]map[string]string `json:"runs"`
}

// goldenArchs are the architectures the pinned digests and reports are
// checked on: amd64, and 386, whose binaries run on an amd64 host as they
// are (make golden runs both). No float product that reaches a digest may
// be fused into a multiply-add on any architecture (each is written
// float64(x*y), and make vet holds arm64's assembly to it), so the digests
// should hold everywhere; but an architecture this repository cannot run
// is unverified, and the golden tests skip there rather than fail on a
// difference nobody can reproduce.
var goldenArchs = map[string]bool{"amd64": true, "386": true}

// skipUnverifiedArch skips t on an architecture outside goldenArchs.
func skipUnverifiedArch(t *testing.T) {
	t.Helper()
	if !goldenArchs[runtime.GOARCH] {
		t.Skipf("the goldens are checked on amd64 and 386 only; %s cannot run here, so its digests are unverified", runtime.GOARCH)
	}
}

type goldenCase struct {
	name string
	spec Spec
}

// goldenMatrix is the pinned run set. Every entry is the Spec its users
// run: the committed example file as LoadSpec reads it, and for the
// flagship runs the builder their experiment uses. Between them they cross
// every plane and every fault-injection route of the run lifecycle.
func goldenMatrix(t *testing.T) []goldenCase {
	t.Helper()
	paper := func(managed bool) Spec {
		s := paperSpec(1, managed, 8)
		s.Telemetry.TraceRequests = 25
		s.Faults.Network.Enabled = true
		return s
	}
	netfault, err := LoadSpec(filepath.Join("examples", "netfault.json"))
	if err != nil {
		t.Fatal(err)
	}
	liveRetune, _, _ := liveRetuneSpec(1, true, true)
	recovery := recoverySpec(1, 240)
	recovery.Faults.Chaos = ChaosSchedule{{At: 60, Kind: ChaosCrash, Target: "tomcat1"}}
	sessions := paperSpec(1, true, 8)
	sessions.Workload.Sessions = true
	sweepBase := sweepSpec(8)
	profile, _ := sweepBase.Workload.Profile.Profile()
	return []goldenCase{
		{"paper-managed", paper(true)},
		{"paper-unmanaged", paper(false)},
		{"paper-sessions", sessions},
		{"netfault-spec", netfault},
		{"grayfail-quick-balanced", grayFailSpec(1, "balanced", true)},
		{"liveretune-quick", liveRetune},
		{"recovery-failat", recovery},
		{"million-quick", millionClientSpec(1, true)},
		{"mtbf-churn", churnSpec(1, 90, 300)},
		{"alertlat-quick-crash", alertLatSpec(1, "crash", true)},
		{"chaos-sweep-arbitrated", sweepRun(sweepBase, 1, DefaultCrashSchedule(profile.Duration()))},
	}
}

// Every golden run survives JSON: marshalled and parsed back it is the
// same Spec, so any pinned run can be written out and rerun with
// `jadectl scenario -config`.
func TestGoldenSpecsRoundTripJSON(t *testing.T) {
	for _, m := range goldenMatrix(t) {
		data, err := json.Marshal(m.spec)
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		back, err := ParseSpec(data)
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		if !reflect.DeepEqual(back, m.spec) {
			t.Errorf("%s: round trip changed the spec:\n got %+v\nwant %+v", m.name, back, m.spec)
		}
	}
}

// goldenRun executes one matrix entry with artifacts written to a scratch
// directory and returns artifact name -> digest (plus the scalar line).
func goldenRun(t *testing.T, s Spec) map[string]string {
	t.Helper()
	dir := t.TempDir()
	s.Telemetry.MetricsDir = dir
	r, err := RunSpec(s)
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
		case strings.HasPrefix(name, "metrics-t"), name == metricsHistory:
			// The .json page and the history carry the samples of the
			// .prom page and of the ticks before it.
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
		skipUnverifiedArch(t)
	}
	got := goldenManifest{GOARCH: runtime.GOARCH, Runs: map[string]map[string]string{}}
	for _, m := range goldenMatrix(t) {
		m := m
		t.Run(m.name, func(t *testing.T) {
			got.Runs[m.name] = goldenRun(t, m.spec)
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

// checkGolden compares got with the golden file at path and reports the
// first line that differs; with -update it rewrites the file instead.
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *updateSurface {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("%s line %d:\n got %s\nwant %s", path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: %d lines, want %d", path, len(gl), len(wl))
}
