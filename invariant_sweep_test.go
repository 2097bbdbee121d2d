package jade

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"jade/internal/core"
)

// TestChaosSweepPassesAcrossSeeds is the headline acceptance check: the
// Fig. 5 scenario (managed, recovery, arbitration) under the default
// crash/reboot/slow schedule preserves every invariant across 20 seeds.
func TestChaosSweepPassesAcrossSeeds(t *testing.T) {
	res, err := RunChaosSweep(20, 8, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failure != nil {
		data, _ := json.MarshalIndent(res.Failure, "", "  ")
		t.Fatalf("seed %d violated %s:\n%s", res.Failure.Spec.Seed, res.Failure.Violation.Checker, data)
	}
	if res.Passed != 20 {
		t.Fatalf("passed = %d/20", res.Passed)
	}
	if res.Checks == 0 {
		t.Fatal("sweep performed no invariant checks")
	}
}

// sabotagedRun runs a sweep Spec with a deliberately broken actuation in
// its chaos schedule: a test-only "sabotage" event that rips a worker out
// of the PLB directly, bypassing the Fractal unbind path the actuators
// use. No Spec carries the kind, so the run adds the handler to the
// compiled Spec.
func sabotagedRun(s Spec) (*ScenarioResult, error) {
	cfg := s.compile()
	cfg.ChaosHandler = func(res *ScenarioResult, ev ChaosEvent) bool {
		if ev.Kind != "sabotage" {
			return false
		}
		w := res.Deployment.MustComponent("plb1").Content().(*core.BalancerWrapper)
		_ = w.Balancer().Remove(ev.Target)
		return true
	}
	return RunScenario(cfg)
}

// TestBrokenActuatorCaughtShrunkAndReplayed proves the harness catches a
// buggy actuation, shrinks the failing schedule to the single guilty
// event, and reproduces it from the encoded artifact.
func TestBrokenActuatorCaughtShrunkAndReplayed(t *testing.T) {
	duration := ChaosSweepScenario(8).Profile.Duration()
	sched := append(DefaultCrashSchedule(duration),
		ChaosEvent{At: duration * 0.05, Kind: "sabotage", Target: "tomcat1"})

	res, err := sweep(sabotagedRun, sweepSpec(8), 1, sched, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	a := res.Failure
	if a == nil {
		t.Fatal("broken actuator not caught")
	}
	if !strings.HasPrefix(a.Violation.Checker, "balancer-agreement") {
		t.Fatalf("caught by %s, want balancer-agreement", a.Violation.Checker)
	}
	if chaos := a.Spec.Faults.Chaos; len(chaos) != 1 || chaos[0].Kind != "sabotage" {
		t.Fatalf("shrunk schedule = %+v, want the single sabotage event", chaos)
	}
	if a.ShrunkFrom != len(sched) {
		t.Fatalf("ShrunkFrom = %d, want %d", a.ShrunkFrom, len(sched))
	}

	// The artifact round-trips and replays to the same violation. Its
	// Spec names a kind only this run handles, so ParseSweepArtifact
	// refuses it and the strict decoder alone reads it back.
	data, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseSweepArtifact(data); err == nil || !strings.Contains(err.Error(), "spec.faults.chaos[0].kind") {
		t.Fatalf("ParseSweepArtifact: err = %v, want the unknown kind refused at spec.faults.chaos[0].kind", err)
	}
	var parsed SweepArtifact
	if err := decodeStrict(data, &parsed); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&parsed, a) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", parsed, *a)
	}
	r, err := sabotagedRun(parsed.Spec)
	if err != nil {
		t.Fatal(err)
	}
	if r.InvariantViolation == nil || r.InvariantViolation.Checker != a.Violation.Checker {
		t.Fatalf("replay produced %+v, want %s again", r.InvariantViolation, a.Violation.Checker)
	}
}

// fabricFailureSpec is TestFabricGridFirstViolations' ×8 seed-1 run with
// the fabric on, as a Spec.
func fabricFailureSpec() Spec {
	s := paperSpec(1, true, 8)
	s.Faults.Network.Enabled = true
	s.Telemetry.TraceOff = true
	return s
}

const fabricArtifactPath = "testdata/replay/fabric-x8-seed1.json"

// The committed fabric-on failure is what the sweep's artifact path writes
// for that run today (go test -run TestFabricFailureArtifact -update .
// rewrites it). It replays, with nothing but the file, to the same
// checker and detail, and its spec value run as `jadectl scenario
// -config` runs a file (ParseSpec, RunSpec) hits the same first
// violation. ROADMAP item 1's fix makes the run pass; that change
// rewrites this test with the grid.
func TestFabricFailureArtifact(t *testing.T) {
	res, err := sweep(RunSpec, fabricFailureSpec(), 1, nil, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failure == nil {
		t.Fatal("the fabric-on run passed; ROADMAP item 1's fix rewrites this test")
	}
	if got, want := res.Failure.Violation.Error(), fabricGridFirstViolations[[2]int{8, 1}]; got != want {
		t.Fatalf("violation\n%q\nwant the grid's\n%q", got, want)
	}
	data, err := json.MarshalIndent(res.Failure, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if *updateSurface {
		if err := os.WriteFile(fabricArtifactPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	file, err := os.ReadFile(fabricArtifactPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(file, data) {
		t.Fatalf("%s differs from what the sweep writes now:\n%s", fabricArtifactPath, data)
	}

	a, err := ParseSweepArtifact(file)
	if err != nil {
		t.Fatal(err)
	}
	out, reproduced, err := ReplayArtifact(a)
	if err != nil {
		t.Fatal(err)
	}
	if !reproduced {
		t.Fatalf("replay hit %v, want %v", out.InvariantViolation, a.Violation)
	}

	var raw struct {
		Spec json.RawMessage `json:"spec"`
	}
	if err := json.Unmarshal(file, &raw); err != nil {
		t.Fatal(err)
	}
	spec, err := ParseSpec(raw.Spec)
	if err != nil {
		t.Fatal(err)
	}
	r, err := RunSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if r.InvariantViolation == nil || r.InvariantViolation.Error() != a.Violation.Error() {
		t.Fatalf("the spec value run alone hit %v, want %v", r.InvariantViolation, a.Violation)
	}
}

// fig5Hash runs the compressed Fig. 5 scenario and hashes every CSV the
// figures read, plus the workload stats, into one digest.
func fig5Hash(t *testing.T, seed int64) [32]byte {
	t.Helper()
	cfg := ChaosSweepScenario(8)
	cfg.Seed = seed
	cfg.Invariants = true
	cfg.Chaos = DefaultCrashSchedule(cfg.Profile.Duration())
	r, err := RunScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.InvariantViolation != nil {
		t.Fatalf("seed %d violated: %v", seed, r.InvariantViolation)
	}
	h := sha256.New()
	for _, csv := range []string{
		r.App.Replicas.CSV(), r.App.CPURaw.CSV(), r.App.CPUSmoothed.CSV(),
		r.DB.Replicas.CSV(), r.DB.CPURaw.CSV(), r.DB.CPUSmoothed.CSV(),
	} {
		h.Write([]byte(csv))
	}
	fmt.Fprintf(h, "%d %d %v %d %d",
		r.Stats.Completed, r.Stats.Failed, r.MeanLatency(), r.Reconfigurations, r.Repairs)
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// TestFig5CSVHashDeterminism: same seed twice gives byte-identical CSV
// output; two different seeds diverge.
func TestFig5CSVHashDeterminism(t *testing.T) {
	a1 := fig5Hash(t, 7)
	a2 := fig5Hash(t, 7)
	if a1 != a2 {
		t.Fatal("same seed produced different CSV output")
	}
	b := fig5Hash(t, 8)
	if a1 == b {
		t.Fatal("different seeds produced identical CSV output")
	}
}

// TestScenarioInvariantHarnessCounts: the harness actually runs during a
// scenario — checks accumulate and reconfiguration boundaries fire.
func TestScenarioInvariantHarnessCounts(t *testing.T) {
	cfg := ChaosSweepScenario(8)
	cfg.Seed = 3
	cfg.Invariants = true
	r, err := RunScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.InvariantViolation != nil {
		t.Fatalf("clean run violated: %v", r.InvariantViolation)
	}
	if r.InvariantChecks == 0 {
		t.Fatal("harness performed no checks")
	}
	if r.Reconfigurations == 0 {
		t.Fatal("compressed ramp did not reconfigure; boundary checks untested")
	}
}

// An artifact of the ×8 sweep carries the ×8 ramp and replays at ×8 with
// nothing but the file: the sweep's base with the fabric on fails (ROADMAP
// item 1), and the replay of its artifact hits the same checker and
// detail. Item 1's fix makes this sweep pass; that change needs another
// failing run here.
func TestSweepArtifactReplaysAtItsSpeedup(t *testing.T) {
	base := sweepSpec(8)
	base.Faults.Network.Enabled = true
	duration := ChaosSweepScenario(8).Profile.Duration()
	res, err := sweep(RunSpec, base, 1, DefaultCrashSchedule(duration), t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	a := res.Failure
	if a == nil {
		t.Fatal("the fabric-on ×8 sweep passed; ROADMAP item 1's fix rewrites this test")
	}
	if want := sweepSpec(8).Workload.Profile; a.Spec.Workload.Profile != want || want.StepPerMinute != 8*PaperRamp().StepPerMinute {
		t.Fatalf("artifact profile %+v, want the ×8 ramp %+v", a.Spec.Workload.Profile, want)
	}
	data, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseSweepArtifact(data)
	if err != nil {
		t.Fatal(err)
	}
	out, reproduced, err := ReplayArtifact(parsed)
	if err != nil {
		t.Fatal(err)
	}
	if !reproduced {
		t.Fatalf("replay hit %v, want %v", out.InvariantViolation, a.Violation)
	}
}
