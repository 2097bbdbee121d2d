package jade

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"jade/internal/core"
	"jade/internal/invariant"
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
		data, _ := res.Failure.Encode()
		t.Fatalf("seed %d violated %s:\n%s", res.Failure.Seed, res.Failure.Violation.Checker, data)
	}
	if res.Passed != 20 {
		t.Fatalf("passed = %d/20", res.Passed)
	}
	if res.Checks == 0 {
		t.Fatal("sweep performed no invariant checks")
	}
}

// sabotagedScenario wires a deliberately broken actuation into the chaos
// schedule: a test-only "sabotage" event that rips a worker out of the PLB
// directly, bypassing the Fractal unbind path the actuators use.
func sabotagedScenario() ScenarioConfig {
	base := ChaosSweepScenario(8)
	base.ChaosHandler = func(res *ScenarioResult, ev ChaosEvent) bool {
		if ev.Kind != "sabotage" {
			return false
		}
		w := res.Deployment.MustComponent("plb1").Content().(*core.BalancerWrapper)
		_ = w.Balancer().Remove(ev.Target)
		return true
	}
	return base
}

// TestBrokenActuatorCaughtShrunkAndReplayed proves the harness catches a
// buggy actuation, shrinks the failing schedule to the single guilty
// event, and reproduces it from the encoded artifact.
func TestBrokenActuatorCaughtShrunkAndReplayed(t *testing.T) {
	base := sabotagedScenario()
	run := SweepRunner(base)
	sched := append(DefaultCrashSchedule(base.Profile.Duration()),
		ChaosEvent{At: base.Profile.Duration() * 0.05, Kind: "sabotage", Target: "tomcat1"})

	res, err := invariant.Sweep(invariant.SweepConfig{Run: run, Logf: t.Logf}, []int64{1}, sched)
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
	if len(a.Schedule) != 1 || a.Schedule[0].Kind != "sabotage" {
		t.Fatalf("shrunk schedule = %v, want the single sabotage event", a.Schedule)
	}
	if a.ShrunkFrom != len(sched) {
		t.Fatalf("ShrunkFrom = %d, want %d", a.ShrunkFrom, len(sched))
	}

	// The artifact round-trips and replays to the same violation.
	data, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseSweepArtifact(data)
	if err != nil {
		t.Fatal(err)
	}
	out, err := invariant.Replay(run, parsed)
	if err != nil {
		t.Fatal(err)
	}
	if out.Violation == nil || out.Violation.Checker != a.Violation.Checker {
		t.Fatalf("replay produced %+v, want %s again", out.Violation, a.Violation.Checker)
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
