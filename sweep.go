package jade

import (
	"fmt"

	"jade/internal/invariant"
)

// Re-exported invariant-harness types.
type (
	// InvariantHarness evaluates checkers on a ticker and at
	// reconfiguration boundaries (enable via ScenarioConfig.Invariants).
	InvariantHarness = invariant.Harness
	// InvariantChecker is one registered invariant predicate.
	InvariantChecker = invariant.Checker
	// InvariantViolation is the first invariant failure of a run.
	InvariantViolation = invariant.Violation
	// ChaosEvent is one declarative failure-schedule action.
	ChaosEvent = invariant.Event
	// ChaosSchedule is a declarative failure schedule.
	ChaosSchedule = invariant.Schedule
	// SweepArtifact is a replayable record of a failing seed+schedule.
	SweepArtifact = invariant.Artifact
	// SweepOutcome is what one run reports to the sweep.
	SweepOutcome = invariant.Outcome
	// SweepResult summarizes a chaos sweep.
	SweepResult = invariant.SweepResult
)

// Chaos event kinds.
const (
	ChaosCrash  = invariant.Crash
	ChaosReboot = invariant.Reboot
	ChaosSlow   = invariant.Slow
	// ChaosPartition cuts the simulated network between the event's A
	// and B endpoint groups (requires NetworkConfig.Enabled).
	ChaosPartition = invariant.Partition
	// ChaosHeal removes every active partition.
	ChaosHeal = invariant.Heal
	// ChaosConfig applies the event's Patch as a live configuration
	// change through the run's refresh hub, so the sweep can hunt for
	// pathological mid-run retunes and the shrinker can minimize them.
	ChaosConfig = invariant.Config
)

// ParseSweepArtifact decodes an artifact written by `jadectl sweep`.
func ParseSweepArtifact(data []byte) (*SweepArtifact, error) {
	return invariant.ParseArtifact(data)
}

// SweepRunner adapts RunScenario to the chaos sweep: each run copies the
// base configuration, substitutes the seed and schedule, and forces the
// invariant harness on.
func SweepRunner(base ScenarioConfig) invariant.Runner {
	return func(seed int64, schedule invariant.Schedule) (*invariant.Outcome, error) {
		cfg := base
		cfg.Seed = seed
		cfg.Invariants = true
		cfg.Chaos = schedule
		r, err := RunScenario(cfg)
		if err != nil {
			return nil, err
		}
		return &invariant.Outcome{Violation: r.InvariantViolation, Checks: r.InvariantChecks}, nil
	}
}

// ChaosSweepScenario is the sweep's base configuration: the Fig. 5
// scenario (managed, with recovery and arbitration) under a
// time-compressed ramp so a multi-seed sweep stays cheap. Pass speedup 1
// for the paper's full ~50-minute ramp.
func ChaosSweepScenario(speedup float64) ScenarioConfig {
	cfg := DefaultScenario(1, true)
	cfg.Recovery = true
	cfg.Arbitrate = true
	if speedup > 1 {
		cfg.Profile = compressedRamp(speedup)
	}
	return cfg
}

// DefaultCrashSchedule is the sweep's failure schedule, scaled to the
// profile length: each initial tier replica crashes mid-ramp and its node
// reboots 60 s later, and the database controller's node is slowed near
// the peak. Fractions of the profile duration keep the schedule
// meaningful under time compression.
func DefaultCrashSchedule(profileSeconds float64) ChaosSchedule {
	at := func(f float64) float64 { return float64(profileSeconds * f) }
	return ChaosSchedule{
		{At: at(0.20), Kind: ChaosCrash, Target: "tomcat1"},
		{At: at(0.20) + 60, Kind: ChaosReboot, Target: "tomcat1"},
		{At: at(0.45), Kind: ChaosCrash, Target: "mysql1"},
		{At: at(0.45) + 60, Kind: ChaosReboot, Target: "mysql1"},
		{At: at(0.55), Kind: ChaosSlow, Target: "cjdbc1", Duration: 45},
	}
}

// RunChaosSweep sweeps the Fig. 5 chaos scenario over seeds 1..seedCount
// at the given time compression, shrinking and returning a replayable
// artifact on the first violation. Parallelism() workers fan the seeds
// out; the result is deterministic regardless — the reported failure is
// always the lowest failing seed and shrinking replays stay
// single-threaded.
func RunChaosSweep(seedCount int, speedup float64, logf func(string, ...any)) (*SweepResult, error) {
	if seedCount <= 0 {
		return nil, fmt.Errorf("jade: sweep needs at least one seed")
	}
	base := ChaosSweepScenario(speedup)
	seeds := make([]int64, seedCount)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	sched := DefaultCrashSchedule(base.Profile.Duration())
	return invariant.Sweep(invariant.SweepConfig{Run: SweepRunner(base), Parallel: Parallelism(), Logf: logf}, seeds, sched)
}

// ReplayArtifact re-runs a failing seed/schedule artifact against the
// same base scenario the sweep used and reports whether the recorded
// violation reproduces.
func ReplayArtifact(a *SweepArtifact, speedup float64) (*SweepOutcome, bool, error) {
	out, err := invariant.Replay(SweepRunner(ChaosSweepScenario(speedup)), a)
	if err != nil {
		return nil, false, err
	}
	reproduced := out.Violation != nil && a.Violation != nil && out.Violation.Checker == a.Violation.Checker
	return out, reproduced, nil
}
