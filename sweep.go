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
	// SweepOutcome is what one run reports to the sweep.
	SweepOutcome = invariant.Outcome
)

// SweepArtifact is a failing run as the file `jadectl sweep` writes (its
// JSON encoding). Spec is the whole run: the failing seed, every switch
// of the sweep's base run, checks.invariants on and the shrunk schedule
// as faults.chaos; `jadectl scenario -config` runs it as it is.
type SweepArtifact struct {
	Spec Spec `json:"spec"`
	// Violation is the invariant failure the run hit.
	Violation *InvariantViolation `json:"violation"`
	// ShrunkFrom is the event count of the schedule before shrinking.
	ShrunkFrom int `json:"shrunk_from"`
}

// SweepResult summarizes a chaos sweep as invariant.SweepResult does,
// with the failure, if any, as an artifact.
type SweepResult struct {
	Seeds        []int64
	Passed, Runs int
	Checks       uint64
	Failure      *SweepArtifact
}

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
// It refuses unknown fields, an artifact without a violation, and a spec
// that ParseSpec would refuse; a spec's field errors carry the "spec."
// prefix of their path in the file.
func ParseSweepArtifact(data []byte) (*SweepArtifact, error) {
	var a SweepArtifact
	if err := decodeStrict(data, &a); err != nil {
		return nil, fmt.Errorf("jade: parsing sweep artifact: %w", err)
	}
	if a.Violation == nil {
		return nil, fmt.Errorf("jade: parsing sweep artifact: no violation")
	}
	if err := a.Spec.Validate(); err != nil {
		var ve ValidationError
		for _, fe := range AsValidationError(err) {
			ve.addf(joinPath("spec", fe.Path), "%s", fe.Msg)
		}
		return nil, ve.or()
	}
	return &a, nil
}

// sweepSpec is the sweep's base run: the Fig. 5 scenario (managed, with
// recovery and arbitration) on the paper's ramp compressed speedup times
// (speedup 1 or less: the paper's full ~50-minute ramp), so a multi-seed
// sweep stays cheap.
func sweepSpec(speedup float64) Spec {
	s := DefaultSpec(1, true)
	s.Recovery = true
	s.Sizing.Arbitrate = true
	r := compressedRamp(max(speedup, 1))
	s.Workload.Profile = ProfileSpec{Kind: "ramp", StepPerMinute: r.StepPerMinute, HoldAtPeakSeconds: r.HoldAtPeak}
	return s
}

// ChaosSweepScenario is the sweep's base run (see sweepSpec) compiled to
// a ScenarioConfig. Pass speedup 1 for the paper's full ~50-minute ramp.
func ChaosSweepScenario(speedup float64) ScenarioConfig {
	return sweepSpec(speedup).compile()
}

// sweepRun is the run the sweep makes of base for one seed and schedule:
// invariants on, the schedule as its chaos.
func sweepRun(base Spec, seed int64, schedule ChaosSchedule) Spec {
	base.Seed = seed
	base.Checks.Invariants = true
	base.Faults.Chaos = schedule
	return base
}

// runOutcome runs a spec and reports what the sweep reads of it.
func runOutcome(s Spec) (*SweepOutcome, error) {
	r, err := RunSpec(s)
	if err != nil {
		return nil, err
	}
	return &SweepOutcome{Violation: r.InvariantViolation, Checks: r.InvariantChecks}, nil
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
	base := sweepSpec(speedup)
	profile, _ := base.Workload.Profile.Profile()
	return sweep(base, seedCount, DefaultCrashSchedule(profile.Duration()), logf)
}

// sweep runs base over seeds 1..seedCount under schedule, each run a
// validated Spec with invariants on, and turns the first failure into an
// artifact.
func sweep(base Spec, seedCount int, schedule ChaosSchedule, logf func(string, ...any)) (*SweepResult, error) {
	if seedCount <= 0 {
		return nil, fmt.Errorf("jade: sweep needs at least one seed")
	}
	seeds := make([]int64, seedCount)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	run := func(seed int64, schedule invariant.Schedule) (*invariant.Outcome, error) {
		return runOutcome(sweepRun(base, seed, schedule))
	}
	res, err := invariant.Sweep(invariant.SweepConfig{Run: run, Parallel: Parallelism(), Logf: logf}, seeds, schedule)
	if err != nil {
		return nil, err
	}
	out := &SweepResult{Seeds: res.Seeds, Passed: res.Passed, Runs: res.Runs, Checks: res.Checks}
	if f := res.Failure; f != nil {
		out.Failure = &SweepArtifact{Spec: sweepRun(base, f.Seed, f.Schedule), Violation: f.Violation, ShrunkFrom: f.ShrunkFrom}
	}
	return out, nil
}

// ReplayArtifact runs an artifact's Spec and reports whether the recorded
// violation reproduces: the same checker with the same detail.
func ReplayArtifact(a *SweepArtifact) (*SweepOutcome, bool, error) {
	out, err := runOutcome(a.Spec)
	if err != nil {
		return nil, false, err
	}
	v, want := out.Violation, a.Violation
	return out, v != nil && want != nil && v.Checker == want.Checker && v.Detail == want.Detail, nil
}
