package jade

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync/atomic"

	"jade/internal/invariant"
)

// Re-exported invariant-harness types.
type (
	// InvariantHarness evaluates checkers on a ticker and at
	// reconfiguration boundaries (enable via a Spec's checks.invariants).
	InvariantHarness = invariant.Harness
	// InvariantChecker is one registered invariant predicate.
	InvariantChecker = invariant.Checker
	// InvariantViolation is the first invariant failure of a run.
	InvariantViolation = invariant.Violation
)

// ChaosEvent is one declarative chaos action at a virtual time (relative
// to workload start).
type ChaosEvent struct {
	// At is the virtual time of the event, in seconds after the workload
	// starts.
	At float64 `json:"at"`
	// Kind is the action: one of the Chaos* kinds, or a kind the run's
	// ScenarioConfig.ChaosHandler accepts.
	Kind string `json:"kind"`
	// Target is a component name (resolved to its node at fire time) or
	// a node name. Unused by partition and heal events.
	Target string `json:"target,omitempty"`
	// Duration parameterizes slow events (seconds; default 60) and, when
	// positive, heals a partition after that many seconds.
	Duration float64 `json:"duration,omitempty"`
	// A and B are the two endpoint groups of a partition event. Entries
	// are component names (resolved to nodes at fire time), node names,
	// or the pseudo-endpoints "client" and "jade". An empty B cuts A off
	// from everyone else.
	A []string `json:"a,omitempty"`
	B []string `json:"b,omitempty"`
	// Patch is a config event's refreshable-configuration patch, in the
	// same JSON grammar the admin /config endpoint accepts.
	Patch json.RawMessage `json:"patch,omitempty"`
}

// ChaosSchedule is a declarative failure schedule, applied in At order.
type ChaosSchedule []ChaosEvent

// Chaos event kinds.
const (
	// ChaosCrash fails the target's node.
	ChaosCrash = "crash"
	// ChaosReboot returns the target's (previously crashed) node to
	// service.
	ChaosReboot = "reboot"
	// ChaosSlow saturates the target's node with a CPU hog for Duration
	// seconds, degrading every job sharing the processor.
	ChaosSlow = "slow"
	// ChaosPartition cuts the simulated network between the event's A
	// and B endpoint groups (requires NetworkConfig.Enabled).
	ChaosPartition = "partition"
	// ChaosHeal removes every active partition.
	ChaosHeal = "heal"
	// ChaosConfig applies the event's Patch as a live configuration
	// change through the run's refresh hub, so the sweep can hunt for
	// pathological mid-run retunes and the shrinker can minimize them.
	ChaosConfig = "config"
)

func (e ChaosEvent) at() float64 { return e.At }

// sortedByAt returns a copy of a scripted schedule ordered by At, stable
// for ties, the order a run fires it in.
func sortedByAt[S ~[]E, E interface{ at() float64 }](s S) S {
	out := append(S(nil), s...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].at() < out[j].at() })
	return out
}

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

// SweepResult summarizes a chaos sweep.
type SweepResult struct {
	// Seeds are the seeds swept, in order.
	Seeds []int64
	// Passed counts seeds that completed with no violation.
	Passed int
	// Runs counts scenario runs, shrink reruns included. A failing sweep
	// on more workers may count more: seeds above the failure that were
	// already running finish.
	Runs int
	// Checks totals checker evaluations over the passed seeds and the
	// failing one.
	Checks uint64
	// Failure is the lowest failing seed's shrunk run, or nil when every
	// seed passed.
	Failure *SweepArtifact
}

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
	s.Workload.Profile = compressedRamp(max(speedup, 1))
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
// single-threaded. A speedup that is negative, not finite or above 1200
// is refused; one of 1 or less runs the paper's full ramp.
func RunChaosSweep(seedCount int, speedup float64, logf func(string, ...any)) (*SweepResult, error) {
	if err := checkSpeedup(speedup, 0); err != nil {
		return nil, err
	}
	base := sweepSpec(speedup)
	profile, _ := base.Workload.Profile.Profile()
	return sweep(RunSpec, base, seedCount, DefaultCrashSchedule(profile.Duration()), logf)
}

// runFunc runs one Spec: RunSpec, or a test's run that adds what no Spec
// carries (a ChaosHandler).
type runFunc func(Spec) (*ScenarioResult, error)

// sweep runs sweepRun(base, seed, schedule) for seeds 1..seedCount
// through run, fanned out as runAll fans out, and shrinks the lowest
// failing seed's schedule into an artifact. A run's error aborts the
// sweep.
func sweep(run runFunc, base Spec, seedCount int, schedule ChaosSchedule, logf func(string, ...any)) (*SweepResult, error) {
	if seedCount <= 0 {
		return nil, fmt.Errorf("jade: sweep needs at least one seed")
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	sched := sortedByAt(schedule)
	res := &SweepResult{Seeds: make([]int64, seedCount)}
	for i := range res.Seeds {
		res.Seeds[i] = int64(i + 1)
	}
	outs := make([]*ScenarioResult, seedCount)
	errs := make([]error, seedCount)
	var runs atomic.Int64
	first := fanOut(seedCount, func(i int) bool {
		outs[i], errs[i] = run(sweepRun(base, res.Seeds[i], sched))
		runs.Add(1)
		return errs[i] != nil || outs[i].InvariantViolation != nil
	})
	res.Runs = int(runs.Load())
	for i, out := range outs[:first] {
		res.Checks += out.InvariantChecks
		res.Passed++
		logf("sweep: seed %d ok (%d checks)", res.Seeds[i], out.InvariantChecks)
	}
	if first == seedCount {
		return res, nil
	}
	seed := res.Seeds[first]
	if errs[first] != nil {
		return nil, fmt.Errorf("jade: sweep seed %d: %w", seed, errs[first])
	}
	res.Checks += outs[first].InvariantChecks
	v := outs[first].InvariantViolation
	logf("sweep: seed %d FAILED: %v", seed, v)
	// Shrinking runs here, on one goroutine, so its run sequence — and
	// therefore the failure — is the same however the seed was found.
	shrunk, sv, reruns := shrink(run, base, seed, sched, v.Checker, shrinkBudget)
	res.Runs += reruns
	if sv != nil {
		v = sv
	}
	logf("sweep: shrunk schedule from %d to %d events in %d runs", len(sched), len(shrunk), reruns)
	res.Failure = &SweepArtifact{Spec: sweepRun(base, seed, shrunk), Violation: v, ShrunkFrom: len(sched)}
	return res, nil
}

// shrinkBudget caps the number of extra runs the shrinker may spend.
const shrinkBudget = 64

// shrink greedily drops chaos events while the run of base at seed still
// violates the same checker, to a fixpoint or until budget runs are
// spent. A candidate whose run errors (Validate refusing it included)
// does not reproduce. It returns the smallest failing schedule found, the
// violation it produces (nil if no candidate reproduced) and the runs
// spent.
func shrink(run runFunc, base Spec, seed int64, sched ChaosSchedule, checker string, budget int) (ChaosSchedule, *InvariantViolation, int) {
	cur := sched
	var lastV *InvariantViolation
	runs := 0
	for changed := true; changed && len(cur) > 0; {
		changed = false
		for i := 0; i < len(cur); i++ {
			if runs >= budget {
				return cur, lastV, runs
			}
			cand := append(append(ChaosSchedule(nil), cur[:i]...), cur[i+1:]...)
			runs++
			out, err := run(sweepRun(base, seed, cand))
			if err == nil && out.InvariantViolation != nil && out.InvariantViolation.Checker == checker {
				cur, lastV = cand, out.InvariantViolation
				changed = true
				i--
			}
		}
	}
	return cur, lastV, runs
}

// ReplayArtifact runs an artifact's Spec and reports whether the recorded
// violation reproduces: the same checker with the same detail.
func ReplayArtifact(a *SweepArtifact) (*ScenarioResult, bool, error) {
	r, err := RunSpec(a.Spec)
	if err != nil {
		return nil, false, err
	}
	v, want := r.InvariantViolation, a.Violation
	return r, v != nil && want != nil && v.Checker == want.Checker && v.Detail == want.Detail, nil
}
