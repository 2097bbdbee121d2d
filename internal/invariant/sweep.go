package invariant

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Kind classifies a chaos schedule event.
type Kind string

// Standard event kinds. Scenario runners may accept additional kinds
// (e.g. test-only sabotage events) through their own extension hooks.
const (
	// Crash fails the target's node at the scheduled time.
	Crash Kind = "crash"
	// Reboot returns the target's (previously crashed) node to service.
	Reboot Kind = "reboot"
	// Slow saturates the target's node with a CPU hog for Duration
	// seconds, degrading every job sharing the processor.
	Slow Kind = "slow"
	// Partition cuts the simulated network between the event's A and B
	// endpoint groups (B empty: A against everyone else) for Duration
	// seconds (default: until a matching Heal). Requires a scenario with
	// the network fabric enabled.
	Partition Kind = "partition"
	// Heal removes the partitions installed by earlier Partition events
	// (all of them; per-partition healing uses Duration on the Partition
	// event itself).
	Heal Kind = "heal"
	// Config applies the event's Patch as a live configuration change
	// through the scenario's refresh hub — the sweep hunts for
	// pathological mid-run retunes the same way it hunts for crash
	// timings, and the shrinker minimizes them like any other event.
	Config Kind = "config"
)

// Event is one declarative chaos action at a virtual time (relative to
// workload start).
type Event struct {
	// At is the virtual time of the event, in seconds after the workload
	// starts.
	At float64 `json:"at"`
	// Kind is the action.
	Kind Kind `json:"kind"`
	// Target is a component name (resolved to its node at fire time) or
	// a node name. Unused by Partition/Heal events.
	Target string `json:"target,omitempty"`
	// Duration parameterizes Slow events (seconds; default 60) and, when
	// positive, auto-heals a Partition after that many seconds.
	Duration float64 `json:"duration,omitempty"`
	// A and B are the two endpoint groups of a Partition event. Entries
	// are component names (resolved to nodes at fire time), node names,
	// or the pseudo-endpoints "client" and "jade". An empty B cuts A off
	// from everyone else.
	A []string `json:"a,omitempty"`
	B []string `json:"b,omitempty"`
	// Patch is a Config event's refreshable-configuration patch, in the
	// same JSON grammar the admin /config endpoint accepts.
	Patch json.RawMessage `json:"patch,omitempty"`
}

func (e Event) String() string {
	target := e.Target
	if e.Kind == Partition {
		target = fmt.Sprintf("%v|%v", e.A, e.B)
	}
	if e.Kind == Config {
		return fmt.Sprintf("config %s at t=%.0f", string(e.Patch), e.At)
	}
	if e.Duration > 0 {
		return fmt.Sprintf("%s %s at t=%.0f for %.0f s", e.Kind, target, e.At, e.Duration)
	}
	return fmt.Sprintf("%s %s at t=%.0f", e.Kind, target, e.At)
}

// Schedule is a declarative failure schedule, applied in At order.
type Schedule []Event

// Sorted returns a copy of the schedule ordered by At (stable for ties).
func (s Schedule) Sorted() Schedule {
	out := append(Schedule(nil), s...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

func (s Schedule) String() string {
	if len(s) == 0 {
		return "(empty schedule)"
	}
	out := ""
	for i, e := range s {
		if i > 0 {
			out += "; "
		}
		out += e.String()
	}
	return out
}

// Outcome is what one scenario run reports back to the sweep.
type Outcome struct {
	// Violation is the first invariant violation, or nil.
	Violation *Violation
	// Checks counts individual checker evaluations during the run.
	Checks uint64
}

// Runner executes one scenario run at the given seed under the given
// chaos schedule and reports the outcome. The package deliberately takes
// a function rather than a scenario config: the scenario harness lives in
// the root package, which imports this one.
type Runner func(seed int64, schedule Schedule) (*Outcome, error)

// Artifact is a failing run as the sweep found it; the root package
// writes it out, with the run's configuration, as a replayable file.
type Artifact struct {
	// Seed reproduces the run's randomness.
	Seed int64
	// Schedule is the (shrunk) failure schedule.
	Schedule Schedule
	// Violation is the invariant failure the run hit.
	Violation *Violation
	// ShrunkFrom is the event count of the original failing schedule.
	ShrunkFrom int
}

// SweepConfig parameterizes a chaos sweep.
type SweepConfig struct {
	// Run executes one scenario run.
	Run Runner
	// Parallel is the number of worker goroutines fanning seeds out
	// (values below 2: one). The Runner must be safe for concurrent use
	// when Parallel > 1 — every run must build its own engine and
	// platform, which the scenario harness already does. Aggregation is
	// deterministic: the reported failure is always the lowest failing
	// seed regardless of goroutine completion order, and
	// Passed/Checks/Failure are the same at any worker count. Only Runs
	// may differ on a failing sweep, because in-flight later seeds finish
	// instead of never starting.
	Parallel int
	// Logf receives progress lines (optional).
	Logf func(format string, args ...any)
}

// SweepResult summarizes a sweep.
type SweepResult struct {
	// Seeds are the seeds swept, in order.
	Seeds []int64
	// Passed counts seeds that completed with no violation.
	Passed int
	// Failure is the first failing seed's shrunk failure, or nil when
	// every seed passed.
	Failure *Artifact
	// Runs counts scenario executions, including shrink reruns. A sweep
	// with more workers that hits a violation may count more runs: seeds
	// already in flight when the failure surfaces run to completion.
	Runs int
	// Checks totals checker evaluations across the sweep.
	Checks uint64
}

// Sweep runs the scenario across every seed under the schedule, stopping
// at the first seed that violates an invariant. The failing schedule is
// greedily shrunk — events are dropped while the same checker still
// fails — and returned as the result's Failure. A scenario error (as
// opposed to an invariant violation) aborts the sweep.
//
// cfg.Parallel workers (at least one) claim seed indexes in ascending
// order and stop claiming past the lowest index known to have failed, so
// a low failing seed cuts the sweep short. Aggregation walks the results
// in seed order, so the outcome does not depend on completion order.
func Sweep(cfg SweepConfig, seeds []int64, schedule Schedule) (*SweepResult, error) {
	if cfg.Run == nil {
		return nil, fmt.Errorf("invariant: SweepConfig.Run is required")
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	res := &SweepResult{Seeds: append([]int64(nil), seeds...)}
	sched := schedule.Sorted()
	type slot struct {
		out *Outcome
		err error
	}
	results := make([]slot, len(seeds))
	workers := min(max(cfg.Parallel, 1), len(seeds))
	var (
		next atomic.Int64 // next unclaimed seed index
		stop atomic.Int64 // lowest index that errored or violated
		runs atomic.Int64
		wg   sync.WaitGroup
	)
	stop.Store(int64(len(seeds)))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				// Indexes at or past the lowest known failure cannot
				// affect the result; don't start them. (Every index below
				// it was claimed earlier and will complete.)
				if i >= len(seeds) || int64(i) >= stop.Load() {
					return
				}
				out, err := cfg.Run(seeds[i], sched)
				runs.Add(1)
				results[i] = slot{out: out, err: err}
				if err != nil || out.Violation != nil {
					for {
						cur := stop.Load()
						if int64(i) >= cur || stop.CompareAndSwap(cur, int64(i)) {
							break
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	res.Runs = int(runs.Load())
	first := int(stop.Load())
	// Every index below the first failure ran and passed; count them in
	// seed order.
	for i := 0; i < first && i < len(seeds); i++ {
		res.Checks += results[i].out.Checks
		res.Passed++
		logf("sweep: seed %d ok (%d checks)", seeds[i], results[i].out.Checks)
	}
	if first >= len(seeds) {
		return res, nil
	}
	s := results[first]
	if s.err != nil {
		return res, fmt.Errorf("invariant: seed %d: %w", seeds[first], s.err)
	}
	res.Checks += s.out.Checks
	seed, v := seeds[first], s.out.Violation
	logf("sweep: seed %d FAILED: %v", seed, v)
	// Shrinking runs here, on one goroutine, so its run sequence — and
	// therefore the failure — is the same however the seed was found.
	shrunk, sv, reruns := shrink(cfg.Run, seed, sched, v.Checker, shrinkBudget)
	res.Runs += reruns
	if sv != nil {
		v = sv
	}
	logf("sweep: shrunk schedule from %d to %d events in %d runs", len(sched), len(shrunk), reruns)
	res.Failure = &Artifact{Seed: seed, Schedule: shrunk, Violation: v, ShrunkFrom: len(sched)}
	return res, nil
}

// shrinkBudget caps the number of extra runs the shrinker may spend.
const shrinkBudget = 64

// shrink greedily removes schedule events while a run at the same seed
// still violates the same checker, iterating to a fixpoint or until the
// run budget is exhausted. It returns the smallest failing schedule found
// and the violation it produces.
func shrink(run Runner, seed int64, sched Schedule, checker string, budget int) (Schedule, *Violation, int) {
	cur := append(Schedule(nil), sched...)
	var lastV *Violation
	runs := 0
	reproduces := func(s Schedule) *Violation {
		out, err := run(seed, s)
		if err != nil {
			return nil // treat errors as "does not reproduce"
		}
		if out.Violation != nil && out.Violation.Checker == checker {
			return out.Violation
		}
		return nil
	}
	for changed := true; changed && len(cur) > 0; {
		changed = false
		for i := 0; i < len(cur); i++ {
			if runs >= budget {
				return cur, lastV, runs
			}
			cand := append(append(Schedule(nil), cur[:i]...), cur[i+1:]...)
			runs++
			if v := reproduces(cand); v != nil {
				cur, lastV = cand, v
				changed = true
				i--
			}
		}
	}
	return cur, lastV, runs
}
