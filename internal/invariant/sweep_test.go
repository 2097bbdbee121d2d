package invariant

import (
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// syntheticRunner violates checker "chk" iff the schedule contains both a
// crash of "a" and a crash of "b" (an interaction bug), for seeds >= minSeed.
func syntheticRunner(minSeed int64, runs *int) Runner {
	return func(seed int64, schedule Schedule) (*Outcome, error) {
		*runs++
		var hasA, hasB bool
		for _, ev := range schedule {
			if ev.Kind == Crash && ev.Target == "a" {
				hasA = true
			}
			if ev.Kind == Crash && ev.Target == "b" {
				hasB = true
			}
		}
		out := &Outcome{Checks: 100}
		if seed >= minSeed && hasA && hasB {
			out.Violation = &Violation{Time: 42, Checker: "chk", Event: "tick", Detail: "a and b both crashed"}
		}
		return out, nil
	}
}

func fullSchedule() Schedule {
	return Schedule{
		{At: 300, Kind: Slow, Target: "c", Duration: 30},
		{At: 100, Kind: Crash, Target: "a"},
		{At: 160, Kind: Reboot, Target: "a"},
		{At: 200, Kind: Crash, Target: "b"},
		{At: 260, Kind: Reboot, Target: "b"},
	}
}

func TestSweepAllPass(t *testing.T) {
	runs := 0
	res, err := Sweep(SweepConfig{Run: syntheticRunner(1000, &runs)}, []int64{1, 2, 3}, fullSchedule())
	if err != nil {
		t.Fatal(err)
	}
	if res.Failure != nil || res.Passed != 3 || res.Runs != 3 {
		t.Fatalf("passed=%d runs=%d failure=%v, want 3/3 clean", res.Passed, res.Runs, res.Failure)
	}
	if res.Checks != 300 {
		t.Fatalf("checks = %d, want 300", res.Checks)
	}
}

func TestSweepFindsAndShrinks(t *testing.T) {
	runs := 0
	res, err := Sweep(SweepConfig{Run: syntheticRunner(2, &runs)}, []int64{1, 2, 3}, fullSchedule())
	if err != nil {
		t.Fatal(err)
	}
	if res.Passed != 1 {
		t.Fatalf("passed = %d, want 1 (seed 1)", res.Passed)
	}
	a := res.Failure
	if a == nil {
		t.Fatal("no failure")
	}
	if a.Seed != 2 {
		t.Fatalf("failing seed = %d, want 2", a.Seed)
	}
	if a.ShrunkFrom != 5 {
		t.Fatalf("ShrunkFrom = %d, want 5", a.ShrunkFrom)
	}
	// The minimal failing schedule is exactly the two interacting crashes.
	if len(a.Schedule) != 2 {
		t.Fatalf("shrunk schedule has %d events, want 2: %v", len(a.Schedule), a.Schedule)
	}
	for _, ev := range a.Schedule {
		if ev.Kind != Crash || (ev.Target != "a" && ev.Target != "b") {
			t.Fatalf("unexpected event in shrunk schedule: %v", ev)
		}
	}
	if a.Violation == nil || a.Violation.Checker != "chk" {
		t.Fatalf("failure violation = %+v", a.Violation)
	}
}

func TestSweepScenarioErrorAborts(t *testing.T) {
	bad := func(seed int64, schedule Schedule) (*Outcome, error) {
		return nil, fmt.Errorf("boom")
	}
	_, err := Sweep(SweepConfig{Run: bad}, []int64{1}, fullSchedule())
	if err == nil {
		t.Fatal("scenario error did not abort the sweep")
	}
}

func TestShrinkBudget(t *testing.T) {
	runs := 0
	sched, v, n := shrink(syntheticRunner(1, &runs), 1, fullSchedule().Sorted(), "chk", 2)
	if n > 2 || runs != n {
		t.Fatalf("shrink spent %d runs (counted %d), want <= 2 under budget 2", n, runs)
	}
	if len(sched) == 0 || v == nil {
		t.Fatalf("budget-limited shrink lost the failure: %v, %v", sched, v)
	}
}

func TestScheduleSorted(t *testing.T) {
	s := fullSchedule().Sorted()
	for i := 1; i < len(s); i++ {
		if s[i].At < s[i-1].At {
			t.Fatalf("schedule not sorted at %d: %v", i, s)
		}
	}
	if fullSchedule().String() == "" || (Schedule{}).String() != "(empty schedule)" {
		t.Fatal("Schedule.String misbehaves")
	}
}

// raceRunner is a concurrency-safe Runner for the parallel-sweep tests:
// every seed >= minSeed violates (with a seed-specific violation, so a
// wrong aggregation picks a visibly different failure), and low seeds
// run slower than high ones, so under parallel execution a high
// violating seed always completes before the lowest one.
func raceRunner(minSeed int64, runs *atomic.Int64) Runner {
	return func(seed int64, schedule Schedule) (*Outcome, error) {
		runs.Add(1)
		time.Sleep(time.Duration(16-seed) * time.Millisecond)
		var hasA, hasB bool
		for _, ev := range schedule {
			if ev.Kind == Crash && ev.Target == "a" {
				hasA = true
			}
			if ev.Kind == Crash && ev.Target == "b" {
				hasB = true
			}
		}
		out := &Outcome{Checks: 100}
		if seed >= minSeed && hasA && hasB {
			out.Violation = &Violation{
				Time:    float64(seed),
				Checker: "chk",
				Event:   "tick",
				Detail:  fmt.Sprintf("seed %d: a and b both crashed", seed),
			}
		}
		return out, nil
	}
}

// The parallel sweep must report the identical lowest failing seed — and
// an identical shrunk failure — as the serial sweep, even though
// higher violating seeds finish first. Run with -race this also
// exercises the worker pool for data races.
func TestParallelSweepMatchesSerial(t *testing.T) {
	seeds := make([]int64, 12)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	var serialRuns, parRuns atomic.Int64
	serial, err := Sweep(SweepConfig{Run: raceRunner(5, &serialRuns)}, seeds, fullSchedule())
	if err != nil {
		t.Fatal(err)
	}
	par, err := Sweep(SweepConfig{Run: raceRunner(5, &parRuns), Parallel: 8}, seeds, fullSchedule())
	if err != nil {
		t.Fatal(err)
	}
	if serial.Failure == nil || par.Failure == nil {
		t.Fatalf("missing failure: serial=%v parallel=%v", serial.Failure, par.Failure)
	}
	if par.Failure.Seed != 5 || serial.Failure.Seed != 5 {
		t.Fatalf("failing seeds: serial=%d parallel=%d, want 5", serial.Failure.Seed, par.Failure.Seed)
	}
	if par.Passed != serial.Passed {
		t.Fatalf("Passed: serial=%d parallel=%d", serial.Passed, par.Passed)
	}
	if par.Checks != serial.Checks {
		t.Fatalf("Checks: serial=%d parallel=%d", serial.Checks, par.Checks)
	}
	if !reflect.DeepEqual(serial.Failure, par.Failure) {
		t.Fatalf("failures differ:\nserial:   %+v\nparallel: %+v", serial.Failure, par.Failure)
	}
}

// A clean parallel sweep matches the serial one exactly, including Runs.
func TestParallelSweepAllPass(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6}
	var runs atomic.Int64
	res, err := Sweep(SweepConfig{Run: raceRunner(1000, &runs), Parallel: 4}, seeds, fullSchedule())
	if err != nil {
		t.Fatal(err)
	}
	if res.Failure != nil || res.Passed != 6 || res.Runs != 6 || res.Checks != 600 {
		t.Fatalf("passed=%d runs=%d checks=%d failure=%v, want 6/6/600 clean",
			res.Passed, res.Runs, res.Checks, res.Failure)
	}
}

// A scenario error aborts a parallel sweep naming the lowest erroring
// seed, as in the serial path.
func TestParallelSweepErrorIsLowestSeed(t *testing.T) {
	var runs atomic.Int64
	run := func(seed int64, schedule Schedule) (*Outcome, error) {
		runs.Add(1)
		time.Sleep(time.Duration(16-seed) * time.Millisecond)
		if seed >= 3 {
			return nil, fmt.Errorf("boom %d", seed)
		}
		return &Outcome{Checks: 1}, nil
	}
	res, err := Sweep(SweepConfig{Run: run, Parallel: 8}, []int64{1, 2, 3, 4, 5, 6, 7, 8}, nil)
	if err == nil || !strings.Contains(err.Error(), "seed 3") {
		t.Fatalf("err = %v, want seed 3", err)
	}
	if res.Passed != 2 || res.Checks != 2 {
		t.Fatalf("passed=%d checks=%d, want 2/2", res.Passed, res.Checks)
	}
}
