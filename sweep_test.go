package jade

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// atWorkers runs f as one subtest per worker count, 1 and 8.
func atWorkers(t *testing.T, f func(t *testing.T, workers int)) {
	t.Helper()
	defer SetParallelism(int(parallelism.Load()))
	for _, workers := range []int{1, 8} {
		SetParallelism(workers)
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) { f(t, workers) })
	}
}

// fakeSweep stands in for RunSpec behind the sweep's run seam. Seed s
// violates checker "chk" when s >= minSeed and the schedule crashes both
// "a" and "b" (an interaction bug), with a seed-specific detail so a
// wrong aggregation picks a visibly different failure; seeds >= errSeed
// (when set) fail to run. Low seeds run slower than high ones, so on
// several workers a high failing seed finishes before the lowest one.
type fakeSweep struct {
	minSeed, errSeed int64
	runs             atomic.Int64
	mu               sync.Mutex
	ran              map[int64]bool
}

func (f *fakeSweep) run(s Spec) (*ScenarioResult, error) {
	f.runs.Add(1)
	f.mu.Lock()
	if f.ran == nil {
		f.ran = map[int64]bool{}
	}
	f.ran[s.Seed] = true
	f.mu.Unlock()
	time.Sleep(time.Duration(16-s.Seed) * time.Millisecond)
	if f.errSeed > 0 && s.Seed >= f.errSeed {
		return nil, fmt.Errorf("boom %d", s.Seed)
	}
	var hasA, hasB bool
	for _, ev := range s.Faults.Chaos {
		hasA = hasA || ev.Kind == ChaosCrash && ev.Target == "a"
		hasB = hasB || ev.Kind == ChaosCrash && ev.Target == "b"
	}
	r := &ScenarioResult{InvariantChecks: 100}
	if s.Seed >= f.minSeed && hasA && hasB {
		r.InvariantViolation = &InvariantViolation{
			Time: float64(s.Seed), Checker: "chk", Event: "tick",
			Detail: fmt.Sprintf("seed %d: a and b both crashed", s.Seed),
		}
	}
	return r, nil
}

func fullSchedule() ChaosSchedule {
	return ChaosSchedule{
		{At: 300, Kind: ChaosSlow, Target: "c", Duration: 30},
		{At: 100, Kind: ChaosCrash, Target: "a"},
		{At: 160, Kind: ChaosReboot, Target: "a"},
		{At: 200, Kind: ChaosCrash, Target: "b"},
		{At: 260, Kind: ChaosReboot, Target: "b"},
	}
}

// A clean sweep runs every seed once and sums their checks, at any
// worker count.
func TestSweepAllPass(t *testing.T) {
	atWorkers(t, func(t *testing.T, _ int) {
		f := &fakeSweep{minSeed: 1000}
		res, err := sweep(f.run, Spec{}, 6, fullSchedule(), t.Logf)
		if err != nil {
			t.Fatal(err)
		}
		if res.Failure != nil || res.Passed != 6 || res.Runs != 6 || res.Checks != 600 || f.runs.Load() != 6 {
			t.Fatalf("passed=%d runs=%d (counted %d) checks=%d failure=%v, want 6/6/600 clean",
				res.Passed, res.Runs, f.runs.Load(), res.Checks, res.Failure)
		}
	})
}

// The lowest failing seed is found, and its schedule shrunk to the two
// interacting crashes.
func TestSweepFindsAndShrinks(t *testing.T) {
	atWorkers(t, func(t *testing.T, _ int) {
		f := &fakeSweep{minSeed: 2}
		res, err := sweep(f.run, Spec{}, 3, fullSchedule(), t.Logf)
		if err != nil {
			t.Fatal(err)
		}
		if res.Passed != 1 || res.Checks != 200 {
			t.Fatalf("passed=%d checks=%d, want seed 1 passed and 200 checks", res.Passed, res.Checks)
		}
		a := res.Failure
		if a == nil {
			t.Fatal("no failure")
		}
		if a.Spec.Seed != 2 || a.ShrunkFrom != 5 || !a.Spec.Checks.Invariants {
			t.Fatalf("failure at seed %d, shrunk from %d, invariants %v; want seed 2, 5, on", a.Spec.Seed, a.ShrunkFrom, a.Spec.Checks.Invariants)
		}
		want := ChaosSchedule{fullSchedule()[1], fullSchedule()[3]}
		if !reflect.DeepEqual(a.Spec.Faults.Chaos, want) {
			t.Fatalf("shrunk schedule %+v, want the two crashes %+v", a.Spec.Faults.Chaos, want)
		}
		if a.Violation == nil || a.Violation.Detail != "seed 2: a and b both crashed" {
			t.Fatalf("failure violation = %+v", a.Violation)
		}
		if got := f.runs.Load(); int(got) != res.Runs {
			t.Fatalf("Runs = %d, but %d runs were made", res.Runs, got)
		}
	})
}

// A run's error aborts the sweep: no result, the run's error returned,
// and on one worker no seed above the erroring one runs.
func TestSweepScenarioErrorAborts(t *testing.T) {
	atWorkers(t, func(t *testing.T, workers int) {
		f := &fakeSweep{minSeed: 1000, errSeed: 3}
		res, err := sweep(f.run, Spec{}, 8, nil, t.Logf)
		if err == nil || !strings.Contains(err.Error(), "boom") || res != nil {
			t.Fatalf("res = %v, err = %v; want no result and a run's error", res, err)
		}
		if workers == 1 && len(f.ran) != 3 {
			t.Fatalf("seeds run: %v, want 1-3 on one worker", f.ran)
		}
	})
}

// The sweep's error names the lowest erroring seed, after every seed
// below it ran, although on several workers higher erroring seeds finish
// first.
func TestParallelSweepErrorIsLowestSeed(t *testing.T) {
	atWorkers(t, func(t *testing.T, _ int) {
		f := &fakeSweep{minSeed: 1000, errSeed: 3}
		_, err := sweep(f.run, Spec{}, 8, nil, t.Logf)
		if err == nil || !strings.Contains(err.Error(), "seed 3: boom 3") {
			t.Fatalf("err = %v, want seed 3's", err)
		}
		if !f.ran[1] || !f.ran[2] {
			t.Fatalf("seeds run: %v, want 1 and 2 among them", f.ran)
		}
	})
}

// The shrinker stops at its run budget and keeps the failure it had.
func TestShrinkBudget(t *testing.T) {
	f := &fakeSweep{minSeed: 1}
	sched, v, n := shrink(f.run, Spec{}, 1, sortedByAt(fullSchedule()), "chk", 2)
	if n > 2 || f.runs.Load() != int64(n) {
		t.Fatalf("shrink spent %d runs (counted %d), want <= 2 under budget 2", n, f.runs.Load())
	}
	if len(sched) == 0 || v == nil {
		t.Fatalf("budget-limited shrink lost the failure: %v, %v", sched, v)
	}
}

// The parallel sweep reports the identical lowest failing seed and
// shrunk failure as the serial one, although higher failing seeds finish
// first. Under -race this also checks the fan-out for data races.
func TestParallelSweepMatchesSerial(t *testing.T) {
	var res [2]*SweepResult
	i := 0
	atWorkers(t, func(t *testing.T, _ int) {
		var err error
		f := &fakeSweep{minSeed: 5}
		if res[i], err = sweep(f.run, Spec{}, 12, fullSchedule(), t.Logf); err != nil {
			t.Fatal(err)
		}
		i++
	})
	serial, par := res[0], res[1]
	if serial == nil || par == nil || serial.Failure == nil || par.Failure == nil {
		t.Fatalf("missing failure: serial=%+v parallel=%+v", serial, par)
	}
	if serial.Failure.Spec.Seed != 5 || par.Failure.Spec.Seed != 5 {
		t.Fatalf("failing seeds: serial=%d parallel=%d, want 5", serial.Failure.Spec.Seed, par.Failure.Spec.Seed)
	}
	if par.Passed != serial.Passed || par.Checks != serial.Checks {
		t.Fatalf("passed/checks: serial=%d/%d parallel=%d/%d", serial.Passed, serial.Checks, par.Passed, par.Checks)
	}
	if !reflect.DeepEqual(serial.Failure, par.Failure) {
		t.Fatalf("failures differ:\nserial:   %+v\nparallel: %+v", serial.Failure, par.Failure)
	}
}

// When run k fails to run, runAll returns run k's error, after every run
// below k completed, at one worker and at eight.
func TestRunAllReturnsTheLowestError(t *testing.T) {
	const k = 3
	atWorkers(t, func(t *testing.T, _ int) {
		rs := make([]expRun, 6)
		for i := range rs {
			s := DefaultSpec(int64(i+1), false)
			s.Workload.Profile = ProfileSpec{Kind: "constant", Clients: 5, DurationSeconds: 5}
			if i >= k {
				s.Workload.Profile.Clients = -i // Validate refuses it: RunSpec errors
			}
			rs[i] = expRun{name: fmt.Sprintf("run%d", i), spec: s}
		}
		err := runAll("test", rs)
		if err == nil || !strings.Contains(err.Error(), `test "run3"`) || !strings.Contains(err.Error(), "got -3") {
			t.Fatalf("err = %v, want run3's", err)
		}
		for i := range k {
			if rs[i].res == nil {
				t.Fatalf("run %d did not complete", i)
			}
		}
	})
}

// sortedByAt orders a copy by At, keeping equal times in their order,
// for both scripted schedules.
func TestSortedByAt(t *testing.T) {
	in := fullSchedule()
	in = append(in, ChaosEvent{At: 100, Kind: ChaosCrash, Target: "d"})
	s := sortedByAt(in)
	if got := []string{s[0].Target, s[1].Target, s[2].Target, s[5].Target}; !reflect.DeepEqual(got, []string{"a", "d", "a", "c"}) {
		t.Fatalf("sorted targets %v, want [a d a ... c]", got)
	}
	if in[0].Target != "c" {
		t.Fatal("sortedByAt reordered its input")
	}
	if sortedByAt(ChaosSchedule(nil)) != nil {
		t.Fatal("sortedByAt(nil) is not nil")
	}
	op := sortedByAt(OperatorSchedule{{At: 9, Patch: []byte("1")}, {At: 3}, {At: 9, Patch: []byte("2")}})
	if op[0].At != 3 || string(op[1].Patch) != "1" || string(op[2].Patch) != "2" {
		t.Fatalf("operator schedule sorted to %+v", op)
	}
}
