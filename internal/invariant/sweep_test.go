package invariant_test

// The seed sweep lives in the root package and runs these checkers over
// the Fig. 5 chaos scenario. These cases drive it through its public
// entry point, RunChaosSweep, so the checkers are exercised end to end
// on clean sweeps at one worker and at several; the root package's
// sweep_test.go covers failures, shrinking and errors through the
// sweep's run seam.

import (
	"reflect"
	"testing"

	"jade"
)

// sweepSpeedup compresses the ramp enough that a multi-seed sweep takes
// milliseconds.
const sweepSpeedup = 60

// atParallelism runs f with jade's worker count set to n, restoring it
// afterwards.
func atParallelism(t *testing.T, n int, f func()) {
	t.Helper()
	defer jade.SetParallelism(jade.Parallelism())
	jade.SetParallelism(n)
	f()
}

func cleanSweep(t *testing.T, workers, seeds int) *jade.SweepResult {
	t.Helper()
	var res *jade.SweepResult
	atParallelism(t, workers, func() {
		var err error
		if res, err = jade.RunChaosSweep(seeds, sweepSpeedup, t.Logf); err != nil {
			t.Fatal(err)
		}
	})
	if res.Failure != nil {
		t.Fatalf("seed %d violated %s: %+v", res.Failure.Spec.Seed, res.Failure.Violation.Checker, res.Failure.Violation)
	}
	if res.Passed != seeds || res.Runs != seeds || len(res.Seeds) != seeds {
		t.Fatalf("passed=%d runs=%d seeds=%v, want %d clean runs", res.Passed, res.Runs, res.Seeds, seeds)
	}
	if res.Checks == 0 {
		t.Fatal("sweep performed no invariant checks")
	}
	return res
}

// A clean sweep on one worker runs every seed once and passes them all.
func TestSweepAllPass(t *testing.T) {
	cleanSweep(t, 1, 3)
}

// A clean sweep fanned out over four workers does the same.
func TestParallelSweepAllPass(t *testing.T) {
	cleanSweep(t, 4, 6)
}

// The fan-out does not change the result: the same seeds pass with the
// same invariant-check total on one worker and on eight.
func TestParallelSweepMatchesSerial(t *testing.T) {
	serial, par := cleanSweep(t, 1, 6), cleanSweep(t, 8, 6)
	if !reflect.DeepEqual(serial, par) {
		t.Fatalf("results differ:\nserial:   %+v\nparallel: %+v", serial, par)
	}
}
