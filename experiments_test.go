package jade

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// testEnv is one `jadectl experiment` invocation with its artifacts under a test
// temporary directory.
func testEnv(t testing.TB, opt ExperimentOptions) *expEnv {
	return &expEnv{ExperimentOptions: opt, tmp: t.TempDir()}
}

// runEntry runs the one experiment entry whose name or title is key and
// returns its runs and rendered section body; a failed self-check fails
// the test.
func runEntry(t testing.TB, x *expEnv, key string) ([]expRun, string) {
	t.Helper()
	var found *experiment
	for i := range experiments {
		if e := &experiments[i]; e.name == key || e.title == key {
			if found != nil {
				t.Fatalf("experiment key %q is ambiguous", key)
			}
			found = e
		}
	}
	if found == nil {
		t.Fatalf("no experiment %q", key)
	}
	rs, body, err := found.run(x)
	if err != nil {
		t.Fatal(err)
	}
	return rs, body
}

// TestExperimentTableOrder: `jadectl experiment` prints its sections in
// the table's order, and every experiment name the CLI documents selects
// at least one entry.
func TestExperimentTableOrder(t *testing.T) {
	var names []string
	for _, e := range experiments {
		if len(names) == 0 || names[len(names)-1] != e.name {
			names = append(names, e.name)
		}
		if e.report == nil || e.title == "" {
			t.Fatalf("entry %q lacks a title or report", e.name)
		}
	}
	want := "fig4 fig5 fig6 fig7 fig8 fig9 summary churn netfault grayfail liveretune alertlat latbudget millionclient table1 ablations"
	if got := strings.Join(names, " "); got != want {
		t.Fatalf("section order\n got %s\nwant %s", got, want)
	}
}

// An unknown experiment name is an error naming the valid ones, not a
// run that prints nothing and succeeds.
func TestRunExperimentsRejectsUnknownName(t *testing.T) {
	var out strings.Builder
	pr, err := RunExperiments(&out, "nosuch", ExperimentOptions{Seed: 1, Speedup: 8})
	if err == nil {
		t.Fatal("RunExperiments(\"nosuch\") succeeded")
	}
	for _, want := range []string{`"nosuch"`, "all", "fig4", "ablations"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %s", err, want)
		}
	}
	if pr != nil || out.Len() != 0 {
		t.Errorf("an unknown name ran something: paper pair %v, output %q", pr != nil, out.String())
	}
}

// The experiment goldens: `jadectl experiment` at seed 1, full length
// (what `make experiments` diffs against) and quick at 8x.
var (
	experimentsGolden      = filepath.Join("testdata", "experiments.golden")
	experimentsQuickGolden = filepath.Join("testdata", "experiments_quick.golden")
)

// TestExperimentReportsGolden: the quick report of every experiment is
// byte-identical whether its runs go one at a time or fan out over four
// workers, and equals testdata/experiments_quick.golden. `go test -run
// TestExperimentReportsGolden -update .` rewrites that file and, from one
// more render at full length, testdata/experiments.golden.
func TestExperimentReportsGolden(t *testing.T) {
	prev := Parallelism()
	defer SetParallelism(prev)
	var outs [2]string
	for i, workers := range []int{1, 4} {
		SetParallelism(workers)
		var b strings.Builder
		if _, err := RunExperiments(&b, "all", ExperimentOptions{Seed: 1, Speedup: 8, Quick: true}); err != nil {
			t.Fatal(err)
		}
		outs[i] = b.String()
	}
	serial, parallel := strings.Split(outs[0], "\n"), strings.Split(outs[1], "\n")
	for j := range min(len(serial), len(parallel)) {
		if serial[j] != parallel[j] {
			t.Fatalf("output depends on -parallel at line %d:\n%s\nvs\n%s", j+1, serial[j], parallel[j])
		}
	}
	if len(serial) != len(parallel) {
		t.Fatalf("output depends on -parallel: %d vs %d lines", len(serial), len(parallel))
	}
	if *updateSurface {
		var full strings.Builder
		if _, err := RunExperiments(&full, "all", ExperimentOptions{Seed: 1}); err != nil {
			t.Fatal(err)
		}
		checkGolden(t, experimentsGolden, []byte(full.String()))
	} else {
		skipUnverifiedArch(t)
	}
	checkGolden(t, experimentsQuickGolden, []byte(outs[0]))
}

// SetParallelism(0) restores GOMAXPROCS; a negative count panics with a
// message that names it, and leaves the width as it was.
func TestSetParallelismRejectsNegative(t *testing.T) {
	prev := Parallelism()
	defer SetParallelism(prev)
	SetParallelism(3)
	func() {
		defer func() {
			msg, _ := recover().(string)
			if !strings.Contains(msg, "SetParallelism(-2)") {
				t.Errorf("SetParallelism(-2) panicked with %q, want a message naming the count", msg)
			}
		}()
		SetParallelism(-2)
		t.Error("SetParallelism(-2) returned")
	}()
	if got := Parallelism(); got != 3 {
		t.Errorf("after the refused count the width is %d, want 3", got)
	}
	SetParallelism(0)
	if got, want := Parallelism(), runtime.GOMAXPROCS(0); got != want {
		t.Errorf("SetParallelism(0): width %d, want GOMAXPROCS %d", got, want)
	}
}

// Every Spec the library runs passes Spec.Validate, the target rule and
// the adl rules included: each experiment's runs at full length and
// quick, the paper pair, the committed example Specs and replay
// artifacts, and the golden matrix.
func TestEveryRunSpecValidates(t *testing.T) {
	check := func(name string, s Spec) {
		t.Helper()
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	for _, quick := range []bool{false, true} {
		x := testEnv(t, ExperimentOptions{Seed: 1, Speedup: 8, Quick: quick})
		for _, e := range experiments {
			if e.runs == nil {
				continue
			}
			rs, err := e.runs(x)
			if err != nil {
				t.Fatalf("%s: %v", e.title, err)
			}
			for _, r := range rs {
				check(fmt.Sprintf("%s %q (quick %v)", e.name, r.name, quick), r.spec)
			}
		}
	}
	check("paper managed", paperSpec(1, true, 1))
	check("paper unmanaged", paperSpec(1, false, 1))
	examples, _ := filepath.Glob("examples/*.json")
	for _, path := range examples {
		if _, err := LoadSpec(path); err != nil {
			t.Error(err)
		}
	}
	artifacts, _ := filepath.Glob("testdata/replay/*.json")
	for _, path := range artifacts {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ParseSweepArtifact(data); err != nil {
			t.Errorf("%s: %v", path, err)
		}
	}
	if len(examples) == 0 || len(artifacts) == 0 {
		t.Fatalf("%d example Specs and %d replay artifacts, want some of each", len(examples), len(artifacts))
	}
	for _, m := range goldenMatrix(t) {
		check("golden "+m.name, m.spec)
	}
}
