package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"jade"
)

// parse runs parseScenario on a throwaway flag set that reports errors
// instead of exiting.
func parse(args ...string) (*scenarioArgs, error) {
	fs := flag.NewFlagSet("scenario", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return parseScenario(fs, args)
}

// The pre-namespace spellings are gone: each now fails like any other
// unknown flag, while the namespaced flag reaches the spec.
func TestOldSpellingsRejected(t *testing.T) {
	for _, old := range []string{"mtbf", "trace", "trace-jsonl", "trace-requests", "metrics-dir", "metrics-interval", "http", "scrape-check", "serve"} {
		_, err := parse("-"+old, "1")
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("-%s: err = %v, want flag provided but not defined", old, err)
		}
	}
	a, err := parse("-fault.mtbf", "300")
	if err != nil {
		t.Fatal(err)
	}
	if a.spec.Faults.MTBFSeconds != 300 {
		t.Fatalf("-fault.mtbf did not reach the spec: mtbf = %v", a.spec.Faults.MTBFSeconds)
	}
}

// With -config, the flags set explicitly override the file and every
// other field keeps the file's value, not the flag's default.
func TestScenarioExplicitFlagsOverrideConfig(t *testing.T) {
	const path = "../../examples/netfault.json"
	a, err := parse("-config", path, "-seed", "2", "-route.policy", "least-pending")
	if err != nil {
		t.Fatal(err)
	}
	want, err := jade.LoadSpec(path)
	if err != nil {
		t.Fatal(err)
	}
	if want.Seed == 2 || want.Routing.Policy != "" || want.Faults.Network.Default.Loss != 0.002 {
		t.Fatalf("%s changed; the test expects seed 1, no routing policy and loss 0.002", path)
	}
	want.Seed = 2
	want.Routing.Policy = "least-pending"
	if !reflect.DeepEqual(a.spec, want) {
		t.Fatalf("spec\n got %+v\nwant %+v", a.spec, want)
	}
}

// Without -config, every flag's value, set or default, makes up the spec
// on top of DefaultSpec: the two nonzero defaults reach it too.
func TestScenarioFlagDefaultsMakeTheSpec(t *testing.T) {
	a, err := parse()
	if err != nil {
		t.Fatal(err)
	}
	want := jade.DefaultSpec(1, true)
	want.Workload.Profile = jade.ProfileSpec{Kind: "constant", Clients: 200, DurationSeconds: 600}
	want.Faults.Network.Default.LatencyMS = 0.3
	want.Telemetry.MetricsIntervalSeconds = 60
	if !reflect.DeepEqual(a.spec, want) {
		t.Fatalf("spec\n got %+v\nwant %+v", a.spec, want)
	}

	a, err = parse("-clients", "300", "-duration", "120", "-managed=false", "-trace.chrome", "t.json")
	if err != nil {
		t.Fatal(err)
	}
	p := a.spec.Workload.Profile
	if p.Clients != 300 || p.DurationSeconds != 120 || a.spec.Managed || a.spec.Telemetry.TraceRequests != 25 {
		t.Fatalf("profile %+v, managed %v, trace requests %d", p, a.spec.Managed, a.spec.Telemetry.TraceRequests)
	}
}

// A sweep over no seeds, an unknown experiment, a negative or non-finite
// speedup, a negative worker count and a non-finite duration are usage
// errors; all fail before any simulation runs. A NaN horizon used to run
// forever, and a negative speedup or worker count was silently replaced.
func TestEvaluationUsageErrors(t *testing.T) {
	for _, n := range []string{"0", "-3"} {
		if err := cmdSweep([]string{"-seeds", n}); err == nil {
			t.Errorf("sweep -seeds %s succeeded", n)
		}
	}
	if err := cmdExperiment([]string{"nosuch"}); err == nil || !strings.Contains(err.Error(), "fig4") {
		t.Errorf("experiment nosuch: err = %v, want one listing the valid names", err)
	}
	for _, x := range []string{"-1", "NaN", "+Inf"} {
		if err := cmdExperiment([]string{"-speedup", x, "fig5"}); err == nil || !strings.Contains(err.Error(), "speedup") {
			t.Errorf("experiment -speedup %s fig5: err = %v, want one naming the speedup", x, err)
		}
	}
	for _, n := range []string{"-1", "-2"} {
		if err := cmdExperiment([]string{"-parallel", n, "fig4"}); err == nil || !strings.Contains(err.Error(), "-parallel") {
			t.Errorf("experiment -parallel %s fig4: err = %v, want one naming -parallel", n, err)
		}
		if err := cmdSweep([]string{"-seeds", "1", "-speedup", "8", "-parallel", n}); err == nil || !strings.Contains(err.Error(), "-parallel") {
			t.Errorf("sweep -parallel %s: err = %v, want one naming -parallel", n, err)
		}
	}
	for _, d := range []string{"NaN", "+Inf"} {
		if err := cmdScenario([]string{"-clients", "10", "-duration", d}); err == nil || !strings.Contains(err.Error(), "duration") {
			t.Errorf("scenario -duration %s: err = %v, want one naming the duration", d, err)
		}
	}
}

// A pool of no nodes is refused before anything deploys: the platform
// replaces a non-positive size with its default pool, so -nodes 0 used to
// deploy on nine nodes.
func TestDeployRefusesEmptyPool(t *testing.T) {
	for _, n := range []string{"0", "-1"} {
		if err := cmdDeploy([]string{"-nodes", n}); err == nil || !strings.Contains(err.Error(), "-nodes") {
			t.Errorf("deploy -nodes %s: err = %v, want one naming -nodes", n, err)
		}
	}
}

// The scrape check's history check passes a well-formed history and
// refuses a line that is not a metrics page, a time that goes back, and
// a history that does not end with a newline.
func TestCheckHistory(t *testing.T) {
	page := func(time string) string {
		return `{"schema":"jade-metrics/v1","time":` + time + `,"families":[{"name":"jade_up","help":"","type":"gauge","series":[{"value":1}]}]}` + "\n"
	}
	for _, c := range []struct {
		name, history string
		ok            bool
	}{
		{"well formed", page("0") + page("10") + page("10"), true},
		{"time goes back", page("10") + page("9.5"), false},
		{"not a metrics page", page("0") + `{"schema":"other"}` + "\n", false},
		{"no final newline", strings.TrimSuffix(page("0"), "\n"), false},
		{"empty", "", false},
	} {
		path := filepath.Join(t.TempDir(), "metrics.jsonl")
		if err := os.WriteFile(path, []byte(c.history), 0o644); err != nil {
			t.Fatal(err)
		}
		last, n, err := checkHistory(path)
		if (err == nil) != c.ok {
			t.Errorf("%s: err = %v", c.name, err)
			continue
		}
		if c.ok && (n != 3 || string(last) != page("10")) {
			t.Errorf("%s: %d lines, last %q", c.name, n, last)
		}
	}
}

// The scrape check reads the run's own final pair, named from the time of
// its history's last line: a longer, earlier run's metrics-t00002620 pair in
// the same directory sorts last and is not read. A final pair that does
// not hold the served pages, or is missing, fails the check.
func TestCheckMetricsDirReadsTheRunsOwnPair(t *testing.T) {
	page := func(time string, v int) string {
		return fmt.Sprintf(`{"schema":"jade-metrics/v1","time":%s,"families":[{"name":"jade_v","help":"","type":"gauge","series":[{"value":%d}]}]}`+"\n", time, v)
	}
	prom := func(v int) string { return fmt.Sprintf("# TYPE jade_v gauge\njade_v %d\n", v) }
	dir := t.TempDir()
	write := func(name, data string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("metrics-t00002620.json", page("2620", 9)) // the longer run's
	write("metrics-t00002620.prom", prom(9))
	write("metrics.jsonl", page("0", 1)+page("41.6", 2))
	write("metrics-t00000042.json", page("41.6", 2))
	write("metrics-t00000042.prom", prom(2))
	if n, err := checkMetricsDir(dir, []byte(prom(2)), []byte(page("41.6", 2))); err != nil || n != 2 {
		t.Fatalf("the run's own pages: %d lines, %v", n, err)
	}
	if _, err := checkMetricsDir(dir, []byte(prom(9)), []byte(page("41.6", 2))); err == nil {
		t.Fatal("the longer run's /metrics passed")
	}
	if err := os.Remove(filepath.Join(dir, "metrics-t00000042.prom")); err != nil {
		t.Fatal(err)
	}
	if _, err := checkMetricsDir(dir, []byte(prom(2)), []byte(page("41.6", 2))); err == nil {
		t.Fatal("a missing final pair passed")
	}
}

// committedFailure is the repository's committed sweep artifact: the
// fabric-on ×8 seed-1 run, which fails balancer-agreement.
const committedFailure = "../../testdata/replay/fabric-x8-seed1.json"

// stdout runs fn and returns what it printed on standard output.
func stdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer func(saved *os.File) { os.Stdout = saved }(os.Stdout)
	os.Stdout = w
	err = fn()
	w.Close()
	out, _ := io.ReadAll(r)
	return string(out), err
}

// replay takes the artifact and nothing else: the committed failure
// reproduces with its checker and detail, and a flag is refused.
func TestReplayReproducesCommittedFailure(t *testing.T) {
	out, err := stdout(t, func() error { return cmdReplay([]string{committedFailure}) })
	if err != nil {
		t.Fatalf("replay: %v\n%s", err, out)
	}
	want := "replay: REPRODUCED balancer-agreement:cjdbc1/database-backends\n  started replica mysql1 of tier database-backends missing from balancer\n"
	if !strings.HasSuffix(out, want) {
		t.Fatalf("replay printed\n%s\nwant it to end with\n%s", out, want)
	}
	for _, args := range [][]string{{"-speedup", "8", committedFailure}, {"-speedup=8"}, {}, {committedFailure, committedFailure}} {
		if err := cmdReplay(args); err == nil || !strings.Contains(err.Error(), "usage: jadectl replay FILE") {
			t.Errorf("replay %q: err = %v, want the usage", args, err)
		}
	}
}

// The artifact's spec value is a run file: `scenario -config` runs it and
// exits nonzero on the same violation.
func TestCommittedFailureSpecRunsAsConfig(t *testing.T) {
	data, err := os.ReadFile(committedFailure)
	if err != nil {
		t.Fatal(err)
	}
	var a struct {
		Spec json.RawMessage `json:"spec"`
	}
	if err := json.Unmarshal(data, &a); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, a.Spec, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = stdout(t, func() error { return cmdScenario([]string{"-config", path}) })
	want := `invariant "balancer-agreement:cjdbc1/database-backends" violated at t=232.0 (tick): started replica mysql1 of tier database-backends missing from balancer`
	if err == nil || err.Error() != want {
		t.Fatalf("scenario -config: err = %v, want %s", err, want)
	}
}

// A replay that hits a violation other than the recorded one exits
// nonzero, whether the checker or only the detail differs: the recorded
// failure did not reproduce.
func TestReplayDifferentViolationFails(t *testing.T) {
	data, err := os.ReadFile(committedFailure)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range [][2]string{
		{`"checker": "balancer-agreement:cjdbc1/database-backends"`, `"checker": "cjdbc-consistency:cjdbc1"`},
		{`"detail": "started replica mysql1`, `"detail": "started replica mysql2`},
	} {
		edited := strings.Replace(string(data), c[0], c[1], 1)
		if edited == string(data) {
			t.Fatalf("%s has no %s", committedFailure, c[0])
		}
		path := filepath.Join(t.TempDir(), "artifact.json")
		if err := os.WriteFile(path, []byte(edited), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := stdout(t, func() error { return cmdReplay([]string{path}) })
		if err == nil || !strings.Contains(err.Error(), "different violation") {
			t.Errorf("recorded %s: err = %v, want a different-violation error", c[1], err)
		}
	}
}
