package jade

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"jade/internal/obs"
)

func shortObsScenario(seed int64) ScenarioConfig {
	cfg := DefaultScenario(seed, true)
	cfg.Profile = ConstantProfile{Clients: 60, Length: 120}
	return cfg
}

// readSnapshots returns filename -> contents for every metrics snapshot
// in dir.
func readSnapshots(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = data
	}
	return out
}

func sameSnapshots(t *testing.T, a, b map[string][]byte) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("snapshot counts differ: %d vs %d", len(a), len(b))
	}
	for name, data := range a {
		other, ok := b[name]
		if !ok {
			t.Fatalf("snapshot %s missing from second run", name)
		}
		if name == metricsHistory {
			la, lb := historyLines(t, data), historyLines(t, other)
			if len(la) != len(lb) {
				t.Fatalf("%s holds %d lines vs %d", name, len(la), len(lb))
			}
			for i := range la {
				if !bytes.Equal(la[i], lb[i]) {
					t.Fatalf("%s line %d differs between runs", name, i+1)
				}
			}
			continue
		}
		if !bytes.Equal(data, other) {
			t.Fatalf("snapshot %s differs between runs", name)
		}
	}
}

// historyLines splits a metrics history into its pages, each with its
// newline; the history must end with one.
func historyLines(t *testing.T, data []byte) [][]byte {
	t.Helper()
	if len(data) == 0 || data[len(data)-1] != '\n' {
		t.Fatalf("metrics history does not end with a newline (%d bytes)", len(data))
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	return lines[:len(lines)-1] // SplitAfter's empty tail
}

// TestMetricsSnapshotDeterminism: two same-seed runs write byte-identical
// snapshot files, their metrics histories line for line, and every file
// and history line validates against its exposition format.
func TestMetricsSnapshotDeterminism(t *testing.T) {
	run := func() map[string][]byte {
		dir := t.TempDir()
		cfg := shortObsScenario(11)
		cfg.MetricsDir = dir
		cfg.MetricsInterval = 30
		if _, err := RunScenario(cfg); err != nil {
			t.Fatal(err)
		}
		return readSnapshots(t, dir)
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("no snapshot files written")
	}
	sameSnapshots(t, a, b)
	for name, data := range a {
		switch {
		case name == "alerts.jsonl":
			if _, err := ValidateAlertsJSONL(data); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		case name == "incidents.json":
			if err := ValidateIncidentsJSON(data); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		case name == "slo_report.json":
			var rep SLOReport
			if err := json.Unmarshal(data, &rep); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if rep.Schema != obs.SLOReportSchema {
				t.Fatalf("%s: schema %q, want %q", name, rep.Schema, obs.SLOReportSchema)
			}
		case name == "latency_budget.json":
			if _, err := ParseLatencyBudget(data); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		case name == "fluid.json":
			if err := ValidateFluidPage(data); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		case name == "config.json":
			if _, err := ParseConfigSnapshot(data); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		case name == metricsHistory:
			for i, line := range historyLines(t, data) {
				if _, err := ValidateMetricsJSON(line); err != nil {
					t.Fatalf("%s line %d: %v", name, i+1, err)
				}
			}
		case strings.HasSuffix(name, ".prom"):
			if _, err := ValidatePrometheusText(data); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		case strings.HasSuffix(name, ".json"):
			if _, err := ValidateMetricsJSON(data); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		default:
			t.Fatalf("unexpected snapshot file %s", name)
		}
	}
}

// TestLiveScraperDoesNotPerturbRun: a same-seed run with concurrent HTTP
// scrapers hammering the admin endpoint produces the same trajectory —
// request counts, processed events, SLO report, and byte-identical
// snapshot files — as a run with no endpoint at all. Run under -race this
// also proves the reader/simulation isolation.
func TestLiveScraperDoesNotPerturbRun(t *testing.T) {
	run := func(scrape bool) (*ScenarioResult, map[string][]byte) {
		dir := t.TempDir()
		cfg := shortObsScenario(12)
		cfg.MetricsDir = dir
		cfg.MetricsInterval = 30
		var wg sync.WaitGroup
		stop := make(chan struct{})
		if scrape {
			cfg.HTTPAddr = "127.0.0.1:0"
			cfg.AdminReady = func(addr string) {
				for i := 0; i < 4; i++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for {
							select {
							case <-stop:
								return
							default:
							}
							for _, p := range []string{"/metrics", "/metrics.json", "/components", "/loops", "/healthz", "/alerts", "/incidents"} {
								resp, err := http.Get("http://" + addr + p)
								if err != nil {
									continue
								}
								io.Copy(io.Discard, resp.Body)
								resp.Body.Close()
							}
						}
					}()
				}
			}
		}
		res, err := RunScenario(cfg)
		close(stop)
		wg.Wait()
		if res != nil && res.Admin != nil {
			res.Admin.Close()
		}
		if err != nil {
			t.Fatal(err)
		}
		return res, readSnapshots(t, dir)
	}
	plain, plainSnaps := run(false)
	scraped, scrapedSnaps := run(true)

	if plain.Stats.Completed != scraped.Stats.Completed || plain.Stats.Failed != scraped.Stats.Failed {
		t.Fatalf("request counts differ: (%d, %d) vs (%d, %d)",
			plain.Stats.Completed, plain.Stats.Failed, scraped.Stats.Completed, scraped.Stats.Failed)
	}
	if p1, p2 := plain.Platform.Eng.Processed(), scraped.Platform.Eng.Processed(); p1 != p2 {
		t.Fatalf("processed event counts differ: %d vs %d", p1, p2)
	}
	if r1, r2 := plain.SLOReport.Render(), scraped.SLOReport.Render(); r1 != r2 {
		t.Fatalf("SLO reports differ:\n%s\nvs\n%s", r1, r2)
	}
	sameSnapshots(t, plainSnaps, scrapedSnaps)
}

// TestScenarioSLOReportPopulated: the default objectives evaluate against
// a healthy run and report full compliance with real intervals.
func TestScenarioSLOReportPopulated(t *testing.T) {
	cfg := shortObsScenario(13)
	res, err := RunScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.SLOReport
	if rep == nil || len(rep.Objectives) != len(DefaultSLOs()) {
		t.Fatalf("SLO report = %+v", rep)
	}
	evaluated := 0
	for _, o := range rep.Objectives {
		evaluated += o.Intervals
	}
	if evaluated == 0 {
		t.Fatal("no SLO intervals evaluated")
	}
	if !rep.Compliant() {
		t.Fatalf("healthy run should be compliant:\n%s", rep.Render())
	}
	if res.RequestLatency == nil || res.RequestLatency.Count() == 0 {
		t.Fatal("request latency histogram empty")
	}
	if p50, p99 := res.RequestLatency.Quantile(0.5), res.RequestLatency.Quantile(0.99); p50 <= 0 || p99 < p50 {
		t.Fatalf("implausible latency quantiles: p50=%g p99=%g", p50, p99)
	}
}

// TestAdminClosedWhenRunFails: a run that fails after the admin listener
// came up returns no result to close it through, so RunScenario itself
// must release the port.
func TestAdminClosedWhenRunFails(t *testing.T) {
	cfg := shortObsScenario(3)
	unwritableAfterAdmin(t, &cfg)
	var addr string
	ready := cfg.AdminReady
	cfg.AdminReady = func(a string) {
		addr = a
		ready(a)
	}
	res, err := RunScenario(cfg)
	if err == nil {
		res.Admin.Close()
		t.Fatal("run with an unwritable MetricsDir succeeded")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("admin address %s still bound after the failed run: %v", addr, err)
	}
	ln.Close()
}

// unwritableAfterAdmin makes every artifact write of cfg's run fail once
// the admin endpoint is up: its metrics directory becomes a regular file.
func unwritableAfterAdmin(t *testing.T, cfg *ScenarioConfig) {
	dir := filepath.Join(t.TempDir(), "metrics")
	cfg.MetricsDir = dir
	cfg.HTTPAddr = "127.0.0.1:0"
	cfg.AdminReady = func(string) {
		if err := os.RemoveAll(dir); err != nil {
			t.Error(err)
		}
		if err := os.WriteFile(dir, nil, 0o644); err != nil {
			t.Error(err)
		}
	}
}

// TestNoGoroutineOutlivesRun: the artifact writer and, on a failed run,
// the admin server are joined before RunScenario returns, whether the run
// succeeds, fails on an artifact write or fails in a stage after
// publishing started the writer.
func TestNoGoroutineOutlivesRun(t *testing.T) {
	for _, tc := range []struct {
		name  string
		setup func(t *testing.T, cfg *ScenarioConfig)
	}{
		{"success", func(t *testing.T, cfg *ScenarioConfig) { cfg.MetricsDir = t.TempDir() }},
		{"artifact write fails", unwritableAfterAdmin},
		{"stage fails after publishing", func(t *testing.T, cfg *ScenarioConfig) {
			cfg.MetricsDir = t.TempDir()
			cfg.HTTPAddr = "127.0.0.1:0"
			stages := runStages
			t.Cleanup(func() { runStages = stages })
			runStages = append(append([]func(*run) error(nil), stages...),
				func(*run) error { return errors.New("late stage failed") })
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := shortObsScenario(5)
			tc.setup(t, &cfg)
			base := runtime.NumGoroutine()
			res, err := RunScenario(cfg)
			if (err != nil) != (tc.name != "success") {
				t.Fatalf("RunScenario error = %v", err)
			}
			if res != nil && res.Admin != nil {
				t.Fatal("a run without HTTPAddr has an admin server")
			}
			// A joined goroutine may still be returning; a leaked one
			// blocks forever.
			for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > base; {
				if time.Now().After(deadline) {
					buf := make([]byte, 1<<16)
					t.Fatalf("%d goroutines after the run, %d before:\n%s",
						runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

// TestMetricsHistoryKeepsEverySnapshot: when the run ends less than a
// rounded second after the last snapshot tick, both snapshots round to
// one metrics-tNNNNNNNN name. The history must hold both, and the only
// snapshot files must be the final snapshot's, its .json page the
// history's last line.
func TestMetricsHistoryKeepsEverySnapshot(t *testing.T) {
	cfg := shortObsScenario(6)
	probe, err := RunScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Four ticks after the workload starts, the last one d seconds before
	// the horizon, with d chosen so that both instants round alike.
	horizon := probe.WorkloadStart + cfg.Profile.Duration() + cfg.withDefaults().DrainSeconds
	d := 0.25
	if f := horizon - math.Floor(horizon); f >= 0.5 && f < 0.75 {
		d = (f - 0.5) / 2
	}
	cfg.MetricsDir = t.TempDir()
	cfg.MetricsInterval = (horizon - probe.WorkloadStart - d) / 4
	if _, err := RunScenario(cfg); err != nil {
		t.Fatal(err)
	}
	snaps := readSnapshots(t, cfg.MetricsDir)
	lines := historyLines(t, snaps[metricsHistory])
	if len(lines) != 6 {
		t.Fatalf("%s holds %d lines for six snapshots", metricsHistory, len(lines))
	}
	times := make([]float64, len(lines))
	for i, line := range lines {
		var doc struct {
			Time float64 `json:"time"`
		}
		if err := json.Unmarshal(line, &doc); err != nil {
			t.Fatalf("line %d: %v", i+1, err)
		}
		times[i] = doc.Time
		if i > 0 && times[i] <= times[i-1] {
			t.Fatalf("line %d at t=%v follows t=%v", i+1, times[i], times[i-1])
		}
	}
	if times[5] != horizon || math.Round(times[4]) != math.Round(horizon) {
		t.Fatalf("the last two lines at t=%v and t=%v, want the final one at t=%v and a tick in its second", times[4], times[5], horizon)
	}
	base := fmt.Sprintf("metrics-t%08d", int64(math.Round(horizon)))
	var names []string
	for name := range snaps {
		if strings.HasPrefix(name, "metrics-t") {
			names = append(names, name)
		}
	}
	slices.Sort(names)
	if want := []string{base + ".json", base + ".prom"}; !slices.Equal(names, want) {
		t.Fatalf("snapshot files %v, want %v", names, want)
	}
	if !bytes.Equal(snaps[base+".json"], lines[5]) {
		t.Fatalf("%s.json is not the history's last line", base)
	}
}
