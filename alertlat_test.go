package jade

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
)

// TestAlertLatencyExperiment runs the self-checking flagship experiment:
// on the gray fault the alert plane must page within the bound and name
// tomcat2 while the φ detector stays silent; on the crash both fire. The
// entry's report fails on any of those conditions, so most assertions
// live inside it — this re-checks the crash incident from outside.
func TestAlertLatencyExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("two full scenario runs")
	}
	rs, table := runEntry(t, testEnv(t, ExperimentOptions{Seed: 1, Quick: true}), "alertlat")
	if len(rs) != 2 || !strings.Contains(table, "tomcat2") {
		t.Fatalf("table:\n%s", table)
	}
	if rs[0].name != "gray" || rs[1].name != "crash" {
		t.Fatalf("variant order: %q, %q", rs[0].name, rs[1].name)
	}
	// The paging alert plane and the φ detector watched the same run:
	// the crash incident must blame the dead replica.
	if incs := rs[1].res.Alerts.Incidents(); len(incs) == 0 || incs[0].Suspect != "tomcat2" {
		t.Fatalf("crash: incidents %+v, want the first to suspect tomcat2", incs)
	}
}

// TestCrashWithoutRepairLoopIsNoViolation: the full-length crash run arms
// no repair loop, so tomcat2 stays bound to its dead node for the rest of
// the run. The balancer-agreement grace is the time self-recovery has to
// repair; without self-recovery it must not fire.
func TestCrashWithoutRepairLoopIsNoViolation(t *testing.T) {
	r, err := RunSpec(alertLatSpec(1, "crash", false))
	if err != nil {
		t.Fatal(err)
	}
	if r.InvariantViolation != nil {
		t.Fatalf("invariant violation: %v", r.InvariantViolation)
	}
	if r.InvariantChecks == 0 {
		t.Fatal("no invariant checks ran")
	}
}

// TestAlertArtifactDeterminismSweep: over 20 seeds, two same-seed runs of
// the quick gray alert scenario must export byte-identical alerts.jsonl
// and incidents.json — the alert plane is a pure function of the
// trajectory, and the trajectory is a pure function of the seed.
func TestAlertArtifactDeterminismSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("20-seed sweep")
	}
	for seed := int64(1); seed <= 20; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			var jsonl, incidents [2][]byte
			for i := 0; i < 2; i++ {
				r, err := RunSpec(alertLatSpec(seed, "gray", true))
				if err != nil {
					t.Fatal(err)
				}
				jsonl[i] = r.Alerts.AlertsJSONL()
				incidents[i] = r.Alerts.IncidentsJSON(r.Platform.Eng.Now())
			}
			if len(jsonl[0]) == 0 {
				t.Fatal("empty alerts.jsonl (gray run should always alert)")
			}
			if !bytes.Equal(jsonl[0], jsonl[1]) {
				t.Fatalf("alerts.jsonl differs between same-seed runs:\n%s\nvs\n%s", jsonl[0], jsonl[1])
			}
			if !bytes.Equal(incidents[0], incidents[1]) {
				t.Fatalf("incidents.json differs between same-seed runs")
			}
			if _, err := ValidateAlertsJSONL(jsonl[0]); err != nil {
				t.Fatalf("alerts.jsonl invalid: %v", err)
			}
			if err := ValidateIncidentsJSON(incidents[0]); err != nil {
				t.Fatalf("incidents.json invalid: %v", err)
			}
		})
	}
}

// TestAlertingDisabledSameTrajectory: the alert ticker runs whether or
// not rules evaluate, and rules only read existing streams — so a run
// with alerting disabled must process exactly the same events and serve
// an empty alert page, not a different simulation.
func TestAlertingDisabledSameTrajectory(t *testing.T) {
	run := func(disabled bool) *ScenarioResult {
		s := grayFailSpec(5, "round-robin", true)
		s.Alerting.Off = disabled
		r, err := RunSpec(s)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	on, off := run(false), run(true)
	if p1, p2 := on.Platform.Eng.Processed(), off.Platform.Eng.Processed(); p1 != p2 {
		t.Fatalf("alerting switch changed the event schedule: %d vs %d events", p1, p2)
	}
	if on.Stats.Completed != off.Stats.Completed || on.Stats.Failed != off.Stats.Failed {
		t.Fatal("alerting switch changed request outcomes")
	}
	if len(on.Alerts.Alerts()) == 0 {
		t.Fatal("enabled run fired no alerts on the gray scenario")
	}
	if len(off.Alerts.Alerts()) != 0 {
		t.Fatal("disabled run fired alerts")
	}
}

// TestHealthzReportsDegraded: a run whose SLO cannot be met must flip
// /healthz to "degraded" and name the burning objective, while a healthy
// run stays "ok". Uses the served page after the run (the final
// published snapshot).
func TestHealthzReportsDegraded(t *testing.T) {
	fetch := func(impossible bool) string {
		cfg := DefaultScenario(21, true)
		cfg.Profile = ConstantProfile{Clients: 40, Length: 120}
		if impossible {
			cfg.Managed = false
			cfg.NodeCPU = 0.05 // nodes at a twentieth of the testbed's speed: no run meets a 2 s p95
		}
		cfg.HTTPAddr = "127.0.0.1:0"
		r, err := RunScenario(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Admin.Close()
		resp, err := http.Get("http://" + r.AdminAddr + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	healthy := fetch(false)
	if !strings.Contains(healthy, `"status": "ok"`) {
		t.Fatalf("healthy run /healthz = %s", healthy)
	}
	degraded := fetch(true)
	if !strings.Contains(degraded, `"status": "degraded"`) {
		t.Fatalf("impossible-SLO run /healthz = %s", degraded)
	}
	if !strings.Contains(degraded, "client-latency-p95") {
		t.Fatalf("degraded /healthz does not name the burning objective: %s", degraded)
	}
}
