package jade

import "fmt"

// alertLatSpec is the alert-latency experiment's run for one fault
// mode. Both modes start from the gray-failure run (round-robin, so
// nothing routes around the fault) with the simulated network enabled
// and the φ detector armed in monitor-only mode — detector and alert
// plane watch the same run side by side, and neither repairs anything.
//
//   - "gray":  the original schedule — tomcat2 crawls at ~1/16 speed and
//     mysql2 is moderately slowed, but heartbeats stay CPU-free, so φ
//     never fires and only the alert plane can see the failure.
//   - "crash": tomcat2's node dies outright at the same instant, the
//     case classic failure detection was built for — both φ and the
//     alert plane must fire.
func alertLatSpec(seed int64, fault string, quick bool) Spec {
	s := grayFailSpec(seed, "round-robin", quick)
	s.Faults.Network.Enabled = true
	s.Alerting.MonitorReplicas = true
	if fault == "crash" {
		s.Faults.Chaos = ChaosSchedule{{At: alertLatFaultAt, Kind: ChaosCrash, Target: "tomcat2"}}
	}
	return s
}

// alertLatFaultAt is when (relative to workload start) both fault modes
// strike — the gray schedule in grayFailSpec uses the same
// instant.
const alertLatFaultAt = 20.0

// alertLatPageBound is the virtual-time window (seconds after the
// fault) within which the alert plane must page on the gray-degraded
// replica. Generous against the actual ~15-25 s the skew rule needs
// (two 5 s evaluation ticks once the reservoirs warm), tight against
// the 100+ s a slow-window-only burn alert would take.
const alertLatPageBound = 120.0

// alertLatRuns runs the gray and the crash fault mode side by side.
func alertLatRuns(x *expEnv) ([]expRun, error) {
	return []expRun{
		{name: "gray", spec: alertLatSpec(x.Seed, "gray", x.Quick)},
		{name: "crash", spec: alertLatSpec(x.Seed, "crash", x.Quick)},
	}, nil
}

// alertLatReport measures virtual-time-to-first-page of the alerting
// plane against the φ-accrual failure detector on the same faults. It
// self-checks that (gray) the alert plane pages within alertLatPageBound
// of the fault, names tomcat2, and φ records zero suspicions; and
// (crash) both the detector and the alert plane fire on the dead
// replica.
func alertLatReport(x *expEnv, rs []expRun) (string, error) {
	// Per fault mode: seconds after the fault to the first page and to
	// φ's first suspicion (-1: never), the component paged, the first
	// incident's suspect and φ's suspect-transition count.
	type faultMode struct {
		pageAfter, phiAfter float64
		paged, suspect      string
		suspicions          uint64
	}
	ms := make([]faultMode, len(rs))
	for i, v := range rs {
		r, m := v.res, &ms[i]
		if viol := r.InvariantViolation; viol != nil {
			return "", fmt.Errorf("alertlat %q: invariant %q violated: %s", v.name, viol.Checker, viol.Detail)
		}
		faultAt := r.WorkloadStart + alertLatFaultAt
		m.pageAfter, m.phiAfter = -1, -1
		if t := r.Alerts.FirstPageTime(); t >= 0 {
			m.pageAfter = t - faultAt
		}
		if a := r.Alerts.FirstPage(); a != nil {
			m.paged = a.Component
		}
		if incs := r.Alerts.Incidents(); len(incs) > 0 {
			m.suspect = incs[0].Suspect
		}
		if t := r.Alerts.FirstContextTime("detector.suspect"); t >= 0 {
			m.phiAfter = t - faultAt
		}
		if r.Detector != nil {
			m.suspicions = r.Detector.Suspicions
		}
	}
	gray, crash := ms[0], ms[1]
	if gray.suspicions != 0 || gray.phiAfter >= 0 {
		return "", fmt.Errorf("alertlat gray: φ detector suspected a replica (%d suspicions) — the fault is not gray", gray.suspicions)
	}
	if gray.pageAfter < 0 {
		return "", fmt.Errorf("alertlat gray: alert plane never paged on the degraded replica")
	}
	if gray.pageAfter > alertLatPageBound {
		return "", fmt.Errorf("alertlat gray: first page %.1f s after the fault, want <= %.0f s", gray.pageAfter, alertLatPageBound)
	}
	if gray.paged != "tomcat2" || gray.suspect != "tomcat2" {
		return "", fmt.Errorf("alertlat gray: paged %q / suspected %q, want tomcat2 for both", gray.paged, gray.suspect)
	}
	if crash.suspicions == 0 || crash.phiAfter < 0 {
		return "", fmt.Errorf("alertlat crash: φ detector never suspected the dead replica")
	}
	if crash.pageAfter < 0 {
		return "", fmt.Errorf("alertlat crash: alert plane never paged on the dead replica")
	}

	title := "Alert latency vs φ-accrual detection (fault at t+20 s, constant 60 clients, 240 s)"
	if x.Quick {
		title = "Alert latency vs φ-accrual detection (fault at t+20 s, constant 40 clients, 120 s, quick)"
	}
	tb := &TextTable{
		Title:   title,
		Headers: []string{"fault", "first page (s after fault)", "paged", "incident suspect", "φ first suspicion (s)", "φ suspicions", "p99 (s)", "completed", "failed"},
	}
	fmtAfter := func(v float64) string {
		if v < 0 {
			return "never"
		}
		return fmt.Sprintf("%.1f", v)
	}
	for i, v := range rs {
		r, m := v.res, ms[i]
		tb.AddRow(v.name,
			fmtAfter(m.pageAfter),
			orNone(m.paged),
			orNone(m.suspect),
			fmtAfter(m.phiAfter),
			fmt.Sprintf("%d", m.suspicions),
			fmt.Sprintf("%.3f", r.RequestLatency.Quantile(0.99)),
			fmt.Sprintf("%d", r.Stats.Completed),
			fmt.Sprintf("%d", r.Stats.Failed))
	}
	return tb.Render(), nil
}

func orNone(s string) string {
	if s == "" {
		return "(none)"
	}
	return s
}
