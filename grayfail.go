package jade

import "fmt"

// GrayFailureADL is the gray-failure testbed: PLB balancing three Tomcat
// replicas over C-JDBC with two mirrored MySQL backends. Wide enough
// that one slow replica per tier leaves healthy capacity for a policy to
// route around.
const GrayFailureADL = `<?xml version="1.0"?>
<definition name="rubis-grayfail">
  <component name="plb1" wrapper="plb"/>
  <composite name="app-tier">
    <component name="tomcat1" wrapper="tomcat"/>
    <component name="tomcat2" wrapper="tomcat"/>
    <component name="tomcat3" wrapper="tomcat"/>
  </composite>
  <composite name="db-tier">
    <component name="cjdbc1" wrapper="cjdbc"/>
    <component name="mysql1" wrapper="mysql">
      <attribute name="dump" value="rubis"/>
    </component>
    <component name="mysql2" wrapper="mysql">
      <attribute name="dump" value="rubis"/>
    </component>
  </composite>
  <binding client="plb1.workers" server="tomcat1.http"/>
  <binding client="plb1.workers" server="tomcat2.http"/>
  <binding client="plb1.workers" server="tomcat3.http"/>
  <binding client="tomcat1.jdbc" server="cjdbc1.jdbc"/>
  <binding client="tomcat2.jdbc" server="cjdbc1.jdbc"/>
  <binding client="tomcat3.jdbc" server="cjdbc1.jdbc"/>
  <binding client="cjdbc1.backends" server="mysql1.sql"/>
  <binding client="cjdbc1.backends" server="mysql2.sql"/>
</definition>
`

// grayFailSpec is the gray-failure experiment's run for one routing
// policy: an unmanaged, invariant-checked constant-load run over
// GrayFailureADL where chaos degrades (but never kills) one replica per
// tier. tomcat2 is slowed severely (fifteen stacked CPU hogs leave it
// ~1/16 speed) and mysql2 moderately (writes broadcast to every backend,
// so a crawling replica would stall both policies equally); heartbeats
// stay CPU-free, so no failure detector would ever suspect either replica
// — the definition of a gray failure. Only the routing policy
// distinguishes variants.
func grayFailSpec(seed int64, policy string, quick bool) Spec {
	s := DefaultSpec(seed, false)
	clients, length := 60, 240.0
	if quick {
		clients, length = 40, 120.0
	}
	s.ADL = GrayFailureADL
	s.Workload.Profile = ProfileSpec{Kind: "constant", Clients: clients, DurationSeconds: length}
	s.Workload.DrainSeconds = 30
	s.Checks.Invariants = true
	s.Routing = RoutingSpec{App: policy, DB: policy}
	slowAt := 20.0
	s.Faults.Chaos = ChaosSchedule{
		{At: slowAt, Kind: ChaosSlow, Target: "mysql2", Duration: length - slowAt},
	}
	for i := 0; i < 15; i++ {
		s.Faults.Chaos = append(s.Faults.Chaos,
			ChaosEvent{At: slowAt, Kind: ChaosSlow, Target: "tomcat2", Duration: length - slowAt})
	}
	return s
}

// grayFailRuns runs the gray-failure scenario once per routing policy.
// Under round-robin every third request lands on the crawling Tomcat and
// p99 collapses; the balanced scorer sees the slow replica's latency
// reservoir grow and organically routes around it — no detector, no
// membership change.
func grayFailRuns(x *expEnv) ([]expRun, error) {
	var rs []expRun
	for _, policy := range []string{"round-robin", "least-pending", "balanced"} {
		rs = append(rs, expRun{name: policy, spec: grayFailSpec(x.Seed, policy, x.Quick)})
	}
	return rs, nil
}

// grayFailReport tabulates each policy's client-perceived latency. It
// self-checks the experiment's headline claim: balanced routing holds
// p99 at least 2x below round-robin's.
func grayFailReport(x *expEnv, rs []expRun) (string, error) {
	rr, bal := rs[0].res.RequestLatency.Quantile(0.99), rs[2].res.RequestLatency.Quantile(0.99)
	if rr < 2*bal {
		return "", fmt.Errorf("grayfail: balanced p99 not 2x better: round-robin %.3fs vs balanced %.3fs", rr, bal)
	}
	title := "Routing under gray failure (one slow Tomcat + one slow MySQL, constant 60 clients, 240 s)"
	if x.Quick {
		title = "Routing under gray failure (one slow Tomcat + one slow MySQL, constant 40 clients, 120 s, quick)"
	}
	tb := &TextTable{
		Title:   title,
		Headers: []string{"policy", "p50 (s)", "p95 (s)", "p99 (s)", "mean (s)", "completed", "failed", "violation"},
	}
	for _, v := range rs {
		r := v.res
		violation := "none"
		if r.InvariantViolation != nil {
			violation = r.InvariantViolation.Checker
		}
		tb.AddRow(v.name,
			fmt.Sprintf("%.3f", r.RequestLatency.Quantile(0.50)),
			fmt.Sprintf("%.3f", r.RequestLatency.Quantile(0.95)),
			fmt.Sprintf("%.3f", r.RequestLatency.Quantile(0.99)),
			fmt.Sprintf("%.3f", r.MeanLatency()),
			fmt.Sprintf("%d", r.Stats.Completed),
			fmt.Sprintf("%d", r.Stats.Failed),
			violation)
	}
	return tb.Render(), nil
}
