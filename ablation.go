package jade

import (
	"errors"
	"fmt"

	"jade/internal/core"
	"jade/internal/legacy"
	"jade/internal/netsim"
)

// ablationRun is one variant of a sizing ablation: the managed paper
// ramp at `jadectl experiment`'s speed-up, at least 2x.
func ablationRun(x *expEnv, name string) expRun {
	return expRun{name: name, spec: paperSpec(x.Seed, true, max(x.Speedup, 2))}
}

// ablationReport tabulates one row per variant under the given title.
func ablationReport(title string) func(*expEnv, []expRun) (string, error) {
	return func(_ *expEnv, rs []expRun) (string, error) {
		t := &TextTable{Title: title, Headers: []string{"variant", "mean lat (ms)", "max lat (ms)", "reconfigs", "node-seconds"}}
		for _, r := range rs {
			s := r.res.Stats.LatencySummary()
			t.AddRow(r.name,
				fmt.Sprintf("%.0f", s.Mean*1000),
				fmt.Sprintf("%.0f", s.Max*1000),
				fmt.Sprintf("%d", r.res.Reconfigurations),
				fmt.Sprintf("%.0f", r.res.NodeSeconds))
		}
		return t.Render(), nil
	}
}

// smoothingRuns compares the paper's temporal moving averages (60 s app
// / 90 s db) against raw per-second samples and an intermediate window.
// Without smoothing the thresholds see CPU noise and the loops
// reconfigure more often (§4.2: the moving average "removes artifacts
// characterizing the CPU consumption").
func smoothingRuns(x *expEnv) ([]expRun, error) {
	var rs []expRun
	for _, v := range []struct {
		name    string
		app, db float64
	}{
		{"no smoothing (1 s)", 1, 1},
		{"short window (15 s)", 15, 15},
		{"paper windows (60/90 s)", 60, 90},
	} {
		r := ablationRun(x, v.name)
		r.spec.Sizing.App.Window, r.spec.Sizing.DB.Window = v.app, v.db
		rs = append(rs, r)
	}
	return rs, nil
}

// inhibitionRuns compares the paper's one-minute post-reconfiguration
// inhibition window against no inhibition. Without it, both loops can
// fire back-to-back on stale averages.
func inhibitionRuns(x *expEnv) ([]expRun, error) {
	var rs []expRun
	for _, v := range []struct {
		name    string
		inhibit float64
	}{
		{"no inhibition", 0.001},
		{"paper inhibition (60 s)", 60},
	} {
		r := ablationRun(x, v.name)
		r.spec.Sizing.App.InhibitSeconds, r.spec.Sizing.DB.InhibitSeconds = v.inhibit, v.inhibit
		rs = append(rs, r)
	}
	return rs, nil
}

// thresholdRuns sweeps the min/max CPU thresholds — the paper calls
// their manual determination "a key challenge of this manager" (§4.2).
// Tight thresholds trade extra reconfigurations for latency; loose
// thresholds under-provision.
func thresholdRuns(x *expEnv) ([]expRun, error) {
	var rs []expRun
	for _, pr := range []struct{ min, max float64 }{
		{0.20, 0.60},
		{0.35, 0.80}, // paper-calibrated
		{0.50, 0.90},
		{0.10, 0.95},
	} {
		r := ablationRun(x, fmt.Sprintf("min=%.2f max=%.2f", pr.min, pr.max))
		r.spec.Sizing.App.Min, r.spec.Sizing.App.Max = pr.min, pr.max
		r.spec.Sizing.DB.Min, r.spec.Sizing.DB.Max = pr.min, pr.max
		rs = append(rs, r)
	}
	return rs, nil
}

// twoBackendADL deploys two initial MySQL backends (for the balancer
// policy ablation).
const twoBackendADL = `<?xml version="1.0"?>
<definition name="rubis-j2ee">
  <component name="plb1" wrapper="plb"/>
  <composite name="app-tier">
    <component name="tomcat1" wrapper="tomcat"/>
  </composite>
  <composite name="db-tier">
    <component name="cjdbc1" wrapper="cjdbc"/>
    <component name="mysql1" wrapper="mysql"><attribute name="dump" value="rubis"/></component>
    <component name="mysql2" wrapper="mysql"><attribute name="dump" value="rubis"/></component>
  </composite>
  <binding client="plb1.workers" server="tomcat1.http"/>
  <binding client="tomcat1.jdbc" server="cjdbc1.jdbc"/>
  <binding client="cjdbc1.backends" server="mysql1.sql"/>
  <binding client="cjdbc1.backends" server="mysql2.sql"/>
</definition>
`

// balancerPolicyRuns compares C-JDBC's read balancing policies
// (least-pending vs round-robin) over two static backends under a
// read-heavy constant load near saturation, where least-pending's queue
// awareness matters.
func balancerPolicyRuns(x *expEnv) ([]expRun, error) {
	var rs []expRun
	for _, policy := range []string{"least-pending", "round-robin"} {
		s := DefaultSpec(x.Seed, false)
		s.ADL = twoBackendADL
		s.Routing.DB = policy
		s.Workload.Mix = "browsing"
		s.Workload.Profile = ProfileSpec{Kind: "constant", Clients: 420, DurationSeconds: 400}
		rs = append(rs, expRun{name: policy, spec: s})
	}
	return rs, nil
}

// replayReport measures the simulated time to bring a fresh database
// replica into the cluster as a function of the recovery-log delta it
// must replay (§4.1's synchronization protocol), one platform per point.
func replayReport(x *expEnv, _ []expRun) (string, error) {
	t := &TextTable{
		Title:   "Recovery-log replay cost (fresh replica synchronization)",
		Headers: []string{"log delta (writes)", "sync time (s)"},
	}
	for _, delta := range []int{0, 250, 500, 1000, 2000} {
		secs, err := replayLogRun(x.Seed, delta)
		if err != nil {
			return "", err
		}
		t.AddRow(fmt.Sprintf("%d", delta), fmt.Sprintf("%.1f", secs))
	}
	return t.Render(), nil
}

// replayLogRun measures one point of the replay cost curve on its own
// platform: the seconds a replica holding only the initial dump takes to
// replay delta writes.
func replayLogRun(seed int64, delta int) (float64, error) {
	p := NewPlatform(PlatformOptions{Seed: seed, Nodes: 9})
	ds := Dataset{Regions: 3, Categories: 3, Users: 10, Items: 10, BidsPerItem: 1, CommentsPerUser: 1}
	dump, err := ds.InitialDatabase(seed)
	if err != nil {
		return 0, err
	}
	p.RegisterDump("rubis", dump)
	def, err := ParseADL(ThreeTierADL)
	if err != nil {
		return 0, err
	}
	var dep *Deployment
	derr := errors.New("jade: deployment did not complete")
	p.Deploy(def, func(d *Deployment, err error) { dep, derr = d, err })
	p.Eng.Run()
	if derr != nil {
		return 0, derr
	}
	cw := dep.MustComponent("cjdbc1").Content().(*core.CJDBCWrapper)
	// Snapshot now (index 0), then push the delta of writes that the
	// new replica will have to replay.
	for i := 0; i < delta; i++ {
		sql := fmt.Sprintf("INSERT INTO buy_now (id, buyer_id, item_id, qty, date) VALUES (%d, 1, 1, 1, %d)", i, i)
		cw.Controller().ExecSQL(legacy.Query{SQL: sql, Cost: 0.002}, netsim.ReplyFunc(func(err error) {
			if err != nil {
				derr = err
			}
		}))
	}
	derr = nil
	p.Eng.Run()
	if derr != nil {
		return 0, derr
	}
	// Install a replica holding only the initial dump (log index 0),
	// so its synchronization replays exactly `delta` records. (The
	// database tier actuator would snapshot an up-to-date backend instead —
	// this ablation quantifies what that optimization saves.)
	node, err := p.Pool.Allocate()
	if err != nil {
		return 0, err
	}
	comp, err := core.NewMySQLComponent(p, "mysql-sync", node)
	if err != nil {
		return 0, err
	}
	if err := comp.SetAttribute("dump", "rubis"); err != nil {
		return 0, err
	}
	serr := errors.New("jade: replica start did not complete")
	p.StartComponent(comp, func(err error) { serr = err })
	p.Eng.Run()
	if serr != nil {
		return 0, serr
	}
	t0 := p.Eng.Now()
	jerr := errors.New("jade: sync did not complete")
	err = cw.JoinBackend("mysql-sync", comp.Content().(*core.MySQLWrapper), 0,
		func(err error) { jerr = err })
	if err != nil {
		return 0, err
	}
	p.Eng.Run()
	if jerr != nil {
		return 0, jerr
	}
	if !cw.Controller().CheckConsistency().Consistent {
		return 0, fmt.Errorf("jade: replicas diverged after replaying %d records", delta)
	}
	return p.Eng.Now() - t0, nil
}
