package jade

import (
	"errors"
	"fmt"

	"jade/internal/core"
	"jade/internal/legacy"
	"jade/internal/netsim"
)

// AblationRow summarizes one ablation variant of the self-optimization
// design.
type AblationRow struct {
	Name             string
	MeanLatencyMS    float64
	MaxLatencyMS     float64
	Reconfigurations int
	NodeSeconds      float64
}

// RenderAblation formats ablation rows as a table.
func RenderAblation(title string, rows []AblationRow) string {
	t := &TextTable{Title: title, Headers: []string{"variant", "mean lat (ms)", "max lat (ms)", "reconfigs", "node-seconds"}}
	for _, r := range rows {
		t.AddRow(r.Name,
			fmt.Sprintf("%.0f", r.MeanLatencyMS),
			fmt.Sprintf("%.0f", r.MaxLatencyMS),
			fmt.Sprintf("%d", r.Reconfigurations),
			fmt.Sprintf("%.0f", r.NodeSeconds))
	}
	return t.Render()
}

func ablationRun(name string, seed int64, speedup float64, mutate func(*ScenarioConfig)) (AblationRow, error) {
	cfg := DefaultScenario(seed, true)
	cfg.Profile = RampProfile{Base: 80, Peak: 500, StepPerMinute: int(21 * speedup), HoldAtPeak: 120 / speedup}
	if mutate != nil {
		mutate(&cfg)
	}
	r, err := RunScenario(cfg)
	if err != nil {
		return AblationRow{}, fmt.Errorf("jade: ablation %s: %w", name, err)
	}
	s := r.Stats.LatencySummary()
	return AblationRow{
		Name:             name,
		MeanLatencyMS:    s.Mean * 1000,
		MaxLatencyMS:     s.Max * 1000,
		Reconfigurations: r.Reconfigurations,
		NodeSeconds:      r.NodeSeconds,
	}, nil
}

// RunAblationSmoothing compares the paper's temporal moving averages
// (60 s app / 90 s db) against raw per-second samples and an intermediate
// window. Without smoothing the thresholds see CPU noise and the loops
// reconfigure more often (§4.2: the moving average "removes artifacts
// characterizing the CPU consumption").
func RunAblationSmoothing(seed int64, speedup float64) ([]AblationRow, error) {
	variants := []struct {
		name    string
		app, db float64
	}{
		{"no smoothing (1 s)", 1, 1},
		{"short window (15 s)", 15, 15},
		{"paper windows (60/90 s)", 60, 90},
	}
	rows := make([]AblationRow, len(variants))
	err := forEachPar(len(variants), func(i int) error {
		v := variants[i]
		row, err := ablationRun(v.name, seed, speedup, func(cfg *ScenarioConfig) {
			cfg.AppSizing.Window = v.app
			cfg.DBSizing.Window = v.db
		})
		rows[i] = row
		return err
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// RunAblationInhibition compares the paper's one-minute
// post-reconfiguration inhibition window against no inhibition. Without
// it, both loops can fire back-to-back on stale averages.
func RunAblationInhibition(seed int64, speedup float64) ([]AblationRow, error) {
	variants := []struct {
		name    string
		inhibit float64
	}{
		{"no inhibition", 0.001},
		{"paper inhibition (60 s)", 60},
	}
	rows := make([]AblationRow, len(variants))
	err := forEachPar(len(variants), func(i int) error {
		v := variants[i]
		row, err := ablationRun(v.name, seed, speedup, func(cfg *ScenarioConfig) {
			cfg.AppSizing.InhibitSeconds = v.inhibit
			cfg.DBSizing.InhibitSeconds = v.inhibit
		})
		rows[i] = row
		return err
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// RunAblationThresholds sweeps the min/max CPU thresholds — the paper
// calls their manual determination "a key challenge of this manager"
// (§4.2). Tight thresholds trade extra reconfigurations for latency;
// loose thresholds under-provision.
func RunAblationThresholds(seed int64, speedup float64) ([]AblationRow, error) {
	pairs := []struct{ min, max float64 }{
		{0.20, 0.60},
		{0.35, 0.80}, // paper-calibrated
		{0.50, 0.90},
		{0.10, 0.95},
	}
	rows := make([]AblationRow, len(pairs))
	err := forEachPar(len(pairs), func(i int) error {
		pr := pairs[i]
		name := fmt.Sprintf("min=%.2f max=%.2f", pr.min, pr.max)
		row, err := ablationRun(name, seed, speedup, func(cfg *ScenarioConfig) {
			cfg.AppSizing.Min, cfg.AppSizing.Max = pr.min, pr.max
			cfg.DBSizing.Min, cfg.DBSizing.Max = pr.min, pr.max
		})
		rows[i] = row
		return err
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// twoBackendADL deploys two initial MySQL backends (for the balancer
// policy ablation) with an explicit read policy.
const twoBackendADL = `<?xml version="1.0"?>
<definition name="rubis-j2ee">
  <component name="plb1" wrapper="plb"/>
  <composite name="app-tier">
    <component name="tomcat1" wrapper="tomcat"/>
  </composite>
  <composite name="db-tier">
    <component name="cjdbc1" wrapper="cjdbc">
      <attribute name="read-policy" value="%s"/>
    </component>
    <component name="mysql1" wrapper="mysql"><attribute name="dump" value="rubis"/></component>
    <component name="mysql2" wrapper="mysql"><attribute name="dump" value="rubis"/></component>
  </composite>
  <binding client="plb1.workers" server="tomcat1.http"/>
  <binding client="tomcat1.jdbc" server="cjdbc1.jdbc"/>
  <binding client="cjdbc1.backends" server="mysql1.sql"/>
  <binding client="cjdbc1.backends" server="mysql2.sql"/>
</definition>
`

// RunAblationBalancerPolicy compares C-JDBC's read balancing policies
// (least-pending vs round-robin) over two static backends under a
// read-heavy constant load near saturation, where least-pending's
// queue awareness matters.
func RunAblationBalancerPolicy(seed int64) ([]AblationRow, error) {
	policies := []string{"least-pending", "round-robin"}
	rows := make([]AblationRow, len(policies))
	err := forEachPar(len(policies), func(i int) error {
		policy := policies[i]
		cfg := DefaultScenario(seed, false)
		cfg.ADL = fmt.Sprintf(twoBackendADL, policy)
		cfg.Mix = BrowsingMix()
		cfg.Profile = ConstantProfile{Clients: 420, Length: 400}
		r, err := RunScenario(cfg)
		if err != nil {
			return fmt.Errorf("jade: balancer ablation %s: %w", policy, err)
		}
		s := r.Stats.LatencySummary()
		rows[i] = AblationRow{
			Name:          policy,
			MeanLatencyMS: s.Mean * 1000,
			MaxLatencyMS:  s.Max * 1000,
			NodeSeconds:   r.NodeSeconds,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// ReplayRow is one point of the recovery-log replay cost curve.
type ReplayRow struct {
	LogLength   int64
	SyncSeconds float64
}

// RunAblationRecoveryLogReplay measures the simulated time to bring a
// fresh database replica into the cluster as a function of the
// recovery-log delta it must replay (§4.1's synchronization protocol).
func RunAblationRecoveryLogReplay(seed int64, deltas []int) ([]ReplayRow, error) {
	rows := make([]ReplayRow, len(deltas))
	err := forEachPar(len(deltas), func(i int) error {
		row, err := replayLogRun(seed, deltas[i])
		rows[i] = row
		return err
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// replayLogRun measures one point of the replay cost curve on its own
// platform (each run is independent, so the curve fans out in parallel).
func replayLogRun(seed int64, delta int) (ReplayRow, error) {
	p := NewPlatform(PlatformOptions{Seed: seed, Nodes: 9})
	ds := Dataset{Regions: 3, Categories: 3, Users: 10, Items: 10, BidsPerItem: 1, CommentsPerUser: 1}
	dump, err := ds.InitialDatabase(seed)
	if err != nil {
		return ReplayRow{}, err
	}
	p.RegisterDump("rubis", dump)
	def, err := ParseADL(ThreeTierADL)
	if err != nil {
		return ReplayRow{}, err
	}
	var dep *Deployment
	derr := errors.New("jade: deployment did not complete")
	p.Deploy(def, func(d *Deployment, err error) { dep, derr = d, err })
	p.Eng.Run()
	if derr != nil {
		return ReplayRow{}, derr
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
		return ReplayRow{}, derr
	}
	// Install a replica holding only the initial dump (log index 0),
	// so its synchronization replays exactly `delta` records. (The
	// database tier actuator would snapshot an up-to-date backend instead —
	// this ablation quantifies what that optimization saves.)
	node, err := p.Pool.Allocate()
	if err != nil {
		return ReplayRow{}, err
	}
	comp, err := core.NewMySQLComponent(p, "mysql-sync", node)
	if err != nil {
		return ReplayRow{}, err
	}
	if err := comp.SetAttribute("dump", "rubis"); err != nil {
		return ReplayRow{}, err
	}
	serr := errors.New("jade: replica start did not complete")
	p.StartComponent(comp, func(err error) { serr = err })
	p.Eng.Run()
	if serr != nil {
		return ReplayRow{}, serr
	}
	t0 := p.Eng.Now()
	jerr := errors.New("jade: sync did not complete")
	err = cw.JoinBackend("mysql-sync", comp.Content().(*core.MySQLWrapper), 0,
		func(err error) { jerr = err })
	if err != nil {
		return ReplayRow{}, err
	}
	p.Eng.Run()
	if jerr != nil {
		return ReplayRow{}, jerr
	}
	row := ReplayRow{LogLength: int64(delta), SyncSeconds: p.Eng.Now() - t0}
	if !cw.Controller().CheckConsistency().Consistent {
		return ReplayRow{}, fmt.Errorf("jade: replicas diverged after replaying %d records", delta)
	}
	return row, nil
}

// RenderReplay formats the replay cost curve.
func RenderReplay(rows []ReplayRow) string {
	t := &TextTable{
		Title:   "Recovery-log replay cost (fresh replica synchronization)",
		Headers: []string{"log delta (writes)", "sync time (s)"},
	}
	for _, r := range rows {
		t.AddRow(fmt.Sprintf("%d", r.LogLength), fmt.Sprintf("%.1f", r.SyncSeconds))
	}
	return t.Render()
}
