package jade

import (
	"strings"
	"testing"
)

// fastRuns executes the paper scenario at 5x time compression (same
// client trajectory, shorter run) and caches it across tests.
var cachedRuns *PaperRuns

func fastRuns(t *testing.T) *PaperRuns {
	t.Helper()
	if cachedRuns == nil {
		pr, err := runPaperScenario(1, 5)
		if err != nil {
			t.Fatal(err)
		}
		cachedRuns = pr
	}
	return cachedRuns
}

func TestPaperScenarioLatencyShape(t *testing.T) {
	pr := fastRuns(t)
	m := pr.Managed.Stats.LatencySummary()
	u := pr.Unmanaged.Stats.LatencySummary()
	// The paper's headline: Jade keeps latency stable (~590 ms) while
	// the unmanaged system's latency diverges (10.42 s average, with
	// peaks in the hundreds of seconds). We assert the *shape*: at
	// least an order of magnitude between the means, and unmanaged
	// peaks beyond a minute.
	if u.Mean < 10*m.Mean {
		t.Fatalf("managed mean %.3fs vs unmanaged %.3fs: expected >=10x gap", m.Mean, u.Mean)
	}
	if u.Max < 60 {
		t.Fatalf("unmanaged max latency %.1fs: expected thrashing beyond 60s", u.Max)
	}
	if m.Max > u.Max/3 {
		t.Fatalf("managed max %.1fs not clearly below unmanaged max %.1fs", m.Max, u.Max)
	}
	if pr.Managed.Stats.Failed != 0 || pr.Unmanaged.Stats.Failed != 0 {
		t.Fatalf("failed requests: managed=%d unmanaged=%d",
			pr.Managed.Stats.Failed, pr.Unmanaged.Stats.Failed)
	}
	// The managed run completes more work (closed loop: faster
	// responses mean more requests issued).
	if pr.Managed.Stats.Completed <= pr.Unmanaged.Stats.Completed {
		t.Fatalf("managed completed %d <= unmanaged %d",
			pr.Managed.Stats.Completed, pr.Unmanaged.Stats.Completed)
	}
}

func TestPaperScenarioReplicaTrajectory(t *testing.T) {
	pr := fastRuns(t)
	m := pr.Managed
	// Fig. 5's trajectory: the database tier scales to 3 backends and
	// the application tier to 2 servers at peak load.
	if got := int(m.DB.Replicas.Max()); got != 3 {
		t.Fatalf("peak db replicas = %d, want 3", got)
	}
	if got := int(m.App.Replicas.Max()); got != 2 {
		t.Fatalf("peak app replicas = %d, want 2", got)
	}
	// The db tier saturates first: its first grow precedes the app
	// tier's (paper: db at 180 clients, app at 420).
	firstGrow := func(s *Series) float64 {
		for _, p := range s.Points {
			if p.V >= 2 {
				return p.T
			}
		}
		return -1
	}
	dbT, appT := firstGrow(m.DB.Replicas), firstGrow(m.App.Replicas)
	if dbT < 0 || appT < 0 {
		t.Fatal("one tier never grew")
	}
	if dbT >= appT {
		t.Fatalf("db tier grew at %.0fs, after app tier at %.0fs; paper order is db first", dbT, appT)
	}
	// Replicas come back down as the load recedes.
	if final := m.DB.Replicas.Last().V; final >= 3 {
		t.Fatalf("db replicas did not shrink after the peak: final=%v", final)
	}
	if final := m.App.Replicas.Last().V; final != 1 {
		t.Fatalf("app replicas final = %v, want 1", final)
	}
	// Reconfiguration count: a handful, not a storm (paper shows ~6
	// transitions).
	if m.Reconfigurations < 4 || m.Reconfigurations > 12 {
		t.Fatalf("reconfigurations = %d, want a handful", m.Reconfigurations)
	}
}

func TestPaperScenarioCPURegulation(t *testing.T) {
	pr := fastRuns(t)
	// Without Jade the database saturates (moving average reaches ~1.0).
	if got := pr.Unmanaged.DB.CPUSmoothed.Max(); got < 0.95 {
		t.Fatalf("unmanaged db cpu peak = %.2f, expected saturation", got)
	}
	// With Jade the post-warmup moving average respects the max
	// threshold most of the time; transient overshoot is bounded.
	over := 0
	for _, p := range pr.Managed.DB.CPUSmoothed.Points {
		if p.V > 0.95 {
			over++
		}
	}
	frac := float64(over) / float64(pr.Managed.DB.CPUSmoothed.Len()+1)
	if frac > 0.10 {
		t.Fatalf("managed db cpu above 0.95 for %.0f%% of samples", frac*100)
	}
	// Dynamic provisioning saves resources versus static peak
	// provisioning: managed node-seconds < 7 nodes for the whole run.
	dur := pr.Managed.WorkloadEnd - pr.Managed.WorkloadStart
	if pr.Managed.NodeSeconds >= 7*dur {
		t.Fatalf("node-seconds %.0f not below static 7-node bill %.0f",
			pr.Managed.NodeSeconds, 7*dur)
	}
}

// The figure CSVs `jadectl experiment -csv` writes are well formed; the
// rendered figures are pinned by the experiment goldens.
func TestFigureRenderersProduceOutput(t *testing.T) {
	csvs := fastRuns(t).CSVs()
	for _, name := range []string{"figure5_replicas.csv", "figure6_db_cpu.csv",
		"figure7_app_cpu.csv", "figure8_latency_without.csv", "figure9_latency_with.csv"} {
		body := csvs[name]
		if !strings.HasPrefix(body, "time,") || strings.Count(body, "\n") < 10 {
			t.Errorf("%s malformed or too short", name)
		}
	}
}

func TestTable1Intrusivity(t *testing.T) {
	rs, out := runEntry(t, testEnv(t, ExperimentOptions{Seed: 1}), "table1")
	w, wo := rs[0].res, rs[1].res
	// Throughput identical (closed loop at medium load): ~80/7 ≈ 11.4.
	if tw := w.Throughput(); tw < 9 || tw > 14 {
		t.Fatalf("with-Jade throughput = %.1f, want ≈11.4", tw)
	}
	if rel := (w.Throughput() - wo.Throughput()) / wo.Throughput(); rel < -0.05 || rel > 0.05 {
		t.Fatalf("throughput differs by %.1f%%: %v vs %v", rel*100, w.Throughput(), wo.Throughput())
	}
	// Response time overhead is marginal (paper: 89 vs 87 ms).
	if w.MeanLatency() > wo.MeanLatency()*1.15 {
		t.Fatalf("resp time with Jade %.1f ms vs %.1f ms: overhead too large",
			w.MeanLatency()*1000, wo.MeanLatency()*1000)
	}
	// CPU overhead below one percentage point (paper: 12.74 vs 12.42).
	if d := w.NodeCPUPercent - wo.NodeCPUPercent; d < 0 || d > 1.0 {
		t.Fatalf("cpu delta = %.2f points (%.2f vs %.2f)", d, w.NodeCPUPercent, wo.NodeCPUPercent)
	}
	// Memory overhead present but small (paper: 20.1 vs 17.5).
	if d := w.NodeMemPercent - wo.NodeMemPercent; d < 1.0 || d > 5.0 {
		t.Fatalf("memory delta = %.2f points (%.2f vs %.2f)", d, w.NodeMemPercent, wo.NodeMemPercent)
	}
	if !strings.Contains(out, "Table 1") || !strings.Contains(out, "Memory usage") {
		t.Fatalf("Table 1 render malformed:\n%s", out)
	}
}

func TestFigure4Transcript(t *testing.T) {
	out, err := figure4(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`Apache1.stop()`,
		`Apache1.unbind("ajp-itf")`,
		`Apache1.bind("ajp-itf", tomcat2-itf)`,
		`Apache1.start()`,
		"worker.tomcat2.port=8098",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("transcript missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "worker.tomcat1") {
		t.Fatal("transcript still references tomcat1 worker")
	}
}

// ablationEnv runs the sizing ablations on a 10x ramp.
func ablationEnv(t *testing.T) *expEnv {
	return testEnv(t, ExperimentOptions{Seed: 1, Speedup: 10})
}

// meanMS is a run's mean client latency in milliseconds.
func meanMS(r *ScenarioResult) float64 { return r.Stats.LatencySummary().Mean * 1000 }

func TestAblationSmoothing(t *testing.T) {
	rows, out := runEntry(t, ablationEnv(t), "Ablation — sensor smoothing")
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	noSmooth, paper := rows[0].res, rows[2].res
	if noSmooth.Reconfigurations < paper.Reconfigurations {
		t.Fatalf("no-smoothing reconfigs (%d) < paper windows (%d): smoothing should reduce churn",
			noSmooth.Reconfigurations, paper.Reconfigurations)
	}
	if !strings.Contains(out, "no smoothing") {
		t.Fatal("render missing variant")
	}
}

func TestAblationInhibition(t *testing.T) {
	rows, _ := runEntry(t, ablationEnv(t), "Ablation — reconfiguration inhibition")
	none, paper := rows[0].res, rows[1].res
	if none.Reconfigurations < paper.Reconfigurations {
		t.Fatalf("no-inhibition reconfigs (%d) < with inhibition (%d)",
			none.Reconfigurations, paper.Reconfigurations)
	}
}

func TestAblationThresholds(t *testing.T) {
	rows, _ := runEntry(t, ablationEnv(t), "Ablation — threshold sweep")
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// The loose pair (0.10/0.95) must provision later/less than the
	// tight pair (0.20/0.60): fewer node-seconds or higher latency.
	tight, loose := rows[0].res, rows[3].res
	if !(loose.NodeSeconds < tight.NodeSeconds || meanMS(loose) > meanMS(tight)) {
		t.Fatalf("threshold sweep shows no tradeoff: tight %.0f node-s / %.0f ms, loose %.0f node-s / %.0f ms",
			tight.NodeSeconds, meanMS(tight), loose.NodeSeconds, meanMS(loose))
	}
}

func TestAblationBalancerPolicy(t *testing.T) {
	rows, _ := runEntry(t, ablationEnv(t), "Ablation — C-JDBC read policy")
	if rows[0].name != "least-pending" || rows[1].name != "round-robin" {
		t.Fatalf("unexpected rows: %q, %q", rows[0].name, rows[1].name)
	}
	// Least-pending should not be meaningfully worse than round-robin.
	if lp, rr := meanMS(rows[0].res), meanMS(rows[1].res); lp > rr*1.25 {
		t.Fatalf("least-pending %.0f ms much worse than round-robin %.0f ms", lp, rr)
	}
}

func TestAblationRecoveryLogReplay(t *testing.T) {
	var secs []float64
	for _, delta := range []int{0, 200, 800} {
		s, err := replayLogRun(1, delta)
		if err != nil {
			t.Fatal(err)
		}
		secs = append(secs, s)
	}
	for i := 1; i < len(secs); i++ {
		if secs[i] < secs[i-1] {
			t.Fatalf("sync time not monotone in log length: %v", secs)
		}
	}
	// 800 replayed writes at 0.002 CPU-s each dominate the base delay.
	if secs[2] < secs[0]+1 {
		t.Fatalf("long replay (%.2fs) not clearly above empty replay (%.2fs)", secs[2], secs[0])
	}
	if _, out := runEntry(t, ablationEnv(t), "Ablation — recovery-log replay"); !strings.Contains(out, "2000") {
		t.Fatal("render missing data")
	}
}

func TestScenarioDeterminism(t *testing.T) {
	runOnce := func() (uint64, float64) {
		cfg := DefaultScenario(7, true)
		cfg.Profile = RampProfile{Base: 40, Peak: 200, StepPerMinute: 160, HoldAtPeak: 30}
		r, err := RunScenario(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r.Stats.Completed, r.MeanLatency()
	}
	c1, l1 := runOnce()
	c2, l2 := runOnce()
	if c1 != c2 || l1 != l2 {
		t.Fatalf("scenario not deterministic: (%d, %v) vs (%d, %v)", c1, l1, c2, l2)
	}
}

func TestRecoveryScenario(t *testing.T) {
	cfg := DefaultScenario(3, true)
	cfg.Recovery = true
	cfg.Profile = ConstantProfile{Clients: 60, Length: 400}
	cfg.Chaos = ChaosSchedule{{At: 100, Kind: ChaosCrash, Target: "tomcat1"}}
	r, err := RunScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Repairs != 1 {
		t.Fatalf("repairs = %d, want 1", r.Repairs)
	}
	// Service continues after the repair: requests complete in the
	// second half of the run.
	late := 0
	for _, p := range r.Stats.Latency.Points {
		if p.T > r.WorkloadStart+250 {
			late++
		}
	}
	if late == 0 {
		t.Fatal("no completions after the repair")
	}
	// A single-replica tier implies an outage window of roughly the
	// repair latency (node allocation + install + start ≈ 20 s); with
	// 60 clients cycling every ~7 s that bounds failures well below the
	// ~2600 successful completions of the run.
	if r.Stats.Failed > 300 {
		t.Fatalf("failed = %d, repair did not restore service promptly", r.Stats.Failed)
	}
	if r.Stats.Completed < uint64(r.Stats.Failed)*5 {
		t.Fatalf("completions (%d) not dominating failures (%d)",
			r.Stats.Completed, r.Stats.Failed)
	}
}

func TestPlatformFacadeBasics(t *testing.T) {
	p := NewPlatform(DefaultPlatformOptions())
	if got := p.WrapperKinds(); len(got) != 6 {
		t.Fatalf("wrapper kinds = %v", got)
	}
	if got := p.SIS.Packages(); len(got) != 6 {
		t.Fatalf("packages = %v", got)
	}
	def, err := ParseADL(ThreeTierADL)
	if err != nil {
		t.Fatal(err)
	}
	if err := def.Validate(nil); err != nil {
		t.Fatal(err)
	}
}
