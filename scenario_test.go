package jade

import (
	"math"
	"slices"
	"strings"
	"testing"

	"jade/internal/core"
	"jade/internal/metrics"
)

func TestDefaultScenarioMatchesPaperParameters(t *testing.T) {
	cfg := DefaultScenario(1, true)
	if !cfg.Managed {
		t.Fatal("managed flag lost")
	}
	ramp, ok := cfg.Profile.(RampProfile)
	if !ok {
		t.Fatalf("profile type %T", cfg.Profile)
	}
	if ramp.Base != 80 || ramp.Peak != 500 || ramp.StepPerMinute != 21 {
		t.Fatalf("ramp = %+v, want the paper's 80->500 at 21/min", ramp)
	}
	if cfg.AppSizing.Window != 60 || cfg.DBSizing.Window != 90 {
		t.Fatalf("windows = %v/%v, want 60/90 (paper)", cfg.AppSizing.Window, cfg.DBSizing.Window)
	}
	if cfg.AppSizing.InhibitSeconds != 60 {
		t.Fatal("inhibition must be 60 s (paper)")
	}
	if cfg.AppSizing.MaxReplicas != 2 || cfg.DBSizing.MaxReplicas != 3 {
		t.Fatal("tier caps must match the paper's testbed")
	}
	if cfg.Nodes != 9 {
		t.Fatal("cluster must be 9 nodes")
	}
}

func TestScenarioConfigDefaultsFilledIn(t *testing.T) {
	// A nearly empty config still runs: defaults are applied.
	r, err := RunScenario(ScenarioConfig{
		Seed:    2,
		Profile: ConstantProfile{Clients: 10, Length: 60},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats.Completed == 0 {
		t.Fatal("no requests completed")
	}
	if r.Config.ThinkTime != 7 {
		t.Fatalf("default think time = %v", r.Config.ThinkTime)
	}
	if r.Throughput() <= 0 {
		t.Fatal("throughput not computed")
	}
}

func TestScenarioResultThroughputZeroDuration(t *testing.T) {
	r := &ScenarioResult{Stats: &WorkloadStats{}}
	if r.Throughput() != 0 {
		t.Fatal("zero-duration throughput should be 0")
	}
}

func TestRelativizeShiftsAndFilters(t *testing.T) {
	s := metrics.NewSeries("x")
	s.Add(5, 1)
	s.Add(10, 2)
	s.Add(20, 3)
	out := relativize(s, 10)
	if out.Len() != 2 {
		t.Fatalf("len = %d, want samples at/after t0 only", out.Len())
	}
	if out.Point(0).T != 0 || out.Point(0).V != 2 {
		t.Fatalf("first point = %+v", out.Point(0))
	}
	if out.Point(1).T != 10 || out.Point(1).V != 3 {
		t.Fatalf("second point = %+v", out.Point(1))
	}
}

// A malformed ADL, and one that does not bind both plb1.workers and
// cjdbc1.backends, is refused at adl by Spec.Validate and by RunScenario.
func TestScenarioRejectsBadADL(t *testing.T) {
	for _, adl := range []string{
		"<definition><unclosed></definition>",
		`<definition name="x"><component name="a" wrapper="oracle"/></definition>`,
		FiveTierADL,
	} {
		s := DefaultSpec(1, false)
		s.ADL = adl
		if got := fieldPaths(s.Validate()); !slices.Equal(got, []string{"adl"}) {
			t.Errorf("Spec.Validate refused %.40q at %v, want adl", adl, got)
		}
		if got := runRefusal(t, s); !slices.Equal(got, []string{"adl"}) {
			t.Errorf("RunScenario refused %.40q at %v, want adl", adl, got)
		}
	}
}

func TestUnmanagedRunRecordsPassiveTraces(t *testing.T) {
	cfg := DefaultScenario(4, false)
	cfg.Profile = ConstantProfile{Clients: 40, Length: 120}
	r, err := RunScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.AppManager != nil || r.DBManager != nil {
		t.Fatal("unmanaged run has managers")
	}
	if r.Reconfigurations != 0 {
		t.Fatalf("unmanaged reconfigurations = %d", r.Reconfigurations)
	}
	// Passive CPU traces are recorded anyway (for Figs. 6-7).
	if r.DB.CPUSmoothed.Len() < 100 {
		t.Fatalf("db cpu trace = %d samples", r.DB.CPUSmoothed.Len())
	}
	if r.DB.Replicas.Last().V != 1 || r.App.Replicas.Last().V != 1 {
		t.Fatal("unmanaged replica traces must stay at 1")
	}
	// Node accounting ran.
	if r.NodeCPUPercent <= 0 || r.NodeMemPercent <= 0 {
		t.Fatalf("node accounting empty: cpu=%v mem=%v", r.NodeCPUPercent, r.NodeMemPercent)
	}
	// Sanity: at 40 clients the db node must be busy but not saturated.
	if m := r.DB.CPUSmoothed.Max(); m < 0.05 || m > 0.6 {
		t.Fatalf("db cpu at 40 clients = %v", m)
	}
}

func TestLatencyFigureWithSparseData(t *testing.T) {
	cfg := DefaultScenario(5, false)
	cfg.Profile = ConstantProfile{Clients: 2, Length: 30}
	r, err := RunScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := latencyFigure("sparse", r)
	if !strings.Contains(out, "latency: mean=") {
		t.Fatalf("figure footer missing:\n%s", out)
	}
}

func TestBrowsingMixScenarioHasNoWrites(t *testing.T) {
	cfg := DefaultScenario(6, false)
	cfg.Mix = BrowsingMix()
	cfg.Profile = ConstantProfile{Clients: 30, Length: 120}
	r, err := RunScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// No write interactions → empty recovery log.
	cw := r.Deployment.MustComponent("cjdbc1").Content().(*core.CJDBCWrapper)
	if n := cw.Controller().Log().Len(); n != 0 {
		t.Fatalf("recovery log = %d records under the browsing mix", n)
	}
	if r.Stats.Completed == 0 {
		t.Fatal("no completions")
	}
}

func TestMeanLatencyMatchesSummary(t *testing.T) {
	cfg := DefaultScenario(7, false)
	cfg.Profile = ConstantProfile{Clients: 10, Length: 60}
	r, err := RunScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.MeanLatency()-r.Stats.LatencySummary().Mean) > 1e-12 {
		t.Fatal("MeanLatency diverges from the summary")
	}
}
