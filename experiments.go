package jade

import (
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"jade/internal/core"
	"jade/internal/metrics"
	"jade/internal/report"
)

// An experiment is one `jadectl experiment` section: the runs it needs
// and the report that self-checks them and renders the section body.
// Entries sharing a name run together (`jadectl experiment ablations`).
type experiment struct {
	name, title string
	// runs builds the entry's Specs; nil when the report builds its own
	// platform or reads the paper pair.
	runs func(x *expEnv) ([]expRun, error)
	// report checks the finished runs and renders the section body; an
	// error is a failed self-check.
	report func(x *expEnv, rs []expRun) (string, error)
}

// expRun is one named run of an experiment and, once run, its result.
type expRun struct {
	name string
	spec Spec
	res  *ScenarioResult
}

// experiments is the paper's evaluation, in section order.
var experiments = []experiment{
	{name: "fig4", title: "Figure 4 — qualitative reconfiguration scenario",
		report: func(x *expEnv, _ []expRun) (string, error) { return figure4(x.Seed) }},
	paperFigure("fig5", "Figure 5 — dynamically adjusted number of replicas", (*PaperRuns).figure5),
	paperFigure("fig6", "Figure 6 — behavior of the database tier", (*PaperRuns).figure6),
	paperFigure("fig7", "Figure 7 — behavior of the application tier", (*PaperRuns).figure7),
	paperFigure("fig8", "Figure 8 — response time without Jade", (*PaperRuns).figure8),
	paperFigure("fig9", "Figure 9 — response time with Jade", (*PaperRuns).figure9),
	paperFigure("summary", "Scenario summary", (*PaperRuns).summary),
	{"churn", "Availability under churn — self-recovery manager", churnRuns, churnReport},
	{"netfault", "Managed recovery under network faults — loss, partitions, crashes", netFaultRuns, netFaultReport},
	{"grayfail", "Routing policies under gray failure — slow-but-alive replicas", grayFailRuns, grayFailReport},
	{"liveretune", "Live retune — runtime policy swap over the admin plane, zero restarts", liveRetuneRuns, liveRetuneReport},
	{"alertlat", "Alert latency — burn-rate/anomaly paging vs φ-accrual detection", alertLatRuns, alertLatReport},
	{"latbudget", "Latency budgets — per-tier attribution, critical path, run diff", latBudgetRuns, latBudgetReport},
	{"millionclient", "Million-client scale — hybrid fluid/discrete workload engine", millionClientRuns, millionClientReport},
	{"table1", "Table 1 — performance overhead (intrusivity)", table1Runs, table1Report},
	{"ablations", "Ablation — sensor smoothing", smoothingRuns, ablationReport("Moving-average window")},
	{"ablations", "Ablation — reconfiguration inhibition", inhibitionRuns, ablationReport("Inhibition window")},
	{"ablations", "Ablation — threshold sweep", thresholdRuns, ablationReport("CPU thresholds")},
	{"ablations", "Ablation — C-JDBC read policy", balancerPolicyRuns, ablationReport("Read balancing policy")},
	{name: "ablations", title: "Ablation — recovery-log replay", report: replayReport},
}

// sectionRule frames each section's title in the report.
const sectionRule = "================================================================"

// ExperimentOptions are the settings every experiment reads.
type ExperimentOptions struct {
	Seed int64
	// Speedup compresses the paper ramp of Figs. 5-9 (1 = the paper's
	// ~50-minute run, also what 0 means) and of the sizing ablations (at
	// least 2). A value outside 1/21 to 1200, other than 0, is an
	// error.
	Speedup float64
	// Quick shrinks the self-checking flagships for smoke runs.
	Quick bool
	// Logf, when set, reports progress.
	Logf func(format string, args ...any)
}

// expEnv is one `jadectl experiment` invocation's state: its options, a
// scratch root for runs that write artifacts, and the paper pair once a
// figure has run it.
type expEnv struct {
	ExperimentOptions
	tmp   string
	paper *PaperRuns
}

func (x *expEnv) logf(format string, args ...any) {
	if x.Logf != nil {
		x.Logf(format, args...)
	}
}

// RunExperiments runs the experiments named name ("all" for every one)
// in section order, writing each section to w, and stops at the first
// failed self-check. It returns the paper pair if a figure ran it. An
// unknown name is an error that lists the valid ones, and so is a speedup
// that checkSpeedup refuses; neither runs anything.
func RunExperiments(w io.Writer, name string, opt ExperimentOptions) (*PaperRuns, error) {
	names := []string{"all"}
	for _, e := range experiments {
		if names[len(names)-1] != e.name {
			names = append(names, e.name)
		}
	}
	if !slices.Contains(names, name) {
		return nil, fmt.Errorf("jade: unknown experiment %q (want one of %s)", name, strings.Join(names, ", "))
	}
	if err := checkSpeedup(opt.Speedup, minSpeedup); err != nil {
		return nil, err
	}
	if opt.Speedup == 0 {
		opt.Speedup = 1
	}
	tmp, err := os.MkdirTemp("", "jadectl-experiment-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	x := &expEnv{ExperimentOptions: opt, tmp: tmp}
	for i := range experiments {
		e := &experiments[i]
		if name != "all" && name != e.name {
			continue
		}
		x.logf("running %s...", e.title)
		_, body, err := e.run(x)
		if err != nil {
			return x.paper, err
		}
		fmt.Fprintf(w, "\n%s\n%s\n%s\n%s\n", sectionRule, e.title, sectionRule, body)
	}
	return x.paper, nil
}

// run builds the entry's runs, fans them out and hands them to its
// report.
func (e *experiment) run(x *expEnv) ([]expRun, string, error) {
	var rs []expRun
	if e.runs != nil {
		var err error
		if rs, err = e.runs(x); err != nil {
			return nil, "", err
		}
		if err := runAll(e.name, rs); err != nil {
			return nil, "", err
		}
	}
	body, err := e.report(x, rs)
	return rs, body, err
}

// maxSpeedup caps a ramp compression: at 1200 the paper's ramp climbs
// its 420 clients in one virtual second, the sensors' sampling period, so
// a faster ramp is one no manager sees. Far above it the ramp's step,
// int(21*speedup), overflows.
const maxSpeedup = 1200

// minSpeedup is the slowest compression an experiment takes as given: the
// ramp's step is int(21*speedup) clients per minute, and below 1/21 it
// truncates to 0, which a ProfileSpec reads as the paper's 21.
const minSpeedup = 1.0 / 21

// checkSpeedup refuses a ramp compression other than 0 (the paper's pace)
// outside [least, maxSpeedup]: the experiments pass minSpeedup, the sweep
// 0, since it reads anything up to 1 as 1. NaN is outside every range.
func checkSpeedup(speedup, least float64) error {
	if speedup == 0 || speedup >= least && speedup <= maxSpeedup {
		return nil
	}
	want := fmt.Sprintf("0 to %d (1 or less runs the paper's pace)", maxSpeedup)
	if least > 0 {
		want = fmt.Sprintf("0 (the paper's pace) or 1/21 to %d", maxSpeedup)
	}
	return fmt.Errorf("jade: speedup %g is out of range: want %s", speedup, want)
}

// runAll runs every Spec through RunSpec on fanOut's workers. Each run
// builds its own engine and platform, so results do not depend on the
// worker count, and the error reported is the lowest-index run's.
func runAll(experiment string, rs []expRun) error {
	errs := make([]error, len(rs))
	first := fanOut(len(rs), func(i int) bool {
		rs[i].res, errs[i] = RunSpec(rs[i].spec)
		return errs[i] != nil
	})
	if first < len(rs) {
		return fmt.Errorf("%s %q: %w", experiment, rs[first].name, errs[first])
	}
	return nil
}

// PaperRuns holds the pair of evaluation runs (with and without Jade)
// that Figures 5-9 are drawn from: both replay the §5.2 ramp workload on
// identical clusters; only the managed run has the two self-optimization
// control loops armed.
type PaperRuns struct {
	Managed   *ScenarioResult
	Unmanaged *ScenarioResult
	// Speedup is the time compression applied to the ramp (1 = the
	// paper's ~50-minute run; 5 = the same client trajectory five times
	// faster, for quick runs).
	Speedup float64
}

// compressedRamp is the paper's §5.2 ramp with its time axis compressed
// by speedup: the same client trajectory, and therefore the same
// saturation points, speedup times faster.
func compressedRamp(speedup float64) ProfileSpec {
	r := PaperRamp()
	return ProfileSpec{Kind: "ramp", StepPerMinute: int(float64(r.StepPerMinute) * speedup), HoldAtPeakSeconds: r.HoldAtPeak / speedup}
}

// paperSpec is one run of the paper pair: the §5.2 configuration with or
// without Jade on the ramp compressed speedup times.
func paperSpec(seed int64, managed bool, speedup float64) Spec {
	s := DefaultSpec(seed, managed)
	s.Workload.Profile = compressedRamp(speedup)
	return s
}

// runPaperScenario executes the managed and unmanaged runs. speedup
// compresses the ramp's time axis (1 reproduces the paper's ~3000 s run;
// the client trajectory, and therefore the saturation points, are
// unchanged).
func runPaperScenario(seed int64, speedup float64) (*PaperRuns, error) {
	rs := []expRun{{name: "managed", spec: paperSpec(seed, true, speedup)}, {name: "unmanaged", spec: paperSpec(seed, false, speedup)}}
	if err := runAll("paper", rs); err != nil {
		return nil, err
	}
	return &PaperRuns{Managed: rs[0].res, Unmanaged: rs[1].res, Speedup: speedup}, nil
}

// paperFigure is the entry of one section drawn from the paper pair,
// which the first such section runs and the rest reuse.
func paperFigure(name, title string, render func(*PaperRuns) string) experiment {
	return experiment{name: name, title: title, report: func(x *expEnv, _ []expRun) (string, error) {
		if x.paper == nil {
			pr, err := runPaperScenario(x.Seed, x.Speedup)
			if err != nil {
				return "", err
			}
			x.paper = pr
		}
		return render(x.paper), nil
	}}
}

// relativize shifts a series so the workload start is t=0, matching the
// paper's figures.
func relativize(s *Series, t0 float64) *Series {
	out := metrics.NewSeries(s.Name)
	for i := 0; i < s.Len(); i++ {
		p := s.Point(i)
		if p.T < t0 {
			continue
		}
		out.Add(p.T-t0, p.V)
	}
	return out
}

// figure5 renders the dynamically adjusted number of replicas over time
// for both tiers (paper Fig. 5).
func (pr *PaperRuns) figure5() string {
	m := pr.Managed
	c := &Chart{
		Title:  "Figure 5. Dynamically adjusted number of replicas",
		YLabel: "# of replicas",
		YMax:   4,
		Series: []ChartSeries{
			report.FromSeries(relativize(m.DB.Replicas, m.WorkloadStart), 'D'),
			report.FromSeries(relativize(m.App.Replicas, m.WorkloadStart), 'A'),
		},
	}
	out := c.Render()
	out += fmt.Sprintf("  peak replicas: database=%d application=%d; reconfigurations=%d\n",
		int(m.DB.Replicas.Max()), int(m.App.Replicas.Max()), m.Reconfigurations)
	return out
}

// tierFigure renders one tier's CPU behaviour with and without Jade,
// with thresholds and the replica count (paper Figs. 6 and 7).
func (pr *PaperRuns) tierFigure(title string, managed, unmanaged TierTrace, t0m, t0u float64) string {
	c := &Chart{
		Title:  title,
		YLabel: "CPU usage",
		YMax:   1.0,
		Series: []ChartSeries{
			report.FromSeries(relativize(unmanaged.CPUSmoothed, t0u), 'u'),
			report.FromSeries(relativize(managed.CPUSmoothed, t0m), '*'),
		},
		HLines: []HLine{
			{Name: fmt.Sprintf("max threshold (%.2f)", managed.Max), Value: managed.Max, Glyph: '='},
			{Name: fmt.Sprintf("min threshold (%.2f)", managed.Min), Value: managed.Min, Glyph: '-'},
		},
	}
	c.Series[0].Name = "CPU without Jade"
	c.Series[1].Name = "CPU with Jade (moving average)"
	out := c.Render()
	rep := &Chart{
		Title:  "replica count (with Jade)",
		Height: 5,
		YMax:   4,
		Series: []ChartSeries{report.FromSeries(relativize(managed.Replicas, t0m), '#')},
	}
	out += rep.Render()
	return out
}

// figure6 renders the database tier behaviour (paper Fig. 6).
func (pr *PaperRuns) figure6() string {
	return pr.tierFigure("Figure 6. Behavior of the database tier",
		pr.Managed.DB, pr.Unmanaged.DB,
		pr.Managed.WorkloadStart, pr.Unmanaged.WorkloadStart)
}

// figure7 renders the application tier behaviour (paper Fig. 7).
func (pr *PaperRuns) figure7() string {
	return pr.tierFigure("Figure 7. Behavior of the application tier",
		pr.Managed.App, pr.Unmanaged.App,
		pr.Managed.WorkloadStart, pr.Unmanaged.WorkloadStart)
}

// latencyFigure renders client latency and the workload profile.
func latencyFigure(title string, r *ScenarioResult) string {
	lat := metrics.NewSeries("latency (ms)")
	for i := 0; i < r.Stats.Latency.Len(); i++ {
		p := r.Stats.Latency.Point(i)
		if p.T < r.WorkloadStart {
			continue
		}
		lat.Add(p.T-r.WorkloadStart, p.V*1000)
	}
	wl := metrics.NewSeries("workload (# clients x100 ms)")
	for i := 0; i < r.Stats.Workload.Len(); i++ {
		p := r.Stats.Workload.Point(i)
		if p.T < r.WorkloadStart {
			continue
		}
		wl.Add(p.T-r.WorkloadStart, p.V*100)
	}
	c := &Chart{
		Title:  title,
		YLabel: "latency ms",
		Series: []ChartSeries{
			report.FromSeries(wl, 'w'),
			report.FromSeries(lat, '*'),
		},
	}
	s := r.Stats.LatencySummary()
	out := c.Render()
	out += fmt.Sprintf("  latency: mean=%.0f ms  p50=%.0f ms  p99=%.0f ms  max=%.0f ms  (%d requests)\n",
		s.Mean*1000, s.P50*1000, s.P99*1000, s.Max*1000, s.Count)
	return out
}

// figure8 renders response time without Jade (paper Fig. 8).
func (pr *PaperRuns) figure8() string {
	return latencyFigure("Figure 8. Response time without Jade", pr.Unmanaged)
}

// figure9 renders response time with Jade (paper Fig. 9).
func (pr *PaperRuns) figure9() string {
	return latencyFigure("Figure 9. Response time with Jade", pr.Managed)
}

// summary compares the headline numbers of the two runs — the paper's
// claim is a stable managed latency (~590 ms) versus a diverging
// unmanaged latency (~10.42 s average).
func (pr *PaperRuns) summary() string {
	m, u := pr.Managed.Stats.LatencySummary(), pr.Unmanaged.Stats.LatencySummary()
	t := &TextTable{
		Title:   "Paper scenario summary (ramp 80 -> 500 -> 80 clients)",
		Headers: []string{"", "with Jade", "without Jade"},
	}
	t.AddRow("Mean latency (ms)", fmt.Sprintf("%.0f", m.Mean*1000), fmt.Sprintf("%.0f", u.Mean*1000))
	t.AddRow("Max latency (ms)", fmt.Sprintf("%.0f", m.Max*1000), fmt.Sprintf("%.0f", u.Max*1000))
	t.AddRow("Completed requests", fmt.Sprintf("%d", pr.Managed.Stats.Completed),
		fmt.Sprintf("%d", pr.Unmanaged.Stats.Completed))
	t.AddRow("Failed requests", fmt.Sprintf("%d", pr.Managed.Stats.Failed),
		fmt.Sprintf("%d", pr.Unmanaged.Stats.Failed))
	t.AddRow("Peak db replicas", fmt.Sprintf("%.0f", pr.Managed.DB.Replicas.Max()), "1")
	t.AddRow("Peak app replicas", fmt.Sprintf("%.0f", pr.Managed.App.Replicas.Max()), "1")
	t.AddRow("Reconfigurations", fmt.Sprintf("%d", pr.Managed.Reconfigurations), "0")
	t.AddRow("Peak nodes used", fmt.Sprintf("%d", pr.Managed.PeakNodesUsed),
		fmt.Sprintf("%d", pr.Unmanaged.PeakNodesUsed))
	t.AddRow("Node-seconds", fmt.Sprintf("%.0f", pr.Managed.NodeSeconds),
		fmt.Sprintf("%.0f", pr.Unmanaged.NodeSeconds))
	out := t.Render()
	if u.Mean > 0 && m.Mean > 0 {
		out += fmt.Sprintf("latency improvement with Jade: %.1fx\n", u.Mean/m.Mean)
	}
	return out
}

// CSVs returns the figure data as named CSV documents for external
// plotting.
func (pr *PaperRuns) CSVs() map[string]string {
	m, u := pr.Managed, pr.Unmanaged
	return map[string]string{
		"figure5_replicas.csv": report.CSV(5,
			relativize(m.DB.Replicas, m.WorkloadStart),
			relativize(m.App.Replicas, m.WorkloadStart)),
		"figure6_db_cpu.csv": report.CSV(5,
			relativize(m.DB.CPUSmoothed, m.WorkloadStart),
			relativize(u.DB.CPUSmoothed, u.WorkloadStart)),
		"figure7_app_cpu.csv": report.CSV(5,
			relativize(m.App.CPUSmoothed, m.WorkloadStart),
			relativize(u.App.CPUSmoothed, u.WorkloadStart)),
		"figure8_latency_without.csv": report.CSV(5,
			relativize(u.Stats.Latency, u.WorkloadStart),
			relativize(u.Stats.Workload, u.WorkloadStart)),
		"figure9_latency_with.csv": report.CSV(5,
			relativize(m.Stats.Latency, m.WorkloadStart),
			relativize(m.Stats.Workload, m.WorkloadStart)),
	}
}

// table1Runs is the paper's intrusivity measurement (Table 1): a
// constant medium workload (80 clients, the paper scenario's base load)
// for 600 s, with Jade's managers armed and without Jade.
func table1Runs(x *expEnv) ([]expRun, error) {
	rs := []expRun{{name: "with Jade", spec: DefaultSpec(x.Seed, true)}, {name: "without Jade", spec: DefaultSpec(x.Seed, false)}}
	for i := range rs {
		rs[i].spec.Workload.Profile = ProfileSpec{Kind: "constant", Clients: 80, DurationSeconds: 600}
	}
	return rs, nil
}

// table1Report formats Table 1 as in the paper, after checking that no
// reconfiguration fired: the medium workload must be steady.
func table1Report(_ *expEnv, rs []expRun) (string, error) {
	w, wo := rs[0].res, rs[1].res
	if w.Reconfigurations != 0 {
		return "", fmt.Errorf("jade: table 1 run reconfigured %d times; the medium workload must be steady", w.Reconfigurations)
	}
	tb := &TextTable{
		Title:   "Table 1. Performance overhead",
		Headers: []string{"", "with Jade", "without Jade"},
	}
	tb.AddRow("Throughput (req./s)",
		fmt.Sprintf("%.0f", w.Throughput()), fmt.Sprintf("%.0f", wo.Throughput()))
	tb.AddRow("Resp.time (ms)",
		fmt.Sprintf("%.0f", w.MeanLatency()*1000), fmt.Sprintf("%.0f", wo.MeanLatency()*1000))
	tb.AddRow("CPU usage (%)",
		fmt.Sprintf("%.2f", w.NodeCPUPercent), fmt.Sprintf("%.2f", wo.NodeCPUPercent))
	tb.AddRow("Memory usage (%)",
		fmt.Sprintf("%.1f", w.NodeMemPercent), fmt.Sprintf("%.1f", wo.NodeMemPercent))
	return tb.Render(), nil
}

// recoverySpec is the self-recovery manager's run: managed with recovery
// at a constant 120 clients for length seconds.
func recoverySpec(seed int64, length float64) Spec {
	s := DefaultSpec(seed, true)
	s.Recovery = true
	s.Workload.Profile = ProfileSpec{Kind: "constant", Clients: 120, DurationSeconds: length}
	return s
}

// churnSpec is recoverySpec under random node crashes every mtbf seconds
// on average.
func churnSpec(seed int64, mtbf, length float64) Spec {
	s := recoverySpec(seed, length)
	s.Faults.MTBFSeconds = mtbf
	return s
}

// churnRuns is the self-recovery manager under random node crashes
// (MTBF 300 s) at a constant 120 clients for 1800 s.
func churnRuns(x *expEnv) ([]expRun, error) {
	return []expRun{{name: "churn", spec: churnSpec(x.Seed+10, 300, 1800)}}, nil
}

func churnReport(_ *expEnv, rs []expRun) (string, error) {
	r := rs[0].res
	total := float64(r.Stats.Completed + r.Stats.Failed)
	return fmt.Sprintf("MTBF 300 s over 1800 s at 120 clients:\n"+
		"  crashes injected:  %d\n  repairs completed: %d\n"+
		"  requests:          %d completed, %d failed\n"+
		"  availability:      %.4f\n",
		r.InjectedFailures, r.Repairs, r.Stats.Completed, r.Stats.Failed,
		float64(r.Stats.Completed)/total), nil
}

const figure4ADL = `<?xml version="1.0"?>
<definition name="fig4">
  <component name="apache1" wrapper="apache"/>
  <component name="tomcat1" wrapper="tomcat"/>
  <component name="tomcat2" wrapper="tomcat">
    <attribute name="ajp-port" value="8098"/>
  </component>
  <component name="cjdbc1" wrapper="cjdbc"/>
  <component name="mysql1" wrapper="mysql">
    <attribute name="dump" value="rubis"/>
  </component>
  <binding client="apache1.ajp" server="tomcat1.ajp"/>
  <binding client="tomcat1.jdbc" server="cjdbc1.jdbc"/>
  <binding client="tomcat2.jdbc" server="cjdbc1.jdbc"/>
  <binding client="cjdbc1.backends" server="mysql1.sql"/>
</definition>
`

// figure4 demonstrates the qualitative reconfiguration scenario (paper
// §5.1/Fig. 4): rebinding Apache1 from Tomcat1 to Tomcat2 as four
// operations on the management layer, returning a transcript with the
// regenerated worker.properties.
func figure4(seed int64) (string, error) {
	var b strings.Builder
	p := NewPlatform(PlatformOptions{Seed: seed, Nodes: 9})
	ds := Dataset{Regions: 5, Categories: 5, Users: 20, Items: 20, BidsPerItem: 1, CommentsPerUser: 1}
	dump, err := ds.InitialDatabase(seed)
	if err != nil {
		return "", err
	}
	p.RegisterDump("rubis", dump)
	def, err := ParseADL(figure4ADL)
	if err != nil {
		return "", err
	}
	var dep *Deployment
	derr := fmt.Errorf("jade: deployment did not complete")
	p.Deploy(def, func(d *Deployment, err error) { dep, derr = d, err })
	p.Eng.Run()
	if derr != nil {
		return "", derr
	}
	apache := dep.MustComponent("apache1")
	tomcat1 := dep.MustComponent("tomcat1")
	tomcat2 := dep.MustComponent("tomcat2")
	step := func(format string, args ...any) {
		fmt.Fprintf(&b, "[t=%7.1fs] %s\n", p.Eng.Now(), fmt.Sprintf(format, args...))
	}
	step("deployed %s; apache1 bound to tomcat1", def.Name)

	var serr error
	step("Apache1.stop()")
	p.StopComponent(apache, func(err error) { serr = err })
	p.Eng.Run()
	if serr != nil {
		return "", serr
	}
	step("Apache1.unbind(\"ajp-itf\")")
	if err := apache.Unbind("ajp", tomcat1.MustInterface("ajp")); err != nil {
		return "", err
	}
	step("Apache1.bind(\"ajp-itf\", tomcat2-itf)")
	if err := apache.Bind("ajp", tomcat2.MustInterface("ajp")); err != nil {
		return "", err
	}
	step("Apache1.start()")
	serr = fmt.Errorf("start never completed")
	p.StartComponent(apache, func(err error) { serr = err })
	p.Eng.Run()
	if serr != nil {
		return "", serr
	}
	step("reconfiguration complete")

	// Show the regenerated legacy configuration, as in the paper's text.
	aw := apache.Content().(*core.ApacheWrapper)
	raw, err := p.FS.ReadFile(aw.Server().WorkersPath())
	if err != nil {
		return "", err
	}
	b.WriteString("\nregenerated worker.properties:\n")
	b.Write(raw)
	return b.String(), nil
}
