// Command jadectl is the one front end of the Jade platform: it
// validates and deploys architecture descriptions on a simulated
// cluster, introspects the resulting component architecture, shows the
// legacy configuration files the wrappers generated, runs scenarios, and
// regenerates the paper's evaluation.
//
// Usage:
//
//	jadectl validate [-adl FILE]
//	jadectl deploy   [-adl FILE] [-seed N] [-nodes N] [-show-config] [-export]
//	jadectl scenario [-config FILE] [-seed N] [-clients N] [-duration SECONDS] [-pace X]
//	                 [-managed] [-sessions] [-recovery] [-fault.mtbf SECONDS]
//	                 [-route.policy NAME] [-route.l4 NAME] [-route.app NAME]
//	                 [-route.db NAME] [-route.probe-after S] [-route.half-life S]
//	                 [-net.enable] [-net.latency MS] [-net.jitter MS] [-net.loss P]
//	                 [-trace.chrome FILE] [-trace.jsonl FILE] [-trace.requests N]
//	                 [-metrics.dir DIR] [-metrics.interval SECONDS]
//	                 [-metrics.http ADDR] [-metrics.scrape-check] [-metrics.serve]
//	                 [-alerts] [-alert.off] [-alert.interval S] [-alert.fast S]
//	                 [-alert.slow S] [-alert.page-burn X] [-alert.warn-burn X]
//	                 [-alert.z X] [-alert.skew X] [-alert.hysteresis S]
//	                 [-alert.monitor]
//	jadectl config get [-addr HOST:PORT]
//	jadectl config set [-addr HOST:PORT] PATCH|@FILE|-
//	jadectl trace-validate FILE
//	jadectl diff [-tol X] [-slo-tol X] RUN_DIR_A RUN_DIR_B
//	jadectl experiment [-seed N] [-speedup X] [-quick] [-csv DIR] [-parallel N] [NAME]
//	jadectl sweep [-seeds N] [-speedup X] [-parallel N] [-artifact PATH]
//	jadectl replay FILE
//
// Without -adl, the built-in three-tier RUBiS architecture is used.
//
// config get/set talk to a live run's admin plane (a scenario started
// with -metrics.http, usually with -metrics.serve and -pace so the run
// is still going): get prints the refreshable-configuration document
// (/config), set posts a patch — a JSON literal, @FILE, or - for stdin
// — that the simulation validates and applies at its next drain tick.
// Rejections come back as structured field errors (the same paths
// Spec.Validate reports). See docs/CONFIG.md for the patch grammar.
//
// -pace slows the simulation to the given number of simulated seconds
// per wall-clock second so live reconfiguration can be exercised
// interactively; 0 (the default) runs as fast as possible.
//
// -route.policy picks the backend-selection policy every tier uses
// (round-robin, weighted-round-robin, least-pending, balanced,
// rendezvous); -route.l4/-route.app/-route.db override it per tier, and
// -route.probe-after/-route.half-life tune the shared selector pool.
//
// scenario flags are namespaced by concern (fault.*, route.*, net.*,
// trace.*, metrics.*); the pre-namespace spellings (-mtbf, -trace,
// -trace-jsonl, -trace-requests, -metrics-dir, -metrics-interval, -http,
// -scrape-check, -serve) are rejected as unknown flags.
//
// -config loads a grouped run spec (JSON, the jade.Spec schema — see
// examples/netfault.json); flags set explicitly on the command line
// override the file. A run whose spec enables invariant checking exits
// nonzero on the first violation.
//
// -net.enable routes every inter-tier call and heartbeat over the
// simulated network (per-link latency/jitter/loss, injectable
// partitions); with -recovery it also replaces the recovery manager's
// failure oracle with the φ-accrual heartbeat detector.
//
// -trace.chrome exports the run's telemetry bus in Chrome trace-event
// format (load it at ui.perfetto.dev); -trace.jsonl exports the raw
// events and spans one JSON object per line. trace-validate checks an
// exported Chrome trace against the trace-event schema.
//
// -metrics.dir writes the run's metrics history (metrics.jsonl, one JSON
// snapshot a line), its final snapshot (Prometheus text + JSON), the
// run's alert stream (alerts.jsonl) and incident reports
// (incidents.json), the SLO compliance report (slo_report.json), the
// per-tier latency budget (latency_budget.json) and the fluid-engine
// internals (fluid.json). -metrics.http serves the live admin endpoint
// (/metrics, /metrics.json, /healthz, /components, /loops, /alerts,
// /incidents, /fluid) while the scenario runs; -metrics.serve keeps it
// up afterwards, and -metrics.scrape-check makes jadectl scrape and
// validate its own endpoint after the run (the CI smoke check).
//
// diff compares two such artifact directories — latency budgets, SLO
// reports and final metrics snapshots — and emits a deterministic
// regression verdict: same-seed runs
// diff clean, and a localized slowdown is blamed on the responsible tier
// and latency component (e.g. app/queue). diff exits nonzero on
// regression, so it slots into CI.
//
// -alerts prints the run's alert and incident report (causal timelines
// included) after the SLO table. -alert.* tunes the alerting plane
// (burn-rate windows, anomaly z-score, pool-skew factor); -alert.off
// disables rule evaluation, and -alert.monitor arms the φ-accrual
// heartbeat detector as a pure signal source (requires -net.enable).
//
// experiment regenerates the paper's evaluation: every figure and table
// of §5, the flagship experiments and the ablation studies. NAME is one
// of fig4, fig5, fig6, fig7, fig8, fig9, summary, churn, netfault,
// grayfail, liveretune, alertlat, latbudget, millionclient, table1,
// ablations or all (the default). Each is an entry of the root package's
// experiment table (jade.RunExperiments): its runs plus a report that
// self-checks them and renders the section, so a failed claim exits
// nonzero. -speedup compresses the paper ramp; -quick shrinks the
// flagships for smoke runs; -csv writes the figure data of Figs. 5-9.
//
// sweep runs the invariant-checked chaos sweep (the Fig. 5 scenario under
// a crash/reboot/slow schedule) over seeds 1..N, writing the first
// violation and its run's whole Spec as an artifact; replay runs that Spec
// and exits nonzero unless the recorded checker and detail reproduce.
//
// -parallel fans independent runs (sweep seeds, each experiment's runs)
// over a worker pool; 0 uses GOMAXPROCS, and a negative count is refused.
// Results are byte-identical whatever the worker count, apart from
// millionclient's wall-clock rows.
// Host cost is measured by the repository benchmark (`go run
// ./benchmark`), not here.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"time"

	"jade"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "validate":
		err = cmdValidate(args)
	case "deploy":
		err = cmdDeploy(args)
	case "scenario":
		err = cmdScenario(args)
	case "config":
		err = cmdConfig(args)
	case "trace-validate":
		err = cmdTraceValidate(args)
	case "diff":
		err = cmdDiff(args)
	case "experiment":
		err = cmdExperiment(args)
	case "sweep":
		err = cmdSweep(args)
	case "replay":
		err = cmdReplay(args)
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "jadectl: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "jadectl: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  jadectl validate [-adl FILE]
  jadectl deploy   [-adl FILE] [-seed N] [-nodes N] [-show-config] [-export]
  jadectl scenario [-config FILE] [-seed N] [-clients N] [-duration SECONDS] [-pace X]
                   [-managed] [-sessions] [-recovery] [-fault.mtbf SECONDS]
                   [-route.policy NAME] [-route.l4 NAME] [-route.app NAME]
                   [-route.db NAME] [-route.probe-after S] [-route.half-life S]
                   [-net.enable] [-net.latency MS] [-net.jitter MS] [-net.loss P]
                   [-trace.chrome FILE] [-trace.jsonl FILE] [-trace.requests N]
                   [-metrics.dir DIR] [-metrics.interval SECONDS]
                   [-metrics.http ADDR] [-metrics.scrape-check] [-metrics.serve]
                   [-alerts] [-alert.off] [-alert.interval S] [-alert.fast S]
                   [-alert.slow S] [-alert.page-burn X] [-alert.warn-burn X]
                   [-alert.z X] [-alert.skew X] [-alert.hysteresis S]
                   [-alert.monitor]
  jadectl config get [-addr HOST:PORT]
  jadectl config set [-addr HOST:PORT] PATCH|@FILE|-
  jadectl trace-validate FILE
  jadectl diff [-tol X] [-slo-tol X] RUN_DIR_A RUN_DIR_B
  jadectl experiment [-seed N] [-speedup X] [-quick] [-csv DIR] [-parallel N] [NAME]
  jadectl sweep [-seeds N] [-speedup X] [-parallel N] [-artifact PATH]
  jadectl replay FILE`)
}

func loadADL(path string) (*jade.ADLDefinition, error) {
	text := jade.ThreeTierADL
	if path != "" {
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		text = string(raw)
	}
	return jade.ParseADL(text)
}

func cmdValidate(args []string) error {
	fs := flag.NewFlagSet("validate", flag.ExitOnError)
	adlPath := fs.String("adl", "", "architecture description file (default: built-in three-tier)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	def, err := loadADL(*adlPath)
	if err != nil {
		return err
	}
	p := jade.NewPlatform(jade.DefaultPlatformOptions())
	if err := def.Validate(wrapperSet(p)); err != nil {
		return err
	}
	fmt.Printf("%s: valid (%d components, %d bindings)\n",
		def.Name, len(def.AllComponents()), len(def.Bindings))
	for _, pc := range def.AllComponents() {
		where := pc.CompositePath
		if where == "" {
			where = "(top level)"
		}
		fmt.Printf("  %-12s wrapper=%-8s in %s\n", pc.Name, pc.Wrapper, where)
	}
	return nil
}

func wrapperSet(p *jade.Platform) map[string]bool {
	out := map[string]bool{}
	for _, k := range p.WrapperKinds() {
		out[k] = true
	}
	return out
}

func cmdDeploy(args []string) error {
	fs := flag.NewFlagSet("deploy", flag.ExitOnError)
	adlPath := fs.String("adl", "", "architecture description file (default: built-in three-tier)")
	seed := fs.Int64("seed", 1, "simulation seed")
	nodes := fs.Int("nodes", 9, "cluster pool size (at least 1)")
	showConfig := fs.Bool("show-config", false, "print the generated legacy configuration files")
	export := fs.Bool("export", false, "re-export the live architecture as an ADL document")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *nodes < 1 { // the platform would replace it with its default pool
		return fmt.Errorf("-nodes %d: want at least 1 node", *nodes)
	}
	def, err := loadADL(*adlPath)
	if err != nil {
		return err
	}
	opts := jade.DefaultPlatformOptions()
	opts.Seed = *seed
	opts.Nodes = *nodes
	p := jade.NewPlatform(opts)
	db, err := jade.DefaultDataset().InitialDatabase(*seed)
	if err != nil {
		return err
	}
	p.RegisterDump("rubis", db)

	var dep *jade.Deployment
	derr := fmt.Errorf("deployment did not complete")
	p.Deploy(def, func(d *jade.Deployment, err error) { dep, derr = d, err })
	p.Eng.Run()
	if derr != nil {
		return derr
	}
	fmt.Printf("deployed %s in %.1f simulated seconds\n\n", def.Name, p.Eng.Now())
	fmt.Println("management layer:")
	fmt.Println(dep.Describe())
	fmt.Println("node assignments:")
	for _, name := range dep.ComponentNames() {
		node, err := dep.NodeOf(name)
		if err != nil {
			continue
		}
		fmt.Printf("  %-12s -> %-8s (cpu %.0f%%, mem %.0f MB)\n",
			name, node.Name(), 100*node.BusyTotal()/max1(p.Eng.Now()), node.MemoryUsed())
	}
	if *showConfig {
		fmt.Println("\ngenerated legacy configuration files:")
		for _, path := range p.FS.List() {
			raw, err := p.FS.ReadFile(path)
			if err != nil {
				continue
			}
			fmt.Printf("\n--- %s ---\n%s", path, raw)
		}
	}
	if *export {
		text, err := dep.ExportADL().Render()
		if err != nil {
			return err
		}
		fmt.Println("\nre-exported architecture description:")
		fmt.Print(text)
	}
	return nil
}

func max1(v float64) float64 {
	if v <= 0 {
		return 1
	}
	return v
}

// scenarioArgs is a parsed `jadectl scenario` command line: the run's
// Spec and the options that act around the run.
type scenarioArgs struct {
	spec                           jade.Spec
	pace                           float64
	traceOut, traceJSONL           string
	scrapeCheck, serve, showAlerts bool
}

// parseScenario binds every spec flag to its field of one Spec. Without
// -config the flags' values, set or default, make up the spec; with
// -config the loaded file replaces the spec and the arguments are parsed
// a second time, so only the flags set explicitly override the file.
func parseScenario(fs *flag.FlagSet, args []string) (*scenarioArgs, error) {
	a := &scenarioArgs{spec: jade.DefaultSpec(1, true)}
	s := &a.spec
	configPath := fs.String("config", "", "grouped run spec (JSON, the jade.Spec schema); explicit flags override the file")
	fs.Int64Var(&s.Seed, "seed", 1, "simulation seed")
	clients := fs.Int("clients", 200, "constant client population")
	duration := fs.Float64("duration", 600, "workload duration (simulated seconds)")
	fs.BoolVar(&s.Managed, "managed", true, "arm the self-optimization managers")
	fs.Float64Var(&a.pace, "pace", 0, "pace the run to this many simulated seconds per wall second (0 = as fast as possible; useful with -metrics.http)")
	fs.StringVar(&a.traceOut, "trace.chrome", "", "write the telemetry bus as a Chrome trace-event file (Perfetto-loadable)")
	fs.StringVar(&a.traceJSONL, "trace.jsonl", "", "write the telemetry bus as JSONL (one event/span per line)")
	fs.BoolVar(&a.scrapeCheck, "metrics.scrape-check", false, "after the run, scrape the admin endpoint and validate the exposition (requires -metrics.http)")
	fs.BoolVar(&a.serve, "metrics.serve", false, "keep the admin endpoint serving the final pages after the run (requires -metrics.http; ctrl-C to exit)")
	fs.BoolVar(&a.showAlerts, "alerts", false, "print the run's alert and incident report after the SLO table")

	fs.BoolVar(&s.Workload.Sessions, "sessions", false, "use Markov sessions instead of i.i.d. interaction sampling")
	fs.BoolVar(&s.Recovery, "recovery", false, "arm the self-recovery manager")
	fs.StringVar(&s.Workload.Mode, "workload.mode", "", "workload engine: discrete|fluid|auto (empty = discrete)")
	fs.Float64Var(&s.Workload.FluidTickSeconds, "workload.tick", 0, "fluid model tick in simulated seconds (0 = default 1)")
	fs.Float64Var(&s.Workload.FluidSampleRate, "workload.sample-rate", 0, "fraction of clients kept as real discrete chains in fluid mode (0 = default 0.02)")
	fs.Float64Var(&s.Faults.MTBFSeconds, "fault.mtbf", 0, "inject node crashes with this mean time between failures (seconds; 0 = none)")
	fs.StringVar(&s.Routing.Policy, "route.policy", "", "routing policy for every tier: round-robin|weighted-round-robin|least-pending|balanced|rendezvous (empty = per-tier defaults)")
	fs.StringVar(&s.Routing.L4, "route.l4", "", "routing policy for the L4 switch (overrides -route.policy)")
	fs.StringVar(&s.Routing.App, "route.app", "", "routing policy for the PLB application tier (overrides -route.policy)")
	fs.StringVar(&s.Routing.DB, "route.db", "", "read policy for the C-JDBC database tier (overrides -route.policy)")
	fs.Float64Var(&s.Routing.ProbeAfterSeconds, "route.probe-after", 0, "seconds before a suspected-down backend is probed back in (0 = default)")
	fs.Float64Var(&s.Routing.HalfLifeSeconds, "route.half-life", 0, "half-life of the balanced policy's failure/latency reservoirs (seconds; 0 = default)")
	fs.BoolVar(&s.Faults.Network.Enabled, "net.enable", false, "route inter-tier calls and heartbeats over the simulated network")
	fs.Float64Var(&s.Faults.Network.Default.LatencyMS, "net.latency", 0.3, "default link latency (milliseconds)")
	fs.Float64Var(&s.Faults.Network.Default.JitterMS, "net.jitter", 0, "default link jitter (milliseconds)")
	fs.Float64Var(&s.Faults.Network.Default.Loss, "net.loss", 0, "default link loss probability, in [0,1)")
	fs.IntVar(&s.Telemetry.TraceRequests, "trace.requests", 0, "open a causal span for every N-th client request (0 = default 25 when tracing)")
	fs.StringVar(&s.Telemetry.MetricsDir, "metrics.dir", "", "write the metrics history (metrics.jsonl), the final snapshot (Prometheus text + JSON) and the run artifacts into this directory")
	fs.Float64Var(&s.Telemetry.MetricsIntervalSeconds, "metrics.interval", 60, "snapshot period in simulated seconds")
	fs.StringVar(&s.Telemetry.HTTPAddr, "metrics.http", "", "serve the live admin endpoint on this address (e.g. :8080 or 127.0.0.1:0)")
	fs.BoolVar(&s.Alerting.Off, "alert.off", false, "disable alerting-rule evaluation")
	fs.Float64Var(&s.Alerting.EvalIntervalSeconds, "alert.interval", 0, "alert evaluation period in simulated seconds (0 = default 5)")
	fs.Float64Var(&s.Alerting.FastWindowSeconds, "alert.fast", 0, "fast burn-rate window in simulated seconds (0 = default 60)")
	fs.Float64Var(&s.Alerting.SlowWindowSeconds, "alert.slow", 0, "slow burn-rate window in simulated seconds (0 = default 600)")
	fs.Float64Var(&s.Alerting.PageBurn, "alert.page-burn", 0, "error-budget burn rate that pages (0 = default 14.4)")
	fs.Float64Var(&s.Alerting.WarnBurn, "alert.warn-burn", 0, "error-budget burn rate that warns (0 = default 3)")
	fs.Float64Var(&s.Alerting.ZThreshold, "alert.z", 0, "anomaly z-score threshold (0 = default 4)")
	fs.Float64Var(&s.Alerting.SkewFactor, "alert.skew", 0, "pool-skew multiplier vs the pool median (0 = default 3)")
	fs.Float64Var(&s.Alerting.HysteresisSeconds, "alert.hysteresis", 0, "seconds an alert's condition must stay clear before it resolves (0 = default 30)")
	fs.BoolVar(&s.Alerting.MonitorReplicas, "alert.monitor", false, "arm the φ-accrual heartbeat detector as a signal source without recovery (requires -net.enable)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if (a.scrapeCheck || a.serve) && s.Telemetry.HTTPAddr == "" {
		return nil, fmt.Errorf("-metrics.scrape-check and -metrics.serve require -metrics.http")
	}

	profile := jade.ProfileSpec{Kind: "constant", Clients: *clients, DurationSeconds: *duration}
	if *configPath == "" {
		s.Workload.Profile = profile
	} else {
		loaded, err := jade.LoadSpec(*configPath)
		if err != nil {
			return nil, err
		}
		*s = loaded
		if err := fs.Parse(args); err != nil {
			return nil, err
		}
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "clients" || f.Name == "duration" {
				s.Workload.Profile = profile
			}
		})
	}
	if s.Telemetry.TraceRequests == 0 && (a.traceOut != "" || a.traceJSONL != "") {
		s.Telemetry.TraceRequests = 25
	}
	return a, nil
}

func cmdScenario(args []string) error {
	fs := flag.NewFlagSet("scenario", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: jadectl scenario [flags]")
		fs.PrintDefaults()
	}
	a, err := parseScenario(fs, args)
	if err != nil {
		return err
	}
	cfg, err := a.spec.Flatten()
	if err != nil {
		return err
	}
	cfg.Pace = a.pace
	if cfg.HTTPAddr != "" {
		cfg.AdminReady = func(addr string) {
			fmt.Fprintf(os.Stderr, "admin endpoint: http://%s/metrics\n", addr)
		}
	}
	fmt.Fprintf(os.Stderr, "running %s for %.0fs (managed=%v, network=%v)...\n",
		describeProfile(a.spec.Workload.Profile), cfg.Profile.Duration(), cfg.Managed, cfg.Net.Enabled)
	t0 := time.Now()
	r, err := jade.RunScenario(cfg)
	if err != nil {
		return err
	}
	wall := time.Since(t0).Seconds()
	processed := r.Platform.Eng.Processed()
	fmt.Fprintf(os.Stderr, "sim: %d events in %.2fs wall (%.0f events/s)\n",
		processed, wall, float64(processed)/wall)
	s := r.Stats.LatencySummary()
	fmt.Printf("completed: %d requests (%d failed)\n", r.Stats.Completed, r.Stats.Failed)
	fmt.Printf("throughput: %.1f req/s\n", r.Throughput())
	fmt.Printf("latency: mean %.0f ms, p50 %.0f ms, p99 %.0f ms, max %.0f ms\n",
		s.Mean*1000, s.P50*1000, s.P99*1000, s.Max*1000)
	fmt.Printf("db replicas: peak %.0f   app replicas: peak %.0f   reconfigurations: %d\n",
		r.DB.Replicas.Max(), r.App.Replicas.Max(), r.Reconfigurations)
	fmt.Printf("node usage: cpu %.1f%%, mem %.1f%% (averaged over component nodes)\n",
		r.NodeCPUPercent, r.NodeMemPercent)
	if r.InjectedFailures > 0 || r.Repairs > 0 {
		fmt.Printf("churn: %d crashes injected, %d repairs completed\n",
			r.InjectedFailures, r.Repairs)
	}
	if cfg.Net.Enabled {
		fmt.Printf("network: %d messages, %d delivered (dropped: %d loss, %d partition), %d RPCs (%d retransmits, %d abandoned), %d partitions injected\n",
			r.Net.Messages, r.Net.Delivered, r.Net.DroppedLoss, r.Net.DroppedPartition,
			r.Net.RPCs, r.Net.Retransmits, r.Net.Abandoned, r.Net.Partitions)
	}
	if r.Detector != nil {
		fmt.Printf("detector: %d suspicions (%d true, %d false, %d healed)",
			r.Detector.Suspicions, r.Detector.TruePositives, r.Detector.FalsePositives, r.Detector.Heals)
		if r.Detector.TruePositives > 0 {
			fmt.Printf(", mean detection latency %.1f s", r.Detector.MeanDetectionLatency())
		}
		fmt.Println()
	}
	if cfg.Invariants {
		fmt.Printf("invariants: %d checks, %d repair discards (%d confirmed legal)\n",
			r.InvariantChecks, r.RepairDiscards, r.RepairsConfirmedLegal)
	}
	fmt.Printf("\nSLO compliance:\n%s", r.SLOReport.Render())
	if a.showAlerts {
		fmt.Printf("\nAlerts and incidents:\n%s", r.Alerts.RenderText())
	}
	if err := writeTraces(r, a.traceOut, a.traceJSONL); err != nil {
		return err
	}
	if v := r.InvariantViolation; v != nil {
		return fmt.Errorf("invariant %q violated at t=%.1f (%s): %s", v.Checker, v.Time, v.Event, v.Detail)
	}
	if r.Admin != nil {
		defer r.Admin.Close()
	}
	if a.scrapeCheck {
		if err := scrapeAdmin(r, cfg.MetricsDir); err != nil {
			return err
		}
	}
	if a.serve {
		fmt.Fprintf(os.Stderr, "serving final pages on http://%s (ctrl-C to exit)\n", r.AdminAddr)
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt)
		<-ch
	}
	return nil
}

// describeProfile renders a workload profile spec for the progress line.
func describeProfile(ps jade.ProfileSpec) string {
	switch ps.Kind {
	case "constant":
		return fmt.Sprintf("%d clients", ps.Clients)
	case "", "paper-ramp":
		return "the paper ramp"
	}
	return ps.Kind + " profile"
}

// scrapeAdmin fetches the run's own admin endpoint and validates every
// exposition format plus the SLO report — the CI smoke check. With a
// metrics directory, the metrics history must validate line by line, its
// times never decreasing, and end with /metrics.json, and /metrics and
// /metrics.json must equal the run's final snapshot files, byte for byte
// (checkMetricsDir).
func scrapeAdmin(r *jade.ScenarioResult, metricsDir string) error {
	get := func(path string) ([]byte, error) {
		resp, err := http.Get("http://" + r.AdminAddr + path)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
		}
		return body, nil
	}
	prom, err := get("/metrics")
	if err != nil {
		return err
	}
	n, err := jade.ValidatePrometheusText(prom)
	if err != nil {
		return fmt.Errorf("/metrics: %w", err)
	}
	js, err := get("/metrics.json")
	if err != nil {
		return err
	}
	series, err := jade.ValidateMetricsJSON(js)
	if err != nil {
		return fmt.Errorf("/metrics.json: %w", err)
	}
	if metricsDir != "" {
		lines, err := checkMetricsDir(metricsDir, prom, js)
		if err != nil {
			return fmt.Errorf("scrape-check: %w", err)
		}
		fmt.Printf("scrape-check: %d snapshots (metrics.jsonl)\n", lines)
	}
	comp, err := get("/components")
	if err != nil {
		return err
	}
	nodes, err := jade.ValidateComponentsJSON(comp)
	if err != nil {
		return fmt.Errorf("/components: %w", err)
	}
	if _, err := get("/healthz"); err != nil {
		return err
	}
	if _, err := get("/loops"); err != nil {
		return err
	}
	alerts, err := get("/alerts")
	if err != nil {
		return err
	}
	if err := jade.ValidateAlertsPage(alerts); err != nil {
		return fmt.Errorf("/alerts: %w", err)
	}
	incidents, err := get("/incidents")
	if err != nil {
		return err
	}
	if err := jade.ValidateIncidentsJSON(incidents); err != nil {
		return fmt.Errorf("/incidents: %w", err)
	}
	fluid, err := get("/fluid")
	if err != nil {
		return err
	}
	if err := jade.ValidateFluidPage(fluid); err != nil {
		return fmt.Errorf("/fluid: %w", err)
	}
	evaluated := 0
	for _, o := range r.SLOReport.Objectives {
		evaluated += o.Intervals
	}
	if evaluated == 0 {
		return fmt.Errorf("scrape-check: SLO report has no evaluated intervals")
	}
	fmt.Printf("scrape-check: %d samples (/metrics), %d series (/metrics.json), %d components, %d SLO intervals — ok\n",
		n, series, nodes, evaluated)
	return nil
}

// checkMetricsDir checks a run's metrics directory against the pages its
// admin endpoint serves: the history validates and its last line is
// /metrics.json, and the final metrics-t* pair, named from that line's
// time as the run's artifact writer names it, holds /metrics and
// /metrics.json byte for byte. A pair another run left in the directory is
// not read, however its name sorts. It returns the history's line count.
func checkMetricsDir(dir string, prom, js []byte) (int, error) {
	last, lines, err := checkHistory(filepath.Join(dir, "metrics.jsonl"))
	if err != nil {
		return 0, err
	}
	if !bytes.Equal(last, js) {
		return 0, fmt.Errorf("/metrics.json differs from the last line of metrics.jsonl")
	}
	var page struct {
		Time float64 `json:"time"`
	}
	if err := json.Unmarshal(last, &page); err != nil {
		return 0, err
	}
	name := fmt.Sprintf("metrics-t%08d", int64(math.Round(page.Time)))
	for _, f := range []struct {
		path, ext string
		body      []byte
	}{{"/metrics", ".prom", prom}, {"/metrics.json", ".json", js}} {
		disk, err := os.ReadFile(filepath.Join(dir, name+f.ext))
		if err != nil {
			return 0, err
		}
		if !bytes.Equal(f.body, disk) {
			return 0, fmt.Errorf("%s differs from %s", f.path, name+f.ext)
		}
	}
	return lines, nil
}

// checkHistory validates every line of a metrics history as a metrics
// JSON page and checks that their times never decrease. It returns the
// last line, with its newline, and the number of lines.
func checkHistory(path string) ([]byte, int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	if len(data) == 0 || data[len(data)-1] != '\n' {
		return nil, 0, fmt.Errorf("%s: empty or not newline-terminated", path)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	lines = lines[:len(lines)-1] // SplitAfter's empty tail
	var prev float64
	for i, line := range lines {
		if _, err := jade.ValidateMetricsJSON(line); err != nil {
			return nil, 0, fmt.Errorf("%s line %d: %w", path, i+1, err)
		}
		var page struct {
			Time float64 `json:"time"`
		}
		if err := json.Unmarshal(line, &page); err != nil {
			return nil, 0, fmt.Errorf("%s line %d: %w", path, i+1, err)
		}
		if i > 0 && page.Time < prev {
			return nil, 0, fmt.Errorf("%s line %d: time %g after %g", path, i+1, page.Time, prev)
		}
		prev = page.Time
	}
	return lines[len(lines)-1], len(lines), nil
}

// writeTraces exports the run's telemetry bus in the requested formats.
func writeTraces(r *jade.ScenarioResult, chromePath, jsonlPath string) error {
	tr := r.Trace()
	if chromePath != "" {
		f, err := os.Create(chromePath)
		if err != nil {
			return err
		}
		if err := tr.WriteChromeTrace(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		st := tr.Stat()
		fmt.Printf("trace: %s (%d events, %d spans; load at ui.perfetto.dev)\n",
			chromePath, st.Events, st.Spans)
		warnTraceDrops(chromePath, st.SpansDropped, st.EventsEvicted, true)
	}
	if jsonlPath != "" {
		f, err := os.Create(jsonlPath)
		if err != nil {
			return err
		}
		if err := tr.WriteJSONL(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("trace: %s (JSONL)\n", jsonlPath)
	}
	return nil
}

// cmdConfig talks to a live run's admin /config endpoint: get fetches
// the refreshable-configuration document, set posts a patch that the
// simulation applies at its next drain tick.
func cmdConfig(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: jadectl config get|set [-addr HOST:PORT] [PATCH]")
	}
	sub, args := args[0], args[1:]
	fs := flag.NewFlagSet("config "+sub, flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "admin endpoint address (the -metrics.http address of the running scenario)")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: jadectl config %s [flags]", sub)
		if sub == "set" {
			fmt.Fprint(os.Stderr, " PATCH|@FILE|-")
		}
		fmt.Fprintln(os.Stderr)
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch sub {
	case "get":
		if fs.NArg() != 0 {
			return fmt.Errorf("usage: jadectl config get [-addr HOST:PORT]")
		}
		resp, err := http.Get("http://" + *addr + "/config")
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("GET /config: %s\n%s", resp.Status, body)
		}
		if _, err := jade.ParseConfigSnapshot(body); err != nil {
			return fmt.Errorf("GET /config: %w", err)
		}
		os.Stdout.Write(body)
		return nil
	case "set":
		if fs.NArg() != 1 {
			return fmt.Errorf("usage: jadectl config set [-addr HOST:PORT] PATCH|@FILE|-")
		}
		patch, err := readPatchArg(fs.Arg(0))
		if err != nil {
			return err
		}
		resp, err := http.Post("http://"+*addr+"/config", "application/json", bytes.NewReader(patch))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return err
		}
		os.Stdout.Write(body)
		if resp.StatusCode != http.StatusAccepted {
			return fmt.Errorf("POST /config: %s", resp.Status)
		}
		return nil
	default:
		return fmt.Errorf("unknown config subcommand %q (want get or set)", sub)
	}
}

// readPatchArg resolves a config patch argument: a literal JSON object,
// @FILE, or - for stdin.
func readPatchArg(arg string) ([]byte, error) {
	switch {
	case arg == "-":
		return io.ReadAll(os.Stdin)
	case len(arg) > 1 && arg[0] == '@':
		return os.ReadFile(arg[1:])
	default:
		return []byte(arg), nil
	}
}

func cmdTraceValidate(args []string) error {
	fs := flag.NewFlagSet("trace-validate", flag.ExitOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: jadectl trace-validate FILE")
	}
	path := fs.Arg(0)
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	n, err := jade.ValidateChromeTrace(raw)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	fmt.Printf("%s: valid Chrome trace (%d trace events)\n", path, n)
	dropped, evicted, ok := jade.ChromeTraceStats(raw)
	warnTraceDrops(path, dropped, evicted, ok)
	return nil
}

// warnTraceDrops reports an incomplete trace record: spans refused by a
// full span store or events evicted from the ring buffer (the same
// counters the run exports as jade_trace_dropped_spans_total /
// jade_trace_evicted_events_total). The record is still valid — but
// latency attribution over it would undercount, so say so.
func warnTraceDrops(path string, droppedSpans, evictedEvents uint64, ok bool) {
	if !ok {
		return
	}
	if droppedSpans > 0 {
		fmt.Fprintf(os.Stderr, "jadectl: warning: %s: %d spans were dropped (span store full) — the record is incomplete\n",
			path, droppedSpans)
	}
	if evictedEvents > 0 {
		fmt.Fprintf(os.Stderr, "jadectl: warning: %s: %d events were evicted from the ring buffer — early events are missing\n",
			path, evictedEvents)
	}
}
