// Command jadectl is the administration front end of the Jade platform:
// it validates and deploys architecture descriptions on a simulated
// cluster, introspects the resulting component architecture, and shows
// the legacy configuration files the wrappers generated.
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
// -metrics.dir writes periodic metrics snapshots (Prometheus text +
// JSON) plus the run's alert stream (alerts.jsonl) and incident reports
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
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"time"

	"jade"
	"jade/internal/cliutil"
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
  jadectl diff [-tol X] [-slo-tol X] RUN_DIR_A RUN_DIR_B`)
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
	nodes := fs.Int("nodes", 9, "cluster pool size")
	showConfig := fs.Bool("show-config", false, "print the generated legacy configuration files")
	export := fs.Bool("export", false, "re-export the live architecture as an ADL document")
	if err := fs.Parse(args); err != nil {
		return err
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

func cmdScenario(args []string) error {
	fs := flag.NewFlagSet("scenario", flag.ExitOnError)
	configPath := fs.String("config", "", "grouped run spec (JSON, the jade.Spec schema); explicit flags override the file")
	seed := fs.Int64("seed", 1, "simulation seed")
	clients := fs.Int("clients", 200, "constant client population")
	duration := fs.Float64("duration", 600, "workload duration (simulated seconds)")
	managed := fs.Bool("managed", true, "arm the self-optimization managers")
	pace := fs.Float64("pace", 0, "pace the run to this many simulated seconds per wall second (0 = as fast as possible; useful with -metrics.http)")
	traceOut := fs.String("trace.chrome", "", "write the telemetry bus as a Chrome trace-event file (Perfetto-loadable)")
	traceJSONL := fs.String("trace.jsonl", "", "write the telemetry bus as JSONL (one event/span per line)")
	scrapeCheck := fs.Bool("metrics.scrape-check", false, "after the run, scrape the admin endpoint and validate the exposition (requires -metrics.http)")
	serve := fs.Bool("metrics.serve", false, "keep the admin endpoint serving the final pages after the run (requires -metrics.http; ctrl-C to exit)")
	showAlerts := fs.Bool("alerts", false, "print the run's alert and incident report after the SLO table")
	specFlags := cliutil.RegisterSpecFlags(fs)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: jadectl scenario [flags]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	httpAddr := fs.Lookup("metrics.http").Value.String()
	if (*scrapeCheck || *serve) && httpAddr == "" {
		return fmt.Errorf("-metrics.scrape-check and -metrics.serve require -metrics.http")
	}

	spec := jade.DefaultSpec(*seed, *managed)
	spec.Workload.Profile = jade.ProfileSpec{Kind: "constant", Clients: *clients, DurationSeconds: *duration}
	apply := func(name string) {
		if specFlags.Apply(&spec, name) {
			return
		}
		switch name {
		case "seed":
			spec.Seed = *seed
		case "managed":
			spec.Managed = *managed
		case "clients", "duration":
			spec.Workload.Profile = jade.ProfileSpec{Kind: "constant", Clients: *clients, DurationSeconds: *duration}
		}
	}
	if *configPath != "" {
		loaded, err := jade.LoadSpec(*configPath)
		if err != nil {
			return err
		}
		spec = loaded
		fs.Visit(func(f *flag.Flag) { apply(f.Name) })
	} else {
		specFlags.ApplyAll(&spec)
	}
	if spec.Telemetry.TraceRequests == 0 && (*traceOut != "" || *traceJSONL != "") {
		spec.Telemetry.TraceRequests = 25
	}
	cfg, err := spec.Flatten()
	if err != nil {
		return err
	}
	cfg.Pace = *pace
	if cfg.HTTPAddr != "" {
		cfg.AdminReady = func(addr string) {
			fmt.Fprintf(os.Stderr, "admin endpoint: http://%s/metrics\n", addr)
		}
	}
	fmt.Fprintf(os.Stderr, "running %s for %.0fs (managed=%v, network=%v)...\n",
		describeProfile(spec.Workload.Profile), cfg.Profile.Duration(), cfg.Managed, cfg.Net.Enabled)
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
	if *showAlerts {
		fmt.Printf("\nAlerts and incidents:\n%s", r.Alerts.RenderText())
	}
	if err := writeTraces(r, *traceOut, *traceJSONL); err != nil {
		return err
	}
	if v := r.InvariantViolation; v != nil {
		return fmt.Errorf("invariant %q violated at t=%.1f (%s): %s", v.Checker, v.Time, v.Event, v.Detail)
	}
	if r.Admin != nil {
		defer r.Admin.Close()
	}
	if *scrapeCheck {
		if err := scrapeAdmin(r); err != nil {
			return err
		}
	}
	if *serve {
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
// exposition format plus the SLO report — the CI smoke check.
func scrapeAdmin(r *jade.ScenarioResult) error {
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
