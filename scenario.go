package jade

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"jade/internal/cluster"
	"jade/internal/core"
	"jade/internal/fluid"
	"jade/internal/fractal"
	"jade/internal/invariant"
	"jade/internal/metrics"
	"jade/internal/netsim"
	"jade/internal/obs"
	"jade/internal/obs/alert"
	"jade/internal/obs/attrib"
	"jade/internal/refresh"
	"jade/internal/selector"
	"jade/internal/trace"
)

// ScenarioConfig describes one end-to-end evaluation run: deploy the
// three-tier RUBiS application on a simulated cluster, subject it to a
// workload profile, optionally under Jade's autonomic managers.
type ScenarioConfig struct {
	// Seed drives all randomness; equal seeds give identical runs.
	Seed int64
	// Managed enables the self-optimization managers (the "with Jade"
	// runs); unmanaged runs keep the initial static configuration.
	Managed bool
	// Recovery additionally enables the self-recovery manager (it
	// requires Managed).
	Recovery bool
	// Profile is the client population profile (PaperRamp by default).
	Profile Profile
	// Mix is the interaction mix (BiddingMix by default).
	Mix *Mix
	// Dataset sizes the RUBiS database (DefaultDataset by default).
	Dataset *Dataset
	// ThinkTime is the mean client think time in seconds (7 by default).
	ThinkTime float64
	// Sessions switches the client emulator from independent stationary
	// sampling to RUBiS-style Markov sessions (DefaultTransitions).
	Sessions bool
	// WorkloadMode selects how client load exercises the tiers:
	// WorkloadDiscrete (default) simulates every request as a discrete
	// event chain; WorkloadFluid carries the bulk of the population as a
	// queue-theoretic rate flow (internal/fluid) on a coarse tick while a
	// sampled fraction keeps running as real request chains (traces,
	// exact percentiles, SLOs and alerts stay live); WorkloadAuto picks
	// fluid when the profile's peak population reaches FluidAutoClients.
	WorkloadMode string
	// FluidTick is the fluid model's virtual-time tick in seconds
	// (1 by default). Coarser ticks run faster but track ramps more
	// loosely.
	FluidTick float64
	// FluidSampleRate is the fraction of the client population kept as
	// real discrete request chains in fluid mode (0.02 by default).
	FluidSampleRate float64
	// FluidMinSampled floors the sampled population in fluid mode
	// (8 by default), so small phases still produce a live stream.
	FluidMinSampled int
	// NodeCPU overrides the per-node CPU capacity in abstract
	// CPU-seconds per second (1.0 by default, the paper's testbed
	// machine). Million-client runs use datacenter-class values.
	NodeCPU float64
	// MTBFSeconds, when positive, injects node crashes on random tier
	// replicas with exponentially distributed inter-failure times —
	// the availability-under-churn experiment for the self-recovery
	// manager (enable Recovery alongside).
	MTBFSeconds float64
	// Nodes is the cluster size (9 by default, as in the paper).
	Nodes int
	// AppSizing and DBSizing parameterize the two control loops.
	AppSizing, DBSizing SizingConfig
	// MaxAppReplicas / MaxDBReplicas cap the tiers (2 and 3 in the
	// paper's testbed).
	MaxAppReplicas, MaxDBReplicas int
	// ThrashThreshold / ThrashFactor configure the nodes' overload
	// regime (reproducing the database thrashing of Fig. 6/8). Zero
	// threshold disables thrashing.
	ThrashThreshold int
	ThrashFactor    float64
	// DrainSeconds extends the run after the profile ends so in-flight
	// work completes.
	DrainSeconds float64
	// ADL overrides the deployed architecture (ThreeTierADL by default).
	// It must contain plb1, tomcat1, cjdbc1 and mysql1.
	ADL string
	// Routing selects the per-tier backend-selection policies (the zero
	// value keeps each tier's historic default: weighted-round-robin L4,
	// round-robin PLB, least-pending C-JDBC reads).
	Routing RoutingConfig
	// AppReplicas / DBReplicas name the initial replica components of the
	// managed tiers (["tomcat1"] / ["mysql1"] by default). Every name
	// must exist in the deployed ADL; scenarios over wider architectures
	// (e.g. GrayFailureADL) list all their starting replicas here.
	AppReplicas, DBReplicas []string
	// Invariants enables the invariant-checking harness: the registered
	// checkers (C-JDBC consistency, node conservation, balancer
	// agreement, Fractal lifecycle, arbiter legality) run every virtual
	// second and at every reconfiguration boundary.
	// The first violation freezes the run at the violation instant and
	// is reported in ScenarioResult.InvariantViolation.
	Invariants bool
	// Arbitrate replaces the shared inhibitor with the conflict
	// arbitration manager: sizing actuates at PriorityOptimization,
	// recovery at PriorityRecovery, so repairs may preempt sizing's
	// quiet window but never the reverse.
	Arbitrate bool
	// Chaos is a declarative failure schedule (crash/reboot/slow/
	// partition events), applied relative to workload start. Unlike
	// MTBFSeconds it is fully deterministic: the same schedule and seed
	// reproduce the same run.
	Chaos invariant.Schedule
	// Net enables and configures the simulated network fabric: when
	// Net.Enabled, every inter-tier call and heartbeat becomes a message
	// with latency, jitter, loss and partitionability, tier RPCs gain
	// timeout/retry budgets, and (with Recovery) the perfect failure
	// oracle is replaced by the heartbeat suspicion detector.
	Net netsim.Config
	// ChaosHandler, when set, receives Chaos events whose Kind this
	// package does not implement and reports whether it handled them.
	// Tests use it to inject deliberately broken actuations.
	ChaosHandler func(res *ScenarioResult, ev invariant.Event) bool
	// TraceRequests, when positive, opens a causal root span for every
	// N-th client request (request -> forward -> app -> sql), bounding
	// the span store on long runs. Decision/actuation spans and the
	// management event stream are always recorded regardless.
	TraceRequests int
	// TraceOff disables the telemetry bus for this run. Sweeps and
	// benchmarks use it: instrumentation becomes near-free and the
	// simulation schedule is unchanged, but the result carries no trace
	// (violation artifacts lose their event tail).
	TraceOff bool
	// MetricsDir, when set, appends a JSON metrics snapshot to
	// metrics.jsonl every MetricsInterval virtual seconds, plus a final
	// snapshot at run end, and writes the final one in Prometheus text
	// and JSON format as metrics-t<time>.prom/.json.
	MetricsDir string
	// MetricsInterval is the snapshot period in virtual seconds (60 by
	// default). The snapshot ticker runs in every scenario regardless of
	// MetricsDir/HTTPAddr, so the event schedule never depends on whether
	// anyone is watching; page rendering is skipped when unused.
	MetricsInterval float64
	// HTTPAddr, when set (e.g. ":8080" or "127.0.0.1:0"), serves the live
	// admin endpoint for the duration of the run: /metrics, /metrics.json,
	// /healthz, /components and /loops. Handlers read only immutable pages
	// published by the simulation at snapshot ticks, so a scraper can
	// never perturb the run. The server stays up after RunScenario
	// returns (final pages published); close it via ScenarioResult.Admin.
	HTTPAddr string
	// AdminReady, when set with HTTPAddr, receives the bound address as
	// soon as the listener is up (useful with ephemeral ports).
	AdminReady func(addr string)
	// Alerting configures the burn-rate/anomaly alerting plane. The zero
	// value means enabled with defaults; set Alerting.Disabled to turn
	// rule evaluation off. The evaluation ticker runs either way and the
	// rules only read existing measurement streams, so the simulation
	// trajectory is identical with alerting on or off.
	Alerting alert.Config
	// Operator is the scripted live-configuration schedule: each event
	// applies a refreshable-config patch through the run's refresh hub at
	// an exact virtual time after workload start. Headless runs use it to
	// replay live retunes byte-identically.
	Operator OperatorSchedule
	// SLOTargets overrides DefaultSLOs' bounds by name at scenario start and
	// seeds the refreshable checks.slo_targets view, so /config patches
	// and operator events can retarget objectives mid-run.
	SLOTargets map[string]float64
	// Pace, when positive, slows the simulation to Pace virtual seconds
	// per wall-clock second (serve-mode only: it gives a human a real
	// window to curl the admin endpoint mid-run). The pacing callback
	// only sleeps — it never touches simulation state — but it does add
	// a once-per-virtual-second event, so paced runs are only
	// trajectory-comparable to other paced runs.
	Pace float64
	// Monitor arms the φ-accrual heartbeat detector purely as a signal
	// source even without Recovery: the initial app/db replicas are
	// watched, suspicions feed routing and the incident timelines, but
	// nothing repairs. Requires Net.Enabled; ignored when Recovery
	// already created a detector.
	Monitor bool
	// Logf receives management log lines (optional).
	Logf func(string, ...any)
}

// Workload modes (ScenarioConfig.WorkloadMode).
const (
	// WorkloadDiscrete simulates every client request as a discrete
	// event chain through the tiers (the default, and the seed's only
	// mode).
	WorkloadDiscrete = "discrete"
	// WorkloadFluid runs the hybrid fluid/discrete engine: tiers
	// exchange request rates and queue-theoretic latency/CPU estimates
	// each FluidTick, discrete events carry management actions, faults,
	// network messages and a sampled request stream.
	WorkloadFluid = "fluid"
	// WorkloadAuto selects fluid when the profile's peak population
	// reaches FluidAutoClients, discrete otherwise.
	WorkloadAuto = "auto"
)

// FluidAutoClients is the population at which WorkloadAuto switches
// from discrete to fluid: above a few thousand clients per-request
// event chains dominate the event budget, below it the discrete engine
// is both exact and fast enough.
const FluidAutoClients = 5000

// fluidCalibrationSamples is the Monte Carlo sample count used to
// calibrate the mix's mean per-request demand (Mix.FluidDemand).
const fluidCalibrationSamples = 4096

// fluid reports whether the run uses the fluid engine (its mode has been
// checked).
func (cfg *ScenarioConfig) fluid() bool {
	return cfg.WorkloadMode == WorkloadFluid ||
		cfg.WorkloadMode == WorkloadAuto && cfg.Profile.Max() >= FluidAutoClients
}

// sloInterval is the SLO evaluation window in virtual seconds.
const sloInterval = 10

// DefaultSLOs returns the service-level objectives every run evaluates:
// client p95 latency under 2 s, client abandon rate under 1%, and both
// managed tiers' smoothed CPU under 0.90 (just above the reactors' 0.80
// grow threshold, so sustained saturation shows up as non-compliance).
func DefaultSLOs() []SLObjective {
	return []SLObjective{
		{Name: "client-latency-p95", Tier: "client", Kind: obs.LatencyPercentile,
			Percentile: 0.95, Max: 2.0, Min: obs.Unbounded()},
		{Name: "client-abandon-rate", Tier: "client", Kind: obs.AbandonRate,
			Max: 0.01, Min: obs.Unbounded()},
		{Name: "app-cpu-band", Tier: "app", Kind: obs.CPUBand,
			Max: 0.90, Min: obs.Unbounded()},
		{Name: "db-cpu-band", Tier: "db", Kind: obs.CPUBand,
			Max: 0.90, Min: obs.Unbounded()},
	}
}

// appendWindow appends the series values with timestamps in [t0, t1) to
// dst, using binary search over the time-ordered points. A probe passes a
// slice of its own, so a window allocates nothing once the slice has grown.
func appendWindow(dst []float64, s *metrics.Series, t0, t1 float64) []float64 {
	if s == nil {
		return dst
	}
	n := s.Len()
	for i := sort.Search(n, func(i int) bool { return s.Point(i).T >= t0 }); i < n; i++ {
		p := s.Point(i)
		if p.T >= t1 {
			break
		}
		dst = append(dst, p.V)
	}
	return dst
}

// sortedKeys returns the map's keys in sorted order, so map-driven
// application loops stay deterministic.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// DefaultScenario returns the paper's §5.2 configuration. It is the one
// table of those defaults: DefaultSpec is derived from it, and
// withDefaults fills a zero knob from it.
func DefaultScenario(seed int64, managed bool) ScenarioConfig {
	return ScenarioConfig{
		Seed:            seed,
		Managed:         managed,
		Profile:         PaperRamp(),
		ThinkTime:       7,
		Nodes:           9,
		AppSizing:       AppSizingDefaults(),
		DBSizing:        DBSizingDefaults(),
		MaxAppReplicas:  2,
		MaxDBReplicas:   3,
		ThrashThreshold: 60,
		ThrashFactor:    0.08,
		DrainSeconds:    60,
	}
}

// TierTrace holds one tier's observability for the figures.
type TierTrace struct {
	// CPURaw is the per-second spatial average CPU usage.
	CPURaw *Series
	// CPUSmoothed is the moving average the reactor sees.
	CPUSmoothed *Series
	// Replicas is the replica count over time.
	Replicas *Series
	// Min and Max are the thresholds in force (0 when unmanaged).
	Min, Max float64
}

// ScenarioResult is everything the figures and tables read.
type ScenarioResult struct {
	Config ScenarioConfig

	// Stats are the client emulator's measurements (latency, workload,
	// throughput, per-interaction aggregates).
	Stats *WorkloadStats
	// App and DB trace the two managed tiers.
	App, DB TierTrace

	// NodeCPUPercent / NodeMemPercent are run averages across the nodes
	// hosting components (Table 1's resource columns).
	NodeCPUPercent float64
	NodeMemPercent float64

	// Reconfigurations counts completed grows+shrinks (0 unmanaged).
	Reconfigurations int
	// Repairs counts completed self-recovery repairs.
	Repairs uint64
	// InjectedFailures counts chaos-injected node crashes (MTBFSeconds).
	InjectedFailures int
	// PeakNodesUsed is the high-water mark of allocated nodes.
	PeakNodesUsed int
	// NodeSeconds integrates allocated nodes over the workload — the
	// resource bill the paper's dynamic provisioning reduces.
	NodeSeconds float64
	// WorkloadStart/WorkloadEnd delimit the emulation in virtual time.
	WorkloadStart, WorkloadEnd float64

	// InvariantViolation is the first invariant violation observed, or
	// nil (always nil when Invariants is off). A violation freezes the
	// simulation, so the series and stats end at the violation instant.
	InvariantViolation *invariant.Violation
	// InvariantChecks counts individual checker evaluations performed.
	InvariantChecks uint64

	// Net summarizes the simulated network's message accounting (all
	// zero when the fabric is disabled).
	Net netsim.Stats
	// Detector summarizes the suspicion detector's behavior — including
	// its mistakes (nil unless Recovery ran over an enabled fabric).
	Detector *netsim.DetectorStats
	// RepairDiscards / RepairsConfirmedLegal count replicas discarded by
	// repairs and how many of those discards the double-repair invariant
	// verified dead (only populated with Invariants on).
	RepairDiscards        int
	RepairsConfirmedLegal uint64

	// SLOReport is the post-run compliance report over the evaluated
	// objectives.
	SLOReport *obs.SLOReport
	// Alerts is the run's alerting plane: fired alerts, correlated
	// incidents, and the deterministic alerts.jsonl / incidents.json
	// exporters (never nil; empty when Alerting.Disabled).
	Alerts *alert.Engine
	// RequestLatency is the client-perceived end-to-end latency
	// histogram (exact quantiles via RequestLatency.Quantile).
	RequestLatency *obs.Histogram
	// Fluid is the fluid network's run summary when the run used
	// WorkloadFluid (nil in discrete mode): completed flow, peak offered
	// rate and per-station peak utilization/backlog.
	Fluid *FluidReport
	// Attribution decomposes every traced request's end-to-end latency
	// into per-tier queue/service/network/retry components (nil unless
	// TraceRequests > 0 and tracing is on).
	Attribution *attrib.Analysis
	// LatencyBudget aggregates Attribution into deterministic
	// per-interaction-class budget profiles with a critical-path
	// summary; in fluid mode the stations' wait estimates are merged in
	// so million-client runs render the same report shape (nil when
	// neither source is available).
	LatencyBudget *attrib.Report
	// ConfigChanges logs every live configuration change that reached the
	// refresh hub (operator schedule, chaos config events, admin POSTs),
	// in application order; rejected patches carry their error.
	ConfigChanges []ConfigChange
	// Admin is the live admin endpoint, still serving the final published
	// pages (nil without HTTPAddr). Callers own closing it.
	Admin *obs.AdminServer
	// AdminAddr is the admin endpoint's bound address ("" without
	// HTTPAddr).
	AdminAddr string

	// Platform and Deployment stay accessible for inspection.
	Platform   *Platform
	Deployment *Deployment
	AppManager *SizingManager
	DBManager  *SizingManager
}

// Trace returns the run's telemetry bus (events, spans, exporters).
func (r *ScenarioResult) Trace() *trace.Tracer { return r.Platform.Trace() }

// MeanLatency returns the mean request latency over the workload, in
// seconds.
func (r *ScenarioResult) MeanLatency() float64 {
	return r.Stats.LatencySummary().Mean
}

// Throughput returns completed requests per second over the workload.
func (r *ScenarioResult) Throughput() float64 {
	d := r.WorkloadEnd - r.WorkloadStart
	if d <= 0 {
		return 0
	}
	return float64(r.Stats.Completed) / d
}

// run is the state the stages of one RunScenario call share: what
// deployment produced, plus each plane's handle once its stage has built
// it. Stages run in runStages order on the simulation goroutine; every
// plane field is set by exactly one stage and read only by later ones.
type run struct {
	cfg ScenarioConfig // defaulted; management fills in the sizing caps
	res *ScenarioResult
	p   *Platform
	dep *Deployment
	// plb and cjdbc are the two balancer wrappers, resolved once.
	plb     *core.BalancerWrapper
	cjdbc   *core.CJDBCWrapper
	appTier *Tier
	dbTier  *Tier
	fabric  *netsim.Fabric // nil with cfg.Net disabled; its methods are nil-safe
	fluidOn bool

	detector *netsim.Detector   // management (with recovery) or monitoring; may stay nil
	arb      *core.Arbiter      // management; nil unless cfg.Arbitrate
	harness  *invariant.Harness // invariants; nil unless cfg.Invariants
	em       *Emulator          // workload
	fnet     *fluid.Network     // workload; nil in discrete mode
	slo      *obs.SLOEngine     // slo
	alerts   *alert.Engine      // alerting
	hub      *refresh.Hub       // liveConfig
	crt      *configRuntime     // liveConfig
	pub      *obs.Publisher     // liveConfig (it owns /config); publishing fills the rest

	// finish holds the stages' post-run steps, run in registration order
	// once the engine has reached the horizon.
	finish []func()
	// out is the artifact writer publishing starts when the run has a
	// sink (MetricsDir or HTTPAddr); nil otherwise.
	out *artifactWriter
}

// runStages is the run lifecycle: each stage wires one plane onto the
// deployed system, registers that plane's tickers and appends its
// finisher. The engine orders same-instant events by scheduling sequence
// and platform hooks fire in registration order, so this order is the
// event schedule; DESIGN.md "The run lifecycle" lists what it pins.
var runStages = []func(*run) error{
	(*run).management,
	(*run).monitoring,
	(*run).invariants,
	(*run).accounting,
	(*run).workload,
	(*run).sloEval,
	(*run).alerting,
	(*run).liveConfig,
	(*run).publishing,
	(*run).faults,
	(*run).pacing,
	(*run).churn,
}

// RunScenario executes one full evaluation run in virtual time.
func RunScenario(cfg ScenarioConfig) (*ScenarioResult, error) {
	r, err := newRun(cfg.withDefaults())
	if err != nil {
		return nil, err
	}
	for _, stage := range runStages {
		if err := stage(r); err != nil {
			return r.fail(err)
		}
	}
	r.p.Eng.RunUntil(r.res.WorkloadStart + r.cfg.Profile.Duration() + r.cfg.DrainSeconds)
	for _, fin := range r.finish {
		fin()
	}
	if err := r.drain(); err != nil {
		return r.fail(err)
	}
	return r.res, nil
}

// drain closes the artifact writer, if any, once everything is queued,
// and returns its first failed write. No writer outlives its run.
func (r *run) drain() error {
	if r.out == nil {
		return nil
	}
	err := r.out.close()
	r.out = nil
	return err
}

// fail abandons the run: the caller gets no result to close the admin
// endpoint through, so a listener that is already up is closed here,
// after the writer has stopped.
func (r *run) fail(err error) (*ScenarioResult, error) {
	r.drain()
	r.res.Admin.Close() // nil-safe
	return nil, err
}

// withDefaults returns cfg with every zero-valued knob that has a default
// replaced by it.
func (cfg ScenarioConfig) withDefaults() ScenarioConfig {
	def := DefaultScenario(cfg.Seed, cfg.Managed)
	if cfg.Profile == nil {
		cfg.Profile = def.Profile
	}
	if cfg.Mix == nil {
		cfg.Mix = BiddingMix()
	}
	if cfg.Dataset == nil {
		d := DefaultDataset()
		cfg.Dataset = &d
	}
	fill(&cfg.ThinkTime, def.ThinkTime)
	fill(&cfg.Nodes, def.Nodes)
	cfg.AppSizing = fillSizing(cfg.AppSizing, def.AppSizing)
	cfg.DBSizing = fillSizing(cfg.DBSizing, def.DBSizing)
	fill(&cfg.DrainSeconds, def.DrainSeconds)
	fill(&cfg.FluidTick, 1)
	fill(&cfg.FluidSampleRate, 0.02)
	fill(&cfg.FluidMinSampled, 8)
	fill(&cfg.NodeCPU, 1.0)
	fill(&cfg.ADL, ThreeTierADL)
	if len(cfg.AppReplicas) == 0 {
		cfg.AppReplicas = []string{"tomcat1"}
	}
	if len(cfg.DBReplicas) == 0 {
		cfg.DBReplicas = []string{"mysql1"}
	}
	fill(&cfg.MetricsInterval, 60)
	cfg.Alerting = cfg.Alerting.WithDefaults()
	return cfg
}

// fill replaces a zero value with its default.
func fill[T comparable](v *T, def T) {
	var zero T
	if *v == zero {
		*v = def
	}
}

// fillSizing defaults each zero field of a sizing loop separately, so a
// loop given only its thresholds keeps them.
func fillSizing(c, def SizingConfig) SizingConfig {
	fill(&c.Period, def.Period)
	fill(&c.Window, def.Window)
	fill(&c.Min, def.Min)
	fill(&c.Max, def.Max)
	fill(&c.InhibitSeconds, def.InhibitSeconds)
	return c
}

// check applies the field rules to the defaulted configuration, so each
// rule sees the number the run will use; failures carry the Spec's paths.
// It is the one door every run passes, from a Spec or not: Spec.Validate
// adds only the rules a ScenarioConfig cannot carry.
func (cfg *ScenarioConfig) check() error {
	var ve ValidationError
	checkLink := func(path string, l LinkConfig) {
		ve.nonNegative(path+".latency_ms", l.LatencyMS)
		ve.nonNegative(path+".jitter_ms", l.JitterMS)
		if l.Loss < 0 || l.Loss >= 1 {
			ve.addf(path+".loss", "must be within [0,1), got %g", l.Loss)
		}
	}
	checkLink("faults.network.default", cfg.Net.Default)
	for _, key := range sortedKeys(cfg.Net.Links) {
		path := "faults.network.links[" + key + "]"
		if from, to, ok := strings.Cut(key, "->"); !ok || from == "" || to == "" {
			ve.addf(path, `key must be "from->to" with both endpoints named`)
		}
		checkLink(path, cfg.Net.Links[key])
	}
	for i, ev := range cfg.Chaos {
		path := fmt.Sprintf("faults.chaos[%d]", i)
		ve.nonNegative(path+".at", ev.At)
		ve.nonNegative(path+".duration", ev.Duration)
		switch ev.Kind {
		case ChaosCrash, ChaosReboot, ChaosSlow, ChaosConfig:
		case ChaosHeal:
			if !cfg.Net.Enabled {
				ve.addf(path, "heal requires faults.network.enabled")
			}
		case ChaosPartition:
			if !cfg.Net.Enabled {
				ve.addf(path, "partition requires faults.network.enabled")
			}
			if len(ev.A) == 0 {
				ve.addf(path+".a", "must name at least one endpoint")
			}
		default:
			if cfg.ChaosHandler == nil {
				ve.addf(path+".kind", "unknown kind %q", ev.Kind)
			}
		}
	}
	// Every snapshot is one line of the metrics history, so the interval
	// bounds its growth at one line per simulated second.
	ve.nonNegative("telemetry.metrics_interval_seconds", cfg.MetricsInterval)
	if cfg.MetricsDir != "" && cfg.MetricsInterval >= 0 && cfg.MetricsInterval < 1 {
		ve.addf("telemetry.metrics_interval_seconds", "must be >= 1 with telemetry.metrics_dir (one history line per simulated second at most), got %g", cfg.MetricsInterval)
	}
	if cfg.Recovery && !cfg.Managed {
		ve.addf("recovery", "requires managed")
	}
	if cfg.Monitor && !cfg.Net.Enabled {
		ve.addf("alerting.monitor_replicas", "requires faults.network.enabled")
	}
	for i, ev := range cfg.Operator {
		ve.nonNegative(fmt.Sprintf("operator[%d].at", i), ev.At)
	}
	if d := cfg.Profile.Duration(); math.IsNaN(d) || math.IsInf(d, 0) {
		ve.addf("workload.profile", "duration must be finite, got %g", d)
	}
	ve.nonNegative("workload.think_time_seconds", cfg.ThinkTime)
	ve.nonNegative("workload.drain_seconds", cfg.DrainSeconds)
	switch cfg.WorkloadMode {
	case "", WorkloadDiscrete, WorkloadFluid, WorkloadAuto:
	default:
		ve.addf("workload.mode", "unknown workload mode %q (want discrete, fluid or auto)", cfg.WorkloadMode)
	}
	ve.nonNegative("workload.fluid_tick_seconds", cfg.FluidTick)
	if cfg.FluidSampleRate < 0 || cfg.FluidSampleRate > 1 {
		ve.addf("workload.fluid_sample_rate", "must be within [0,1], got %g", cfg.FluidSampleRate)
	}
	ve.nonNegative("workload.fluid_min_sampled", float64(cfg.FluidMinSampled))
	ve.nonNegative("sizing.nodes", float64(cfg.Nodes))
	ve.nonNegative("sizing.node_cpu", cfg.NodeCPU)
	ve.checkSizing("sizing.app", cfg.AppSizing)
	ve.checkSizing("sizing.db", cfg.DBSizing)
	ve.checkRouting(cfg.Routing)
	ve.checkRPC(cfg.Net.RPC)
	ve.checkSLOTargets(cfg.SLOTargets)
	ve.nonNegative("alerting.eval_interval_seconds", cfg.Alerting.EvalIntervalSeconds)
	ve.checkAlerting(cfg.Alerting)
	return ve.or()
}

// newRun checks the defaulted configuration, builds the platform (with
// the network fabric, when enabled), deploys the ADL and resolves the
// handles every stage works on.
func newRun(cfg ScenarioConfig) (*run, error) {
	if err := cfg.check(); err != nil {
		return nil, err
	}

	popts := core.DefaultOptions()
	popts.Seed = cfg.Seed
	popts.Nodes = cfg.Nodes
	popts.Routing = cfg.Routing
	popts.NodeConfig = cluster.Config{
		CPUCapacity:     cfg.NodeCPU,
		MemoryMB:        1024,
		ThrashThreshold: cfg.ThrashThreshold,
		ThrashFactor:    cfg.ThrashFactor,
	}
	if !cfg.Managed {
		// Without Jade there are no probes and no management components.
		popts.ProbeCPUCost = 0
		popts.ManagementMemoryMB = 0
	}
	if cfg.Logf != nil {
		popts.Logf = cfg.Logf
	}
	popts.TraceDisabled = cfg.TraceOff
	p := NewPlatform(popts)
	r := &run{cfg: cfg, p: p, fluidOn: cfg.fluid(), finish: make([]func(), 0, len(runStages))}

	// The network fabric goes in before deployment so even the initial
	// recovery-log joins travel over it.
	if cfg.Net.Enabled {
		r.fabric = netsim.New(p.Eng, cfg.Net, cfg.Seed)
		r.fabric.Instrument(p.Trace(), p.Metrics())
		p.Net.SetFabric(r.fabric)
	}

	dump, err := cfg.Dataset.InitialDatabase(cfg.Seed)
	if err != nil {
		return nil, err
	}
	p.RegisterDump("rubis", dump)

	def, err := ParseADL(cfg.ADL)
	if err != nil {
		return nil, err
	}
	derr := errors.New("jade: deployment did not complete")
	p.Deploy(def, func(d *Deployment, err error) { r.dep, derr = d, err })
	p.Eng.Run()
	if derr != nil {
		return nil, derr
	}

	if r.appTier, err = NewAppTier(p, r.dep, "plb1", "cjdbc1", cfg.AppReplicas); err != nil {
		return nil, err
	}
	if r.dbTier, err = NewDBTier(p, r.dep, "cjdbc1", cfg.DBReplicas); err != nil {
		return nil, err
	}
	var isPLB, isCJDBC bool
	r.plb, isPLB = r.dep.MustComponent("plb1").Content().(*core.BalancerWrapper)
	r.cjdbc, isCJDBC = r.dep.MustComponent("cjdbc1").Content().(*core.CJDBCWrapper)
	if !isPLB || r.plb.Kind() != "plb" || !isCJDBC {
		return nil, errors.New("jade: the ADL must deploy plb1 with the plb wrapper and cjdbc1 with the cjdbc wrapper")
	}

	r.res = &ScenarioResult{Config: cfg, Platform: p, Deployment: r.dep}
	r.res.App.Min, r.res.App.Max = cfg.AppSizing.Min, cfg.AppSizing.Max
	r.res.DB.Min, r.res.DB.Max = cfg.DBSizing.Min, cfg.DBSizing.Max
	return r, nil
}

// appPool returns the PLB's live backend pool (nil while the balancer is
// stopped).
func (r *run) appPool() *selector.Pool {
	if b := r.plb.Balancer(); b != nil {
		return b.Pool()
	}
	return nil
}

// dbPool returns the C-JDBC controller's live backend pool (nil while the
// controller is stopped).
func (r *run) dbPool() *selector.Pool {
	if ctl := r.cjdbc.Controller(); ctl != nil {
		return ctl.Pool()
	}
	return nil
}

// scenarioProbe returns the standard probe for an objective's Kind/Tier,
// reading the scenario's own measurement streams over [t0, t1).
func scenarioProbe(obj *SLObjective, em *Emulator, res *ScenarioResult) func(t0, t1 float64) (float64, bool) {
	switch obj.Kind {
	case obs.LatencyPercentile:
		pct := obj.Percentile
		var buf []float64
		return func(t0, t1 float64) (float64, bool) {
			vs := appendWindow(buf[:0], em.Stats().Latency, t0, t1)
			buf = vs
			if len(vs) == 0 {
				return 0, false
			}
			sort.Float64s(vs)
			return metrics.Percentile(vs, pct), true
		}
	case obs.AbandonRate:
		var prevC, prevF uint64
		return func(t0, t1 float64) (float64, bool) {
			st := em.Stats()
			dc, df := st.Completed-prevC, st.Failed-prevF
			prevC, prevF = st.Completed, st.Failed
			if dc+df == 0 {
				return 0, false
			}
			return float64(df) / float64(dc+df), true
		}
	case obs.CPUBand:
		var s *Series
		switch obj.Tier {
		case "app":
			s = res.App.CPUSmoothed
		case "db":
			s = res.DB.CPUSmoothed
		}
		var buf []float64
		return func(t0, t1 float64) (float64, bool) {
			vs := appendWindow(buf[:0], s, t0, t1)
			buf = vs
			if len(vs) == 0 {
				return 0, false
			}
			return metrics.SpatialMean(vs), true
		}
	}
	return func(float64, float64) (float64, bool) { return 0, false }
}

// Introspection document schemas.
const (
	// ComponentsSchema identifies the /components Fractal-tree document.
	ComponentsSchema = "jade-components/v1"
	// LoopsSchema identifies the /loops control-loop status document.
	LoopsSchema = "jade-loops/v1"
	// FluidSchema identifies the /fluid workload-engine document.
	FluidSchema = "jade-fluid/v1"
)

// fluidStationDoc is one station's row on the /fluid page.
type fluidStationDoc struct {
	Name        string  `json:"name"`
	Rho         float64 `json:"rho"`
	Backlog     float64 `json:"backlog"`
	WaitSec     float64 `json:"wait_sec"`
	SvcSec      float64 `json:"svc_sec"`
	PeakRho     float64 `json:"peak_rho"`
	PeakBacklog float64 `json:"peak_backlog"`
	PeakWaitSec float64 `json:"peak_wait_sec"`
}

// fluidPage renders the fluid workload engine's internals: the offered
// rate, response estimate, and every station's ρ/backlog/wait with
// peaks. Discrete runs serve the same document with Enabled false, so
// scrapers need no mode awareness.
func fluidPage(now float64, fnet *fluid.Network) []byte {
	doc := struct {
		Schema      string            `json:"schema"`
		Time        float64           `json:"time"`
		Enabled     bool              `json:"enabled"`
		RatePerSec  float64           `json:"rate_per_sec"`
		ResponseSec float64           `json:"response_sec"`
		Completed   float64           `json:"completed"`
		Stations    []fluidStationDoc `json:"stations"`
	}{Schema: FluidSchema, Time: now, Stations: []fluidStationDoc{}}
	if fnet != nil {
		doc.Enabled = true
		doc.RatePerSec = fnet.Rate()
		doc.ResponseSec = fnet.Response()
		doc.Completed = fnet.Completed()
		for _, s := range fnet.Stations() {
			doc.Stations = append(doc.Stations, fluidStationDoc{
				Name:        s.Name,
				Rho:         s.Rho(),
				Backlog:     s.Backlog(),
				WaitSec:     s.Wait(),
				SvcSec:      s.Svc(),
				PeakRho:     s.PeakRho(),
				PeakBacklog: s.PeakBacklog(),
				PeakWaitSec: s.PeakWait(),
			})
		}
	}
	b, _ := json.MarshalIndent(doc, "", "  ")
	return append(b, '\n')
}

// ValidateFluidPage checks a jade-fluid/v1 document (/fluid,
// fluid.json): schema, non-negative station figures, and names present
// whenever the engine is enabled.
func ValidateFluidPage(doc []byte) error {
	var page struct {
		Schema   string            `json:"schema"`
		Enabled  bool              `json:"enabled"`
		Stations []fluidStationDoc `json:"stations"`
	}
	if err := json.Unmarshal(doc, &page); err != nil {
		return fmt.Errorf("fluid: not valid JSON: %w", err)
	}
	if page.Schema != FluidSchema {
		return fmt.Errorf("fluid: schema %q, want %q", page.Schema, FluidSchema)
	}
	if page.Stations == nil {
		return fmt.Errorf("fluid: missing stations array")
	}
	if page.Enabled && len(page.Stations) == 0 {
		return fmt.Errorf("fluid: enabled engine published no stations")
	}
	for i, s := range page.Stations {
		if s.Name == "" {
			return fmt.Errorf("fluid: stations[%d]: missing name", i)
		}
		if s.Rho < 0 || s.Backlog < 0 || s.WaitSec < 0 || s.PeakRho < s.Rho || s.PeakWaitSec < 0 {
			return fmt.Errorf("fluid: stations[%d] %s: implausible figures (rho=%g peak=%g wait=%g)",
				i, s.Name, s.Rho, s.PeakRho, s.WaitSec)
		}
	}
	return nil
}

// fluidBudgetTiers renders the fluid stations' current wait estimates
// in latency-budget form (queue = wait − ideal service), so fluid and
// discrete runs share one report shape.
func fluidBudgetTiers(fnet *fluid.Network) []attrib.FluidTier {
	if fnet == nil {
		return nil
	}
	out := make([]attrib.FluidTier, 0, len(fnet.Stations()))
	for _, s := range fnet.Stations() {
		q := s.Wait() - s.Svc()
		if q < 0 {
			q = 0
		}
		out = append(out, attrib.FluidTier{
			Station:    s.Name,
			Rho:        s.Rho(),
			PeakRho:    s.PeakRho(),
			QueueSec:   q,
			ServiceSec: s.Svc(),
			PeakSec:    s.PeakWait(),
		})
	}
	return out
}

// componentsPage renders the deployed application and management trees.
func componentsPage(now float64, dep *Deployment, p *Platform) []byte {
	doc := struct {
		Schema string         `json:"schema"`
		Time   float64        `json:"time"`
		Roots  []fractal.View `json:"roots"`
	}{ComponentsSchema, now, []fractal.View{dep.Root.View(), p.ManagementRoot().View()}}
	b, _ := json.MarshalIndent(doc, "", "  ")
	return append(b, '\n')
}

// loopsPage renders the sizing control loops' live status.
func loopsPage(now float64, res *ScenarioResult) []byte {
	loops := []obs.LoopStatus{}
	if res.AppManager != nil {
		loops = append(loops, res.AppManager.Status(now))
	}
	if res.DBManager != nil {
		loops = append(loops, res.DBManager.Status(now))
	}
	doc := struct {
		Schema string           `json:"schema"`
		Time   float64          `json:"time"`
		Loops  []obs.LoopStatus `json:"loops"`
	}{LoopsSchema, now, loops}
	b, _ := json.MarshalIndent(doc, "", "  ")
	return append(b, '\n')
}

// healthPage renders the liveness + compliance document: the status
// degrades to "degraded" (with the burning objective names) while any
// SLO objective's latest evaluated window missed its bound.
func healthPage(now float64, p *Platform, dep *Deployment, harness *invariant.Harness, slo *obs.SLOEngine, aeng *alert.Engine) []byte {
	violation := harness != nil && harness.Violation() != nil
	return obs.RenderHealth(now, p.Eng.Processed(), len(dep.ComponentNames()),
		violation, slo.Burning(), aeng.ActiveCount())
}

// resolveEndpoints maps a chaos partition group to fabric endpoint
// names: component names resolve to their current node, anything else
// (node names, "client", "jade") passes through literally.
func resolveEndpoints(dep *Deployment, names []string) []string {
	out := make([]string, 0, len(names))
	for _, name := range names {
		if node, err := dep.NodeOf(name); err == nil {
			out = append(out, node.Name())
			continue
		}
		out = append(out, name)
	}
	return out
}
