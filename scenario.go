package jade

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"jade/internal/cjdbc"
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
	"jade/internal/rubis"
	"jade/internal/selector"
	"jade/internal/sim"
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
	// Recovery additionally enables the self-recovery manager.
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
	// FailAt (with FailComponent) crashes a component's node at the
	// given time after the workload starts; used by the self-recovery
	// demonstrations.
	FailAt        float64
	FailComponent string
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
	// agreement, Fractal lifecycle, arbiter legality) run every
	// InvariantPeriod seconds and at every reconfiguration boundary.
	// The first violation freezes the run at the violation instant and
	// is reported in ScenarioResult.InvariantViolation.
	Invariants bool
	// InvariantPeriod is the harness ticker period (1 s by default).
	InvariantPeriod float64
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
	// MetricsDir, when set, writes a metrics snapshot in Prometheus text
	// and JSON format (metrics-t<time>.prom/.json) every MetricsInterval
	// virtual seconds, plus a final snapshot at run end.
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
	// SLOs overrides the evaluated service-level objectives
	// (DefaultSLOs() when nil). Objectives without a Probe get the
	// standard scenario probe for their Kind/Tier.
	SLOs []SLObjective
	// SLOInterval is the objective evaluation window in virtual seconds
	// (10 by default).
	SLOInterval float64
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
	// SLOTargets overrides objective bounds by name at scenario start and
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

// resolveWorkloadMode maps a ScenarioConfig mode string to the fluid
// on/off decision.
func resolveWorkloadMode(mode string, profile Profile) (bool, error) {
	switch mode {
	case "", WorkloadDiscrete:
		return false, nil
	case WorkloadFluid:
		return true, nil
	case WorkloadAuto:
		return profile.Max() >= FluidAutoClients, nil
	}
	return false, fmt.Errorf("jade: unknown workload mode %q (want discrete, fluid or auto)", mode)
}

// DefaultSLOs returns the paper scenario's service-level objectives:
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

// windowValues returns the series values with timestamps in [t0, t1),
// using binary search over the time-ordered points.
func windowValues(s *metrics.Series, t0, t1 float64) []float64 {
	if s == nil || len(s.Points) == 0 {
		return nil
	}
	pts := s.Points
	lo := sort.Search(len(pts), func(i int) bool { return pts[i].T >= t0 })
	var out []float64
	for _, p := range pts[lo:] {
		if p.T >= t1 {
			break
		}
		out = append(out, p.V)
	}
	return out
}

// sortedKeys returns the map's keys in sorted order, so map-driven
// application loops stay deterministic.
func sortedKeys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// DefaultScenario returns the paper's §5.2 configuration.
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

// RunScenario executes one full evaluation run in virtual time.
func RunScenario(cfg ScenarioConfig) (*ScenarioResult, error) {
	if cfg.Profile == nil {
		cfg.Profile = PaperRamp()
	}
	if cfg.Mix == nil {
		cfg.Mix = BiddingMix()
	}
	if cfg.Dataset == nil {
		d := DefaultDataset()
		cfg.Dataset = &d
	}
	if cfg.ThinkTime == 0 {
		cfg.ThinkTime = 7
	}
	if cfg.Nodes == 0 {
		cfg.Nodes = 9
	}
	if cfg.AppSizing.Period == 0 {
		cfg.AppSizing = AppSizingDefaults()
	}
	if cfg.DBSizing.Period == 0 {
		cfg.DBSizing = DBSizingDefaults()
	}
	if cfg.DrainSeconds == 0 {
		cfg.DrainSeconds = 60
	}
	if cfg.FluidTick == 0 {
		cfg.FluidTick = 1
	}
	if cfg.FluidSampleRate == 0 {
		cfg.FluidSampleRate = 0.02
	}
	if cfg.FluidMinSampled == 0 {
		cfg.FluidMinSampled = 8
	}
	if cfg.NodeCPU == 0 {
		cfg.NodeCPU = 1.0
	}
	fluidOn, err := resolveWorkloadMode(cfg.WorkloadMode, cfg.Profile)
	if err != nil {
		return nil, err
	}
	if cfg.FluidTick < 0 || cfg.FluidSampleRate < 0 || cfg.FluidSampleRate > 1 || cfg.NodeCPU < 0 {
		return nil, fmt.Errorf("jade: bad fluid parameters (tick %g, sample rate %g, node cpu %g)",
			cfg.FluidTick, cfg.FluidSampleRate, cfg.NodeCPU)
	}

	if err := cfg.Routing.Validate(); err != nil {
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

	// The network fabric goes in before deployment so even the initial
	// recovery-log joins travel over it.
	var fabric *netsim.Fabric
	if cfg.Net.Enabled {
		fabric = netsim.New(p.Eng, cfg.Net, cfg.Seed)
		fabric.Instrument(p.Trace(), p.Metrics())
		p.Net.SetTransport(fabric)
	}

	dump, err := cfg.Dataset.InitialDatabase(cfg.Seed)
	if err != nil {
		return nil, err
	}
	p.RegisterDump("rubis", dump)

	adlText := cfg.ADL
	if adlText == "" {
		adlText = ThreeTierADL
	}
	def, err := ParseADL(adlText)
	if err != nil {
		return nil, err
	}
	var dep *Deployment
	derr := errors.New("jade: deployment did not complete")
	p.Deploy(def, func(d *Deployment, err error) { dep, derr = d, err })
	p.Eng.Run()
	if derr != nil {
		return nil, derr
	}

	appReplicas := cfg.AppReplicas
	if len(appReplicas) == 0 {
		appReplicas = []string{"tomcat1"}
	}
	dbReplicas := cfg.DBReplicas
	if len(dbReplicas) == 0 {
		dbReplicas = []string{"mysql1"}
	}
	appTier, err := NewAppTier(p, dep, "plb1", "cjdbc1", appReplicas)
	if err != nil {
		return nil, err
	}
	dbTier, err := NewDBTier(p, dep, "cjdbc1", dbReplicas)
	if err != nil {
		return nil, err
	}

	res := &ScenarioResult{Config: cfg, Platform: p, Deployment: dep}
	res.App.Min, res.App.Max = cfg.AppSizing.Min, cfg.AppSizing.Max
	res.DB.Min, res.DB.Max = cfg.DBSizing.Min, cfg.DBSizing.Max

	shared := &Inhibitor{}
	var recMgr *RecoveryManager
	var detector *netsim.Detector
	var arb *core.Arbiter
	if cfg.Managed {
		cfg.AppSizing.MaxReplicas = cfg.MaxAppReplicas
		cfg.DBSizing.MaxReplicas = cfg.MaxDBReplicas
		appMgr, err := NewSizingManager(p, "self-optimization-app", appTier, cfg.AppSizing, shared)
		if err != nil {
			return nil, err
		}
		dbMgr, err := NewSizingManager(p, "self-optimization-db", dbTier, cfg.DBSizing, shared)
		if err != nil {
			return nil, err
		}
		if cfg.Arbitrate {
			arb = core.NewArbiter(cfg.AppSizing.InhibitSeconds)
			arb.Trace = p.Trace()
			appMgr.Reactor.Arbiter = arb
			dbMgr.Reactor.Arbiter = arb
		}
		if err := appMgr.Loop.Start(); err != nil {
			return nil, err
		}
		if err := dbMgr.Loop.Start(); err != nil {
			return nil, err
		}
		res.AppManager, res.DBManager = appMgr, dbMgr
		res.App.CPURaw, res.App.CPUSmoothed = appMgr.Sensor.Raw, appMgr.Sensor.Smoothed
		res.DB.CPURaw, res.DB.CPUSmoothed = dbMgr.Sensor.Raw, dbMgr.Sensor.Smoothed
		res.App.Replicas = appMgr.Replicas
		res.DB.Replicas = dbMgr.Replicas
		if cfg.Recovery {
			rec, err := NewRecoveryManager(p, "self-recovery", 1, appTier, dbTier)
			if err != nil {
				return nil, err
			}
			if arb != nil {
				rec.Arbiter = arb
			}
			if fabric.Enabled() {
				// With a real network the perfect oracle gives way to the
				// heartbeat suspicion detector: detection is now late and
				// sometimes wrong, as on the paper's LAN.
				det := netsim.NewDetector(p.Eng, fabric, cfg.Net.Heartbeat)
				det.Instrument(p.Trace(), p.Metrics())
				rec.Suspector = det
				detector = det
			}
			if err := rec.Loop.Start(); err != nil {
				return nil, err
			}
			recMgr = rec
		}
	} else {
		// Passive observation: same sensors, zero probe cost, no reactor.
		appSensor := core.NewCPUSensor(appTier.Nodes, cfg.AppSizing.Window, 0)
		dbSensor := core.NewCPUSensor(dbTier.Nodes, cfg.DBSizing.Window, 0)
		res.App.CPURaw, res.App.CPUSmoothed = appSensor.Raw, appSensor.Smoothed
		res.DB.CPURaw, res.DB.CPUSmoothed = dbSensor.Raw, dbSensor.Smoothed
		res.App.Replicas = metrics.NewSeries("application-servers-replicas")
		res.App.Replicas.Add(p.Eng.Now(), float64(appTier.ReplicaCount()))
		res.DB.Replicas = metrics.NewSeries("database-backends-replicas")
		res.DB.Replicas.Add(p.Eng.Now(), float64(dbTier.ReplicaCount()))
		p.Eng.Every(1, "observe", func(now float64) {
			appSensor.Sample(now)
			dbSensor.Sample(now)
		})
	}

	if detector == nil && cfg.Monitor && fabric.Enabled() {
		// Monitoring-only mode: the detector watches the initial replicas
		// as a signal source (suspicion routing, incident timelines, the
		// alert-latency comparison) without any repair acting on it.
		det := netsim.NewDetector(p.Eng, fabric, cfg.Net.Heartbeat)
		det.Instrument(p.Trace(), p.Metrics())
		for _, name := range append(append([]string{}, appReplicas...), dbReplicas...) {
			if node, err := dep.NodeOf(name); err == nil {
				det.Monitor(name, node)
			}
		}
		detector = det
	}

	if detector != nil {
		// Feed the failure detector's verdicts into the balancer pools
		// once per second: suspected replicas leave rotation (probe
		// requests bring them back in), cleared suspicions restore them.
		plbW := dep.MustComponent("plb1").Content().(*core.PLBWrapper)
		cw := dep.MustComponent("cjdbc1").Content().(*core.CJDBCWrapper)
		p.Eng.Every(1, "route-suspicions", func(float64) {
			if b := plbW.Balancer(); b != nil {
				b.Pool().SyncSuspicions(detector)
			}
			if ctl := cw.Controller(); ctl != nil {
				ctl.Pool().SyncSuspicions(detector)
			}
		})
	}

	var harness *invariant.Harness
	var doubleRepair *invariant.DoubleRepair
	if cfg.Invariants {
		harness = invariant.NewHarness(p.Eng)
		harness.Tail = p.Trace().Tail
		if cfg.InvariantPeriod > 0 {
			harness.Period = cfg.InvariantPeriod
		}
		cw := dep.MustComponent("cjdbc1").Content().(*core.CJDBCWrapper)
		plbW := dep.MustComponent("plb1").Content().(*core.PLBWrapper)
		componentState := func(name string) (fractal.State, error) {
			c, err := dep.Component(name)
			if err != nil {
				return fractal.Stopped, err
			}
			return c.State(), nil
		}
		appAgree := invariant.NewBalancerAgreement("plb1/"+appTier.TierName(), func() []string {
			b := plbW.Balancer()
			if b == nil || !b.Running() {
				return nil
			}
			return b.Workers()
		}, appTier)
		appAgree.Pendings = func() map[string]int {
			b := plbW.Balancer()
			if b == nil {
				return nil
			}
			return b.Pendings()
		}
		appAgree.ComponentState = componentState
		appAgree.NodeOf = dep.NodeOf
		dbAgree := invariant.NewBalancerAgreement("cjdbc1/"+dbTier.TierName(), func() []string {
			ctl := cw.Controller()
			if ctl == nil || !ctl.Running() {
				return nil
			}
			var names []string
			for _, b := range ctl.Backends() {
				if b.State == cjdbc.Active {
					names = append(names, b.Name)
				}
			}
			if names == nil {
				names = []string{}
			}
			return names
		}, dbTier)
		dbAgree.ComponentState = componentState
		dbAgree.NodeOf = dep.NodeOf
		harness.Register(
			invariant.NewCJDBCConsistency("cjdbc1", cw.Controller),
			invariant.NewNodeConservation(p.Pool),
			appAgree,
			dbAgree,
			invariant.NewLifecycle(dep.Root, p.ManagementRoot()),
		)
		doubleRepair = invariant.NewDoubleRepair()
		p.OnRepairDiscard(doubleRepair.Record)
		harness.Register(doubleRepair)
		if arb != nil {
			harness.Register(invariant.NewArbiterLegality(arb.QuietSeconds, func() []invariant.ArbiterDecisionView {
				ds := arb.Decisions()
				out := make([]invariant.ArbiterDecisionView, len(ds))
				for i, d := range ds {
					out[i] = invariant.ArbiterDecisionView{
						T:        d.T,
						Priority: d.Priority,
						Granted:  d.Granted,
						Released: d.Reason == "released",
					}
				}
				return out
			}))
		}
		p.OnReconfiguration(func(now float64, event string) { harness.CheckNow(event) })
		harness.Start()
	}

	// Table 1 accounting: per-second CPU and memory across the nodes
	// hosting components (static and dynamically added alike).
	var cpuSum, memSum float64
	var sampleCount int
	var nodeSeconds float64
	readers := make(map[*Node]*cluster.UtilizationReader)
	peak := p.Pool.AllocatedCount()
	p.Eng.Every(1, "node-accounting", func(now float64) {
		var cpu, mem float64
		var n int
		for _, name := range dep.ComponentNames() {
			node, err := dep.NodeOf(name)
			if err != nil || node.Failed() {
				continue
			}
			r, ok := readers[node]
			if !ok {
				r = cluster.NewUtilizationReader(node)
				readers[node] = r
			}
			cpu += r.Read()
			mem += node.MemoryFraction()
			n++
		}
		if n > 0 {
			cpuSum += cpu / float64(n)
			memSum += mem / float64(n)
			sampleCount++
		}
		alloc := p.Pool.AllocatedCount()
		nodeSeconds += float64(alloc)
		if alloc > peak {
			peak = alloc
		}
	})

	front := dep.MustComponent("plb1").Content().(*core.PLBWrapper).Balancer()

	// In fluid mode the emulator drives only a sampled fraction of the
	// population as real request chains; the rest is carried as a rate
	// flow through the queue-theoretic station chain, whose per-tier
	// utilization lands on the member nodes as background CPU load — the
	// same meters the sizing sensors read.
	driveProfile := cfg.Profile
	var fnet *fluid.Network
	if fluidOn {
		sampled := rubis.ScaledProfile{Inner: cfg.Profile, Rate: cfg.FluidSampleRate, Min: cfg.FluidMinSampled}
		driveProfile = sampled
		demand := cfg.Mix.FluidDemand(*cfg.Dataset, cfg.Seed, fluidCalibrationSamples)
		plbModel := front.FluidModel()
		ctlModel := dep.MustComponent("cjdbc1").Content().(*core.CJDBCWrapper).Controller().FluidModel()
		single := func(m fluid.ServiceModel) func() []*cluster.Node {
			return func() []*cluster.Node {
				if m.Up == nil || m.Up() {
					return []*cluster.Node{m.Node}
				}
				return nil
			}
		}
		perQuery := demand.QueriesPerRequest * ctlModel.CostPerUnit
		thrT, thrF := cfg.ThrashThreshold, cfg.ThrashFactor
		stations := []*fluid.Station{
			{
				Name:    "plb",
				Demand:  func(int) float64 { return plbModel.CostPerUnit },
				Service: func(int) float64 { return plbModel.CostPerUnit },
				Members: single(plbModel),
			},
			{
				Name:            "app",
				Demand:          func(k int) float64 { return demand.App / float64(k) },
				Service:         func(int) float64 { return demand.App },
				Members:         appTier.Nodes,
				ThrashThreshold: thrT,
				ThrashFactor:    thrF,
			},
			{
				Name:    "cjdbc",
				Demand:  func(int) float64 { return perQuery },
				Service: func(int) float64 { return perQuery },
				Members: single(ctlModel),
			},
			{
				// Reads load-balance across the k replicas; RAIDb-1
				// broadcasts every write to all of them.
				Name:            "db",
				Demand:          func(k int) float64 { return demand.DBRead/float64(k) + demand.DBWrite },
				Service:         func(int) float64 { return demand.DBRead + demand.DBWrite },
				Members:         dbTier.Nodes,
				ThrashThreshold: thrT,
				ThrashFactor:    thrF,
			},
		}
		start := p.Eng.Now()
		total, dur := cfg.Profile, cfg.Profile.Duration()
		pop := func(now float64) float64 {
			rel := now - start
			if rel < 0 || rel >= dur {
				return 0
			}
			n := total.Active(rel) - sampled.Active(rel)
			if n < 0 {
				return 0
			}
			return float64(n)
		}
		fnet = fluid.NewNetwork(fluid.Config{
			ThinkTime:    cfg.ThinkTime,
			Population:   pop,
			RecordSeries: true,
		}, stations...)
		barrier := sim.NewTickBarrier(p.Eng, cfg.FluidTick, "fluid:tick")
		barrier.Register("network", fnet.Tick)
		barrier.Start()
	}

	// With the fabric enabled the clients sit behind the network too, as
	// the pseudo-endpoint "client".
	em := NewEmulator(p.Eng, p.Net.RemoteHTTP(netsim.ClientEndpoint, "front", front), cfg.Mix, driveProfile, *cfg.Dataset)
	em.ThinkTime = cfg.ThinkTime
	if fluidOn {
		// The workload series records the full (fluid + sampled)
		// population, so plots and SLO context keep paper-scale numbers.
		em.ReportProfile = cfg.Profile
	}
	if cfg.TraceRequests > 0 {
		em.Trace = p.Trace()
		em.TraceEvery = cfg.TraceRequests
	}
	if cfg.Sessions {
		em.Chain = rubis.DefaultTransitions()
	}
	if err := em.Start(); err != nil {
		return nil, err
	}
	res.WorkloadStart = p.Eng.Now()

	// Introspection plane: client latency histogram, SLO engine and the
	// snapshot publisher. Both tickers run unconditionally so the event
	// schedule is identical whether or not anyone watches the run.
	reg := p.Metrics()
	em.Obs = obs.NewTierMetrics(reg, "client", "emulator")
	res.RequestLatency = em.Obs.Latency

	objs := cfg.SLOs
	if objs == nil {
		objs = DefaultSLOs()
	}
	for i := range objs {
		if objs[i].Probe == nil {
			objs[i].Probe = scenarioProbe(&objs[i], em, res)
		}
	}
	sloInterval := cfg.SLOInterval
	if sloInterval <= 0 {
		sloInterval = 10
	}
	slo := obs.NewSLOEngine(reg, sloInterval, objs)
	p.Eng.Every(sloInterval, "slo-eval", slo.Evaluate)
	for _, name := range sortedKeys(cfg.SLOTargets) {
		slo.Retarget(name, cfg.SLOTargets[name])
	}

	// Alerting plane: burn-rate rules over the SLO evaluation stream,
	// streaming anomaly detectors over the client series, pool-skew rules
	// over the routing reservoirs, and the incident correlator fed by
	// detector suspicions, control-loop decisions and routing evictions.
	// The ticker runs unconditionally and every rule only reads existing
	// measurement streams, so enabling alerting never changes the
	// trajectory — Tick is a pure observer of the run.
	aeng := alert.NewEngine(cfg.Alerting, p.Trace())
	aeng.Instrument(reg)
	res.Alerts = aeng
	if aeng.Enabled() {
		acfg := aeng.Config()
		burn := make(map[string]*alert.BurnRule, len(objs))
		for _, o := range objs {
			br := alert.NewBurnRule(acfg, o.Name, o.Tier)
			burn[o.Name] = br
			aeng.AddRule(br)
		}
		slo.Observer = func(now float64, name, _ string, value float64, met bool) {
			if br := burn[name]; br != nil {
				br.Observe(now, value, met)
			}
		}
		latProbe := func() alert.Probe {
			prev := -1.0
			return func(now float64) (float64, bool) {
				t0 := prev
				prev = now
				vs := windowValues(em.Stats().Latency, t0, now)
				if t0 < 0 || len(vs) == 0 {
					return 0, false
				}
				sort.Float64s(vs)
				return metrics.Percentile(vs, 0.99), true
			}
		}
		abandonProbe := func() alert.Probe {
			var prevC, prevF uint64
			primed := false
			return func(now float64) (float64, bool) {
				st := em.Stats()
				dc, df := st.Completed-prevC, st.Failed-prevF
				prevC, prevF = st.Completed, st.Failed
				if !primed {
					primed = true
					return 0, false
				}
				if dc+df == 0 {
					return 0, false
				}
				return float64(df) / float64(dc+df), true
			}
		}
		aeng.AddRule(alert.NewZScoreRule(acfg, "anomaly:client-latency-p99", "client", "client", true, 0.3, latProbe()))
		aeng.AddRule(alert.NewRateRule(acfg, "anomaly:client-abandon-rate", "client", "client", true, 0.02, abandonProbe()))
		plbW := dep.MustComponent("plb1").Content().(*core.PLBWrapper)
		cw := dep.MustComponent("cjdbc1").Content().(*core.CJDBCWrapper)
		poolStats := func(pool func() *selector.Pool) func() []alert.BackendStat {
			return func() []alert.BackendStat {
				pl := pool()
				if pl == nil {
					return nil
				}
				snap := pl.Snapshot()
				out := make([]alert.BackendStat, 0, len(snap))
				for _, s := range snap {
					out = append(out, alert.BackendStat{
						Name: s.Name, MeanLatency: s.MeanLatency,
						LatencySamples: s.LatencySamples,
						Failures:       s.DecayedFails, InFlight: s.InFlight,
					})
				}
				return out
			}
		}
		aeng.AddRule(alert.NewSkewRule(acfg, "skew:app-pool", "app", 0.1, poolStats(func() *selector.Pool {
			if b := plbW.Balancer(); b != nil {
				return b.Pool()
			}
			return nil
		})))
		aeng.AddRule(alert.NewSkewRule(acfg, "skew:db-pool", "db", 0.05, poolStats(func() *selector.Pool {
			if ctl := cw.Controller(); ctl != nil {
				return ctl.Pool()
			}
			return nil
		})))
		// Causal context for the incident timelines.
		p.OnReconfiguration(func(now float64, event string) {
			aeng.Observe(now, "loop.reconfig", "control-loop", "", event, 0)
		})
		if b := plbW.Balancer(); b != nil {
			b.Pool().OnEvict(func(name string) {
				aeng.Observe(p.Eng.Now(), "route.evict", "router", name, "app pool evicted "+name, 0)
			})
		}
		if ctl := cw.Controller(); ctl != nil {
			ctl.Pool().OnEvict(func(name string) {
				aeng.Observe(p.Eng.Now(), "route.evict", "router", name, "db pool evicted "+name, 0)
			})
		}
		if detector != nil {
			detector.OnTransition(func(now float64, target string, suspected, falsePositive bool) {
				kind, detail := "detector.suspect", fmt.Sprintf("phi over threshold (false positive: %v)", falsePositive)
				if !suspected {
					kind, detail = "detector.clear", "phi back under threshold"
				}
				aeng.Observe(now, kind, "detector", target, detail, 0)
			})
		}
	}
	p.Eng.Every(aeng.Config().EvalIntervalSeconds, "alert-eval", aeng.Tick)

	// Live refreshable configuration: typed views over the refreshable
	// sub-configs, a hub every change funnels through (operator schedule,
	// chaos config events, admin POSTs), and subscriptions wiring each
	// view to the live managers. Changes land at exact virtual ticks on
	// the simulation goroutine and emit "config" trace spans, so retunes
	// replay byte-identically with the same seed and schedule.
	hub := refresh.NewHub(p.Trace())
	crt := newConfigRuntime(hub,
		cfg.AppSizing, cfg.DBSizing, cfg.Routing,
		fabric.RPCBudgets(), slo.Targets(), aeng.Config())
	if cfg.Managed {
		res.AppManager.Watch(crt.appSizing)
		res.DBManager.Watch(crt.dbSizing)
	}
	crt.routing.Subscribe(func(now float64, old, cur RoutingConfig) {
		// Future (re)starts build pools with the new policies; live pools
		// are swapped and retuned in place, keeping backend bookkeeping.
		p.UpdateRouting(cur)
		retune := func(pl *selector.Pool, name string, def selector.Policy) {
			if pl == nil {
				return
			}
			pol := def
			if name != "" {
				if parsed, err := selector.ParsePolicy(name); err == nil {
					pol = parsed
				}
			}
			pl.SetPolicy(pol)
			pl.Retune(cur.HalfLifeSeconds, cur.ProbeAfterSeconds)
		}
		if w, ok := dep.MustComponent("plb1").Content().(*core.PLBWrapper); ok {
			if b := w.Balancer(); b != nil {
				retune(b.Pool(), cur.App, selector.RoundRobin)
			}
		}
		if w, ok := dep.MustComponent("cjdbc1").Content().(*core.CJDBCWrapper); ok {
			if ctl := w.Controller(); ctl != nil {
				retune(ctl.Pool(), cur.DB, selector.LeastPending)
			}
		}
		if c, err := dep.Component("l4"); err == nil {
			if w, ok := c.Content().(*core.L4Wrapper); ok {
				if sw := w.Switch(); sw != nil {
					retune(sw.Pool(), cur.L4, selector.WeightedRoundRobin)
				}
			}
		}
	})
	crt.rpc.Subscribe(func(now float64, old, cur map[string]RPCBudget) {
		fabric.SetRPCBudgets(cur)
	})
	crt.sloTargets.Subscribe(func(now float64, old, cur map[string]float64) {
		for _, name := range sortedKeys(cur) {
			slo.Retarget(name, cur[name])
		}
	})
	crt.alerting.Subscribe(func(now float64, old, cur AlertConfig) {
		aeng.Retune(cur)
	})

	if cfg.MetricsDir != "" {
		if err := os.MkdirAll(cfg.MetricsDir, 0o755); err != nil {
			return nil, err
		}
	}
	pub := obs.NewPublisher()
	pub.SetPostHandler("/config", crt.handleConfigPost)
	// The drain ticker runs unconditionally (like every other plane's
	// ticker) so the event schedule never depends on HTTPAddr; without an
	// admin endpoint no submission can ever be pending, so headless runs
	// drain nothing. Live POSTs are wall-clock-timed — headless replays
	// script the same changes via cfg.Operator instead.
	p.Eng.Every(1, "config-drain", func(now float64) {
		if hub.Drain(now) > 0 {
			// Refresh the /config page right away so a live `jadectl
			// config get` sees its own set without waiting for the next
			// metrics snapshot. Only live submissions reach this branch,
			// so headless trajectories are untouched.
			pub.Set("/config", crt.renderPage(now))
		}
	})
	if cfg.HTTPAddr != "" {
		admin, aerr := obs.StartAdmin(cfg.HTTPAddr, pub)
		if aerr != nil {
			return nil, aerr
		}
		res.Admin = admin
		res.AdminAddr = admin.Addr()
		if cfg.AdminReady != nil {
			cfg.AdminReady(admin.Addr())
		}
	}
	metricsInterval := cfg.MetricsInterval
	if metricsInterval <= 0 {
		metricsInterval = 60
	}
	// Trace-plane loss counters: silent span/event drops would undermine
	// any attribution built on spans, so they are first-class metrics.
	traceDropped := reg.Counter("jade_trace_dropped_spans_total", "Spans refused because the span store was full.")
	traceEvicted := reg.Counter("jade_trace_evicted_events_total", "Events evicted from the trace ring buffer.")
	var prevDropped, prevEvicted uint64
	// Fluid-engine internals: per-station utilization/backlog/wait gauges
	// refreshed at every snapshot tick (flat zeros in discrete mode keep
	// the exposition shape identical across workload engines).
	type fluidGaugeSet struct {
		st                               *fluid.Station
		rho, backlog, wait, pRho, pWait *obs.Gauge
	}
	var fluidGauges []fluidGaugeSet
	if fnet != nil {
		for _, s := range fnet.Stations() {
			lbl := obs.L("station", s.Name)
			fluidGauges = append(fluidGauges, fluidGaugeSet{
				st:      s,
				rho:     reg.Gauge("jade_fluid_rho", "Fluid station member utilization last tick.", lbl),
				backlog: reg.Gauge("jade_fluid_backlog", "Fluid station backlog beyond capacity (requests).", lbl),
				wait:    reg.Gauge("jade_fluid_wait_seconds", "Fluid station per-request latency estimate.", lbl),
				pRho:    reg.Gauge("jade_fluid_peak_rho", "Fluid station peak member utilization.", lbl),
				pWait:   reg.Gauge("jade_fluid_peak_wait_seconds", "Fluid station peak latency estimate.", lbl),
			})
		}
	}
	var snapErr error
	snapshot := func(now float64) {
		st := p.Trace().Stat()
		traceDropped.Add(st.SpansDropped - prevDropped)
		traceEvicted.Add(st.EventsEvicted - prevEvicted)
		prevDropped, prevEvicted = st.SpansDropped, st.EventsEvicted
		for _, fg := range fluidGauges {
			fg.rho.Set(fg.st.Rho())
			fg.backlog.Set(fg.st.Backlog())
			fg.wait.Set(fg.st.Wait())
			fg.pRho.Set(fg.st.PeakRho())
			fg.pWait.Set(fg.st.PeakWait())
		}
		if res.Admin == nil && cfg.MetricsDir == "" {
			return // nobody watching: skip rendering, keep the schedule
		}
		snap := reg.Snapshot()
		prom := obs.PrometheusText(snap)
		js := obs.MetricsJSON(snap)
		pub.Set("/metrics", prom)
		pub.Set("/metrics.json", js)
		pub.Set("/components", componentsPage(now, dep, p))
		pub.Set("/loops", loopsPage(now, res))
		pub.Set("/healthz", healthPage(now, p, dep, harness, slo, aeng))
		pub.Set("/alerts", aeng.AlertsPage(now))
		pub.Set("/incidents", aeng.IncidentsJSON(now))
		pub.Set("/fluid", fluidPage(now, fnet))
		pub.Set("/config", crt.renderPage(now))
		if cfg.MetricsDir != "" {
			base := filepath.Join(cfg.MetricsDir, fmt.Sprintf("metrics-t%08d", int64(math.Round(now))))
			if err := os.WriteFile(base+".prom", prom, 0o644); err != nil && snapErr == nil {
				snapErr = err
			}
			if err := os.WriteFile(base+".json", js, 0o644); err != nil && snapErr == nil {
				snapErr = err
			}
		}
	}
	snapshot(p.Eng.Now())
	p.Eng.Every(metricsInterval, "obs-snapshot", snapshot)

	if cfg.FailComponent != "" {
		p.Eng.After(cfg.FailAt, "inject-failure", func() {
			if node, err := dep.NodeOf(cfg.FailComponent); err == nil {
				node.Fail()
			}
		})
	}
	if len(cfg.Chaos) > 0 {
		// Targets are resolved at fire time: a component discarded by a
		// repair no longer resolves, and a Reboot names the node its
		// earlier Crash actually hit.
		crashed := map[string]*cluster.Node{}
		resolve := func(target string) *cluster.Node {
			if node, err := dep.NodeOf(target); err == nil {
				return node
			}
			if node, ok := p.Pool.Lookup(target); ok {
				return node
			}
			return nil
		}
		for _, ev := range cfg.Chaos.Sorted() {
			ev := ev
			p.Eng.At(res.WorkloadStart+ev.At, "chaos:"+string(ev.Kind), func() {
				switch ev.Kind {
				case invariant.Crash:
					node := resolve(ev.Target)
					if node == nil || node.Failed() {
						return
					}
					p.Logf("chaos: crashing %s (%s)", node.Name(), ev.Target)
					crashed[ev.Target] = node
					node.Fail()
					res.InjectedFailures++
				case invariant.Reboot:
					node := crashed[ev.Target]
					if node == nil {
						node = resolve(ev.Target)
					}
					if node != nil && node.Failed() {
						p.Logf("chaos: rebooting %s (%s)", node.Name(), ev.Target)
						node.Reboot()
					}
				case invariant.Slow:
					node := resolve(ev.Target)
					if node == nil || node.Failed() {
						return
					}
					dur := ev.Duration
					if dur <= 0 {
						dur = 60
					}
					p.Logf("chaos: slowing %s (%s) for %.0f s", node.Name(), ev.Target, dur)
					hog := node.Submit(1e12, nil, nil)
					if hog != nil {
						p.Eng.After(dur, "chaos:slow-end", func() { node.Cancel(hog) })
					}
				case invariant.Partition:
					if !fabric.Enabled() {
						p.Logf("chaos: partition event ignored (network fabric disabled)")
						return
					}
					a := resolveEndpoints(dep, ev.A)
					b := resolveEndpoints(dep, ev.B)
					p.Logf("chaos: partitioning %v | %v", a, b)
					id := fabric.Partition(a, b)
					if ev.Duration > 0 {
						p.Eng.After(ev.Duration, "chaos:partition-heal", func() {
							p.Logf("chaos: healing partition %v | %v", a, b)
							fabric.Heal(id)
						})
					}
				case invariant.Heal:
					if fabric.Enabled() {
						p.Logf("chaos: healing all partitions")
						fabric.HealAll()
					}
				case invariant.Config:
					if err := hub.Apply(p.Eng.Now(), refresh.SourceChaos, ev.Patch); err != nil {
						p.Logf("chaos: config patch rejected: %v", err)
					} else {
						p.Logf("chaos: applied config patch %s", ev.Patch)
					}
				default:
					if cfg.ChaosHandler == nil || !cfg.ChaosHandler(res, ev) {
						p.Logf("chaos: unhandled event kind %q on %s", ev.Kind, ev.Target)
					}
				}
			})
		}
	}
	for _, ev := range cfg.Operator.Sorted() {
		ev := ev
		p.Eng.At(res.WorkloadStart+ev.At, "config:operator", func() {
			if err := hub.Apply(p.Eng.Now(), refresh.SourceOperator, ev.Patch); err != nil {
				p.Logf("operator: config patch rejected: %v", err)
			} else {
				p.Logf("operator: applied config patch %s", ev.Patch)
			}
		})
	}
	if cfg.Pace > 0 {
		wallStart := time.Now()
		virtStart := p.Eng.Now()
		p.Eng.Every(1, "pace", func(now float64) {
			target := time.Duration(float64(time.Second) * (now - virtStart) / cfg.Pace)
			if ahead := target - time.Since(wallStart); ahead > 0 {
				time.Sleep(ahead)
			}
		})
	}
	if cfg.MTBFSeconds > 0 {
		var scheduleCrash func()
		scheduleCrash = func() {
			delay := p.Eng.Exponential(cfg.MTBFSeconds)
			p.Eng.After(delay, "chaos", func() {
				if p.Eng.Now() >= res.WorkloadStart+cfg.Profile.Duration() {
					return // workload over, stop injecting
				}
				// Crash a random currently deployed replica node (app or
				// db tier; balancers and the controller are spared so
				// availability stays attributable to replica repair).
				var victims []string
				for _, name := range appTier.ReplicaNames() {
					victims = append(victims, name)
				}
				for _, name := range dbTier.ReplicaNames() {
					victims = append(victims, name)
				}
				if len(victims) > 0 {
					victim := victims[p.Eng.Rand().Intn(len(victims))]
					if node, err := dep.NodeOf(victim); err == nil && !node.Failed() {
						p.Logf("chaos: crashing %s (%s)", node.Name(), victim)
						node.Fail()
						res.InjectedFailures++
						// The node is later repaired off-pool; reboot it
						// so the pool does not starve under long churn.
						p.Eng.After(60, "chaos:reboot", node.Reboot)
					}
				}
				scheduleCrash()
			})
		}
		scheduleCrash()
	}

	p.Eng.RunUntil(res.WorkloadStart + cfg.Profile.Duration() + cfg.DrainSeconds)
	hub.Close() // freeze the configuration: late POSTs get ErrClosed
	res.ConfigChanges = crt.changes()
	em.Stop()
	res.WorkloadEnd = res.WorkloadStart + cfg.Profile.Duration()
	if harness != nil {
		harness.Stop()
		res.InvariantViolation = harness.Violation()
		res.InvariantChecks = harness.Checks()
	}

	res.Stats = em.Stats()
	if fnet != nil {
		rep := fnet.Report()
		res.Fluid = &rep
	}
	if sampleCount > 0 {
		res.NodeCPUPercent = 100 * cpuSum / float64(sampleCount)
		res.NodeMemPercent = 100 * memSum / float64(sampleCount)
	}
	res.PeakNodesUsed = peak
	res.NodeSeconds = nodeSeconds
	if recMgr != nil {
		res.Repairs = recMgr.Repairs
	}
	res.Net = fabric.Stats()
	if detector != nil {
		stats := detector.Stats()
		res.Detector = &stats
	}
	if doubleRepair != nil {
		res.RepairDiscards = doubleRepair.Discards()
		res.RepairsConfirmedLegal = doubleRepair.Confirmed()
	}
	if cfg.Managed {
		res.Reconfigurations = int(res.AppManager.Reactor.Grows + res.AppManager.Reactor.Shrinks +
			res.DBManager.Reactor.Grows + res.DBManager.Reactor.Shrinks)
	}
	res.SLOReport = slo.Report()
	// Latency attribution: walk the traced span forest into per-request
	// component breakdowns, and aggregate (with the fluid stations' wait
	// estimates when the run was fluid) into the budget report.
	if cfg.TraceRequests > 0 && !cfg.TraceOff {
		res.Attribution = attrib.FromTracer(p.Trace())
	}
	if res.Attribution != nil || fnet != nil {
		analysis := res.Attribution
		if analysis == nil {
			analysis = &attrib.Analysis{}
		}
		res.LatencyBudget = attrib.BuildReport(analysis, fluidBudgetTiers(fnet))
	}
	snapshot(p.Eng.Now())
	if cfg.MetricsDir != "" {
		if err := os.WriteFile(filepath.Join(cfg.MetricsDir, "alerts.jsonl"), aeng.AlertsJSONL(), 0o644); err != nil && snapErr == nil {
			snapErr = err
		}
		if err := os.WriteFile(filepath.Join(cfg.MetricsDir, "incidents.json"), aeng.IncidentsJSON(p.Eng.Now()), 0o644); err != nil && snapErr == nil {
			snapErr = err
		}
		if sloJSON, err := json.MarshalIndent(res.SLOReport, "", "  "); err == nil {
			if werr := os.WriteFile(filepath.Join(cfg.MetricsDir, "slo_report.json"), append(sloJSON, '\n'), 0o644); werr != nil && snapErr == nil {
				snapErr = werr
			}
		}
		if res.LatencyBudget != nil {
			if err := os.WriteFile(filepath.Join(cfg.MetricsDir, "latency_budget.json"), res.LatencyBudget.Marshal(), 0o644); err != nil && snapErr == nil {
				snapErr = err
			}
		}
		if fnet != nil {
			if err := os.WriteFile(filepath.Join(cfg.MetricsDir, "fluid.json"), fluidPage(p.Eng.Now(), fnet), 0o644); err != nil && snapErr == nil {
				snapErr = err
			}
		}
		if err := os.WriteFile(filepath.Join(cfg.MetricsDir, "config.json"), crt.renderPage(p.Eng.Now()), 0o644); err != nil && snapErr == nil {
			snapErr = err
		}
	}
	if snapErr != nil {
		return nil, snapErr
	}
	return res, nil
}

// scenarioProbe returns the standard probe for an objective's Kind/Tier,
// reading the scenario's own measurement streams over [t0, t1).
func scenarioProbe(obj *SLObjective, em *Emulator, res *ScenarioResult) func(t0, t1 float64) (float64, bool) {
	switch obj.Kind {
	case obs.LatencyPercentile:
		pct := obj.Percentile
		return func(t0, t1 float64) (float64, bool) {
			vs := windowValues(em.Stats().Latency, t0, t1)
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
		return func(t0, t1 float64) (float64, bool) {
			vs := windowValues(s, t0, t1)
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

// mustScenario is a helper for the experiment runners.
func mustScenario(cfg ScenarioConfig) (*ScenarioResult, error) {
	r, err := RunScenario(cfg)
	if err != nil {
		return nil, fmt.Errorf("jade: scenario (managed=%v): %w", cfg.Managed, err)
	}
	return r, nil
}
