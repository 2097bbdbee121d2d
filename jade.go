// Package jade is a reproduction of "Autonomic Management of Clustered
// Applications" (Bouchenak, De Palma, Hagimont, Taton — IEEE CLUSTER
// 2006): the Jade middleware for autonomic management of legacy
// distributed software, evaluated on a self-sizing clustered J2EE
// application.
//
// The package is a facade over the implementation packages:
//
//   - internal/fractal — the Fractal component model (components,
//     interfaces, bindings, attribute/binding/content/lifecycle
//     controllers);
//   - internal/legacy, internal/config — simulated legacy servers
//     (Apache, Tomcat, MySQL) configured exclusively through their
//     proprietary files (httpd.conf, server.xml, my.cnf,
//     worker.properties);
//   - internal/cjdbc, internal/plb — the clustering middleware (C-JDBC
//     with its recovery log; the PLB application-tier balancer and the L4
//     front-end switch, one balancer type in two kinds);
//   - internal/core — Jade itself: wrappers, the Software Installation
//     Service, the ADL deployer, the control-loop framework, the
//     self-optimization and self-recovery managers;
//   - internal/rubis — the RUBiS auction-site workload (26 interactions,
//     client emulator);
//   - internal/netsim — the simulated network substrate: per-link
//     latency/jitter/loss, injectable partitions, tier RPC budgets and
//     the φ-accrual heartbeat failure detector;
//   - internal/invariant, internal/trace, internal/obs — invariant
//     checking with chaos schedules, the causal telemetry bus, and the
//     deterministic metrics registry;
//   - internal/sim, internal/cluster, internal/metrics, internal/report —
//     the discrete-event engine, the simulated node pool, and the
//     measurement/reporting substrate.
//
// Quick start:
//
//	p := jade.NewPlatform(jade.DefaultPlatformOptions())
//	db, _ := jade.DefaultDataset().InitialDatabase(1)
//	p.RegisterDump("rubis", db)
//	def, _ := jade.ParseADL(jade.ThreeTierADL)
//	p.Deploy(def, func(d *jade.Deployment, err error) { ... })
//	p.Eng.Run()
//
// The experiment harness (scenario.go, experiments.go) regenerates every
// table and figure of the paper's evaluation; see EXPERIMENTS.md.
package jade

import (
	"jade/internal/adl"
	"jade/internal/cluster"
	"jade/internal/core"
	"jade/internal/fluid"
	"jade/internal/fractal"
	"jade/internal/legacy"
	"jade/internal/metrics"
	"jade/internal/netsim"
	"jade/internal/obs"
	"jade/internal/obs/alert"
	"jade/internal/obs/attrib"
	"jade/internal/report"
	"jade/internal/rubis"
	"jade/internal/selector"
	"jade/internal/sim"
	"jade/internal/trace"
)

// Re-exported core types: the platform, deployment and manager surface.
type (
	// Platform is a Jade instance managing one simulated cluster.
	Platform = core.Platform
	// PlatformOptions configures a Platform.
	PlatformOptions = core.Options
	// Deployment is an application deployed from an ADL description.
	Deployment = core.Deployment
	// SizingManager is a deployed self-optimization manager.
	SizingManager = core.SizingManager
	// SizingConfig parameterizes a self-optimization manager.
	SizingConfig = core.SizingConfig
	// RecoveryManager is the self-recovery manager.
	RecoveryManager = core.RecoveryManager
	// Tier is the actuator of one replicated tier (NewAppTier, NewDBTier).
	Tier = core.Tier
	// ControlLoop binds a sensor to a reactor at a fixed period.
	ControlLoop = core.ControlLoop
	// Sensor observes the managed system.
	Sensor = core.Sensor
	// Reactor decides and actuates.
	Reactor = core.Reactor
	// Inhibitor serializes reconfigurations across loops.
	Inhibitor = core.Inhibitor
	// Arbiter coordinates conflicting autonomic policies (the paper's
	// future-work arbitration manager).
	Arbiter = core.Arbiter
	// AdaptiveTuner dynamically adjusts a reactor's thresholds from the
	// observed response time (the paper's future-work incremental
	// parameter setting).
	AdaptiveTuner = core.AdaptiveTuner
	// ThresholdReactor is the paper's threshold decision logic.
	ThresholdReactor = core.ThresholdReactor
	// RoutingConfig names the backend-selection policy of each balancing
	// tier (L4 switch, PLB, C-JDBC reads); see RoutingPolicies for the
	// accepted spellings.
	RoutingConfig = core.RoutingConfig
)

// RoutingPolicies lists the accepted routing policy spellings:
// round-robin, weighted-round-robin, least-pending, balanced and
// rendezvous.
func RoutingPolicies() []string { return selector.PolicyNames() }

// NewArbiter returns a policy arbiter with the given quiet window.
func NewArbiter(quietSeconds float64) *Arbiter { return core.NewArbiter(quietSeconds) }

// NewControlLoop wires a sensor to a reactor at a fixed period, wrapped
// in its own management component.
func NewControlLoop(p *Platform, name string, period float64, sensor Sensor, reactor Reactor) (*ControlLoop, error) {
	return core.NewControlLoop(p, name, period, sensor, reactor)
}

// NewAdaptiveTuner builds a threshold tuner targeting a latency SLO.
func NewAdaptiveTuner(reactor *ThresholdReactor, readLatency func(now float64) (float64, bool), slo float64) *AdaptiveTuner {
	return core.NewAdaptiveTuner(reactor, readLatency, slo)
}

// Re-exported architecture description types.
type (
	// ADLDefinition is a parsed architecture description.
	ADLDefinition = adl.Definition
	// Component is a Fractal component.
	Component = fractal.Component
)

// Re-exported workload types.
type (
	// Dataset sizes the RUBiS database.
	Dataset = rubis.Dataset
	// Mix is a weighted RUBiS interaction mix.
	Mix = rubis.Mix
	// Emulator is the closed-loop client emulator.
	Emulator = rubis.Emulator
	// WorkloadStats gathers emulator measurements.
	WorkloadStats = rubis.Stats
	// RampProfile is the paper's ramp workload profile.
	RampProfile = rubis.RampProfile
	// ConstantProfile holds a fixed client population.
	ConstantProfile = rubis.ConstantProfile
	// Profile shapes the client population over time.
	Profile = rubis.Profile
	// SessionChain is the Markov session model over the 26 interactions.
	SessionChain = rubis.Chain
	// ScaledProfile drives a sampled fraction of another profile's
	// population (the discrete stream of fluid workload mode).
	ScaledProfile = rubis.ScaledProfile
	// FluidReport summarizes a fluid-mode run (ScenarioResult.Fluid).
	FluidReport = fluid.Report
	// LatencyBudget is the aggregated per-interaction-class budget report
	// with critical-path blame (ScenarioResult.LatencyBudget).
	LatencyBudget = attrib.Report
)

// ParseLatencyBudget parses and validates a latency_budget.json
// artifact (jadectl diff reads run directories through it).
func ParseLatencyBudget(raw []byte) (*LatencyBudget, error) { return attrib.ParseReport(raw) }

// Re-exported measurement types.
type (
	// Series is an append-only time series.
	Series = metrics.Series
	// Summary holds order statistics of a sample set.
	Summary = metrics.Summary
	// Chart renders time series as ASCII plots.
	Chart = report.Chart
	// ChartSeries is one plotted series.
	ChartSeries = report.ChartSeries
	// HLine is a horizontal chart reference line.
	HLine = report.HLine
	// TextTable renders aligned text tables.
	TextTable = report.Table
	// Engine is the discrete-event simulation engine.
	Engine = sim.Engine
	// Node is one simulated cluster machine.
	Node = cluster.Node
	// WebRequest is one HTTP request flowing through the tiers.
	WebRequest = legacy.WebRequest
	// Query is one SQL request with its CPU demand.
	Query = legacy.Query
)

// Re-exported network and fault-injection types: scenarios can route all
// inter-tier calls and heartbeats over a deterministic simulated network
// (see internal/netsim) with per-link latency, jitter, loss and
// injectable partitions, replacing the recovery manager's failure oracle
// with a φ-accrual heartbeat detector that can be wrong.
type (
	// LinkConfig is one directed link's latency/jitter/loss model.
	LinkConfig = netsim.Link
	// RPCBudget is a tier call's timeout/retry/backoff budget.
	RPCBudget = netsim.RPCBudget
	// HeartbeatConfig parameterizes the φ-accrual failure detector.
	HeartbeatConfig = netsim.HeartbeatConfig
)

// ManagementEndpoint is the simulated network's pseudo-endpoint of the
// Jade management node.
const ManagementEndpoint = netsim.ManagementEndpoint

// TraceSpan is one interval with a causal parent on the platform's
// structured event bus, which records management decisions as causal
// spans (see internal/trace).
type TraceSpan = trace.Span

// ValidateChromeTrace checks data against the Chrome trace-event schema
// and returns the number of trace events.
func ValidateChromeTrace(data []byte) (int, error) { return trace.ValidateChromeTrace(data) }

// ChromeTraceStats reads the retention counters embedded in a Chrome
// trace export (dropped spans, evicted events); ok is false when the
// file carries no jade_trace_stats metadata.
func ChromeTraceStats(data []byte) (droppedSpans, evictedEvents uint64, ok bool) {
	return trace.ChromeTraceStats(data)
}

// Re-exported observability types: every platform carries a deterministic
// metrics registry clocked on virtual time (see internal/obs), exposed
// through snapshot files and the live admin endpoint.
type (
	// SLObjective is one service-level objective under evaluation.
	SLObjective = obs.Objective
	// SLOReport is the post-run compliance report.
	SLOReport = obs.SLOReport
)

// ValidatePrometheusText checks a page against the Prometheus text
// exposition format 0.0.4 and returns the number of samples.
func ValidatePrometheusText(page []byte) (int, error) { return obs.ValidatePrometheusText(page) }

// ValidateMetricsJSON checks a jade-metrics/v1 document and returns the
// number of series.
func ValidateMetricsJSON(doc []byte) (int, error) { return obs.ValidateMetricsJSON(doc) }

// ValidateComponentsJSON checks a jade-components/v1 document and returns
// the number of component nodes.
func ValidateComponentsJSON(doc []byte) (int, error) { return obs.ValidateComponentsJSON(doc) }

// Re-exported alerting types: the deterministic alerting plane layered on
// the observability stack (see internal/obs/alert) — SLO burn-rate rules,
// streaming anomaly detectors, and the incident correlation engine behind
// /alerts, /incidents, alerts.jsonl and incidents.json.
type (
	// Alert is one fired (or resolved) alert instance.
	Alert = alert.Alert
)

// ValidateAlertsJSONL checks an alerts.jsonl transition stream and
// returns the number of transitions.
func ValidateAlertsJSONL(data []byte) (int, error) { return alert.ValidateAlertsJSONL(data) }

// ValidateAlertsPage checks a jade-alerts/v1 document (/alerts).
func ValidateAlertsPage(doc []byte) error { return alert.ValidateAlertsPage(doc) }

// ValidateIncidentsJSON checks a jade-incidents/v1 document (/incidents,
// incidents.json).
func ValidateIncidentsJSON(doc []byte) error { return alert.ValidateIncidentsJSON(doc) }

// NewPlatform builds a platform with the standard wrapper registry. A
// zero Nodes takes the default pool size; a negative one panics.
func NewPlatform(opts PlatformOptions) *Platform { return core.NewPlatform(opts) }

// DefaultPlatformOptions mirrors the paper's 9-node testbed.
func DefaultPlatformOptions() PlatformOptions { return core.DefaultOptions() }

// ParseADL parses an XML architecture description.
func ParseADL(text string) (*ADLDefinition, error) { return adl.Parse(text) }

// DefaultDataset is the scaled-down RUBiS database.
func DefaultDataset() Dataset { return rubis.DefaultDataset() }

// BiddingMix is RUBiS's default read/write interaction mix.
func BiddingMix() *Mix { return rubis.BiddingMix() }

// BrowsingMix is the read-only interaction mix.
func BrowsingMix() *Mix { return rubis.BrowsingMix() }

// PaperRamp is the exact §5.2 workload: 80 clients, +21/minute to 500,
// then symmetric decrease.
func PaperRamp() RampProfile { return rubis.PaperRamp() }

// AppSizingDefaults mirrors the paper's application-tier control loop.
func AppSizingDefaults() SizingConfig { return core.AppSizingDefaults() }

// DBSizingDefaults mirrors the paper's database-tier control loop.
func DBSizingDefaults() SizingConfig { return core.DBSizingDefaults() }

// NewAppTier builds the application-tier actuator for a deployment.
func NewAppTier(p *Platform, d *Deployment, plbName, dbName string, replicas []string) (*Tier, error) {
	return core.NewAppTier(p, d, plbName, dbName, replicas)
}

// NewDBTier builds the database-tier actuator for a deployment.
func NewDBTier(p *Platform, d *Deployment, cjdbcName string, replicas []string) (*Tier, error) {
	return core.NewDBTier(p, d, cjdbcName, replicas)
}

// NewSizingManager assembles a self-optimization manager for one tier.
func NewSizingManager(p *Platform, name string, tier *Tier, cfg SizingConfig, shared *Inhibitor) (*SizingManager, error) {
	return core.NewSizingManager(p, name, tier, cfg, shared)
}

// NewRecoveryManager assembles the self-recovery manager.
func NewRecoveryManager(p *Platform, name string, period float64, tiers ...*Tier) (*RecoveryManager, error) {
	return core.NewRecoveryManager(p, name, period, tiers...)
}

// NewEmulator creates a RUBiS client emulator against a front end.
func NewEmulator(eng *Engine, front legacy.HTTPHandler, mix *Mix, profile Profile, ds Dataset) *Emulator {
	return rubis.NewEmulator(eng, front, mix, profile, ds)
}

// ThreeTierADL is the paper's deployment: PLB in front of one Tomcat,
// C-JDBC in front of one MySQL holding the RUBiS dump.
const ThreeTierADL = `<?xml version="1.0"?>
<definition name="rubis-j2ee">
  <component name="plb1" wrapper="plb"/>
  <composite name="app-tier">
    <component name="tomcat1" wrapper="tomcat"/>
  </composite>
  <composite name="db-tier">
    <component name="cjdbc1" wrapper="cjdbc"/>
    <component name="mysql1" wrapper="mysql">
      <attribute name="dump" value="rubis"/>
    </component>
  </composite>
  <binding client="plb1.workers" server="tomcat1.http"/>
  <binding client="tomcat1.jdbc" server="cjdbc1.jdbc"/>
  <binding client="cjdbc1.backends" server="mysql1.sql"/>
</definition>
`

// FiveTierADL is the full Fig. 2 architecture: an L4 switch balancing
// two Apache replicas, each routing AJP traffic to both Tomcat replicas
// via mod_jk, over C-JDBC with two mirrored MySQL backends. It occupies
// eight of the default platform's nine nodes (the ninth hosted the Jade
// platform itself in the paper's testbed).
const FiveTierADL = `<?xml version="1.0"?>
<definition name="rubis-j2ee-full">
  <component name="l4" wrapper="l4"/>
  <composite name="web-tier">
    <component name="apache1" wrapper="apache"/>
    <component name="apache2" wrapper="apache"/>
  </composite>
  <composite name="app-tier">
    <component name="tomcat1" wrapper="tomcat"/>
    <component name="tomcat2" wrapper="tomcat"/>
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
  <binding client="l4.servers" server="apache1.http"/>
  <binding client="l4.servers" server="apache2.http"/>
  <binding client="apache1.ajp" server="tomcat1.ajp"/>
  <binding client="apache1.ajp" server="tomcat2.ajp"/>
  <binding client="apache2.ajp" server="tomcat1.ajp"/>
  <binding client="apache2.ajp" server="tomcat2.ajp"/>
  <binding client="tomcat1.jdbc" server="cjdbc1.jdbc"/>
  <binding client="tomcat2.jdbc" server="cjdbc1.jdbc"/>
  <binding client="cjdbc1.backends" server="mysql1.sql"/>
  <binding client="cjdbc1.backends" server="mysql2.sql"/>
</definition>
`
