package jade

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"jade/internal/netsim"
)

// Spec is the grouped scenario configuration: the same knobs as the flat
// ScenarioConfig, organized by concern (Workload, Faults, Sizing,
// Checks, Telemetry) with JSON round-tripping, defaults-on-zero
// semantics and a Validate method. New code and config files should use
// Spec; ScenarioConfig remains supported as the flattened form Spec
// compiles down to (see Flatten).
type Spec struct {
	// Seed drives all randomness; equal seeds give identical runs.
	Seed int64 `json:"seed,omitempty"`
	// Managed enables the self-optimization managers; Recovery
	// additionally arms the self-recovery manager.
	Managed  bool `json:"managed,omitempty"`
	Recovery bool `json:"recovery,omitempty"`

	Workload  WorkloadSpec  `json:"workload"`
	Faults    FaultsSpec    `json:"faults"`
	Sizing    SizingSpec    `json:"sizing"`
	Routing   RoutingSpec   `json:"routing"`
	Checks    ChecksSpec    `json:"checks"`
	Telemetry TelemetrySpec `json:"telemetry"`
	Alerting  AlertingSpec  `json:"alerting"`

	// Operator is the scripted live-configuration schedule: each event
	// applies a refreshable-config patch (the same JSON grammar the admin
	// /config endpoint accepts) at an exact virtual time, so headless
	// runs replay live retunes byte-identically. See docs/CONFIG.md.
	Operator OperatorSchedule `json:"operator,omitempty"`
}

// AlertingSpec groups the alerting plane's knobs. Everything defaults to
// the enabled configuration; Off turns rule evaluation off (the
// evaluation ticker still runs, so the trajectory is unchanged).
type AlertingSpec struct {
	// Off disables rule evaluation.
	Off bool `json:"off,omitempty"`
	// EvalIntervalSeconds is the rule evaluation period (5 by default).
	EvalIntervalSeconds float64 `json:"eval_interval_seconds,omitempty"`
	// FastWindowSeconds / SlowWindowSeconds are the burn-rate windows
	// (60 / 600 by default).
	FastWindowSeconds float64 `json:"fast_window_seconds,omitempty"`
	SlowWindowSeconds float64 `json:"slow_window_seconds,omitempty"`
	// BudgetFraction is the error budget (0.01 by default).
	BudgetFraction float64 `json:"budget_fraction,omitempty"`
	// PageBurn / WarnBurn are the burn-rate thresholds (14.4 / 3).
	PageBurn float64 `json:"page_burn,omitempty"`
	WarnBurn float64 `json:"warn_burn,omitempty"`
	// ZThreshold is the anomaly z-score trip point (4 by default).
	ZThreshold float64 `json:"z_threshold,omitempty"`
	// SkewFactor is the pool-skew multiplier (3 by default).
	SkewFactor float64 `json:"skew_factor,omitempty"`
	// HysteresisSeconds keeps a firing alert up until its condition has
	// been clear this long (30 by default).
	HysteresisSeconds float64 `json:"hysteresis_seconds,omitempty"`
	// MonitorReplicas arms the φ-accrual detector as a monitoring-only
	// signal source on unmanaged runs (requires faults.network.enabled);
	// suspicion history then feeds the incident timelines.
	MonitorReplicas bool `json:"monitor_replicas,omitempty"`
}

// Config compiles the spec to the alert plane's Config.
func (a AlertingSpec) Config() AlertConfig {
	return AlertConfig{
		Disabled:            a.Off,
		EvalIntervalSeconds: a.EvalIntervalSeconds,
		FastWindowSeconds:   a.FastWindowSeconds,
		SlowWindowSeconds:   a.SlowWindowSeconds,
		BudgetFraction:      a.BudgetFraction,
		PageBurn:            a.PageBurn,
		WarnBurn:            a.WarnBurn,
		ZThreshold:          a.ZThreshold,
		SkewFactor:          a.SkewFactor,
		HysteresisSeconds:   a.HysteresisSeconds,
	}
}

// RoutingSpec groups the backend-selection policies of the balancing
// tiers. Policy, when set, applies to every tier; the per-tier fields
// override it. Empty fields keep the historic defaults
// (weighted-round-robin L4, round-robin PLB, least-pending C-JDBC).
type RoutingSpec struct {
	// Policy is the default policy for all tiers; see RoutingPolicies.
	Policy string `json:"policy,omitempty"`
	// L4, App and DB override Policy per tier.
	L4  string `json:"l4,omitempty"`
	App string `json:"app,omitempty"`
	DB  string `json:"db,omitempty"`
	// ProbeAfterSeconds is how long a suspected-down backend stays out of
	// rotation before a probe request tests it (10 by default).
	ProbeAfterSeconds float64 `json:"probe_after_seconds,omitempty"`
	// HalfLifeSeconds is the decay half-life of the balanced scorer's
	// failure/latency reservoirs (30 by default).
	HalfLifeSeconds float64 `json:"half_life_seconds,omitempty"`
}

// Config compiles the spec to the flat per-tier RoutingConfig.
func (r RoutingSpec) Config() RoutingConfig {
	pick := func(tier string) string {
		if tier != "" {
			return tier
		}
		return r.Policy
	}
	return RoutingConfig{
		L4:                pick(r.L4),
		App:               pick(r.App),
		DB:                pick(r.DB),
		ProbeAfterSeconds: r.ProbeAfterSeconds,
		HalfLifeSeconds:   r.HalfLifeSeconds,
	}
}

// ProfileSpec selects a client population profile declaratively.
type ProfileSpec struct {
	// Kind is "paper-ramp" (default), "constant" or "ramp".
	Kind string `json:"kind,omitempty"`
	// Clients and DurationSeconds parameterize "constant".
	Clients         int     `json:"clients,omitempty"`
	DurationSeconds float64 `json:"duration_seconds,omitempty"`
	// Base, Peak, StepPerMinute and HoldAtPeakSeconds parameterize
	// "ramp" (zero fields take the paper's values).
	Base              int     `json:"base,omitempty"`
	Peak              int     `json:"peak,omitempty"`
	StepPerMinute     int     `json:"step_per_minute,omitempty"`
	HoldAtPeakSeconds float64 `json:"hold_at_peak_seconds,omitempty"`
}

// Profile materializes the declarative profile.
func (ps ProfileSpec) Profile() (Profile, error) {
	switch ps.Kind {
	case "", "paper-ramp":
		return PaperRamp(), nil
	case "constant":
		clients, dur := ps.Clients, ps.DurationSeconds
		if clients <= 0 {
			clients = 100
		}
		if dur <= 0 {
			dur = 600
		}
		return ConstantProfile{Clients: clients, Length: dur}, nil
	case "ramp":
		r := PaperRamp()
		if ps.Base > 0 {
			r.Base = ps.Base
		}
		if ps.Peak > 0 {
			r.Peak = ps.Peak
		}
		if ps.StepPerMinute > 0 {
			r.StepPerMinute = ps.StepPerMinute
		}
		if ps.HoldAtPeakSeconds > 0 {
			r.HoldAtPeak = ps.HoldAtPeakSeconds
		}
		return r, nil
	}
	return nil, fmt.Errorf("jade: unknown profile kind %q (want paper-ramp, constant or ramp)", ps.Kind)
}

// WorkloadSpec groups what the clients do.
type WorkloadSpec struct {
	// Profile is the client population profile (paper-ramp by default).
	Profile ProfileSpec `json:"profile"`
	// Mix is "bidding" (default) or "browsing".
	Mix string `json:"mix,omitempty"`
	// Sessions switches the emulator to RUBiS-style Markov sessions.
	Sessions bool `json:"sessions,omitempty"`
	// ThinkTimeSeconds is the mean client think time (7 by default).
	ThinkTimeSeconds float64 `json:"think_time_seconds,omitempty"`
	// DrainSeconds extends the run after the profile ends (60 default).
	DrainSeconds float64 `json:"drain_seconds,omitempty"`
	// Mode selects the workload engine: "discrete" (default), "fluid"
	// or "auto" (fluid above FluidAutoClients peak population).
	Mode string `json:"mode,omitempty"`
	// FluidTickSeconds is the fluid model's virtual tick (1 default).
	FluidTickSeconds float64 `json:"fluid_tick_seconds,omitempty"`
	// FluidSampleRate is the fraction of clients kept as real discrete
	// request chains in fluid mode (0.02 default).
	FluidSampleRate float64 `json:"fluid_sample_rate,omitempty"`
	// FluidMinSampled floors the sampled population (8 default).
	FluidMinSampled int `json:"fluid_min_sampled,omitempty"`
}

// PartitionSpec is one declarative network partition: at At seconds
// after workload start, cut group A from group B (B empty: from
// everyone else) for DurationSeconds (0: until the end of the run).
type PartitionSpec struct {
	At              float64  `json:"at"`
	DurationSeconds float64  `json:"duration_seconds,omitempty"`
	A               []string `json:"a"`
	B               []string `json:"b,omitempty"`
}

// FaultsSpec groups everything that goes wrong on purpose.
type FaultsSpec struct {
	// MTBFSeconds, when positive, injects random replica-node crashes.
	MTBFSeconds float64 `json:"mtbf_seconds,omitempty"`
	// FailAt/FailComponent crash one component's node at a fixed time.
	FailAt        float64 `json:"fail_at,omitempty"`
	FailComponent string  `json:"fail_component,omitempty"`
	// Chaos is the declarative crash/reboot/slow/partition schedule.
	Chaos ChaosSchedule `json:"chaos,omitempty"`
	// Partition is sugar for Chaos partition events: each entry cuts the
	// simulated network between its A and B groups. Requires
	// Network.Enabled.
	Partition []PartitionSpec `json:"partition,omitempty"`
	// Network enables and configures the simulated network fabric.
	Network netsim.Config `json:"network"`
}

// SizingSpec groups cluster and control-loop sizing.
type SizingSpec struct {
	// Nodes is the cluster size (9 by default).
	Nodes int `json:"nodes,omitempty"`
	// App and DB parameterize the two sizing loops.
	App SizingConfig `json:"app"`
	DB  SizingConfig `json:"db"`
	// MaxAppReplicas / MaxDBReplicas cap the tiers (2 and 3 by default
	// when managed).
	MaxAppReplicas int `json:"max_app_replicas,omitempty"`
	MaxDBReplicas  int `json:"max_db_replicas,omitempty"`
	// ThrashThreshold / ThrashFactor configure node overload behavior.
	ThrashThreshold int     `json:"thrash_threshold,omitempty"`
	ThrashFactor    float64 `json:"thrash_factor,omitempty"`
	// NodeCPU overrides per-node CPU capacity (1.0 default).
	NodeCPU float64 `json:"node_cpu,omitempty"`
	// Arbitrate replaces the shared inhibitor with the arbitration
	// manager.
	Arbitrate bool `json:"arbitrate,omitempty"`
}

// ChecksSpec groups run-time validation.
type ChecksSpec struct {
	// Invariants enables the invariant-checking harness.
	Invariants bool `json:"invariants,omitempty"`
	// InvariantPeriodSeconds is the harness ticker period (1 default).
	InvariantPeriodSeconds float64 `json:"invariant_period_seconds,omitempty"`
	// SLOIntervalSeconds is the SLO evaluation window (10 default).
	SLOIntervalSeconds float64 `json:"slo_interval_seconds,omitempty"`
	// SLOTargets overrides objective bounds by name (e.g.
	// "client-latency-p95": 1.5) and is refreshable at runtime: a /config
	// patch or operator event replaces an objective's finite bound
	// mid-run.
	SLOTargets map[string]float64 `json:"slo_targets,omitempty"`
}

// TelemetrySpec groups observability outputs.
type TelemetrySpec struct {
	// TraceRequests samples every N-th client request into the causal
	// span store (0: management events only).
	TraceRequests int `json:"trace_requests,omitempty"`
	// TraceOff disables the telemetry bus entirely.
	TraceOff bool `json:"trace_off,omitempty"`
	// MetricsDir/MetricsIntervalSeconds write periodic snapshots.
	MetricsDir             string  `json:"metrics_dir,omitempty"`
	MetricsIntervalSeconds float64 `json:"metrics_interval_seconds,omitempty"`
	// HTTPAddr serves the live admin endpoint.
	HTTPAddr string `json:"http_addr,omitempty"`
}

// DefaultSpec mirrors DefaultScenario in grouped form: the paper's §5.2
// configuration.
func DefaultSpec(seed int64, managed bool) Spec {
	return Spec{
		Seed:    seed,
		Managed: managed,
		Workload: WorkloadSpec{
			Profile:          ProfileSpec{Kind: "paper-ramp"},
			Mix:              "bidding",
			ThinkTimeSeconds: 7,
			DrainSeconds:     60,
		},
		Sizing: SizingSpec{
			Nodes:           9,
			App:             AppSizingDefaults(),
			DB:              DBSizingDefaults(),
			MaxAppReplicas:  2,
			MaxDBReplicas:   3,
			ThrashThreshold: 60,
			ThrashFactor:    0.08,
		},
	}
}

// Validate checks the spec for contradictions before a run. Zero values
// are fine everywhere (they take defaults); Validate flags what defaults
// cannot repair. Failures come back as a *ValidationError carrying one
// FieldError per offending knob, each located by its JSON field path
// ("sizing.app.max: must be > sizing.app.min") — the same structured
// errors the admin /config POST returns as its 400 body and jadectl
// renders for -config files.
func (s Spec) Validate() error {
	var ve ValidationError
	if _, err := s.Workload.Profile.Profile(); err != nil {
		ve.addf("workload.profile.kind", "unknown profile kind %q (want paper-ramp, constant or ramp)", s.Workload.Profile.Kind)
	}
	switch s.Workload.Mix {
	case "", "bidding", "browsing":
	default:
		ve.addf("workload.mix", "unknown mix %q (want bidding or browsing)", s.Workload.Mix)
	}
	if s.Workload.ThinkTimeSeconds < 0 {
		ve.addf("workload.think_time_seconds", "must be >= 0, got %g", s.Workload.ThinkTimeSeconds)
	}
	switch s.Workload.Mode {
	case "", WorkloadDiscrete, WorkloadFluid, WorkloadAuto:
	default:
		ve.addf("workload.mode", "unknown workload mode %q (want discrete, fluid or auto)", s.Workload.Mode)
	}
	if s.Workload.FluidTickSeconds < 0 {
		ve.addf("workload.fluid_tick_seconds", "must be >= 0, got %g", s.Workload.FluidTickSeconds)
	}
	if s.Workload.FluidSampleRate < 0 || s.Workload.FluidSampleRate > 1 {
		ve.addf("workload.fluid_sample_rate", "must be within [0,1], got %g", s.Workload.FluidSampleRate)
	}
	if s.Sizing.NodeCPU < 0 {
		ve.addf("sizing.node_cpu", "must be >= 0, got %g", s.Sizing.NodeCPU)
	}
	if s.Sizing.Nodes < 0 {
		ve.addf("sizing.nodes", "must be >= 0, got %d", s.Sizing.Nodes)
	}
	for _, tier := range []struct {
		path string
		cfg  SizingConfig
	}{{"sizing.app", s.Sizing.App}, {"sizing.db", s.Sizing.DB}} {
		if tier.cfg.Min < 0 {
			ve.addf(tier.path+".min", "must be >= 0, got %g", tier.cfg.Min)
		}
		if tier.cfg.Max != 0 && tier.cfg.Max <= tier.cfg.Min {
			ve.addf(tier.path+".max", "must be > %s.min (%g), got %g", tier.path, tier.cfg.Min, tier.cfg.Max)
		}
		if tier.cfg.InhibitSeconds < 0 {
			ve.addf(tier.path+".inhibit_seconds", "must be >= 0, got %g", tier.cfg.InhibitSeconds)
		}
	}
	if s.Faults.FailComponent != "" && s.Faults.FailAt < 0 {
		ve.addf("faults.fail_at", "must be >= 0, got %g", s.Faults.FailAt)
	}
	n := s.Faults.Network
	checkLink := func(path string, l LinkConfig) {
		if l.LatencyMS < 0 {
			ve.addf(path+".latency_ms", "must be >= 0, got %g", l.LatencyMS)
		}
		if l.JitterMS < 0 {
			ve.addf(path+".jitter_ms", "must be >= 0, got %g", l.JitterMS)
		}
		if l.Loss < 0 || l.Loss >= 1 {
			ve.addf(path+".loss", "must be within [0,1), got %g", l.Loss)
		}
	}
	checkLink("faults.network.default", n.Default)
	for key, l := range n.Links {
		if from, to, ok := strings.Cut(key, "->"); !ok || from == "" || to == "" {
			ve.addf("faults.network.links["+key+"]", `key must be "from->to" with both endpoints named`)
		}
		checkLink("faults.network.links["+key+"]", l)
	}
	if len(s.Faults.Partition) > 0 && !n.Enabled {
		ve.addf("faults.partition", "requires faults.network.enabled")
	}
	for i, ps := range s.Faults.Partition {
		if len(ps.A) == 0 {
			ve.addf(fmt.Sprintf("faults.partition[%d].a", i), "must name at least one endpoint")
		}
		if ps.At < 0 || ps.DurationSeconds < 0 {
			ve.addf(fmt.Sprintf("faults.partition[%d]", i), "timing must be >= 0")
		}
	}
	for i, ev := range s.Faults.Chaos {
		if ev.At < 0 {
			ve.addf(fmt.Sprintf("faults.chaos[%d].at", i), "must be >= 0, got %g", ev.At)
		}
		switch ev.Kind {
		case ChaosCrash, ChaosReboot, ChaosSlow, ChaosHeal:
		case ChaosPartition:
			if !n.Enabled {
				ve.addf(fmt.Sprintf("faults.chaos[%d]", i), "partition requires faults.network.enabled")
			}
			if len(ev.A) == 0 {
				ve.addf(fmt.Sprintf("faults.chaos[%d].a", i), "must name at least one endpoint")
			}
		case ChaosConfig:
			if err := CheckPatch(ev.Patch); err != nil {
				for _, fe := range AsValidationError(err) {
					ve.addf(joinPath(fmt.Sprintf("faults.chaos[%d].patch", i), fe.Path), "%s", fe.Msg)
				}
			}
		default:
			ve.addf(fmt.Sprintf("faults.chaos[%d].kind", i), "unknown kind %q", ev.Kind)
		}
	}
	if s.Recovery && !s.Managed {
		ve.addf("recovery", "requires managed")
	}
	ve.checkPolicies(givenPolicies(s.Routing.Policy, s.Routing.L4, s.Routing.App, s.Routing.DB))
	if s.Routing.ProbeAfterSeconds < 0 {
		ve.addf("routing.probe_after_seconds", "must be >= 0, got %g", s.Routing.ProbeAfterSeconds)
	}
	if s.Routing.HalfLifeSeconds < 0 {
		ve.addf("routing.half_life_seconds", "must be >= 0, got %g", s.Routing.HalfLifeSeconds)
	}
	for name, target := range s.Checks.SLOTargets {
		if target <= 0 {
			ve.addf("checks.slo_targets["+name+"]", "must be > 0, got %g", target)
		}
	}
	a := s.Alerting
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"alerting.eval_interval_seconds", a.EvalIntervalSeconds},
		{"alerting.fast_window_seconds", a.FastWindowSeconds},
		{"alerting.slow_window_seconds", a.SlowWindowSeconds},
		{"alerting.budget_fraction", a.BudgetFraction},
		{"alerting.page_burn", a.PageBurn},
		{"alerting.warn_burn", a.WarnBurn},
		{"alerting.z_threshold", a.ZThreshold},
		{"alerting.skew_factor", a.SkewFactor},
		{"alerting.hysteresis_seconds", a.HysteresisSeconds},
	} {
		if f.v < 0 {
			ve.addf(f.name, "must be >= 0, got %g", f.v)
		}
	}
	if a.FastWindowSeconds > 0 && a.SlowWindowSeconds > 0 && a.FastWindowSeconds > a.SlowWindowSeconds {
		ve.addf("alerting.fast_window_seconds", "must be <= slow window (%g), got %g", a.SlowWindowSeconds, a.FastWindowSeconds)
	}
	if a.PageBurn > 0 && a.WarnBurn > 0 && a.WarnBurn > a.PageBurn {
		ve.addf("alerting.warn_burn", "must be <= page burn (%g), got %g", a.PageBurn, a.WarnBurn)
	}
	if a.BudgetFraction > 1 {
		ve.addf("alerting.budget_fraction", "must be <= 1, got %g", a.BudgetFraction)
	}
	if a.MonitorReplicas && !s.Faults.Network.Enabled {
		ve.addf("alerting.monitor_replicas", "requires faults.network.enabled")
	}
	for i, ev := range s.Operator {
		if ev.At < 0 {
			ve.addf(fmt.Sprintf("operator[%d].at", i), "must be >= 0, got %g", ev.At)
		}
		if err := CheckPatch(ev.Patch); err != nil {
			for _, fe := range AsValidationError(err) {
				ve.addf(joinPath(fmt.Sprintf("operator[%d].patch", i), fe.Path), "%s", fe.Msg)
			}
		}
	}
	return ve.or()
}

// joinPath nests an inner field path under an outer one.
func joinPath(outer, inner string) string {
	if inner == "" {
		return outer
	}
	return outer + "." + inner
}

// Flatten compiles the grouped spec down to the flat ScenarioConfig the
// runner executes (the compatibility shim: everything expressible as a
// Spec is expressible as a ScenarioConfig). Partition entries become
// chaos partition events.
func (s Spec) Flatten() (ScenarioConfig, error) {
	if err := s.Validate(); err != nil {
		return ScenarioConfig{}, err
	}
	profile, err := s.Workload.Profile.Profile()
	if err != nil {
		return ScenarioConfig{}, err
	}
	var mix *Mix
	if s.Workload.Mix == "browsing" {
		mix = BrowsingMix()
	}
	chaos := append(ChaosSchedule(nil), s.Faults.Chaos...)
	for _, ps := range s.Faults.Partition {
		chaos = append(chaos, ChaosEvent{
			At:       ps.At,
			Kind:     ChaosPartition,
			Duration: ps.DurationSeconds,
			A:        append([]string(nil), ps.A...),
			B:        append([]string(nil), ps.B...),
		})
	}
	cfg := ScenarioConfig{
		Seed:            s.Seed,
		Managed:         s.Managed,
		Recovery:        s.Recovery,
		Profile:         profile,
		Mix:             mix,
		ThinkTime:       s.Workload.ThinkTimeSeconds,
		Sessions:        s.Workload.Sessions,
		DrainSeconds:    s.Workload.DrainSeconds,
		WorkloadMode:    s.Workload.Mode,
		FluidTick:       s.Workload.FluidTickSeconds,
		FluidSampleRate: s.Workload.FluidSampleRate,
		FluidMinSampled: s.Workload.FluidMinSampled,
		NodeCPU:         s.Sizing.NodeCPU,
		MTBFSeconds:     s.Faults.MTBFSeconds,
		FailAt:          s.Faults.FailAt,
		FailComponent:   s.Faults.FailComponent,
		Chaos:           chaos,
		Net:             s.Faults.Network,
		Nodes:           s.Sizing.Nodes,
		AppSizing:       s.Sizing.App,
		DBSizing:        s.Sizing.DB,
		MaxAppReplicas:  s.Sizing.MaxAppReplicas,
		MaxDBReplicas:   s.Sizing.MaxDBReplicas,
		ThrashThreshold: s.Sizing.ThrashThreshold,
		ThrashFactor:    s.Sizing.ThrashFactor,
		Arbitrate:       s.Sizing.Arbitrate,
		Routing:         s.Routing.Config(),
		Invariants:      s.Checks.Invariants,
		InvariantPeriod: s.Checks.InvariantPeriodSeconds,
		SLOInterval:     s.Checks.SLOIntervalSeconds,
		SLOTargets:      s.Checks.SLOTargets,
		Operator:        s.Operator,
		TraceRequests:   s.Telemetry.TraceRequests,
		TraceOff:        s.Telemetry.TraceOff,
		MetricsDir:      s.Telemetry.MetricsDir,
		MetricsInterval: s.Telemetry.MetricsIntervalSeconds,
		HTTPAddr:        s.Telemetry.HTTPAddr,
		Alerting:        s.Alerting.Config(),
		Monitor:         s.Alerting.MonitorReplicas,
	}
	if s.Managed && cfg.MaxAppReplicas == 0 {
		cfg.MaxAppReplicas = 2
	}
	if s.Managed && cfg.MaxDBReplicas == 0 {
		cfg.MaxDBReplicas = 3
	}
	return cfg, nil
}

// RunSpec validates, flattens and runs the spec.
func RunSpec(s Spec) (*ScenarioResult, error) {
	cfg, err := s.Flatten()
	if err != nil {
		return nil, err
	}
	return RunScenario(cfg)
}

// ParseSpec decodes a JSON run spec, rejecting unknown fields so config
// typos surface as errors instead of silently-defaulted knobs.
func ParseSpec(data []byte) (Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("jade: parsing run spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// LoadSpec reads a JSON run spec from disk (jadectl scenario -config).
func LoadSpec(path string) (Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, err
	}
	s, err := ParseSpec(data)
	if err != nil {
		return Spec{}, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}
