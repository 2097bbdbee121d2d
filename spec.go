package jade

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"

	"jade/internal/netsim"
)

// Spec is the run: the scenario configuration grouped by concern
// (Workload, Faults, Sizing, Checks, Telemetry) with JSON round-tripping,
// defaults-on-zero semantics and a Validate method. Every run the library
// makes itself (the experiments, the sweep, the golden matrix) and every
// config file is a Spec. ScenarioConfig is the flat form a Spec compiles
// to (see Flatten); the repository benchmark builds it directly, and no
// other caller should.
type Spec struct {
	// Seed drives all randomness; equal seeds give identical runs.
	Seed int64 `json:"seed,omitempty"`
	// Managed enables the self-optimization managers; Recovery
	// additionally arms the self-recovery manager.
	Managed  bool `json:"managed,omitempty"`
	Recovery bool `json:"recovery,omitempty"`
	// ADL is the architecture to deploy, as ADL text (ThreeTierADL when
	// empty). It must bind plb1.workers and cjdbc1.backends: the servers
	// bound there, in binding order, are the tiers' initial replicas.
	ADL string `json:"adl,omitempty"`

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

// AlertingSpec groups the alerting plane's switches. Its rules run with
// the plane's own tuning (internal/obs/alert); Off turns rule evaluation
// off (the evaluation ticker still runs, so the trajectory is unchanged).
type AlertingSpec struct {
	// Off disables rule evaluation.
	Off bool `json:"off,omitempty"`
	// MonitorReplicas arms the φ-accrual detector as a monitoring-only
	// signal source on unmanaged runs (requires faults.network.enabled);
	// suspicion history then feeds the incident timelines.
	MonitorReplicas bool `json:"monitor_replicas,omitempty"`
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
}

// Config compiles the spec to the flat per-tier RoutingConfig.
func (r RoutingSpec) Config() RoutingConfig {
	pick := func(tier string) string {
		if tier != "" {
			return tier
		}
		return r.Policy
	}
	return RoutingConfig{L4: pick(r.L4), App: pick(r.App), DB: pick(r.DB)}
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
	// FluidSampleRate is the fraction of clients kept as real discrete
	// request chains in fluid mode (0.02 default).
	FluidSampleRate float64 `json:"fluid_sample_rate,omitempty"`
}

// FaultsSpec groups everything that goes wrong on purpose.
type FaultsSpec struct {
	// MTBFSeconds, when positive, injects random replica-node crashes.
	MTBFSeconds float64 `json:"mtbf_seconds,omitempty"`
	// Chaos is the declarative crash/reboot/slow/partition/heal/config
	// schedule; a partition requires Network.Enabled.
	Chaos ChaosSchedule `json:"chaos,omitempty"`
	// Network enables and configures the simulated network fabric.
	Network netsim.Config `json:"network"`
}

// SizingSpec groups cluster and control-loop sizing.
type SizingSpec struct {
	// Nodes is the cluster size (9 by default).
	Nodes int `json:"nodes,omitempty"`
	// App and DB parameterize the two sizing loops, each with its tier's
	// replica cap (2 and 3 by default).
	App SizingConfig `json:"app"`
	DB  SizingConfig `json:"db"`
	// ThrashThreshold is the per-node job count past which nodes thrash
	// (DefaultSpec sets the paper's 60). Zero turns thrashing off: the
	// one sizing zero that does not take a default.
	ThrashThreshold int `json:"thrash_threshold,omitempty"`
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

// DefaultSpec is DefaultScenario in grouped form: the paper's §5.2
// configuration.
func DefaultSpec(seed int64, managed bool) Spec {
	d := DefaultScenario(seed, managed)
	return Spec{
		Seed:    seed,
		Managed: managed,
		Workload: WorkloadSpec{
			Profile:          ProfileSpec{Kind: "paper-ramp"},
			Mix:              "bidding",
			ThinkTimeSeconds: d.ThinkTime,
			DrainSeconds:     d.DrainSeconds,
		},
		Sizing: SizingSpec{
			Nodes:           d.Nodes,
			App:             d.AppSizing,
			DB:              d.DBSizing,
			ThrashThreshold: d.ThrashThreshold,
		},
	}
}

// Validate checks the spec for contradictions before a run. It applies
// the rules a ScenarioConfig cannot carry (the profile's kind and numbers,
// the mix name), then the run's own door, ScenarioConfig.check, on the
// compiled configuration: a zero value takes its default, and the field
// rules see the run's numbers after the defaults are filled in. The
// scripted patches (chaos config events and operator events) are applied
// in the run's order over the run's initial live state, with the rules a
// live patch meets; a run records a refused one in ConfigChanges instead
// of refusing to start. Failures come back as a
// *ValidationError carrying one FieldError per offending knob, each
// located by its JSON field path ("sizing.app.max: must be > sizing.app.min")
// — the same structured errors the admin /config POST returns as its 400
// body and jadectl renders for -config files.
func (s Spec) Validate() error {
	var ve ValidationError
	if _, err := s.Workload.Profile.Profile(); err != nil {
		ve.addf("workload.profile.kind", "unknown profile kind %q (want paper-ramp, constant or ramp)", s.Workload.Profile.Kind)
	}
	ps := s.Workload.Profile
	ve.nonNegative("workload.profile.clients", float64(ps.Clients))
	ve.nonNegative("workload.profile.duration_seconds", ps.DurationSeconds)
	ve.nonNegative("workload.profile.base", float64(ps.Base))
	ve.nonNegative("workload.profile.peak", float64(ps.Peak))
	ve.nonNegative("workload.profile.step_per_minute", float64(ps.StepPerMinute))
	ve.nonNegative("workload.profile.hold_at_peak_seconds", ps.HoldAtPeakSeconds)
	switch s.Workload.Mix {
	case "", "bidding", "browsing":
	default:
		ve.addf("workload.mix", "unknown mix %q (want bidding or browsing)", s.Workload.Mix)
	}
	cfg := s.compile().withDefaults()
	if _, err := cfg.check(); err != nil {
		ve.Fields = append(ve.Fields, AsValidationError(err)...)
	} else {
		ve.checkScripted(s, initialLive(&cfg))
	}
	return ve.or()
}

// checkScripted applies the spec's scripted patches over the initial live
// state in the order the run applies them: by virtual time, chaos config
// events before operator events at equal times (run.faults schedules them
// in that order). A refused patch leaves the state as it was, as in the run.
func (ve *ValidationError) checkScripted(s Spec, live liveState) {
	type scripted struct {
		at    float64
		path  string
		patch []byte
	}
	var evs []scripted
	for i, ev := range s.Faults.Chaos {
		if ev.Kind == ChaosConfig {
			evs = append(evs, scripted{ev.At, fmt.Sprintf("faults.chaos[%d].patch", i), ev.Patch})
		}
	}
	for i, ev := range s.Operator {
		evs = append(evs, scripted{ev.At, fmt.Sprintf("operator[%d].patch", i), ev.Patch})
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].at < evs[j].at })
	for _, ev := range evs {
		next, err := live.resolve(ev.patch)
		if err != nil {
			for _, fe := range AsValidationError(err) {
				ve.addf(joinPath(ev.path, fe.Path), "%s", fe.Msg)
			}
			continue
		}
		live = next.liveState
	}
}

// joinPath nests an inner field path under an outer one.
func joinPath(outer, inner string) string {
	if inner == "" {
		return outer
	}
	return outer + "." + inner
}

// Flatten validates the grouped spec and compiles it down to the flat
// ScenarioConfig the runner executes (the compatibility shim: everything
// expressible as a Spec is expressible as a ScenarioConfig).
func (s Spec) Flatten() (ScenarioConfig, error) {
	if err := s.Validate(); err != nil {
		return ScenarioConfig{}, err
	}
	return s.compile(), nil
}

// compile is Flatten without the validation. An unknown profile kind
// compiles to no profile.
func (s Spec) compile() ScenarioConfig {
	profile, _ := s.Workload.Profile.Profile()
	var mix *Mix
	if s.Workload.Mix == "browsing" {
		mix = BrowsingMix()
	}
	return ScenarioConfig{
		Seed:            s.Seed,
		Managed:         s.Managed,
		Recovery:        s.Recovery,
		ADL:             s.ADL,
		Profile:         profile,
		Mix:             mix,
		ThinkTime:       s.Workload.ThinkTimeSeconds,
		Sessions:        s.Workload.Sessions,
		DrainSeconds:    s.Workload.DrainSeconds,
		WorkloadMode:    s.Workload.Mode,
		FluidSampleRate: s.Workload.FluidSampleRate,
		NodeCPU:         s.Sizing.NodeCPU,
		MTBFSeconds:     s.Faults.MTBFSeconds,
		Chaos:           s.Faults.Chaos,
		Net:             s.Faults.Network,
		Nodes:           s.Sizing.Nodes,
		AppSizing:       s.Sizing.App,
		DBSizing:        s.Sizing.DB,
		ThrashThreshold: s.Sizing.ThrashThreshold,
		Arbitrate:       s.Sizing.Arbitrate,
		Routing:         s.Routing.Config(),
		Invariants:      s.Checks.Invariants,
		Operator:        s.Operator,
		TraceRequests:   s.Telemetry.TraceRequests,
		TraceOff:        s.Telemetry.TraceOff,
		MetricsDir:      s.Telemetry.MetricsDir,
		MetricsInterval: s.Telemetry.MetricsIntervalSeconds,
		HTTPAddr:        s.Telemetry.HTTPAddr,
		AlertingOff:     s.Alerting.Off,
		Monitor:         s.Alerting.MonitorReplicas,
	}
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
	var s Spec
	if err := decodeStrict(data, &s); err != nil {
		return Spec{}, fmt.Errorf("jade: parsing run spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// decodeStrict decodes one JSON value into v, refusing unknown fields and
// anything but whitespace after the value. Every parser of outside JSON
// (ParseSpec, ParseSweepArtifact, ParseConfigPatch, ParseConfigSnapshot)
// decodes through it.
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after the JSON value")
	}
	return nil
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
