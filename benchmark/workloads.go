package main

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"jade"
)

// A workload is one reference run of the simulator. All of them are
// closed loops: every RUBiS client waits for its reply and then thinks
// for 7 s on average before its next request.
type workload struct {
	name string
	why  string
	// injectsFaults marks the one workload whose configuration crashes
	// nodes on purpose. There a failed client request is the model's
	// correct answer to an injected fault: it is hashed into the digest
	// and reported as rubis.requests_failed, and is not counted as a
	// failed operation of the benchmark. Everywhere else any failed
	// request is.
	injectsFaults bool
	// config builds the run's configuration; dir is a directory the run
	// may write into.
	config func(seed int64, dir string) jade.ScenarioConfig
	// check inspects one finished run beyond the checks every workload
	// shares (no invariant violation, same digest every iteration).
	check func(cfg jade.ScenarioConfig, r *jade.ScenarioResult) error
}

func managedRamp(seed int64) jade.ScenarioConfig {
	cfg := jade.DefaultScenario(seed, true)
	cfg.TraceOff = true
	return cfg
}

func bothTiersGrew(_ jade.ScenarioConfig, r *jade.ScenarioResult) error {
	if r.App.Replicas.Max() <= 1 || r.DB.Replicas.Max() <= 1 {
		return fmt.Errorf("sizing idle: app peaked at %.0f replicas, db at %.0f", r.App.Replicas.Max(), r.DB.Replicas.Max())
	}
	return nil
}

var workloads = []workload{
	{
		name: "paper_ramp",
		why:  "The paper's Fig. 5-9 run: managed 80-500-80 client ramp, bidding mix, every plane off; writes grow the tables, so sqlengine scans dominate.",
		config: func(seed int64, _ string) jade.ScenarioConfig {
			return managedRamp(seed)
		},
		check: bothTiersGrew,
	},
	{
		name: "browse_ramp",
		why:  "Same ramp, read-only browsing mix: no table growth, write broadcast or recovery log, so cluster, sim, rubis and selector take their largest shares.",
		config: func(seed int64, _ string) jade.ScenarioConfig {
			cfg := managedRamp(seed)
			cfg.Mix = jade.BrowsingMix()
			return cfg
		},
		check: bothTiersGrew,
	},
	{
		name: "planes_on",
		why:  "Browsing ramp with every observation plane live: each request traced, network fabric, alerting, metrics snapshots every 10 s; obs, trace, netsim and attribution do work only here.",
		config: func(seed int64, dir string) jade.ScenarioConfig {
			cfg := jade.DefaultScenario(seed, true)
			cfg.Mix = jade.BrowsingMix()
			cfg.TraceRequests = 1
			cfg.Net.Enabled = true
			cfg.MetricsDir = filepath.Join(dir, "planes_on.metrics")
			cfg.MetricsInterval = 10
			return cfg
		},
		check: func(cfg jade.ScenarioConfig, r *jade.ScenarioResult) error {
			if err := bothTiersGrew(cfg, r); err != nil {
				return err
			}
			if err := r.Trace().WellFormed(); err != nil {
				return fmt.Errorf("trace: %w", err)
			}
			if r.LatencyBudget == nil || r.LatencyBudget.Requests == 0 {
				return errors.New("no attributed requests")
			}
			if e := r.LatencyBudget.MaxConservationErr; e > 0.01 {
				return fmt.Errorf("attribution conservation error %.4f above 1%%", e)
			}
			for _, pat := range []string{"metrics-t*.prom", "metrics-t*.json", "latency_budget.json", "alerts.jsonl"} {
				if m, _ := filepath.Glob(filepath.Join(cfg.MetricsDir, pat)); len(m) == 0 {
					return fmt.Errorf("no %s in %s", pat, cfg.MetricsDir)
				}
			}
			return nil
		},
	},
	{
		name:          "chaos_sweep",
		why:           "The CI chaos sweep's unit of work: 2x ramp with recovery, arbitration, invariants and two crash/repair cycles; allocation-heavy, per-second database fingerprints, state transfer.",
		injectsFaults: true,
		// The network fabric stays off here, as in the CI sweep: with it on,
		// this run trips cjdbc-consistency on seeds 2, 8, 9 and 10 (README,
		// "Known defect").
		config: func(seed int64, _ string) jade.ScenarioConfig {
			cfg := jade.ChaosSweepScenario(2)
			cfg.Seed = seed
			cfg.Invariants = true
			cfg.Chaos = jade.DefaultCrashSchedule(cfg.Profile.Duration())
			cfg.TraceOff = true
			return cfg
		},
		check: func(_ jade.ScenarioConfig, r *jade.ScenarioResult) error {
			if r.Repairs < 2 {
				return fmt.Errorf("%d repairs, want at least 2", r.Repairs)
			}
			if r.InvariantChecks == 0 {
				return errors.New("invariant harness made no checks")
			}
			return nil
		},
	},
	{
		name: "fluid_million",
		why:  "ROADMAP's million-client run: 20 nodes, fluid tick plus a sampled discrete stream; shows whether the fluid engine or the sampled path sets its cost.",
		config: func(seed int64, _ string) jade.ScenarioConfig {
			return jade.MillionClientScenario(seed, false)
		},
		check: func(cfg jade.ScenarioConfig, r *jade.ScenarioResult) error {
			if err := bothTiersGrew(cfg, r); err != nil {
				return err
			}
			if r.Fluid == nil {
				return errors.New("no fluid report")
			}
			if peak := r.Stats.Workload.Max(); peak != jade.MillionClients {
				return fmt.Errorf("workload peaked at %.0f clients, want %d", peak, jade.MillionClients)
			}
			if r.Fluid.Completed < jade.MillionClients {
				return fmt.Errorf("fluid flow completed only %.0f requests", r.Fluid.Completed)
			}
			return nil
		},
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// deployOnly shrinks a run to its set-up: the same planes and cluster,
// but the smallest population and length the emulator accepts.
func deployOnly(cfg jade.ScenarioConfig) jade.ScenarioConfig {
	cfg.Profile = jade.ConstantProfile{Clients: 1, Length: 1}
	cfg.DrainSeconds = 1
	cfg.Chaos = nil
	return cfg
}

// prepare empties what the previous run left in the run's output
// directory, so every iteration writes the same files.
func prepare(cfg jade.ScenarioConfig) error {
	if cfg.MetricsDir == "" {
		return nil
	}
	return os.RemoveAll(cfg.MetricsDir)
}

// outcome is what one finished run contributes to the result: the
// modelled statistics (identical on every run of one seed on one
// commit), hashed into digest.
type outcome struct {
	Events           uint64  `json:"events"`
	Completed        uint64  `json:"completed"`
	Failed           uint64  `json:"failed"`
	Reconfigurations int     `json:"reconfigurations"`
	Repairs          uint64  `json:"repairs"`
	NodeSeconds      float64 `json:"node_seconds"`
	PeakNodes        int     `json:"peak_nodes"`
	LatencyP50Ms     float64 `json:"latency_p50_ms"`
	LatencyP99Ms     float64 `json:"latency_p99_ms"`
	ThroughputRPS    float64 `json:"throughput_rps"`
	NetMessages      uint64  `json:"net_messages"`
	NetRPCs          uint64  `json:"net_rpcs"`
	NetRetransmits   uint64  `json:"net_retransmits"`
	NetAbandoned     uint64  `json:"net_abandoned"`
	InvariantChecks  uint64  `json:"invariant_checks"`
	TraceSpans       int     `json:"trace_spans"`
	TraceEvents      int     `json:"trace_events"`
	TraceDropped     uint64  `json:"trace_dropped"`
	Alerts           int     `json:"alerts"`
	Attributed       int     `json:"attributed"`
	FluidCompleted   float64 `json:"fluid_completed"`
	FluidTicks       uint64  `json:"fluid_ticks"`
	Digest           string  `json:"digest"`
}

func summarize(r *jade.ScenarioResult) outcome {
	st := r.Trace().Stat()
	o := outcome{
		Events:           r.Platform.Eng.Processed(),
		Completed:        r.Stats.Completed,
		Failed:           r.Stats.Failed,
		Reconfigurations: r.Reconfigurations,
		Repairs:          r.Repairs,
		NodeSeconds:      r.NodeSeconds,
		PeakNodes:        r.PeakNodesUsed,
		LatencyP50Ms:     1000 * r.RequestLatency.Quantile(0.50),
		LatencyP99Ms:     1000 * r.RequestLatency.Quantile(0.99),
		ThroughputRPS:    r.Throughput(),
		NetMessages:      r.Net.Messages,
		NetRPCs:          r.Net.RPCs,
		NetRetransmits:   r.Net.Retransmits,
		NetAbandoned:     r.Net.Abandoned,
		InvariantChecks:  r.InvariantChecks,
		TraceSpans:       st.Spans,
		TraceEvents:      st.Events,
		TraceDropped:     st.SpansDropped,
		Alerts:           len(r.Alerts.Alerts()),
	}
	if r.LatencyBudget != nil {
		o.Attributed = r.LatencyBudget.Requests
	}
	if r.Fluid != nil {
		o.FluidCompleted = r.Fluid.Completed
		o.FluidTicks = r.Fluid.Ticks
	}
	h := sha256.Sum256([]byte(fmt.Sprintf("%+v", o)))
	o.Digest = fmt.Sprintf("%x", h[:8])
	return o
}

// checkRun applies the shared checks and the workload's own to one run.
func (w *workload) checkRun(cfg jade.ScenarioConfig, r *jade.ScenarioResult) error {
	if v := r.InvariantViolation; v != nil {
		return fmt.Errorf("invariant %s violated at t=%.0f: %s", v.Checker, v.Time, v.Detail)
	}
	if r.Stats.Completed == 0 {
		return errors.New("no request completed")
	}
	return w.check(cfg, r)
}
