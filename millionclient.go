package jade

import (
	"fmt"
	"strings"
)

// MillionClients is the flagship experiment's peak population.
const MillionClients = 1_000_000

// millionCrossValRMS is the CPU-curve accuracy bound (RMS, CPU
// fraction) the experiment's fluid-vs-discrete cross-validation stage
// must pass before the million-client numbers are trusted.
const millionCrossValRMS = 0.05

// millionCrossValSpeedup is the cross-validation's ramp compression.
const millionCrossValSpeedup = 4

// millionClientSpec is the flagship run: a RUBiS ramp to one million
// clients on datacenter-class nodes (1024 abstract CPU-units each), with
// both sizing loops active and the workload carried by the fluid engine
// except for a small sampled discrete stream (about 200 clients) that
// keeps latency percentiles, SLOs and alerting live. quick compresses the
// ramp for CI smoke runs.
func millionClientSpec(seed int64, quick bool) Spec {
	s := DefaultSpec(seed, true)
	s.Workload.Mode = WorkloadFluid
	s.Sizing.NodeCPU = 1024
	s.Sizing.Nodes = 20
	s.Sizing.MaxAppReplicas = 6
	s.Sizing.MaxDBReplicas = 12
	// Datacenter nodes queue in memory rather than swap-collapsing, so
	// the 2001 testbed's thrashing regime is off here; it would turn any
	// transient backlog into an unrecoverable death spiral at this scale.
	s.Sizing.ThrashThreshold = 0
	s.Sizing.ThrashFactor = 0
	// The paper's 60 s inhibition is tuned to a 9-node testbed growing
	// one replica per tier; reaching million-client capacity takes ~8
	// grows, so the quiet window shrinks to keep actuation ahead of a
	// ramp that adds ~100k clients per virtual minute.
	s.Sizing.App.InhibitSeconds = 20
	s.Sizing.DB.InhibitSeconds = 20
	s.Workload.FluidSampleRate = 0.0002
	if quick {
		s.Workload.Profile = ProfileSpec{Kind: "ramp", Base: 100_000, Peak: MillionClients, StepPerMinute: 200_000, HoldAtPeakSeconds: 120}
		s.Workload.FluidSampleRate = 0.0001
	} else {
		s.Workload.Profile = ProfileSpec{Kind: "ramp", Base: 100_000, Peak: MillionClients, StepPerMinute: 90_000, HoldAtPeakSeconds: 240}
	}
	return s
}

// MillionClientScenario is the flagship run (see millionClientSpec)
// compiled to a ScenarioConfig.
func MillionClientScenario(seed int64, quick bool) ScenarioConfig {
	return millionClientSpec(seed, quick).compile()
}

// millionClientRuns is the flagship million-client run plus the
// paper-scale fluid-vs-discrete cross-validation that anchors the fluid
// engine's accuracy.
func millionClientRuns(x *expEnv) ([]expRun, error) {
	return append([]expRun{{name: "million", spec: millionClientSpec(x.Seed, x.Quick)}},
		crossValRuns(x.Seed, millionCrossValSpeedup)...), nil
}

// millionClientReport self-checks that the cross-validation passes (CPU
// curves within ±5% RMS, identical resize decision sequences), and that
// the run reaches the full million-client population, both sizing loops
// actuated (each tier grew past its initial single replica) and the
// sampled discrete stream stayed alive.
func millionClientReport(x *expEnv, rs []expRun) (string, error) {
	cv := crossValidate(x.Seed, millionCrossValSpeedup, rs[1].res, rs[2].res)
	if cv.AppCPURMS > millionCrossValRMS || cv.DBCPURMS > millionCrossValRMS {
		return "", fmt.Errorf("millionclient cross-validation: CPU RMS app %.4f / db %.4f exceeds %.2f",
			cv.AppCPURMS, cv.DBCPURMS, millionCrossValRMS)
	}
	if !cv.DecisionsMatch() {
		return "", fmt.Errorf("millionclient cross-validation: resize decisions diverge (app %q vs %q, db %q vs %q)",
			renderSeq(cv.AppFluid), renderSeq(cv.AppDiscrete), renderSeq(cv.DBFluid), renderSeq(cv.DBDiscrete))
	}

	r := rs[0].res
	cfg := r.Config
	if r.Fluid == nil {
		return "", fmt.Errorf("millionclient: run carried no fluid report")
	}
	sampledPeak := ScaledProfile{Inner: cfg.Profile, Rate: cfg.FluidSampleRate, Min: fluidMinSampled}.Max()
	if got := r.Fluid.PeakPopulation + float64(sampledPeak); got < MillionClients {
		return "", fmt.Errorf("millionclient: peak population %.0f never reached %d", got, MillionClients)
	}
	if r.Stats.Workload.Max() != MillionClients {
		return "", fmt.Errorf("millionclient: recorded workload peak %.0f, want %d", r.Stats.Workload.Max(), MillionClients)
	}
	if r.App.Replicas.Max() <= 1 || r.DB.Replicas.Max() <= 1 {
		return "", fmt.Errorf("millionclient: sizing idle (app peak %.0f, db peak %.0f replicas)",
			r.App.Replicas.Max(), r.DB.Replicas.Max())
	}
	if r.Stats.Completed == 0 {
		return "", fmt.Errorf("millionclient: sampled discrete stream completed no requests")
	}
	if r.Fluid.Completed < MillionClients {
		return "", fmt.Errorf("millionclient: fluid flow completed only %.0f requests", r.Fluid.Completed)
	}

	var b strings.Builder
	mode := "full"
	if x.Quick {
		mode = "quick"
	}
	fmt.Fprintf(&b, "Ramp %d -> %d clients (%s), think %.0f s, %d nodes x %.0f CPU\n",
		cfg.Profile.(RampProfile).Base, MillionClients, mode, cfg.ThinkTime, cfg.Nodes, cfg.NodeCPU)
	fmt.Fprintf(&b, "%-34s %14s\n", "METRIC", "VALUE")
	row := func(name, val string) { fmt.Fprintf(&b, "%-34s %14s\n", name, val) }
	row("peak population", fmt.Sprintf("%.0f", r.Stats.Workload.Max()))
	row("fluid requests completed", fmt.Sprintf("%.3e", r.Fluid.Completed))
	row("peak offered rate (req/s)", fmt.Sprintf("%.0f", r.Fluid.PeakRate))
	row("sampled requests (exact)", fmt.Sprintf("%d", r.Stats.Completed))
	row("sampled p95 latency (ms)", fmt.Sprintf("%.2f", r.RequestLatency.Quantile(0.95)*1000))
	row("app replicas peak", fmt.Sprintf("%.0f", r.App.Replicas.Max()))
	row("db replicas peak", fmt.Sprintf("%.0f", r.DB.Replicas.Max()))
	row("reconfigurations", fmt.Sprintf("%d", r.Reconfigurations))
	// Events counts management, faults, ticks and the sampled stream:
	// everything else flowed as rates.
	row("events processed", fmt.Sprintf("%d", r.Platform.Eng.Processed()))
	fmt.Fprintf(&b, "\nCross-validation (paper scenario, seed %d, %gx, fluid vs discrete):\n",
		cv.Seed, cv.Speedup)
	fmt.Fprintf(&b, "  app CPU RMS %.4f, db CPU RMS %.4f (bound %.2f)\n",
		cv.AppCPURMS, cv.DBCPURMS, millionCrossValRMS)
	fmt.Fprintf(&b, "  resize decisions identical: app [%s], db [%s]\n",
		renderSeq(cv.AppFluid), renderSeq(cv.DBFluid))
	return b.String(), nil
}
