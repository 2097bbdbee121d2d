package jade

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"

	"jade/internal/metrics"
)

// liveRetuneMinImprovement is the self-check floor: swapping the
// selector away from round-robin while a gray failure is active must at
// least halve the post-swap tail latency.
const liveRetuneMinImprovement = 2.0

// liveRetuneSpec is the gray-failure run of the live-retune experiment:
// round-robin routing everywhere, with an operator config patch at swapAt
// (virtual seconds after workload start) that swaps every tier's selector
// to "balanced" — the same change an operator would POST to /config on a
// live deployment. retune=false omits the patch, yielding the control
// run.
func liveRetuneSpec(seed int64, quick, retune bool) (s Spec, swapAt, settle float64) {
	s = grayFailSpec(seed, "round-robin", quick)
	swapAt, settle = 120, 30
	if quick {
		swapAt, settle = 60, 20
	}
	if retune {
		s.Operator = OperatorSchedule{
			{At: swapAt, Patch: json.RawMessage(`{"routing":{"policy":"balanced"}}`)},
		}
	}
	return s, swapAt, settle
}

// liveRetuneManagedSpec is the threshold-retune run: a compressed managed
// ramp where an operator patch mid-ramp tightens the app tier's CPU
// thresholds — the knobs of the paper's self-optimization loop — without
// restarting the control loop.
func liveRetuneManagedSpec(seed int64) (Spec, float64) {
	s := DefaultSpec(seed, true)
	s.Workload.Profile = ProfileSpec{Kind: "ramp", Base: 40, Peak: 200, StepPerMinute: 150, HoldAtPeakSeconds: 60}
	retuneAt := 90.0
	s.Operator = OperatorSchedule{
		{At: retuneAt, Patch: json.RawMessage(`{"sizing":{"app":{"min":0.30,"max":0.60}}}`)},
	}
	return s, retuneAt
}

// windowP99 returns the 99th-percentile completed-request latency over
// [t0, t1) of virtual time.
func windowP99(r *ScenarioResult, t0, t1 float64) float64 {
	vs := appendWindow(nil, r.Stats.Latency, t0, t1)
	sort.Float64s(vs)
	return metrics.Percentile(vs, 0.99)
}

// traceFingerprint renders the run's full telemetry bus plus its
// config-change log as bytes, for replay byte-identity checks.
func traceFingerprint(r *ScenarioResult) ([]byte, error) {
	var buf bytes.Buffer
	if err := r.Trace().WriteJSONL(&buf); err != nil {
		return nil, err
	}
	changes, err := json.Marshal(r.ConfigChanges)
	if err != nil {
		return nil, err
	}
	buf.Write(changes)
	return buf.Bytes(), nil
}

// appliedOperatorChanges counts config changes that were accepted and
// originated from the operator schedule.
func appliedOperatorChanges(r *ScenarioResult) int {
	n := 0
	for _, c := range r.ConfigChanges {
		if c.Source == "operator" && c.Error == "" {
			n++
		}
	}
	return n
}

// liveRetuneRuns is the live-reconfiguration experiment: the same
// gray-failure scenario as grayfail, except the cluster *starts* on the
// pathological round-robin policy and an operator config patch swaps
// every tier's selector to "balanced" halfway through — over the same
// code path as a POST to the admin plane's /config endpoint, with zero
// restarts. The runs are the control that never retunes, the retuned
// run, its same-seed replay, and the managed threshold-retune ramp.
func liveRetuneRuns(x *expEnv) ([]expRun, error) {
	control, _, _ := liveRetuneSpec(x.Seed, x.Quick, false)
	retuned, _, _ := liveRetuneSpec(x.Seed, x.Quick, true)
	replay, _, _ := liveRetuneSpec(x.Seed, x.Quick, true)
	managed, _ := liveRetuneManagedSpec(x.Seed + 1)
	return []expRun{
		{name: "control", spec: control},
		{name: "retuned", spec: retuned},
		{name: "replay", spec: replay},
		{name: "managed", spec: managed},
	}, nil
}

// liveRetuneReport self-checks that
//
//   - the post-swap p99 improves at least 2x over the control run that
//     never retunes,
//   - the swap triggered no reconfigurations, repairs, or restarts,
//   - a same-seed replay (including the mid-run config change) is
//     byte-identical in both trace and config-change log, and
//   - a managed ramp accepts a mid-run sizing-threshold patch that the
//     live reactor observably adopts (trace carries the config span).
func liveRetuneReport(x *expEnv, rs []expRun) (string, error) {
	control, retuned, replay, managed := rs[0].res, rs[1].res, rs[2].res, rs[3].res
	_, swapAt, settle := liveRetuneSpec(x.Seed, x.Quick, true)
	_, retuneAt := liveRetuneManagedSpec(x.Seed + 1)

	length := control.Config.Profile.Duration()
	t0 := retuned.WorkloadStart + swapAt + settle
	t1 := retuned.WorkloadStart + length
	controlP99, retunedP99 := windowP99(control, t0, t1), windowP99(retuned, t0, t1)
	var improvement float64
	if retunedP99 > 0 {
		improvement = controlP99 / retunedP99
	}

	// Self-check: the live swap must pay off without any restart.
	if improvement < liveRetuneMinImprovement {
		return "", fmt.Errorf("liveretune: post-swap p99 improved only %.2fx (control %.3fs vs retuned %.3fs), want >= %.1fx",
			improvement, controlP99, retunedP99, liveRetuneMinImprovement)
	}
	for _, v := range rs[:2] {
		if v.res.Reconfigurations != 0 || v.res.Repairs != 0 || v.res.InjectedFailures != 0 {
			return "", fmt.Errorf("liveretune: %s run restarted something (reconfigs=%d repairs=%d crashes=%d), want zero",
				v.name, v.res.Reconfigurations, v.res.Repairs, v.res.InjectedFailures)
		}
	}
	if got := appliedOperatorChanges(retuned); got != 1 {
		return "", fmt.Errorf("liveretune: retuned run applied %d operator config changes, want 1 (log: %+v)",
			got, retuned.ConfigChanges)
	}
	if got := len(control.ConfigChanges); got != 0 {
		return "", fmt.Errorf("liveretune: control run logged %d config changes, want 0", got)
	}

	// Self-check: same seed + same schedule replays byte-identically.
	a, err := traceFingerprint(retuned)
	if err != nil {
		return "", err
	}
	b, err := traceFingerprint(replay)
	if err != nil {
		return "", err
	}
	if !bytes.Equal(a, b) {
		return "", fmt.Errorf("liveretune: same-seed replay with mid-run config change is not byte-identical (%d vs %d bytes)", len(a), len(b))
	}

	// Self-check: the managed reactor adopted the mid-ramp thresholds
	// and the change is visible as a config span on the telemetry bus.
	if got := appliedOperatorChanges(managed); got != 1 {
		return "", fmt.Errorf("liveretune: managed run applied %d operator config changes, want 1", got)
	}
	reactor := managed.AppManager.Reactor
	if reactor.Min != 0.30 || reactor.Max != 0.60 {
		return "", fmt.Errorf("liveretune: app reactor thresholds (%.2f, %.2f) after retune, want (0.30, 0.60)",
			reactor.Min, reactor.Max)
	}
	configSpans := 0
	for _, sp := range managed.Trace().Spans() {
		if sp.Kind == "config" {
			configSpans++
		}
	}
	if configSpans == 0 {
		return "", fmt.Errorf("liveretune: managed run has no config span on the telemetry bus")
	}

	title := fmt.Sprintf("Live retune under gray failure (RR -> balanced at t=%.0f s, window [%.0f, %.0f) s after start)",
		swapAt, swapAt+settle, length)
	tb := &TextTable{
		Title:   title,
		Headers: []string{"variant", "window p99 (s)", "overall p99 (s)", "completed", "failed", "config changes", "restarts"},
	}
	for _, v := range []struct {
		name string
		p99  float64
		r    *ScenarioResult
	}{
		{"control (RR throughout)", controlP99, control},
		{"retuned (swap to balanced)", retunedP99, retuned},
	} {
		tb.AddRow(v.name,
			fmt.Sprintf("%.3f", v.p99),
			fmt.Sprintf("%.3f", v.r.RequestLatency.Quantile(0.99)),
			fmt.Sprintf("%d", v.r.Stats.Completed),
			fmt.Sprintf("%d", v.r.Stats.Failed),
			fmt.Sprintf("%d", len(v.r.ConfigChanges)),
			"0")
	}
	out := tb.Render()
	out += fmt.Sprintf("\npost-swap p99 improvement: %.1fx (self-check floor %.1fx); same-seed replay byte-identical: true\n",
		improvement, liveRetuneMinImprovement)
	out += fmt.Sprintf("managed mid-ramp retune at t=%.0f s: app thresholds now (%.2f, %.2f), %d config span(s) traced, %d reconfigurations\n",
		retuneAt, reactor.Min, reactor.Max, configSpans, managed.Reconfigurations)
	return out, nil
}
