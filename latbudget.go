package jade

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"

	"jade/internal/obs/attrib"
)

// latBudgetSlowAt is when (seconds after workload start) the slowapp
// variant's CPU hogs land on tomcat1.
const latBudgetSlowAt = 30.0

// latBudgetSpec is the latency-budget experiment's run for one variant:
// the managed paper ramp with causal request tracing dense enough for
// per-tier budget percentiles.
//
//   - "baseline" and "replay" are byte-identical configurations — the
//     same-seed determinism pair whose artifacts must diff clean.
//   - "slowapp" additionally parks three CPU hogs on tomcat1 from
//     t+30 s to the end of the ramp, a gray slowdown the budget report
//     must localize as app-tier queueing.
func latBudgetSpec(seed int64, variant string, quick bool) Spec {
	s := DefaultSpec(seed, true)
	// 3x is the steepest compression of the paper ramp the default
	// sizing loops still keep up with (60 s inhibition windows); beyond
	// that the db tier collapses and every budget is just db queueing.
	// quick keeps the 3x slope but stops the climb at 300 clients.
	s.Telemetry.TraceRequests = 8
	peak := 500
	if quick {
		peak = 300
		s.Telemetry.TraceRequests = 4
	}
	s.Workload.Profile = ProfileSpec{Kind: "ramp", Base: 80, Peak: peak, StepPerMinute: 63, HoldAtPeakSeconds: 40}
	// The app tier is pinned to one replica: left free, the app sizing
	// loop reacts to the slowapp hogs by growing tomcat2 early and the
	// "fault" run comes out *faster* than the baseline — self-repair
	// masking the very regression the diff must localize. Pinning models
	// the capacity-capped deployment where attribution has to carry the
	// diagnosis; the db loop keeps the resize/blame-shift story.
	s.Sizing.App.MaxReplicas = 1
	if variant == "slowapp" {
		// Fifteen stacked hogs leave tomcat1 at ~1/16 speed.
		profile, _ := s.Workload.Profile.Profile()
		length := profile.Duration()
		for i := 0; i < 15; i++ {
			s.Faults.Chaos = append(s.Faults.Chaos, ChaosEvent{
				At: latBudgetSlowAt, Kind: ChaosSlow, Target: "tomcat1",
				Duration: length - latBudgetSlowAt,
			})
		}
	}
	return s
}

// firstReplicaChange returns the virtual time a replica-count series
// first moves off its initial value, or -1 if it never does.
func firstReplicaChange(s *Series) float64 {
	if s == nil || s.Len() == 0 {
		return -1
	}
	v0 := s.Point(0).V
	for i := 1; i < s.Len(); i++ {
		if p := s.Point(i); p.V != v0 {
			return p.T
		}
	}
	return -1
}

// latBudgetRuns is the latency-attribution flagship experiment: three
// managed paper-ramp runs (baseline, same-seed replay, and a gray
// app-tier slowdown), each writing the full artifact set for the
// report's run diffs.
func latBudgetRuns(x *expEnv) ([]expRun, error) {
	var rs []expRun
	for _, name := range []string{"baseline", "replay", "slowapp"} {
		s := latBudgetSpec(x.Seed, name, x.Quick)
		s.Telemetry.MetricsDir = filepath.Join(x.tmp, "latbudget-"+name)
		rs = append(rs, expRun{name: name, spec: s})
	}
	return rs, nil
}

// latBudgetReport diffs the runs' artifacts and self-checks that
//
//   - every variant's budget conserves latency (components sum to the
//     root span within 1%) and loses no trace spans,
//   - the baseline's pre-resize p99 blame lands on the tier whose
//     sizing loop acts first, as queueing, and that blame shifts once
//     the loop has acted,
//   - the same-seed pair's budget artifacts are byte-identical and
//     DiffRuns reports them clean, and
//   - DiffRuns flags the slowapp run and localizes it to app/queue.
func latBudgetReport(x *expEnv, rs []expRun) (string, error) {
	// Per-variant invariants: a budget exists, conserves latency, and
	// the span store kept every sampled request.
	for _, v := range rs {
		r := v.res
		if r.LatencyBudget == nil || r.LatencyBudget.Requests == 0 {
			return "", fmt.Errorf("latbudget %q: no attributed requests", v.name)
		}
		if r.LatencyBudget.MaxConservationErr > 0.01 {
			return "", fmt.Errorf("latbudget %q: conservation error %.2e exceeds 1%%",
				v.name, r.LatencyBudget.MaxConservationErr)
		}
		if st := r.Trace().Stat(); st.SpansDropped > 0 {
			return "", fmt.Errorf("latbudget %q: %d spans dropped — budget would undercount",
				v.name, st.SpansDropped)
		}
	}

	// Pre/post-resize blame on the baseline: before the first sizing
	// action the bottleneck tier's queue must dominate the p99 band, and
	// acting must shift (or shrink) that blame.
	base := rs[0].res
	dbAt := firstReplicaChange(base.DB.Replicas)
	appAt := firstReplicaChange(base.App.Replicas)
	resizeAt, resizeTier := dbAt, "db"
	if dbAt < 0 || (appAt >= 0 && appAt < dbAt) {
		resizeAt, resizeTier = appAt, "app"
	}
	if resizeAt < 0 {
		return "", fmt.Errorf("latbudget baseline: no sizing loop ever acted — the ramp never saturated a tier")
	}
	pre := attrib.BuildReport(base.Attribution.Window(base.WorkloadStart, resizeAt), nil)
	post := attrib.BuildReport(base.Attribution.Window(resizeAt, base.WorkloadEnd), nil)
	preBlame, okPre := pre.Dominant("p99")
	postBlame, okPost := post.Dominant("p99")
	if !okPre || !okPost {
		return "", fmt.Errorf("latbudget baseline: too few traced requests to fill the p99 band")
	}
	if preBlame.Tier != resizeTier || preBlame.Component != attrib.Queue {
		return "", fmt.Errorf("latbudget baseline: pre-resize p99 blame %s/%s, want %s/%s (the tier the sizing loop grew first)",
			preBlame.Tier, preBlame.Component, resizeTier, attrib.Queue)
	}
	sameBlame := postBlame.Tier == preBlame.Tier && postBlame.Component == preBlame.Component
	if sameBlame && postBlame.Share >= preBlame.Share {
		return "", fmt.Errorf("latbudget baseline: p99 blame did not shift after the resize (%s/%s share %.2f -> %.2f)",
			preBlame.Tier, preBlame.Component, preBlame.Share, postBlame.Share)
	}

	// Same-seed determinism: byte-identical budget artifacts, clean diff.
	baseDir, replayDir, slowDir := rs[0].spec.Telemetry.MetricsDir, rs[1].spec.Telemetry.MetricsDir, rs[2].spec.Telemetry.MetricsDir
	budgetA, errA := os.ReadFile(filepath.Join(baseDir, "latency_budget.json"))
	budgetB, errB := os.ReadFile(filepath.Join(replayDir, "latency_budget.json"))
	if errA != nil || errB != nil {
		return "", fmt.Errorf("latbudget: missing budget artifact: %v / %v", errA, errB)
	}
	if !bytes.Equal(budgetA, budgetB) {
		return "", fmt.Errorf("latbudget: same-seed budget artifacts differ (%d vs %d bytes)",
			len(budgetA), len(budgetB))
	}
	cleanDiff, err := DiffRuns(baseDir, replayDir)
	if err != nil {
		return "", err
	}
	if !cleanDiff.Clean() {
		return "", fmt.Errorf("latbudget: same-seed runs did not diff clean:\n%s", cleanDiff.Render())
	}

	// Injected slowdown: the diff must flag the run and blame app/queue.
	slowDiff, err := DiffRuns(baseDir, slowDir)
	if err != nil {
		return "", err
	}
	if slowDiff.Clean() {
		return "", fmt.Errorf("latbudget: diff did not flag the slowed run")
	}
	if slowDiff.BlameTier != "app" || slowDiff.BlameComponent != attrib.Queue {
		return "", fmt.Errorf("latbudget: slowdown blamed on %s/%s, want app/%s:\n%s",
			slowDiff.BlameTier, slowDiff.BlameComponent, attrib.Queue, slowDiff.Render())
	}

	title := "Latency budgets and run diff (managed paper ramp at 3x, trace 1/8)"
	if x.Quick {
		title = "Latency budgets and run diff (managed 3x ramp to 300 clients, trace 1/4, quick)"
	}
	tb := &TextTable{
		Title: title,
		Headers: []string{"variant", "requests", "attributed", "conservation", "p99 (s)",
			"p99 blame", "share"},
	}
	for _, v := range rs {
		r := v.res
		blame, _ := r.LatencyBudget.Dominant("p99")
		tb.AddRow(v.name,
			fmt.Sprintf("%d", r.Stats.Completed),
			fmt.Sprintf("%d", r.LatencyBudget.Requests),
			fmt.Sprintf("%.1e", r.LatencyBudget.MaxConservationErr),
			fmt.Sprintf("%.3f", r.RequestLatency.Quantile(0.99)),
			fmt.Sprintf("%s/%s", blame.Tier, blame.Component),
			fmt.Sprintf("%.2f", blame.Share))
	}
	out := tb.Render()
	out += fmt.Sprintf("\nbaseline first resize: %s tier at t=%.0f s; pre-resize p99 blame %s/%s (share %.2f), post-resize %s/%s (share %.2f)\n",
		resizeTier, resizeAt-base.WorkloadStart,
		preBlame.Tier, preBlame.Component, preBlame.Share,
		postBlame.Tier, postBlame.Component, postBlame.Share)
	out += fmt.Sprintf("\nsame-seed diff: %s", cleanDiff.Verdict())
	out += fmt.Sprintf("\nslowapp  diff: %s\n", slowDiff.Verdict())
	return out, nil
}
