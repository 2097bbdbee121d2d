// Command jadebench regenerates the paper's evaluation: every figure and
// table of §5, plus the ablation studies, on the simulated cluster.
//
// Usage:
//
//	jadebench [-seed N] [-speedup X] [-csv DIR] [-experiment NAME] [-quick] [-trace.chrome FILE]
//	jadebench -sweep N [-speedup X] [-parallel N] [-artifact PATH]
//	jadebench -replay PATH [-speedup X]
//
// -trace.chrome writes the managed paper run's telemetry bus as a Chrome
// trace-event file (Perfetto-loadable).
//
// -parallel fans independent runs (sweep seeds, ablation variants, the
// managed/unmanaged pair) over a worker pool; 0 uses GOMAXPROCS. Results
// are byte-identical whatever the worker count.
//
// Scenario-override flags (-route.*, -net.*, -alert.*, -fault.mtbf,
// -workload.*, -sessions, -recovery) register from the same cliutil
// table as jadectl scenario and apply to the paper runs (fig5-9,
// summary) and churn; self-contained experiments (grayfail, liveretune,
// netfault, ...) fix their own configurations and ignore them.
//
// Performance is measured by the repository benchmark (`go run
// ./benchmark`), not here.
//
// Experiments: fig4, fig5, fig6, fig7, fig8, fig9, table1, churn,
// netfault, grayfail, liveretune, alertlat, latbudget, ablations,
// summary, all (default). netfault compares the φ-accrual failure
// detector and self-recovery under message loss, heartbeat partitions
// and real crashes on the simulated network. grayfail compares routing
// policies while one replica per tier is degraded but never dead.
// liveretune swaps the routing policy mid-run through the live-config
// plane (zero restarts) and proves the swap pays off, replays
// byte-identically, and reaches the managed sizing loop. alertlat
// measures the alerting plane's virtual-time-to-first-page against the
// φ detector on gray and crash faults. latbudget decomposes traced
// request latency into per-tier queue/service/network/retry budgets on
// the managed ramp and proves `jadectl diff` localizes an injected
// app-tier slowdown (both self-checking; -quick shrinks them for CI).
//
// -sweep runs the invariant-checked chaos sweep (the Fig. 5 scenario under
// a crash/reboot/slow schedule) over N seeds, writing a replayable artifact
// on the first violation. -replay re-runs such an artifact.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"

	"jade"
	"jade/internal/cliutil"
)

func main() {
	seed := flag.Int64("seed", 1, "simulation seed (runs are deterministic per seed)")
	speedup := flag.Float64("speedup", 1, "time compression of the ramp (1 = the paper's ~50-minute run)")
	csvDir := flag.String("csv", "", "directory to write figure CSV data into")
	experiment := flag.String("experiment", "all", "which experiment to run: fig4|fig5|fig6|fig7|fig8|fig9|table1|churn|netfault|grayfail|liveretune|alertlat|latbudget|millionclient|ablations|summary|all")
	quick := flag.Bool("quick", false, "shrink the grayfail/liveretune/alertlat/latbudget runs for smoke tests")
	sweep := flag.Int("sweep", 0, "run the invariant chaos sweep over this many seeds instead of an experiment")
	artifact := flag.String("artifact", "sweep-failure.json", "where -sweep writes the replayable artifact on failure")
	replay := flag.String("replay", "", "replay a failure artifact written by -sweep")
	traceOut := flag.String("trace.chrome", "", "write the managed paper run's telemetry bus as a Chrome trace-event file")
	parallel := flag.Int("parallel", 0, "worker count for fanning independent runs out (0 = GOMAXPROCS; results are deterministic regardless)")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile to this file at exit")
	specFlags := cliutil.RegisterSpecGroups(flag.CommandLine,
		"sessions", "recovery", "workload", "fault", "route", "net", "alert")
	flag.Parse()

	if *parallel > 0 {
		jade.SetParallelism(*parallel)
	}
	override, oerr := specFlags.ScenarioOverride()
	if oerr != nil {
		fmt.Fprintf(os.Stderr, "jadebench: %v\n", oerr)
		os.Exit(1)
	}
	err := withProfiles(*cpuprofile, *memprofile, func() error {
		switch {
		case *replay != "":
			return runReplay(*replay, *speedup)
		case *sweep > 0:
			return runSweep(*sweep, *speedup, *parallel, *artifact)
		default:
			return run(*seed, *speedup, *csvDir, strings.ToLower(*experiment), *traceOut, *quick, override)
		}
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "jadebench: %v\n", err)
		os.Exit(1)
	}
}

// withProfiles brackets body with the optional pprof hooks: a CPU
// profile over the whole invocation and a heap profile (after a final
// GC) at exit, written whether or not body errors.
func withProfiles(cpuPath, memPath string, body func() error) error {
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
			fmt.Fprintf(os.Stderr, "jadebench: wrote CPU profile %s\n", cpuPath)
		}()
	}
	if memPath != "" {
		defer func() {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintf(os.Stderr, "jadebench: heap profile: %v\n", err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "jadebench: heap profile: %v\n", err)
			}
			f.Close()
			fmt.Fprintf(os.Stderr, "jadebench: wrote heap profile %s\n", memPath)
		}()
	}
	return body()
}

func runSweep(seeds int, speedup float64, parallel int, artifactPath string) error {
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "jadebench: "+format+"\n", args...)
	}
	res, err := jade.RunChaosSweep(seeds, speedup, parallel, logf)
	if err != nil {
		return err
	}
	if res.Failure == nil {
		fmt.Printf("sweep: %d/%d seeds passed (%d runs, %d invariant checks)\n",
			res.Passed, len(res.Seeds), res.Runs, res.Checks)
		return nil
	}
	data, err := res.Failure.Encode()
	if err != nil {
		return err
	}
	if err := os.WriteFile(artifactPath, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("sweep: seed %d VIOLATED %s\n  %s\n  schedule (%d events, shrunk from %d): %s\n  artifact: %s\n",
		res.Failure.Seed, res.Failure.Violation.Checker, res.Failure.Violation.Detail,
		len(res.Failure.Schedule), res.Failure.ShrunkFrom, res.Failure.Schedule, artifactPath)
	return fmt.Errorf("invariant violated (replay with -replay %s)", artifactPath)
}

func runReplay(path string, speedup float64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	a, err := jade.ParseSweepArtifact(data)
	if err != nil {
		return err
	}
	fmt.Printf("replay: seed %d, schedule: %s\n", a.Seed, a.Schedule)
	out, reproduced, err := jade.ReplayArtifact(a, speedup)
	if err != nil {
		return err
	}
	if reproduced {
		fmt.Printf("replay: REPRODUCED %s\n  %s\n", out.Violation.Checker, out.Violation.Detail)
		return nil
	}
	if out.Violation != nil {
		fmt.Printf("replay: different violation: %v\n", out.Violation)
		return nil
	}
	return fmt.Errorf("replay did not reproduce the violation (%d checks passed)", out.Checks)
}

func run(seed int64, speedup float64, csvDir, experiment, traceOut string, quick bool, override func(*jade.ScenarioConfig)) error {
	want := func(names ...string) bool {
		if experiment == "all" {
			return true
		}
		for _, n := range names {
			if experiment == n {
				return true
			}
		}
		return false
	}

	if want("fig4") {
		out, err := jade.Figure4(seed)
		if err != nil {
			return err
		}
		section("Figure 4 — qualitative reconfiguration scenario", out)
	}

	needRuns := want("fig5", "fig6", "fig7", "fig8", "fig9", "summary") || traceOut != ""
	var pr *jade.PaperRuns
	if needRuns {
		fmt.Fprintf(os.Stderr, "jadebench: running the paper scenario (managed + unmanaged, speedup %.0fx)...\n", speedup)
		var err error
		pr, err = jade.RunPaperScenario(seed, speedup, override)
		if err != nil {
			return err
		}
	}
	if pr != nil {
		if want("fig5") {
			section("Figure 5 — dynamically adjusted number of replicas", pr.Figure5())
		}
		if want("fig6") {
			section("Figure 6 — behavior of the database tier", pr.Figure6())
		}
		if want("fig7") {
			section("Figure 7 — behavior of the application tier", pr.Figure7())
		}
		if want("fig8") {
			section("Figure 8 — response time without Jade", pr.Figure8())
		}
		if want("fig9") {
			section("Figure 9 — response time with Jade", pr.Figure9())
		}
		if want("summary") {
			section("Scenario summary", pr.Summary())
		}
		if csvDir != "" {
			if err := os.MkdirAll(csvDir, 0o755); err != nil {
				return err
			}
			for name, body := range pr.CSVs() {
				path := filepath.Join(csvDir, name)
				if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
					return err
				}
				fmt.Fprintf(os.Stderr, "jadebench: wrote %s\n", path)
			}
		}
		if traceOut != "" {
			f, err := os.Create(traceOut)
			if err != nil {
				return err
			}
			tr := pr.Managed.Trace()
			if err := tr.WriteChromeTrace(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			st := tr.Stat()
			fmt.Fprintf(os.Stderr, "jadebench: wrote %s (%d events, %d spans)\n", traceOut, st.Events, st.Spans)
		}
	}

	if want("churn") {
		cfg := jade.DefaultScenario(seed+10, true)
		cfg.Recovery = true
		cfg.MTBFSeconds = 300
		cfg.Profile = jade.ConstantProfile{Clients: 120, Length: 1800}
		if override != nil {
			override(&cfg)
		}
		r, err := jade.RunScenario(cfg)
		if err != nil {
			return err
		}
		total := float64(r.Stats.Completed + r.Stats.Failed)
		section("Availability under churn — self-recovery manager",
			fmt.Sprintf("MTBF 300 s over 1800 s at 120 clients:\n"+
				"  crashes injected:  %d\n  repairs completed: %d\n"+
				"  requests:          %d completed, %d failed\n"+
				"  availability:      %.4f\n",
				r.InjectedFailures, r.Repairs, r.Stats.Completed, r.Stats.Failed,
				float64(r.Stats.Completed)/total))
	}

	if want("netfault") {
		_, table, err := jade.RunNetFault(seed)
		if err != nil {
			return err
		}
		section("Managed recovery under network faults — loss, partitions, crashes", table)
	}

	if want("grayfail") {
		_, table, err := jade.RunGrayFailure(seed, quick)
		if err != nil {
			return err
		}
		section("Routing policies under gray failure — slow-but-alive replicas", table)
	}

	if want("liveretune") {
		fmt.Fprintf(os.Stderr, "jadebench: running the live-retune experiment (quick=%v)...\n", quick)
		_, table, err := jade.RunLiveRetune(seed, quick)
		if err != nil {
			return err
		}
		section("Live retune — runtime policy swap over the admin plane, zero restarts", table)
	}

	if want("alertlat") {
		_, table, err := jade.RunAlertLatency(seed, quick)
		if err != nil {
			return err
		}
		section("Alert latency — burn-rate/anomaly paging vs φ-accrual detection", table)
	}

	if want("latbudget") {
		fmt.Fprintf(os.Stderr, "jadebench: running the latency-budget experiment (quick=%v)...\n", quick)
		_, table, err := jade.RunLatBudget(seed, quick)
		if err != nil {
			return err
		}
		section("Latency budgets — per-tier attribution, critical path, run diff", table)
	}

	if want("millionclient") {
		fmt.Fprintf(os.Stderr, "jadebench: running the million-client fluid experiment (quick=%v)...\n", quick)
		_, table, err := jade.RunMillionClient(seed, quick)
		if err != nil {
			return err
		}
		section("Million-client scale — hybrid fluid/discrete workload engine", table)
	}

	if want("table1") {
		res, err := jade.RunTable1(seed, 600)
		if err != nil {
			return err
		}
		section("Table 1 — performance overhead (intrusivity)", res.Render())
	}

	if want("ablations") {
		abSpeed := speedup
		if abSpeed < 2 {
			abSpeed = 2
		}
		sm, err := jade.RunAblationSmoothing(seed, abSpeed)
		if err != nil {
			return err
		}
		section("Ablation — sensor smoothing", jade.RenderAblation("Moving-average window", sm))
		in, err := jade.RunAblationInhibition(seed, abSpeed)
		if err != nil {
			return err
		}
		section("Ablation — reconfiguration inhibition", jade.RenderAblation("Inhibition window", in))
		th, err := jade.RunAblationThresholds(seed, abSpeed)
		if err != nil {
			return err
		}
		section("Ablation — threshold sweep", jade.RenderAblation("CPU thresholds", th))
		bp, err := jade.RunAblationBalancerPolicy(seed)
		if err != nil {
			return err
		}
		section("Ablation — C-JDBC read policy", jade.RenderAblation("Read balancing policy", bp))
		rp, err := jade.RunAblationRecoveryLogReplay(seed, []int{0, 250, 500, 1000, 2000})
		if err != nil {
			return err
		}
		section("Ablation — recovery-log replay", jade.RenderReplay(rp))
	}
	return nil
}

func section(title, body string) {
	fmt.Printf("\n================================================================\n")
	fmt.Printf("%s\n", title)
	fmt.Printf("================================================================\n")
	fmt.Println(body)
}
