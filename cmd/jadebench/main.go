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
// -parallel fans independent runs (sweep seeds, each experiment's runs)
// over a worker pool; 0 uses GOMAXPROCS. Results are byte-identical
// whatever the worker count, apart from million-client's wall-clock rows.
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
// Experiments: fig4, fig5, fig6, fig7, fig8, fig9, summary, churn,
// netfault, grayfail, liveretune, alertlat, latbudget, millionclient,
// table1, ablations, all (default). Each is an entry of the root
// package's experiment table — its runs plus a report that self-checks
// them and renders the section — and this command is a loop over that
// table (jade.RunExperiments), so a failed claim exits nonzero. netfault
// compares the φ-accrual failure detector and self-recovery under
// message loss, heartbeat partitions and real crashes on the simulated
// network. grayfail compares routing policies while one replica per tier
// is degraded but never dead, and requires balanced routing to hold p99
// at least 2x below round-robin's. liveretune swaps the routing policy
// mid-run through the live-config plane (zero restarts) and proves the
// swap pays off, replays byte-identically, and reaches the managed
// sizing loop. alertlat measures the alerting plane's
// virtual-time-to-first-page against the φ detector on gray and crash
// faults. latbudget decomposes traced request latency into per-tier
// queue/service/network/retry budgets on the managed ramp and proves
// `jadectl diff` localizes an injected app-tier slowdown. millionclient
// ramps the fluid engine to a million clients. -quick shrinks the
// flagships for smoke runs.
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
	experiment := flag.String("experiment", "all", "which experiment to run: fig4|fig5|fig6|fig7|fig8|fig9|summary|churn|netfault|grayfail|liveretune|alertlat|latbudget|millionclient|table1|ablations|all")
	quick := flag.Bool("quick", false, "shrink the grayfail/liveretune/alertlat/latbudget/millionclient runs for smoke tests")
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

// logf reports progress on standard error.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "jadebench: "+format+"\n", args...)
}

func runSweep(seeds int, speedup float64, parallel int, artifactPath string) error {
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
	pr, err := jade.RunExperiments(os.Stdout, experiment, jade.ExperimentOptions{
		Seed: seed, Speedup: speedup, Quick: quick, Override: override, Logf: logf,
	})
	// -csv reads the paper pair only when a figure ran it; -trace.chrome
	// runs it if none did.
	if err != nil || (pr == nil && traceOut == "") {
		return err
	}
	if pr == nil {
		logf("running the paper scenario (managed + unmanaged, speedup %.0fx)...", speedup)
		if pr, err = jade.RunPaperScenario(seed, speedup, override); err != nil {
			return err
		}
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
			logf("wrote %s", path)
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
		logf("wrote %s (%d events, %d spans)", traceOut, st.Events, st.Spans)
	}
	return nil
}
