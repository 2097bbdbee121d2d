package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"jade"
)

// logf reports an evaluation's progress on standard error.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "jadectl: "+format+"\n", args...)
}

// setParallelism applies -parallel: a worker count, or 0 for GOMAXPROCS.
// A negative count is refused rather than read as 0.
func setParallelism(n int) error {
	if n < 0 {
		return fmt.Errorf("-parallel %d: want a worker count, or 0 for GOMAXPROCS", n)
	}
	jade.SetParallelism(n)
	return nil
}

func cmdExperiment(args []string) error {
	fs := flag.NewFlagSet("experiment", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "simulation seed (runs are deterministic per seed)")
	speedup := fs.Float64("speedup", 1, "time compression of the ramp (1 = the paper's ~50-minute run)")
	quick := fs.Bool("quick", false, "shrink the grayfail/liveretune/alertlat/latbudget/millionclient runs for smoke tests")
	csvDir := fs.String("csv", "", "directory to write figure CSV data into")
	parallel := fs.Int("parallel", 0, "worker count for fanning independent runs out (0 = GOMAXPROCS, negative refused; results are deterministic regardless)")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: jadectl experiment [flags] [NAME]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	name := "all"
	switch fs.NArg() {
	case 0:
	case 1:
		name = strings.ToLower(fs.Arg(0))
	default:
		return fmt.Errorf("usage: jadectl experiment [flags] [NAME]")
	}
	if err := setParallelism(*parallel); err != nil {
		return err
	}
	pr, err := jade.RunExperiments(os.Stdout, name, jade.ExperimentOptions{
		Seed: *seed, Speedup: *speedup, Quick: *quick, Logf: logf,
	})
	// -csv reads the paper pair only when a figure ran it.
	if err != nil || pr == nil || *csvDir == "" {
		return err
	}
	if err := os.MkdirAll(*csvDir, 0o755); err != nil {
		return err
	}
	for name, body := range pr.CSVs() {
		path := filepath.Join(*csvDir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			return err
		}
		logf("wrote %s", path)
	}
	return nil
}

func cmdSweep(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	seeds := fs.Int("seeds", 20, "sweep seeds 1..N (N >= 1)")
	speedup := fs.Float64("speedup", 1, "time compression of the ramp (1 = the paper's ~50-minute run)")
	parallel := fs.Int("parallel", 0, "worker count for fanning seeds out (0 = GOMAXPROCS, negative refused; results are deterministic regardless)")
	artifactPath := fs.String("artifact", "sweep-failure.json", "where to write the replayable artifact on failure")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("usage: jadectl sweep [-seeds N] [-speedup X] [-parallel N] [-artifact PATH]")
	}
	if err := setParallelism(*parallel); err != nil {
		return err
	}
	// RunChaosSweep refuses fewer than one seed before running anything.
	res, err := jade.RunChaosSweep(*seeds, *speedup, logf)
	if err != nil {
		return err
	}
	if res.Failure == nil {
		fmt.Printf("sweep: %d/%d seeds passed (%d runs, %d invariant checks)\n",
			res.Passed, len(res.Seeds), res.Runs, res.Checks)
		return nil
	}
	f := res.Failure
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(*artifactPath, data, 0o644); err != nil {
		return err
	}
	chaos := f.Spec.Faults.Chaos
	fmt.Printf("sweep: seed %d VIOLATED %s\n  %s\n  schedule (%d events, shrunk from %d): %s\n  artifact: %s\n",
		f.Spec.Seed, f.Violation.Checker, f.Violation.Detail, len(chaos), f.ShrunkFrom, chaos, *artifactPath)
	return fmt.Errorf("invariant violated (replay with jadectl replay %s)", *artifactPath)
}

func cmdReplay(args []string) error {
	if len(args) != 1 || strings.HasPrefix(args[0], "-") {
		return fmt.Errorf("usage: jadectl replay FILE")
	}
	data, err := os.ReadFile(args[0])
	if err != nil {
		return err
	}
	a, err := jade.ParseSweepArtifact(data)
	if err != nil {
		return err
	}
	fmt.Printf("replay: seed %d, schedule: %s\n", a.Spec.Seed, a.Spec.Faults.Chaos)
	out, reproduced, err := jade.ReplayArtifact(a)
	if err != nil {
		return err
	}
	if reproduced {
		fmt.Printf("replay: REPRODUCED %s\n  %s\n", out.Violation.Checker, out.Violation.Detail)
		return nil
	}
	if out.Violation != nil {
		return fmt.Errorf("replay hit a different violation: %v", out.Violation)
	}
	return fmt.Errorf("replay did not reproduce the violation (%d checks passed)", out.Checks)
}
