// Command benchmark measures what whole managed runs of the simulator
// cost the host, end to end and layer by layer. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
)

// defaultSeconds is BENCHMARK.json's run_seconds: how long one
// invocation measures one workload.
const defaultSeconds = 18

func main() {
	var (
		name    = flag.String("workload", "", "run only this workload, in this process (default: each workload in a child process)")
		seed    = flag.Int64("seed", 1, "seed of every generated input; the same for every iteration")
		seconds = flag.Float64("seconds", defaultSeconds, "measure each workload for this long; the iteration under way finishes")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from profiled iterations and layer drivers")
		outDir  = flag.String("out", ".bench_out", "directory for results, spans and the runs' own artifacts")
		compare = flag.Bool("compare", false, "compare two result sets: -compare A B")
	)
	flag.Parse()

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare takes two result sets, got %d", flag.NArg())
			break
		}
		err = compareSets(os.Stdout, flag.Arg(0), flag.Arg(1))
	case *name != "":
		err = runOne(*name, *seed, *seconds, *traced == 1, *outDir)
	default:
		err = runAll(*seed, *seconds, *outDir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// errChecks reports failed output checks; the details are already printed.
var errChecks = errors.New("output checks failed")

func runOne(name string, seed int64, seconds float64, traced bool, outDir string) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	res, err := runWorkload(w, seed, seconds, traced, outDir)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	if err := res.print(); err != nil {
		return err
	}
	if !res.Correct {
		return errChecks
	}
	return nil
}

// resultSet is results.json: one complete set of runs.
type resultSet struct {
	Seed      int64                 `json:"seed"`
	GoVersion string                `json:"go_version"`
	Workloads map[string]*setMember `json:"workloads"`
}

type setMember struct {
	EndToEnd *result `json:"end_to_end"`
	PerLayer *result `json:"per_layer"`
}

// runAll runs every workload twice, untraced then traced, each in a
// child process of its own so that no workload inherits another's heap,
// and gathers the children's result files into results.json.
func runAll(seed int64, seconds float64, outDir string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	set := resultSet{Seed: seed, GoVersion: runtime.Version(), Workloads: map[string]*setMember{}}
	failed := false
	for _, w := range workloads {
		member := &setMember{}
		set.Workloads[w.name] = member
		for _, traced := range []int{0, 1} {
			cmd := exec.Command(self,
				"-workload", w.name,
				"-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
				"-trace", strconv.Itoa(traced),
				"-out", outDir)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s (trace %d): %v\n", w.name, traced, err)
				failed = true
				continue
			}
			res, err := readResult(filepath.Join(outDir, fmt.Sprintf("%s.trace%d.json", w.name, traced)))
			if err != nil {
				return err
			}
			if traced == 1 {
				member.PerLayer = res
			} else {
				member.EndToEnd = res
			}
		}
	}
	data, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(outDir, "results.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	if failed {
		return errChecks
	}
	return nil
}

func readResult(path string) (*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	res := &result{}
	if err := json.Unmarshal(data, res); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return res, nil
}
