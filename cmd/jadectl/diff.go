package main

import (
	"flag"
	"fmt"
	"os"

	"jade"
)

// cmdDiff compares two run artifact directories (written with
// -metrics.dir) and prints a deterministic regression verdict. Same-seed
// runs diff clean; a run with a localized slowdown is flagged with the
// responsible tier and latency component. Exits nonzero on regression.
func cmdDiff(args []string) error {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: jadectl diff RUN_DIR_A RUN_DIR_B")
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return fmt.Errorf("diff takes exactly two run directories")
	}
	d, err := jade.DiffRuns(fs.Arg(0), fs.Arg(1))
	if err != nil {
		return err
	}
	fmt.Print(d.Render())
	if !d.Clean() {
		return fmt.Errorf("run %s regressed relative to %s (%d findings)",
			fs.Arg(1), fs.Arg(0), len(d.Findings))
	}
	return nil
}
