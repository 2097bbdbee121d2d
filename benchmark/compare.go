package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

func readSet(path string) (*resultSet, error) {
	if st, err := os.Stat(path); err == nil && st.IsDir() {
		path = filepath.Join(path, "results.json")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	set := &resultSet{}
	if err := json.Unmarshal(data, set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return set, nil
}

// compareSets prints, for every workload and end-to-end metric, the
// two sets' values, B's difference relative to A and the metric's
// bound. It fails if any pair differs by more than its bound, in either
// direction (a gain that large needs a new baseline as much as a loss
// needs a fix), or if the sets disagree on a modelled outcome.
func compareSets(out io.Writer, pathA, pathB string) error {
	a, err := readSet(pathA)
	if err != nil {
		return err
	}
	b, err := readSet(pathB)
	if err != nil {
		return err
	}
	var bad []string
	fmt.Fprintf(out, "%-14s %-22s %14s %14s %9s %7s\n", "workload", "metric", "A", "B", "diff", "bound")
	for _, w := range workloads {
		ma, mb := a.Workloads[w.name], b.Workloads[w.name]
		if ma == nil || mb == nil || ma.EndToEnd == nil || mb.EndToEnd == nil {
			bad = append(bad, w.name+": missing from a result set")
			continue
		}
		for _, d := range endToEnd {
			va, vb := ma.EndToEnd.Metrics[d.Name].Value, mb.EndToEnd.Metrics[d.Name].Value
			diff := math.Inf(1)
			if va > 0 {
				diff = (vb - va) / va
			}
			verdict := ""
			if math.Abs(diff) > d.Bound {
				verdict = "  OUT OF BOUND"
				bad = append(bad, fmt.Sprintf("%s %s: %+.2f%% against a bound of %.0f%%", w.name, d.Name, 100*diff, 100*d.Bound))
			}
			fmt.Fprintf(out, "%-14s %-22s %14.6g %14.6g %+8.2f%% %6.0f%%%s\n", w.name, d.Name, va, vb, 100*diff, 100*d.Bound, verdict)
		}
		if a.Seed != b.Seed {
			continue // different inputs: the modelled outcomes are not comparable
		}
		for _, pair := range [][2]*result{{ma.EndToEnd, mb.EndToEnd}, {ma.PerLayer, mb.PerLayer}} {
			if pair[0] == nil || pair[1] == nil {
				continue
			}
			if da, db := pair[0].Model.Digest, pair[1].Model.Digest; da != db {
				bad = append(bad, fmt.Sprintf("%s: model.digest %s against %s", w.name, da, db))
			}
		}
	}
	if a.Seed != b.Seed {
		fmt.Fprintf(out, "seeds differ (%d, %d): model.digest not compared\n", a.Seed, b.Seed)
	}
	for _, line := range bad {
		fmt.Fprintln(out, "FAIL", line)
	}
	if len(bad) > 0 {
		return errors.New("result sets differ")
	}
	fmt.Fprintln(out, "ok: every end-to-end metric within its bound, every model.digest equal")
	return nil
}
