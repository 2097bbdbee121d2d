package jade

import (
	"fmt"
	"math"
	"slices"
	"strings"
)

// CrossValidation is one fluid-vs-discrete comparison on the paper
// scenario: the same seed and profile run through both workload engines,
// compared on what the control loops actually see (the smoothed CPU
// curves) and what they actually did (the resize decision sequences).
type CrossValidation struct {
	Seed    int64
	Speedup float64
	// AppCPURMS / DBCPURMS are the root-mean-square distances between
	// the two engines' smoothed tier CPU curves, sampled every 5 s over
	// the run (CPU is a fraction, so 0.05 means ±5%).
	AppCPURMS, DBCPURMS float64
	// AppFluid/AppDiscrete and DBFluid/DBDiscrete are the ordered resize
	// decision sequences ("1->2 2->3 ...") each engine's managers took.
	AppFluid, AppDiscrete []string
	DBFluid, DBDiscrete   []string
	// Fluid and Discrete are the underlying runs.
	Fluid, Discrete *ScenarioResult
}

// DecisionsMatch reports whether both tiers took identical resize
// decision sequences under the two engines.
func (cv *CrossValidation) DecisionsMatch() bool {
	return slices.Equal(cv.AppFluid, cv.AppDiscrete) && slices.Equal(cv.DBFluid, cv.DBDiscrete)
}

// resizeSequence extracts the ordered replica-count transitions from a
// tier's Replicas series: one "a->b" entry per change, timing ignored.
func resizeSequence(s *Series) []string {
	var out []string
	started := false
	var prev float64
	for i := 0; i < s.Len(); i++ {
		p := s.Point(i)
		if !started {
			prev, started = p.V, true
			continue
		}
		if p.V != prev {
			out = append(out, fmt.Sprintf("%d->%d", int(prev), int(p.V)))
			prev = p.V
		}
	}
	return out
}

// seriesRMS is the root-mean-square distance between two series sampled
// every step seconds over [t0, t1].
func seriesRMS(a, b *Series, t0, t1, step float64) float64 {
	var sum float64
	n := 0
	for t := t0; t < t1; t += step {
		d := a.At(t) - b.At(t)
		sum += float64(d * d)
		n++
	}
	if n == 0 {
		return 0
	}
	return math.Sqrt(sum / float64(n))
}

// FluidCrossValidation runs the paper scenario (time-compressed by
// speedup) once per workload engine on the same seed and compares them.
// This is the fluid engine's accuracy gate: the managers must see CPU
// curves within a few percent RMS of the discrete engine's and take the
// same resize decisions in the same order.
func FluidCrossValidation(seed int64, speedup float64) (*CrossValidation, error) {
	rs := crossValRuns(seed, speedup)
	if err := runAll("crossval", rs); err != nil {
		return nil, err
	}
	return crossValidate(seed, speedup, rs[0].res, rs[1].res), nil
}

// crossValRuns is the managed paper ramp, compressed by speedup, once
// under the fluid engine and once under the discrete one.
func crossValRuns(seed int64, speedup float64) []expRun {
	rs := []expRun{{name: WorkloadFluid}, {name: WorkloadDiscrete}}
	for i := range rs {
		rs[i].cfg = DefaultScenario(seed, true)
		rs[i].cfg.WorkloadMode = rs[i].name
		rs[i].cfg.Profile = compressedRamp(speedup)
	}
	return rs
}

// crossValidate compares the fluid run f with the discrete run d.
func crossValidate(seed int64, speedup float64, f, d *ScenarioResult) *CrossValidation {
	horizon := f.Config.Profile.Duration() + f.Config.DrainSeconds
	return &CrossValidation{
		Seed:        seed,
		Speedup:     speedup,
		AppCPURMS:   seriesRMS(f.App.CPUSmoothed, d.App.CPUSmoothed, 10, horizon, 5),
		DBCPURMS:    seriesRMS(f.DB.CPUSmoothed, d.DB.CPUSmoothed, 10, horizon, 5),
		AppFluid:    resizeSequence(f.App.Replicas),
		AppDiscrete: resizeSequence(d.App.Replicas),
		DBFluid:     resizeSequence(f.DB.Replicas),
		DBDiscrete:  resizeSequence(d.DB.Replicas),
		Fluid:       f,
		Discrete:    d,
	}
}

// renderSeq renders a decision sequence for tables ("-" when empty).
func renderSeq(seq []string) string {
	if len(seq) == 0 {
		return "-"
	}
	return strings.Join(seq, " ")
}
