package obs

import (
	"bytes"
	"fmt"
)

// ObjectiveKind names the three objective families the paper's management
// policies are judged against.
type ObjectiveKind string

// Objective kinds.
const (
	LatencyPercentile ObjectiveKind = "latency-percentile"
	AbandonRate       ObjectiveKind = "abandon-rate"
	CPUBand           ObjectiveKind = "cpu-band"
)

// Objective is one service-level objective, evaluated over consecutive
// virtual-time windows: the observed value must stay at or under Max.
// Probe returns the observed value over [t0,t1) and whether the window
// held any signal at all (empty windows — e.g. no completed requests yet
// — are skipped, not failed).
type Objective struct {
	Name       string
	Tier       string
	Kind       ObjectiveKind
	Percentile float64 // for LatencyPercentile, e.g. 0.95
	Max        float64 // upper bound
	Probe      func(t0, t1 float64) (float64, bool)
}

// met reports whether v satisfies the objective's bound (a NaN
// observation does).
func (o *Objective) met(v float64) bool { return !(v > o.Max) }

// objectiveState accumulates one objective's evaluation history.
type objectiveState struct {
	obj       Objective
	intervals int
	metCount  int
	last      float64
	worst     float64
	hasWorst  bool
	lastMet   bool
	hasLast   bool
	valueG    *Gauge
	metG      *Gauge
}

// worseThan reports whether v is a worse (higher) observation than the
// current worst.
func (s *objectiveState) worseThan(v float64) bool {
	return !s.hasWorst || v > s.worst
}

// SLOEngine evaluates a set of objectives at a fixed virtual-time
// interval. Evaluate is driven by the scenario's sim ticker, so the
// evaluation schedule is part of the deterministic trajectory.
type SLOEngine struct {
	Interval float64
	// Observer, when set, receives every objective evaluation outcome
	// (called from Evaluate on the sim goroutine). The alerting plane's
	// burn-rate rules hang off this hook so they see exactly the
	// evaluated windows — probes are stateful and must not be re-run.
	Observer func(now float64, name, tier string, value float64, met bool)
	states   []*objectiveState
	lastEval float64
	started  bool
}

// NewSLOEngine builds an engine over objs, registering a value and a
// compliance gauge per objective when reg is non-nil.
func NewSLOEngine(reg *Registry, interval float64, objs []Objective) *SLOEngine {
	e := &SLOEngine{Interval: interval}
	for _, o := range objs {
		st := &objectiveState{obj: o}
		if reg != nil {
			ls := []Label{L("objective", o.Name), L("tier", o.Tier)}
			st.valueG = reg.Gauge("jade_slo_value", "Latest observed value per SLO objective.", ls...)
			st.metG = reg.Gauge("jade_slo_met", "1 when the objective held over the last window, else 0.", ls...)
		}
		e.states = append(e.states, st)
	}
	return e
}

// Evaluate probes every objective over the window ending at now. The
// first call only anchors the window start.
func (e *SLOEngine) Evaluate(now float64) {
	if e == nil {
		return
	}
	if !e.started {
		e.started = true
		e.lastEval = now
		return
	}
	t0, t1 := e.lastEval, now
	e.lastEval = now
	for _, st := range e.states {
		v, ok := st.obj.Probe(t0, t1)
		if !ok {
			continue
		}
		st.intervals++
		st.last = v
		met := st.obj.met(v)
		st.lastMet, st.hasLast = met, true
		if met {
			st.metCount++
		}
		if st.worseThan(v) {
			st.worst = v
			st.hasWorst = true
		}
		st.valueG.Set(v)
		st.metG.SetBool(met)
		if e.Observer != nil {
			e.Observer(now, st.obj.Name, st.obj.Tier, v, met)
		}
	}
}

// Burning returns the names of objectives whose most recently evaluated
// window missed its bound, in registration order. The /healthz page uses
// this to report "degraded" while the service is out of compliance.
func (e *SLOEngine) Burning() []string {
	if e == nil {
		return nil
	}
	var out []string
	for _, st := range e.states {
		if st.hasLast && !st.lastMet {
			out = append(out, st.obj.Name)
		}
	}
	return out
}

// ObjectiveReport is one objective's post-run summary.
type ObjectiveReport struct {
	Name       string        `json:"name"`
	Tier       string        `json:"tier"`
	Kind       ObjectiveKind `json:"kind"`
	Bound      string        `json:"bound"`
	Intervals  int           `json:"intervals"`
	MetCount   int           `json:"met"`
	Compliance float64       `json:"compliance"` // metCount/intervals, 1 when no intervals
	Last       float64       `json:"last"`
	Worst      float64       `json:"worst"`
}

// SLOReport is the engine's post-run compliance summary.
type SLOReport struct {
	Schema     string            `json:"schema"`
	Objectives []ObjectiveReport `json:"objectives"`
}

// SLOReportSchema identifies the SLO report document.
const SLOReportSchema = "jade-slo-report/v1"

// Report summarizes the run so far.
func (e *SLOEngine) Report() *SLOReport {
	rep := &SLOReport{Schema: SLOReportSchema}
	if e == nil {
		return rep
	}
	for _, st := range e.states {
		or := ObjectiveReport{
			Name:      st.obj.Name,
			Tier:      st.obj.Tier,
			Kind:      st.obj.Kind,
			Bound:     fmt.Sprintf("<= %g", st.obj.Max),
			Intervals: st.intervals,
			MetCount:  st.metCount,
			Last:      st.last,
			Worst:     st.worst,
		}
		if st.intervals > 0 {
			or.Compliance = float64(st.metCount) / float64(st.intervals)
		} else {
			or.Compliance = 1
		}
		rep.Objectives = append(rep.Objectives, or)
	}
	return rep
}

// Compliant reports whether every objective met its bound in every
// evaluated window.
func (r *SLOReport) Compliant() bool {
	for _, o := range r.Objectives {
		if o.MetCount < o.Intervals {
			return false
		}
	}
	return true
}

// Render draws the report as an aligned text table.
func (r *SLOReport) Render() string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%-24s %-8s %-20s %-12s %10s %10s %10s\n",
		"OBJECTIVE", "TIER", "KIND", "BOUND", "COMPLIANCE", "WORST", "LAST")
	for _, o := range r.Objectives {
		comp := fmt.Sprintf("%d/%d", o.MetCount, o.Intervals)
		if o.Intervals == 0 {
			comp = "n/a"
		}
		fmt.Fprintf(&b, "%-24s %-8s %-20s %-12s %10s %10.4g %10.4g\n",
			o.Name, o.Tier, o.Kind, o.Bound, comp, o.Worst, o.Last)
	}
	return b.String()
}
