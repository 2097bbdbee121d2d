package jade

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"jade/internal/obs"
	"jade/internal/obs/attrib"
)

// RunDiffOptions tunes the tolerances of DiffRuns. Zero values select
// the defaults.
type RunDiffOptions struct {
	// RelTol is the relative tolerance for latency-budget components and
	// metric series (default 0.05). A budget component is flagged when
	// its request-weighted mean contribution moves by more than RelTol of
	// the baseline's end-to-end mean, so many small jitters don't mask —
	// or fake — a localized regression.
	RelTol float64
	// SLOTol is the absolute compliance-ratio drop that flags an
	// objective (default 0.01).
	SLOTol float64
}

func (o RunDiffOptions) withDefaults() RunDiffOptions {
	if o.RelTol <= 0 {
		o.RelTol = 0.05
	}
	if o.SLOTol <= 0 {
		o.SLOTol = 0.01
	}
	return o
}

// DiffFinding is one regression DiffRuns found: run B is worse than run
// A in the named section. A and B carry the compared values.
type DiffFinding struct {
	Section string  `json:"section"` // budget | slo | metrics | artifact
	Name    string  `json:"name"`
	A       float64 `json:"a"`
	B       float64 `json:"b"`
	Detail  string  `json:"detail"`
}

// RunDiff is the result of comparing two run artifact directories.
type RunDiff struct {
	DirA, DirB string
	// Findings are the regressions (B worse than A), ordered by section
	// then severity. Empty means the runs are equivalent within
	// tolerance — same-seed runs diff clean.
	Findings []DiffFinding
	// Notes record non-regression observations: improvements, absent
	// artifacts, series counts.
	Notes []string
	// BlameTier/BlameComponent localize the dominant budget regression
	// (empty when the budgets are clean).
	BlameTier, BlameComponent string
}

// Clean reports whether no regression was found.
func (d *RunDiff) Clean() bool { return len(d.Findings) == 0 }

// Verdict is the one-line deterministic summary.
func (d *RunDiff) Verdict() string {
	if d.Clean() {
		return "verdict: clean"
	}
	if d.BlameTier != "" {
		return fmt.Sprintf("verdict: REGRESSION — %s/%s (%d findings)",
			d.BlameTier, d.BlameComponent, len(d.Findings))
	}
	return fmt.Sprintf("verdict: REGRESSION — %s %s (%d findings)",
		d.Findings[0].Section, d.Findings[0].Name, len(d.Findings))
}

// Render draws the full comparison transcript.
func (d *RunDiff) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "diff %s %s\n", d.DirA, d.DirB)
	for _, n := range d.Notes {
		fmt.Fprintf(&b, "  %s\n", n)
	}
	for _, f := range d.Findings {
		fmt.Fprintf(&b, "  REGRESSION [%s] %s: %.4g -> %.4g (%s)\n", f.Section, f.Name, f.A, f.B, f.Detail)
	}
	b.WriteString(d.Verdict())
	b.WriteByte('\n')
	return b.String()
}

// DiffRuns compares two run artifact directories written by -metrics.dir
// (latency budgets, SLO reports and final metrics snapshots) and returns
// a deterministic regression verdict: which sections regressed in B
// relative to A, with the
// dominant latency-budget delta localized to a tier and component.
func DiffRuns(dirA, dirB string, opt RunDiffOptions) (*RunDiff, error) {
	opt = opt.withDefaults()
	d := &RunDiff{DirA: dirA, DirB: dirB}
	for _, dir := range []string{dirA, dirB} {
		if st, err := os.Stat(dir); err != nil || !st.IsDir() {
			return nil, fmt.Errorf("diff: %s is not a readable run directory", dir)
		}
	}
	d.diffBudgets(opt)
	d.diffSLO(opt)
	d.diffMetrics(opt)
	return d, nil
}

func readIfExists(path string) []byte {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	return raw
}

// pairNote records an artifact present on only one side: a finding,
// because the runs were not produced by comparable configurations.
func (d *RunDiff) pairNote(section, file string, a, b []byte) bool {
	switch {
	case a == nil && b == nil:
		d.Notes = append(d.Notes, fmt.Sprintf("%s: no %s in either run", section, file))
		return false
	case a == nil || b == nil:
		missing := d.DirA
		if b == nil {
			missing = d.DirB
		}
		d.Findings = append(d.Findings, DiffFinding{
			Section: "artifact", Name: file,
			Detail: fmt.Sprintf("present in one run only (missing under %s)", missing),
		})
		return false
	}
	return true
}

func (d *RunDiff) diffBudgets(opt RunDiffOptions) {
	rawA := readIfExists(filepath.Join(d.DirA, "latency_budget.json"))
	rawB := readIfExists(filepath.Join(d.DirB, "latency_budget.json"))
	if !d.pairNote("budget", "latency_budget.json", rawA, rawB) {
		return
	}
	a, errA := attrib.ParseReport(rawA)
	b, errB := attrib.ParseReport(rawB)
	if errA != nil || errB != nil {
		d.Findings = append(d.Findings, DiffFinding{Section: "budget", Name: "latency_budget.json",
			Detail: fmt.Sprintf("unparseable: %v / %v", errA, errB)})
		return
	}
	for _, side := range []struct {
		dir string
		r   *attrib.Report
	}{{d.DirA, a}, {d.DirB, b}} {
		if side.r.MaxConservationErr > 0.01 {
			d.Findings = append(d.Findings, DiffFinding{
				Section: "budget", Name: "conservation",
				A: 0.01, B: side.r.MaxConservationErr,
				Detail: fmt.Sprintf("components do not sum to the root span in %s", side.dir),
			})
		}
	}

	// Request-weighted mean contribution of every (tier, component)
	// across interaction classes — the run's end-to-end mean splits
	// exactly into these.
	contrib := func(r *attrib.Report) (map[string]float64, float64) {
		m := map[string]float64{}
		var reqs float64
		for _, p := range r.Profiles {
			reqs += float64(p.Requests)
			for _, c := range p.Components {
				m[c.Tier+"/"+c.Component] += float64(p.Requests) * c.MeanSec
			}
		}
		if reqs > 0 {
			for k := range m {
				m[k] /= reqs
			}
		}
		var total float64
		for _, v := range m {
			total += v
		}
		return m, total
	}
	ca, totalA := contrib(a)
	cb, totalB := contrib(b)
	if totalA <= 0 || totalB <= 0 {
		d.Notes = append(d.Notes, "budget: a run has no attributed requests, skipping component comparison")
		return
	}
	keys := map[string]bool{}
	for k := range ca {
		keys[k] = true
	}
	for k := range cb {
		keys[k] = true
	}
	names := make([]string, 0, len(keys))
	for k := range keys {
		names = append(names, k)
	}
	sort.Strings(names)
	floor := opt.RelTol * totalA
	var worstDelta float64
	for _, k := range names {
		delta := cb[k] - ca[k]
		switch {
		case delta > floor:
			tier, comp, _ := strings.Cut(k, "/")
			d.Findings = append(d.Findings, DiffFinding{
				Section: "budget", Name: k, A: ca[k], B: cb[k],
				Detail: fmt.Sprintf("mean contribution +%.0f ms per request", 1000*delta),
			})
			if delta > worstDelta {
				worstDelta = delta
				d.BlameTier, d.BlameComponent = tier, comp
			}
		case delta < -floor:
			d.Notes = append(d.Notes, fmt.Sprintf("budget: %s improved by %.0f ms per request", k, -1000*delta))
		}
	}
	if totalB > totalA*(1+opt.RelTol) {
		d.Findings = append(d.Findings, DiffFinding{
			Section: "budget", Name: "end-to-end", A: totalA, B: totalB,
			Detail: fmt.Sprintf("mean latency +%.1f%%", 100*(totalB/totalA-1)),
		})
	} else if totalB < totalA*(1-opt.RelTol) {
		d.Notes = append(d.Notes, fmt.Sprintf("budget: end-to-end mean improved %.1f%%", 100*(1-totalB/totalA)))
	}
	// Tail check: the p99 percentile band's mean and blame.
	bandOf := func(r *attrib.Report, name string) *attrib.BandBlame {
		for i := range r.CriticalPath {
			if r.CriticalPath[i].Band == name {
				return &r.CriticalPath[i]
			}
		}
		return nil
	}
	ba, bb := bandOf(a, "p99"), bandOf(b, "p99")
	if ba != nil && bb != nil {
		if bb.MeanSec > ba.MeanSec*(1+opt.RelTol) {
			d.Findings = append(d.Findings, DiffFinding{
				Section: "budget", Name: "p99-band", A: ba.MeanSec, B: bb.MeanSec,
				Detail: fmt.Sprintf("tail mean +%.1f%%, dominated by %s/%s",
					100*(bb.MeanSec/ba.MeanSec-1), bb.Tier, bb.Component),
			})
			if d.BlameTier == "" {
				d.BlameTier, d.BlameComponent = bb.Tier, bb.Component
			}
		}
		if ba.Tier != bb.Tier || ba.Component != bb.Component {
			d.Notes = append(d.Notes, fmt.Sprintf("budget: p99 band blame moved %s/%s -> %s/%s",
				ba.Tier, ba.Component, bb.Tier, bb.Component))
		}
	}
}

func (d *RunDiff) diffSLO(opt RunDiffOptions) {
	rawA := readIfExists(filepath.Join(d.DirA, "slo_report.json"))
	rawB := readIfExists(filepath.Join(d.DirB, "slo_report.json"))
	if !d.pairNote("slo", "slo_report.json", rawA, rawB) {
		return
	}
	var a, b obs.SLOReport
	if json.Unmarshal(rawA, &a) != nil || json.Unmarshal(rawB, &b) != nil ||
		a.Schema != obs.SLOReportSchema || b.Schema != obs.SLOReportSchema {
		d.Findings = append(d.Findings, DiffFinding{Section: "slo", Name: "slo_report.json",
			Detail: "unparseable or wrong schema"})
		return
	}
	byName := func(r obs.SLOReport) map[string]obs.ObjectiveReport {
		m := make(map[string]obs.ObjectiveReport, len(r.Objectives))
		for _, o := range r.Objectives {
			m[o.Name] = o
		}
		return m
	}
	ma, mb := byName(a), byName(b)
	names := make([]string, 0, len(ma))
	for n := range ma {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		oa := ma[n]
		ob, ok := mb[n]
		if !ok {
			d.Findings = append(d.Findings, DiffFinding{Section: "slo", Name: n,
				Detail: "objective missing from run B"})
			continue
		}
		if oa.Compliance-ob.Compliance > opt.SLOTol {
			d.Findings = append(d.Findings, DiffFinding{
				Section: "slo", Name: n, A: oa.Compliance, B: ob.Compliance,
				Detail: fmt.Sprintf("compliance dropped %.1f points (tier %s)",
					100*(oa.Compliance-ob.Compliance), ob.Tier),
			})
		} else if ob.Compliance-oa.Compliance > opt.SLOTol {
			d.Notes = append(d.Notes, fmt.Sprintf("slo: %s compliance improved %.1f points",
				n, 100*(ob.Compliance-oa.Compliance)))
		}
	}
}

// latestSnapshot returns the lexicographically last metrics-t*.json in
// dir — snapshot names embed zero-padded virtual time, so this is the
// final snapshot.
func latestSnapshot(dir string) []byte {
	matches, err := filepath.Glob(filepath.Join(dir, "metrics-t*.json"))
	if err != nil || len(matches) == 0 {
		return nil
	}
	sort.Strings(matches)
	return readIfExists(matches[len(matches)-1])
}

// metricsScalars flattens a jade-metrics/v1 document into sorted
// (series, value) pairs: plain series as-is, histograms as
// _count/_sum/_p99 pseudo-series.
func metricsScalars(raw []byte) (map[string]float64, error) {
	var doc struct {
		Schema   string `json:"schema"`
		Families []struct {
			Name   string `json:"name"`
			Series []struct {
				Labels map[string]string `json:"labels"`
				Value  *obs.JSONFloat    `json:"value"`
				Hist   *struct {
					Count uint64        `json:"count"`
					Sum   obs.JSONFloat `json:"sum"`
					P99   obs.JSONFloat `json:"p99"`
				} `json:"histogram"`
			} `json:"series"`
		} `json:"families"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, err
	}
	if doc.Schema != obs.MetricsJSONSchema {
		return nil, fmt.Errorf("schema %q, want %q", doc.Schema, obs.MetricsJSONSchema)
	}
	out := map[string]float64{}
	for _, f := range doc.Families {
		for _, s := range f.Series {
			keys := make([]string, 0, len(s.Labels))
			for k := range s.Labels {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			sig := f.Name
			if len(keys) > 0 {
				parts := make([]string, len(keys))
				for i, k := range keys {
					parts[i] = k + "=" + s.Labels[k]
				}
				sig += "{" + strings.Join(parts, ",") + "}"
			}
			switch {
			case s.Value != nil:
				out[sig] = float64(*s.Value)
			case s.Hist != nil:
				out[sig+"_count"] = float64(s.Hist.Count)
				out[sig+"_sum"] = float64(s.Hist.Sum)
				out[sig+"_p99"] = float64(s.Hist.P99)
			}
		}
	}
	return out, nil
}

func (d *RunDiff) diffMetrics(opt RunDiffOptions) {
	rawA, rawB := latestSnapshot(d.DirA), latestSnapshot(d.DirB)
	if !d.pairNote("metrics", "metrics-t*.json", rawA, rawB) {
		return
	}
	if bytes.Equal(rawA, rawB) {
		d.Notes = append(d.Notes, "metrics: final snapshots byte-identical")
		return
	}
	sa, errA := metricsScalars(rawA)
	sb, errB := metricsScalars(rawB)
	if errA != nil || errB != nil {
		d.Findings = append(d.Findings, DiffFinding{Section: "metrics", Name: "metrics-t*.json",
			Detail: fmt.Sprintf("unparseable: %v / %v", errA, errB)})
		return
	}
	keys := map[string]bool{}
	for k := range sa {
		keys[k] = true
	}
	for k := range sb {
		keys[k] = true
	}
	names := make([]string, 0, len(keys))
	for k := range keys {
		names = append(names, k)
	}
	sort.Strings(names)
	differing := 0
	worst, worstName := 0.0, ""
	var worstA, worstB float64
	for _, k := range names {
		va, okA := sa[k]
		vb, okB := sb[k]
		if !okA || !okB {
			differing++
			continue
		}
		rel := 0.0
		switch {
		case va == vb || math.IsNaN(va) && math.IsNaN(vb):
		case math.IsNaN(va) || math.IsNaN(vb) || math.IsInf(va, 0) || math.IsInf(vb, 0):
			rel = math.Inf(1) // no tolerance bridges a non-finite value
		default:
			denom := math.Max(math.Max(math.Abs(va), math.Abs(vb)), 1e-9)
			rel = math.Abs(vb-va) / denom
		}
		if rel > opt.RelTol {
			differing++
			if rel > worst {
				worst, worstName, worstA, worstB = rel, k, va, vb
			}
		}
	}
	if differing == 0 {
		d.Notes = append(d.Notes, "metrics: final snapshots equivalent within tolerance")
		return
	}
	d.Findings = append(d.Findings, DiffFinding{
		Section: "metrics", Name: worstName, A: worstA, B: worstB,
		Detail: fmt.Sprintf("%d series differ beyond %.0f%% (worst shown)", differing, 100*opt.RelTol),
	})
}
