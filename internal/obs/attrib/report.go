package attrib

import (
	"encoding/json"
	"fmt"
	"sort"

	"jade/internal/metrics"
)

// BudgetSchema versions the latency-budget artifact.
const BudgetSchema = "jade-latbudget/v1"

// ComponentStat is one (tier, component) row of a budget profile, with
// exact percentiles over the per-request component values.
type ComponentStat struct {
	Tier      string  `json:"tier"`
	Component string  `json:"component"`
	MeanSec   float64 `json:"mean_sec"`
	P50Sec    float64 `json:"p50_sec"`
	P95Sec    float64 `json:"p95_sec"`
	P99Sec    float64 `json:"p99_sec"`
	Share     float64 `json:"share"` // fraction of the class's summed mean latency
}

// Profile is the latency budget of one interaction class.
type Profile struct {
	Interaction string          `json:"interaction"`
	Requests    int             `json:"requests"`
	TotalP50Sec float64         `json:"total_p50_sec"`
	TotalP95Sec float64         `json:"total_p95_sec"`
	TotalP99Sec float64         `json:"total_p99_sec"`
	Components  []ComponentStat `json:"components"`
}

// BandBlame names the dominant (tier, component) for one percentile
// band of the end-to-end latency distribution.
type BandBlame struct {
	Band      string  `json:"band"` // "p50" (fast half), "p50-p95", "p95-p99", "p99"
	Requests  int     `json:"requests"`
	MeanSec   float64 `json:"mean_sec"` // mean end-to-end latency in the band
	Tier      string  `json:"tier"`
	Component string  `json:"component"`
	Share     float64 `json:"share"` // dominant component's share of the band mean
}

// FluidTier is one fluid station's wait estimate rendered in budget
// form, so million-client runs report the same shape as discrete ones.
type FluidTier struct {
	Station    string  `json:"station"`
	Rho        float64 `json:"rho"`       // final utilization
	PeakRho    float64 `json:"peak_rho"`  // peak utilization
	QueueSec   float64 `json:"queue_sec"` // wait minus ideal service
	ServiceSec float64 `json:"service_sec"`
	PeakSec    float64 `json:"peak_sec"` // peak total wait
}

// Report is the serialized latency-budget artifact.
type Report struct {
	Schema             string      `json:"schema"`
	Requests           int         `json:"requests"`
	Errors             int         `json:"errors"`
	Skipped            int         `json:"skipped"`
	MaxConservationErr float64     `json:"max_conservation_err"`
	Profiles           []Profile   `json:"profiles"`
	CriticalPath       []BandBlame `json:"critical_path"`
	Fluid              []FluidTier `json:"fluid,omitempty"`
}

// quantBands partition the end-to-end distribution for blame analysis.
var quantBands = []struct {
	name     string
	loQ, hiQ float64 // quantile range (loQ, hiQ]
}{
	{name: "p50", loQ: 0, hiQ: 0.50},
	{name: "p50-p95", loQ: 0.50, hiQ: 0.95},
	{name: "p95-p99", loQ: 0.95, hiQ: 0.99},
	{name: "p99", loQ: 0.99, hiQ: 1},
}

// quantile matches obs.Histogram.Quantile: sort once, then the
// metrics.Percentile linear-interpolation convention — so the artifact
// values are identical to the registry-histogram implementation this
// replaced.
func quantile(sorted []float64, p float64) float64 {
	return metrics.Percentile(sorted, p)
}

// compInfo is one (tier, component) bucket of a class during report
// building. Kept in a small reused linear slice — a class touches at
// most a dozen or so pairs — so aggregation does no map work.
type compInfo struct {
	tier, component string
	count, cur      int
	sum             float64
}

// BuildReport aggregates an analysis into the budget artifact. The
// per-component percentiles are exact (sorted raw samples per class);
// every slice is sorted so same-seed reports are byte-identical.
//
// The aggregation is allocation-light by design: class names are
// gathered with a linear scan (interaction names are interned strings,
// so the per-class filter passes compare pointers), and each class's
// component samples are bucketed into one reused flat buffer (count,
// then fill), so only plain float64 slices are ever sorted — the
// budget is rebuilt per analysis window and its cost is tracked as the
// benchmark's obs_attrib.driver_analyze_ms.
func BuildReport(a *Analysis, fluid []FluidTier) *Report {
	r := &Report{
		Schema:   BudgetSchema,
		Requests: len(a.Breakdowns),
		Errors:   a.Errors,
		Skipped:  a.Skipped,
		Fluid:    fluid,
	}
	var names []string
	for i := range a.Breakdowns {
		b := &a.Breakdowns[i]
		if e := b.ConservationErr(); e > r.MaxConservationErr {
			r.MaxConservationErr = e
		}
		seen := false
		for _, n := range names {
			if n == b.Interaction {
				seen = true
				break
			}
		}
		if !seen {
			names = append(names, b.Interaction)
		}
	}
	sort.Strings(names)
	var totals, vals []float64
	var comps []compInfo
	for _, name := range names {
		p := Profile{Interaction: name}
		totals = totals[:0]
		comps = comps[:0]
		for bi := range a.Breakdowns {
			b := &a.Breakdowns[bi]
			if b.Interaction != name {
				continue
			}
			p.Requests++
			totals = append(totals, b.Total)
			for _, part := range b.Parts {
				j := -1
				for i := range comps {
					if comps[i].tier == part.Tier && comps[i].component == part.Component {
						j = i
						break
					}
				}
				if j < 0 {
					j = len(comps)
					comps = append(comps, compInfo{tier: part.Tier, component: part.Component})
				}
				comps[j].count++
				comps[j].sum += part.Seconds
			}
		}
		sort.Float64s(totals)
		p.TotalP50Sec = quantile(totals, 0.50)
		p.TotalP95Sec = quantile(totals, 0.95)
		p.TotalP99Sec = quantile(totals, 0.99)
		for i := 1; i < len(comps); i++ {
			for j := i; j > 0 && (comps[j].tier < comps[j-1].tier ||
				(comps[j].tier == comps[j-1].tier && comps[j].component < comps[j-1].component)); j-- {
				comps[j], comps[j-1] = comps[j-1], comps[j]
			}
		}
		// Second pass: place every sample into its bucket's slot in one
		// shared buffer, then sort each bucket independently.
		total := 0
		for i := range comps {
			comps[i].cur = total
			total += comps[i].count
		}
		if cap(vals) < total {
			vals = make([]float64, total)
		} else {
			vals = vals[:total]
		}
		for bi := range a.Breakdowns {
			b := &a.Breakdowns[bi]
			if b.Interaction != name {
				continue
			}
			for _, part := range b.Parts {
				for i := range comps {
					if comps[i].tier == part.Tier && comps[i].component == part.Component {
						vals[comps[i].cur] = part.Seconds
						comps[i].cur++
						break
					}
				}
			}
		}
		n := float64(p.Requests)
		var meanSum float64
		off := 0
		p.Components = make([]ComponentStat, 0, len(comps))
		for i := range comps {
			c := &comps[i]
			bucket := vals[off : off+c.count]
			off += c.count
			sort.Float64s(bucket)
			mean := c.sum / n
			meanSum += mean
			p.Components = append(p.Components, ComponentStat{
				Tier:      c.tier,
				Component: c.component,
				MeanSec:   mean,
				P50Sec:    quantile(bucket, 0.50),
				P95Sec:    quantile(bucket, 0.95),
				P99Sec:    quantile(bucket, 0.99),
			})
		}
		if meanSum > 0 {
			for i := range p.Components {
				p.Components[i].Share = p.Components[i].MeanSec / meanSum
			}
		}
		r.Profiles = append(r.Profiles, p)
	}
	r.CriticalPath = criticalPath(a.Breakdowns)
	return r
}

// criticalPath names the dominant (tier, component) per percentile
// band of the end-to-end distribution, across all interaction classes.
func criticalPath(bds []Breakdown) []BandBlame {
	if len(bds) == 0 {
		return nil
	}
	totals := make([]float64, len(bds))
	for i, b := range bds {
		totals[i] = b.Total
	}
	sort.Float64s(totals)
	cut := func(q float64) float64 {
		if q <= 0 {
			return totals[0] - 1
		}
		idx := int(q*float64(len(totals))) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= len(totals) {
			idx = len(totals) - 1
		}
		return totals[idx]
	}
	// The band ranges (loQ, hiQ] chain, so their cut values partition
	// the distribution — one pass assigns every breakdown to exactly
	// the band the old per-band range checks matched.
	var cuts [5]float64
	cuts[0] = cut(quantBands[0].loQ)
	for i, band := range quantBands {
		cuts[i+1] = cut(band.hiQ)
	}
	var sums [4]accum
	var counts [4]int
	var bandSums [4]float64
	for bi := range bds {
		b := &bds[bi]
		for k := range quantBands {
			if b.Total <= cuts[k] || b.Total > cuts[k+1] {
				continue
			}
			counts[k]++
			bandSums[k] += b.Total
			for _, part := range b.Parts {
				sums[k].add(part.Tier, part.Component, part.Seconds)
			}
			break
		}
	}
	var out []BandBlame
	for k, band := range quantBands {
		sums, n, bandSum := sums[k], counts[k], bandSums[k]
		if n == 0 {
			continue
		}
		// Deterministic argmax: sort by (tier, component) first so equal
		// sums resolve the same way every run.
		for i := 1; i < len(sums); i++ {
			for j := i; j > 0 && (sums[j].Tier < sums[j-1].Tier ||
				(sums[j].Tier == sums[j-1].Tier && sums[j].Component < sums[j-1].Component)); j-- {
				sums[j], sums[j-1] = sums[j-1], sums[j]
			}
		}
		best := Part{Seconds: -1}
		for _, p := range sums {
			if p.Seconds > best.Seconds {
				best = p
			}
		}
		blame := BandBlame{
			Band:     band.name,
			Requests: n,
			MeanSec:  bandSum / float64(n),
			Tier:     best.Tier, Component: best.Component,
		}
		if bandSum > 0 {
			blame.Share = best.Seconds / bandSum
		}
		out = append(out, blame)
	}
	return out
}

// Marshal renders the report as the stable JSON artifact.
func (r *Report) Marshal() []byte {
	raw, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		panic(err) // static struct, cannot fail
	}
	return append(raw, '\n')
}

// ParseReport parses and validates a latency-budget artifact.
func ParseReport(raw []byte) (*Report, error) {
	var r Report
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("attrib: parsing budget report: %w", err)
	}
	if r.Schema != BudgetSchema {
		return nil, fmt.Errorf("attrib: budget schema %q, want %q", r.Schema, BudgetSchema)
	}
	for _, p := range r.Profiles {
		if p.Interaction == "" {
			return nil, fmt.Errorf("attrib: budget profile with empty interaction")
		}
		for _, c := range p.Components {
			if c.Tier == "" || c.Component == "" {
				return nil, fmt.Errorf("attrib: profile %s has a component without tier/component", p.Interaction)
			}
		}
	}
	return &r, nil
}

// Dominant returns the critical-path blame for a band, if present.
func (r *Report) Dominant(band string) (BandBlame, bool) {
	for _, b := range r.CriticalPath {
		if b.Band == band {
			return b, true
		}
	}
	return BandBlame{}, false
}
