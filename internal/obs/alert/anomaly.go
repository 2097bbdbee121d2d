package alert

import (
	"fmt"
	"math"
	"sort"
)

// Probe samples one measurement at virtual time now. ok=false means "no
// signal this tick" (e.g. no requests completed in the window) and the
// rule passes without judging or learning.
type Probe func(now float64) (value float64, ok bool)

// anomalyMode selects which condition an anomaly rule checks.
type anomalyMode int

const (
	modeZScore anomalyMode = iota // EWMA mean/variance z-score
	modeRate                      // rate-of-change vs EWMA baseline
)

// AnomalyRule is a streaming detector over a probe: it keeps an
// exponentially-weighted mean and variance of the series and flags
// samples that sit zTrip standard deviations above the baseline
// (z-score mode) or spikeFactor times above it (rate-of-change mode).
// While a sample is anomalous the baseline is frozen, so a sustained
// degradation cannot absorb itself into normality; two consecutive
// anomalous ticks are required before a finding is emitted.
type AnomalyRule struct {
	name         string
	component    string
	tier         string
	serviceLevel bool
	probe        Probe
	mode         anomalyMode
	floor        float64 // minimum absolute deviation worth flagging

	mean     float64
	variance float64
	n        int
	consec   int
}

// NewZScoreRule builds an EWMA z-score detector over probe. floor is the
// minimum absolute deviation from the baseline that can fire (guards
// against microscopic variance making tiny wobbles look extreme).
func NewZScoreRule(name, component, tier string, serviceLevel bool, floor float64, probe Probe) *AnomalyRule {
	return &AnomalyRule{name: name, component: component, tier: tier,
		serviceLevel: serviceLevel, probe: probe,
		mode: modeZScore, floor: floor}
}

// NewRateRule builds a rate-of-change detector over probe: it fires when
// the sample exceeds spikeFactor times the EWMA baseline (and the floor).
func NewRateRule(name, component, tier string, serviceLevel bool, floor float64, probe Probe) *AnomalyRule {
	return &AnomalyRule{name: name, component: component, tier: tier,
		serviceLevel: serviceLevel, probe: probe,
		mode: modeRate, floor: floor}
}

// Name implements Rule.
func (r *AnomalyRule) Name() string { return r.name }

// Evaluate implements Rule.
func (r *AnomalyRule) Evaluate(now float64) []Finding {
	x, ok := r.probe(now)
	if !ok {
		return nil
	}
	anomalous := false
	var z, ratio float64
	if r.n >= zWarmup {
		dev := x - r.mean
		sd := math.Sqrt(r.variance)
		z = dev / math.Max(sd, 1e-9)
		ratio = x / math.Max(r.mean, math.Max(r.floor, 1e-9))
		switch r.mode {
		case modeZScore:
			anomalous = dev > r.floor && z >= zTrip
		case modeRate:
			anomalous = dev > r.floor && ratio >= spikeFactor
		}
	}
	if !anomalous {
		r.consec = 0
		r.update(x)
		return nil
	}
	r.consec++
	if r.consec < 2 {
		return nil
	}
	sev := SevWarn
	var threshold float64
	var detail string
	switch r.mode {
	case modeZScore:
		threshold = zTrip
		if z >= 2*zTrip {
			sev = SevPage
		}
		detail = fmt.Sprintf("z=%.1f vs baseline %.4g (value %.4g)", z, r.mean, x)
	case modeRate:
		threshold = spikeFactor
		if ratio >= 2*spikeFactor {
			sev = SevPage
		}
		detail = fmt.Sprintf("%.1fx baseline %.4g (value %.4g)", ratio, r.mean, x)
	}
	return []Finding{{
		Component:    r.component,
		Tier:         r.tier,
		Severity:     sev,
		Value:        x,
		Threshold:    threshold,
		Detail:       detail,
		ServiceLevel: r.serviceLevel,
	}}
}

// update folds a non-anomalous sample into the EWMA baseline.
func (r *AnomalyRule) update(x float64) {
	alpha := 1 - math.Exp2(-EvalInterval/ewmaHalfLifeSeconds)
	if r.n == 0 {
		r.mean = x
	} else {
		d := x - r.mean
		r.mean += float64(alpha * d)
		r.variance = (1 - alpha) * (r.variance + float64(alpha*d*d))
	}
	r.n++
}

// BackendStat is one pool backend's decayed reservoir state, exported by
// internal/selector (Pool.Snapshot → Status reservoir fields).
type BackendStat struct {
	Name           string
	MeanLatency    float64 // decayed mean latency, seconds
	LatencySamples float64 // decayed sample count behind MeanLatency
	Failures       float64 // decayed failure count
	InFlight       int
}

// SkewRule compares every pool backend against the median of its peers:
// a backend whose decayed mean latency sits skewRatio times above that
// median (and above an absolute floor), whose in-flight depth piles up
// the same way, or whose decayed failure reservoir runs hot is named
// directly — this is what catches the φ-invisible gray replica, because
// heartbeats still flow while the reservoirs diverge. The baseline
// excludes the backend under judgment so a single outlier cannot drag
// its own comparison point along (decisive in two-backend pools, where
// a self-inclusive median would average the outlier in). Findings are
// replica-level (they name the backend), so they win incident-suspect
// attribution over service-level burn symptoms.
type SkewRule struct {
	name   string
	tier   string
	stats  func() []BackendStat
	floor  float64 // minimum latency gap (seconds) worth flagging
	consec map[string]int

	// An evaluation's scratch: each backend's peers' readings, and the
	// sorted copy a median takes.
	lats, fails, flights, sorted []float64
}

// NewSkewRule builds a pool-skew rule; stats must return the pool's
// backends in deterministic (registration) order. The rule reads the slice
// only during Evaluate, so stats may reuse it from one call to the next.
func NewSkewRule(name, tier string, floor float64, stats func() []BackendStat) *SkewRule {
	return &SkewRule{name: name, tier: tier,
		stats: stats, floor: floor, consec: make(map[string]int)}
}

// Name implements Rule.
func (r *SkewRule) Name() string { return r.name }

func (r *SkewRule) median(vals []float64) float64 {
	s := append(r.sorted[:0], vals...)
	r.sorted = s
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Evaluate implements Rule.
func (r *SkewRule) Evaluate(now float64) []Finding {
	stats := r.stats()
	if len(stats) < 2 {
		return nil
	}
	warm := 0
	for _, s := range stats {
		if s.LatencySamples >= 0.5 {
			warm++
		}
	}
	if warm < 2 {
		return nil
	}
	var findings []Finding
	hot := make(map[string]bool, len(stats))
	for i, s := range stats {
		lats, fails, flights := r.lats[:0], r.fails[:0], r.flights[:0]
		for j, o := range stats {
			if j == i {
				continue
			}
			lats = append(lats, o.MeanLatency)
			fails = append(fails, o.Failures)
			flights = append(flights, float64(o.InFlight))
		}
		r.lats, r.fails, r.flights = lats, fails, flights
		medLat, medFail, medFlight := r.median(lats), r.median(fails), r.median(flights)
		var reasons []string
		var ratio float64
		if s.LatencySamples >= 0.5 && s.MeanLatency >= skewRatio*medLat && s.MeanLatency-medLat >= r.floor {
			ratio = s.MeanLatency / math.Max(medLat, 1e-9)
			reasons = append(reasons, fmt.Sprintf("latency %.0f ms vs pool median %.0f ms", s.MeanLatency*1e3, medLat*1e3))
		}
		if float64(s.InFlight) >= skewRatio*medFlight && float64(s.InFlight)-medFlight >= 8 {
			fr := float64(s.InFlight) / math.Max(medFlight, 1)
			if fr > ratio {
				ratio = fr
			}
			reasons = append(reasons, fmt.Sprintf("%d in flight vs pool median %.0f", s.InFlight, medFlight))
		}
		if s.Failures >= 3+float64(skewRatio*medFail) {
			fr := s.Failures / math.Max(medFail, 1)
			if fr > ratio {
				ratio = fr
			}
			reasons = append(reasons, fmt.Sprintf("%.1f decayed failures vs pool median %.1f", s.Failures, medFail))
		}
		if len(reasons) == 0 {
			continue
		}
		hot[s.Name] = true
		r.consec[s.Name]++
		if r.consec[s.Name] < 2 {
			continue
		}
		sev := SevWarn
		// Page on an extreme instantaneous skew, or on a moderate one that
		// has held for pagePersistSeconds of consecutive ticks — the gray
		// replica that is "only" a few times slower but stays that way.
		held := float64(r.consec[s.Name]-1) * EvalInterval
		if ratio >= 2*skewRatio || held >= pagePersistSeconds {
			sev = SevPage
		}
		detail := reasons[0]
		for _, extra := range reasons[1:] {
			detail += "; " + extra
		}
		findings = append(findings, Finding{
			Component: s.Name,
			Tier:      r.tier,
			Severity:  sev,
			Value:     ratio,
			Threshold: skewRatio,
			Detail:    detail,
		})
	}
	for name := range r.consec {
		if !hot[name] {
			delete(r.consec, name)
		}
	}
	return findings
}
