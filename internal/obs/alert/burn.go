package alert

import "fmt"

// burnSample is one SLO evaluation outcome fed by the SLO engine.
type burnSample struct {
	t   float64
	met bool
}

// BurnRule converts one SLO objective's evaluation stream into
// multi-window error-budget burn-rate alerts. Each SLOEngine evaluation
// interval that misses its bound spends budget; the burn rate is the
// bad-interval fraction divided by the budget fraction, measured over a
// fast and a slow window. Paging requires both windows over pageBurnRate —
// the fast window gives low detection latency, the slow window stops a
// single bad interval from strobing the pager.
type BurnRule struct {
	objective string
	tier      string
	samples   []burnSample
	lastValue float64
	hasValue  bool
}

// NewBurnRule builds a burn-rate rule for one objective. Feed it from
// SLOEngine.Observer via Observe.
func NewBurnRule(objective, tier string) *BurnRule {
	return &BurnRule{objective: objective, tier: tier}
}

// Name implements Rule.
func (r *BurnRule) Name() string { return "burn:" + r.objective }

// Observe records one objective evaluation outcome (sim goroutine only).
func (r *BurnRule) Observe(now float64, value float64, met bool) {
	r.lastValue, r.hasValue = value, true
	r.samples = append(r.samples, burnSample{t: now, met: met})
	cut := now - slowWindow
	i := 0
	for i < len(r.samples) && r.samples[i].t < cut {
		i++
	}
	if i > 0 {
		r.samples = append(r.samples[:0], r.samples[i:]...)
	}
}

// window returns the bad fraction and sample count at or after t0.
func (r *BurnRule) window(t0 float64) (badFrac float64, n int) {
	bad := 0
	for _, s := range r.samples {
		if s.t < t0 {
			continue
		}
		n++
		if !s.met {
			bad++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return float64(bad) / float64(n), n
}

// Evaluate implements Rule.
func (r *BurnRule) Evaluate(now float64) []Finding {
	fastBad, fastN := r.window(now - fastWindow)
	slowBad, slowN := r.window(now - slowWindow)
	if fastN == 0 || slowN == 0 {
		return nil
	}
	fastBurn := fastBad / errorBudget
	slowBurn := slowBad / errorBudget
	burn := fastBurn
	if slowBurn < burn {
		burn = slowBurn
	}
	var sev Severity
	var threshold float64
	switch {
	case burn >= pageBurnRate:
		sev, threshold = SevPage, pageBurnRate
	case burn >= warnBurnRate:
		sev, threshold = SevWarn, warnBurnRate
	default:
		return nil
	}
	detail := fmt.Sprintf("error budget burning at %.1fx fast / %.1fx slow", fastBurn, slowBurn)
	if r.hasValue {
		detail += fmt.Sprintf(" (last %s=%.4g)", r.objective, r.lastValue)
	}
	return []Finding{{
		Component:    r.tier,
		Tier:         r.tier,
		Severity:     sev,
		Value:        burn,
		Threshold:    threshold,
		Detail:       detail,
		ServiceLevel: true,
	}}
}
