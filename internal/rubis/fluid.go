package rubis

import (
	"math"
	"math/rand"

	"jade/internal/legacy"
)

// FluidDemand is a mix's mean per-request resource profile: the
// calibration constants the fluid workload model feeds its queue-theoretic
// tier stations: ExpectedCosts' four per-tier costs plus the query-count
// moments the C-JDBC proxy and write-broadcast equations need.
type FluidDemand struct {
	// Web, App, DBRead, DBWrite are mean CPU-seconds per request at each
	// tier (DB costs summed over the request's queries).
	Web, App, DBRead, DBWrite float64
	// QueriesPerRequest is the mean number of queries a request issues
	// (reads + writes) — the unit the C-JDBC proxy cost is charged in.
	QueriesPerRequest float64
	// WriteQueriesPerRequest is the mean number of write queries per
	// request; writes broadcast to every database replica under RAIDb-1.
	WriteQueriesPerRequest float64
}

// FluidDemand estimates the mix's mean per-request demand by Monte Carlo
// over the interaction weights: samples requests drawn from seed, built as
// the emulator builds them (reads prepared, without text) into one reused
// query slice, each query classified by legacy.Query.IsWrite. It is the
// one calibration loop; ExpectedCosts projects it.
func (m *Mix) FluidDemand(ds Dataset, seed int64, samples int) FluidDemand {
	rng := rand.New(rand.NewSource(seed))
	g := &GenContext{DS: ds, RNG: rng, Counters: NewCounters(ds)}
	qs := make([]legacy.Query, 0, 3)
	var d FluidDemand
	for i := 0; i < samples; i++ {
		var req legacy.WebRequest
		m.Pick(rng).build(g, &req, qs[:0])
		d.Web += req.WebCost
		d.App += req.AppCost
		for j := range req.Queries {
			q := &req.Queries[j]
			d.QueriesPerRequest++
			if q.IsWrite() {
				d.DBWrite += q.Cost
				d.WriteQueriesPerRequest++
			} else {
				d.DBRead += q.Cost
			}
		}
	}
	n := float64(samples)
	d.Web /= n
	d.App /= n
	d.DBRead /= n
	d.DBWrite /= n
	d.QueriesPerRequest /= n
	d.WriteQueriesPerRequest /= n
	return d
}

// ScaledProfile emulates a sampled fraction of another profile's
// population: in fluid workload mode only Rate of the clients run as real
// discrete request chains (keeping traces, exact percentiles, SLO
// evaluation and the alert plane alive), while the remainder is carried
// as an aggregate flow by the fluid network. Min guards the sample floor
// so small populations still produce a live stream.
type ScaledProfile struct {
	Inner Profile
	Rate  float64
	Min   int
}

// Active implements Profile: ceil(inner·Rate), at least Min (but never
// more than the inner population).
func (p ScaledProfile) Active(t float64) int {
	n := p.Inner.Active(t)
	if n <= 0 {
		return 0
	}
	s := int(math.Ceil(float64(n) * p.Rate))
	if s < p.Min {
		s = p.Min
	}
	if s > n {
		s = n
	}
	return s
}

// Duration implements Profile.
func (p ScaledProfile) Duration() float64 { return p.Inner.Duration() }

// Max implements Profile.
func (p ScaledProfile) Max() int {
	s := int(math.Ceil(float64(p.Inner.Max()) * p.Rate))
	if s < p.Min {
		s = p.Min
	}
	if s > p.Inner.Max() {
		s = p.Inner.Max()
	}
	return s
}
