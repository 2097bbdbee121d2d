package rubis

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"

	"jade/internal/legacy"
	"jade/internal/metrics"
	"jade/internal/obs"
	"jade/internal/sim"
	"jade/internal/trace"
)

// Profile shapes the emulated client population over time.
type Profile interface {
	// Active returns the target number of concurrently emulated clients
	// at virtual time t.
	Active(t float64) int
	// Duration is the experiment length in seconds.
	Duration() float64
	// Max is the population high-water mark (for preallocation).
	Max() int
}

// RampProfile is the paper's evaluation workload: a base population, a
// linear increase of StepPerMinute clients per minute up to Peak, an
// optional hold, then a symmetric decrease back to the base.
type RampProfile struct {
	Base          int
	Peak          int
	StepPerMinute int
	HoldAtPeak    float64
}

// PaperRamp is the exact scenario of §5.2: 80 clients, +21 clients/minute
// up to 500, then symmetric decrease.
func PaperRamp() RampProfile {
	return RampProfile{Base: 80, Peak: 500, StepPerMinute: 21, HoldAtPeak: 120}
}

func (r RampProfile) rampSeconds() float64 {
	if r.StepPerMinute <= 0 {
		return 0
	}
	return float64(r.Peak-r.Base) / float64(r.StepPerMinute) * 60
}

// Active implements Profile.
func (r RampProfile) Active(t float64) int {
	up := r.rampSeconds()
	switch {
	case t < 0:
		return r.Base
	case t < up:
		return r.Base + int(t/60*float64(r.StepPerMinute))
	case t < up+r.HoldAtPeak:
		return r.Peak
	case t < 2*up+r.HoldAtPeak:
		down := t - up - r.HoldAtPeak
		n := r.Peak - int(down/60*float64(r.StepPerMinute))
		if n < r.Base {
			return r.Base
		}
		return n
	default:
		return r.Base
	}
}

// Duration implements Profile.
func (r RampProfile) Duration() float64 { return 2*r.rampSeconds() + r.HoldAtPeak }

// Max implements Profile.
func (r RampProfile) Max() int { return r.Peak }

// ConstantProfile holds a fixed population for a fixed length — the
// "medium workload" of the paper's intrusivity experiment (Table 1).
type ConstantProfile struct {
	Clients int
	Length  float64
}

// Active implements Profile.
func (c ConstantProfile) Active(float64) int { return c.Clients }

// Duration implements Profile.
func (c ConstantProfile) Duration() float64 { return c.Length }

// Max implements Profile.
func (c ConstantProfile) Max() int { return c.Clients }

// InteractionStats aggregates one interaction's outcomes.
type InteractionStats struct {
	Count        uint64
	Errors       uint64
	TotalLatency float64
}

// Stats gathers the emulator's measurements, mirroring the RUBiS
// benchmarking tool ("gathers statistics about the generated workload and
// the web application behavior").
type Stats struct {
	// Latency records one point per completed request: (t, seconds).
	Latency *metrics.Series
	// Workload records the active client population each second.
	Workload *metrics.Series

	Completed uint64
	Failed    uint64

	mix            *Mix
	perInteraction []InteractionStats // by position in the mix
}

func newStats(mix *Mix) *Stats {
	return &Stats{
		Latency:        metrics.NewSeries("latency"),
		Workload:       metrics.NewSeries("workload"),
		mix:            mix,
		perInteraction: make([]InteractionStats, len(mix.Interactions)),
	}
}

// Interaction returns the aggregate for one interaction name.
func (s *Stats) Interaction(name string) InteractionStats {
	if it, ok := s.mix.ByName(name); ok {
		return s.perInteraction[it.idx]
	}
	return InteractionStats{}
}

// InteractionNames returns the interaction names observed, sorted.
func (s *Stats) InteractionNames() []string {
	var out []string
	for i, st := range s.perInteraction {
		if st.Count+st.Errors > 0 {
			out = append(out, s.mix.Interactions[i].Name)
		}
	}
	sort.Strings(out)
	return out
}

// LatencySummary summarizes completed-request latencies (seconds).
func (s *Stats) LatencySummary() metrics.Summary {
	vs := make([]float64, s.Latency.Len())
	for i := range vs {
		vs[i] = s.Latency.Point(i).V
	}
	return metrics.Summarize(vs)
}

// MeanLatencyBetween returns the mean latency of completions in [t0, t1].
func (s *Stats) MeanLatencyBetween(t0, t1 float64) float64 {
	return s.Latency.MeanBetween(t0, t1)
}

// record counts one answered request of the interaction at position it of
// the mix.
func (s *Stats) record(it int, t, latency float64, err error) {
	st := &s.perInteraction[it]
	if err != nil {
		s.Failed++
		st.Errors++
		return
	}
	s.Completed++
	st.Count++
	st.TotalLatency += latency
	s.Latency.Add(t, latency)
}

// Emulator drives a closed-loop population of clients against a front-end
// HTTP handler: each client thinks (exponential think time), issues one
// interaction, waits for the response, and repeats — so an overloaded
// system slows its own offered load, as real users do.
type Emulator struct {
	eng     *sim.Engine
	front   legacy.HTTPHandler
	mix     *Mix
	profile Profile

	// ThinkTime is the mean think time in seconds (RUBiS uses
	// exponentially distributed think times; 7 s mean, per TPC-W).
	ThinkTime float64

	// Chain, when set, switches the emulator from independent sampling
	// of the mix's stationary weights to Markov sessions: each client
	// walks the transition graph from its start state (and restarts the
	// session when reactivated).
	Chain *Chain

	// Trace, when set together with TraceEvery, opens a root "request"
	// span for every TraceEvery-th issued request; the request then
	// carries the span through the tiers, which attach their hop spans
	// under it. Sampling keeps the span store bounded on long runs. A
	// traced request allocates no more than an untraced one: the tracer
	// copies the span and its fields into storage it owns.
	Trace      *trace.Tracer
	TraceEvery int

	// Obs, when set, records the client-perceived end-to-end request
	// latency and outcome counters (tier "client"). Nil-safe.
	Obs *obs.TierMetrics

	// ReportProfile, when set, is the population recorded in the
	// workload series instead of the driving profile's. Fluid mode sets
	// it to the full (unsampled) profile so workload artifacts keep
	// showing the true client population while the emulator itself only
	// drives the sampled stream.
	ReportProfile Profile

	issued uint64
	// gen is what every interaction builds its statements from: one
	// random source and one set of ID counters for the whole population.
	gen      GenContext
	stats    *Stats
	clients  []*client
	ticker   *sim.Ticker
	running  bool
	deadline float64
}

// client is one emulated user: its place in the think / issue / answer
// cycle and the one request it may have in flight. The think continuation
// is bound once, at Start, and the client is its request's Reply, so a
// cycle allocates neither.
type client struct {
	id     int
	em     *Emulator
	active bool
	parked bool
	state  string // current session state in Chain mode
	key    string // the session key its requests carry, "c<id>"

	issueFn func() // c.issue

	// The request in flight: when it left, its interaction and, when it is
	// sampled for tracing, its root span.
	sent float64
	it   *Interaction
	span trace.ID
}

// issued is one request as it leaves the emulator: the request and the
// room for its statements, in one allocation. It is per request, not per
// client: over the fabric a timed-out call answers the client while the
// callee may still hold the request.
type issued struct {
	legacy.WebRequest
	queries [3]legacy.Query
}

// NewEmulator creates an emulator (not yet started).
func NewEmulator(eng *sim.Engine, front legacy.HTTPHandler, mix *Mix, profile Profile, ds Dataset) *Emulator {
	return &Emulator{
		eng:       eng,
		front:     front,
		mix:       mix,
		profile:   profile,
		ThinkTime: 7,
		gen:       GenContext{DS: ds, RNG: rand.New(rand.NewSource(eng.Rand().Int63())), Counters: NewCounters(ds)},
		stats:     newStats(mix),
	}
}

// Stats returns the emulator's measurements.
func (e *Emulator) Stats() *Stats { return e.stats }

// ActiveClients returns the number of currently active clients.
func (e *Emulator) ActiveClients() int {
	n := 0
	for _, c := range e.clients {
		if c.active {
			n++
		}
	}
	return n
}

// Start launches the population and the per-second population regulator.
// The emulator deactivates everything at the profile's duration.
func (e *Emulator) Start() error {
	if e.running {
		return fmt.Errorf("rubis: emulator already running")
	}
	e.running = true
	e.deadline = e.eng.Now() + e.profile.Duration()
	e.clients = make([]*client, e.profile.Max())
	for i := range e.clients {
		c := &client{id: i, em: e, parked: true, key: "c" + strconv.Itoa(i)}
		c.issueFn = c.issue
		e.clients[i] = c
	}
	e.adjust(e.eng.Now())
	e.ticker = e.eng.Every(1, "rubis:population", func(now float64) {
		if now >= e.deadline {
			e.Stop()
			return
		}
		e.adjust(now)
	})
	return nil
}

// Stop deactivates all clients; in-flight requests complete but are still
// recorded.
func (e *Emulator) Stop() {
	if !e.running {
		return
	}
	e.running = false
	if e.ticker != nil {
		e.ticker.Stop()
		e.ticker = nil
	}
	for _, c := range e.clients {
		c.active = false
	}
}

// adjust reconciles the active population with the profile's target.
func (e *Emulator) adjust(now float64) {
	rel := now - (e.deadline - e.profile.Duration())
	target := e.profile.Active(rel)
	if target > len(e.clients) {
		target = len(e.clients)
	}
	if e.ReportProfile != nil {
		e.stats.Workload.Add(now, float64(e.ReportProfile.Active(rel)))
	} else {
		e.stats.Workload.Add(now, float64(target))
	}
	for i, c := range e.clients {
		want := i < target
		if want && !c.active {
			c.active = true
			if e.Chain != nil {
				c.state = e.Chain.Start() // fresh session
			}
			if c.parked {
				c.parked = false
				c.think()
			}
		} else if !want && c.active {
			c.active = false // parks at the end of its current cycle
		}
	}
}

// think schedules the client's next request after an exponential delay.
func (c *client) think() {
	if !c.active {
		c.parked = true
		return
	}
	delay := c.em.eng.Exponential(c.em.ThinkTime)
	c.em.eng.After(delay, "rubis:think", c.issueFn)
}

// issue sends one interaction; Reply starts the next cycle when the
// response arrives.
func (c *client) issue() {
	if !c.active {
		c.parked = true
		return
	}
	em := c.em
	rng := em.gen.RNG
	var it *Interaction
	if em.Chain != nil {
		c.state = em.Chain.Next(c.state, rng)
		next, ok := em.mix.ByName(c.state)
		if !ok || next.Weight == 0 { // the chain names an interaction the mix does not issue
			next = em.mix.Pick(rng)
			c.state = next.Name
		}
		it = next
	} else {
		it = em.mix.Pick(rng)
	}
	req := &issued{}
	it.build(&em.gen, &req.WebRequest, req.queries[:0])
	req.SessionKey = c.key
	c.sent, c.it, c.span = em.eng.Now(), it, 0
	em.issued++
	if em.Trace != nil && em.TraceEvery > 0 && em.issued%uint64(em.TraceEvery) == 0 {
		c.span = em.Trace.Begin(0, "request", it.Name, trace.Fi("client", c.id))
		req.TraceSpan = c.span
	}
	em.front.HandleHTTP(&req.WebRequest, c)
}

// Reply records the outcome of the request in flight and thinks again.
func (c *client) Reply(err error) {
	em := c.em
	now := em.eng.Now()
	if c.span != 0 {
		em.Trace.End(c.span, trace.Outcome(err))
	}
	em.Obs.End(c.sent, err)
	em.stats.record(c.it.idx, now, now-c.sent, err)
	c.think()
}
