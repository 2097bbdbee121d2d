package netsim

import (
	"math"
	"sort"

	"jade/internal/cluster"
	"jade/internal/obs"
	"jade/internal/sim"
	"jade/internal/trace"
)

// HeartbeatConfig tunes the suspicion detector. Zero fields take the
// documented defaults, so the zero value is a usable detector.
type HeartbeatConfig struct {
	// PeriodSeconds between heartbeats from each monitored replica
	// (default 1 s, the self-recovery loop period).
	PeriodSeconds float64 `json:"period_seconds,omitempty"`
	// Window is how many of the most recent heartbeat interarrivals feed
	// the mean the suspicion score is normalized by (default 8).
	Window int `json:"window,omitempty"`
	// PhiThreshold is the suspicion level at which a replica is declared
	// suspect (default 3: roughly threshold*mean*ln10 ≈ 6.9 s of silence
	// at a 1 s period).
	PhiThreshold float64 `json:"phi_threshold,omitempty"`
}

func (c HeartbeatConfig) withDefaults() HeartbeatConfig {
	if c.PeriodSeconds <= 0 {
		c.PeriodSeconds = 1
	}
	if c.Window <= 0 {
		c.Window = 8
	}
	if c.PhiThreshold <= 0 {
		c.PhiThreshold = 3
	}
	return c
}

// DetectorStats summarizes the detector's behavior over a run, including
// its mistakes — the quantity the netsim experiments compare.
type DetectorStats struct {
	// Suspicions counts suspect transitions (true and false).
	Suspicions uint64 `json:"suspicions"`
	// TruePositives are suspicions of replicas whose node had really
	// failed; FalsePositives are suspicions of live replicas (heartbeats
	// lost or partitioned away).
	TruePositives  uint64 `json:"true_positives"`
	FalsePositives uint64 `json:"false_positives"`
	// Heals counts suspicions that decayed (heartbeats resumed before any
	// repair acted on the suspicion).
	Heals uint64 `json:"heals"`
	// DetectionLatencySum accumulates, over true positives, the delay
	// between the node failure and the suspect transition.
	DetectionLatencySum float64 `json:"detection_latency_sum"`
}

// MeanDetectionLatency is DetectionLatencySum averaged over true
// positives (0 when there were none).
func (s DetectorStats) MeanDetectionLatency() float64 {
	if s.TruePositives == 0 {
		return 0
	}
	return s.DetectionLatencySum / float64(s.TruePositives)
}

// monitored is one replica under watch. It is also the arrival of its
// heartbeats at the management endpoint (Fire), so a heartbeat allocates
// nothing.
type monitored struct {
	d         *Detector
	name      string
	node      *cluster.Node
	hb        *sim.Ticker
	last      float64   // arrival time of the newest heartbeat
	inter     []float64 // ring of recent interarrivals
	interN    int
	suspected bool
	failedAt  float64 // first time the node was observed failed (-1: alive)
	phiGauge  *obs.Gauge
	susGauge  *obs.Gauge
}

// Detector is a φ-accrual-style heartbeat failure detector: each
// monitored replica's node emits periodic heartbeats over the fabric to
// the management endpoint; the suspicion level φ grows with the silence
// since the last arrival, normalized by the observed interarrival mean,
// and the replica is suspect while φ ≥ the threshold. Unlike the oracle
// it replaces, it can be late (detection latency) and wrong (false
// positives under loss or partition) — and both are measured.
type Detector struct {
	eng     *sim.Engine
	fab     *Fabric
	cfg     HeartbeatConfig
	mon     map[string]*monitored
	stats   DetectorStats
	tr      *trace.Tracer
	reg     *obs.Registry
	eval    *sim.Ticker
	onTrans []func(now float64, target string, suspected, falsePositive bool)
}

// OnTransition registers a hook fired on every suspect/clear transition,
// on the simulation goroutine, after the detector's own bookkeeping.
func (d *Detector) OnTransition(fn func(now float64, target string, suspected, falsePositive bool)) {
	d.onTrans = append(d.onTrans, fn)
}

// NewDetector builds a detector fed by heartbeats over fab.
func NewDetector(eng *sim.Engine, fab *Fabric, cfg HeartbeatConfig) *Detector {
	return &Detector{eng: eng, fab: fab, cfg: cfg.withDefaults(), mon: make(map[string]*monitored)}
}

// Instrument attaches the tracer and metrics registry (both optional).
func (d *Detector) Instrument(tr *trace.Tracer, reg *obs.Registry) {
	d.tr = tr
	d.reg = reg
}

// Stats returns a copy of the cumulative detector counters.
func (d *Detector) Stats() DetectorStats { return d.stats }

// Config returns the effective (defaulted) configuration.
func (d *Detector) Config() HeartbeatConfig { return d.cfg }

// Monitor puts the named replica under watch: its node starts emitting
// heartbeats every period, and Suspected becomes meaningful for it.
// Calling Monitor again for a name already watched is a no-op, so the
// recovery manager may call it on every sensor pass.
func (d *Detector) Monitor(name string, node *cluster.Node) {
	if node == nil {
		return
	}
	if _, ok := d.mon[name]; ok {
		return
	}
	m := &monitored{d: d, name: name, node: node, last: d.eng.Now(), failedAt: -1}
	if d.reg != nil {
		m.phiGauge = d.reg.Gauge("jade_detector_phi", "Suspicion level of a monitored replica.", obs.L("target", name))
		m.susGauge = d.reg.Gauge("jade_detector_suspected", "1 while the replica is suspect.", obs.L("target", name))
	}
	d.mon[name] = m
	// The heartbeat daemon runs on the replica's node: a failed node goes
	// silent, a partitioned one keeps sending into the void.
	m.hb = d.eng.Every(d.cfg.PeriodSeconds, name+":heartbeat", func(float64) {
		if m.node.Failed() {
			return
		}
		d.fab.send(m.node.Name(), ManagementEndpoint, "heartbeat", m)
	})
	if d.eval == nil {
		d.eval = d.eng.Every(d.cfg.PeriodSeconds, "detector:eval", func(float64) {
			d.evaluateAll()
		})
	}
}

// Forget stops watching the named replica (after its repair completed or
// it was deliberately removed).
func (d *Detector) Forget(name string) {
	m, ok := d.mon[name]
	if !ok {
		return
	}
	m.hb.Stop()
	m.phiGauge.Set(0)
	m.susGauge.Set(0)
	delete(d.mon, name)
	if len(d.mon) == 0 && d.eval != nil {
		d.eval.Stop()
		d.eval = nil
	}
}

// Fire records a heartbeat arrival.
func (m *monitored) Fire() {
	d := m.d
	if d.mon[m.name] != m {
		return // forgotten while the heartbeat was in flight
	}
	now := d.eng.Now()
	if inter := now - m.last; inter > 0 {
		if len(m.inter) < d.cfg.Window {
			m.inter = append(m.inter, inter)
		} else {
			m.inter[m.interN%d.cfg.Window] = inter
		}
		m.interN++
	}
	m.last = now
}

// mean is the windowed interarrival mean, floored at the configured
// period so a burst of quick arrivals cannot make the detector trigger
// on sub-period silences.
func (m *monitored) mean(period float64) float64 {
	if len(m.inter) == 0 {
		return period
	}
	sum := 0.0
	for _, v := range m.inter {
		sum += v
	}
	mean := sum / float64(len(m.inter))
	if mean < period {
		mean = period
	}
	return mean
}

// Phi returns the current suspicion level of the named replica (0 when
// not monitored). Under the exponential interarrival assumption,
// φ(t) = -log10 P(heartbeat still to come) = silence / (mean·ln 10).
func (d *Detector) Phi(name string) float64 {
	m, ok := d.mon[name]
	if !ok {
		return 0
	}
	silence := d.eng.Now() - m.last
	if silence <= 0 {
		return 0
	}
	return silence / (m.mean(d.cfg.PeriodSeconds) * math.Ln10)
}

// Suspected reports whether the named replica is currently suspect. The
// transition bookkeeping (mistake accounting, trace events, gauges) runs
// here and on the detector's own evaluation ticker, so reading the state
// is always fresh.
func (d *Detector) Suspected(name string) bool {
	m, ok := d.mon[name]
	if !ok {
		return false
	}
	d.evaluate(name, m)
	return m.suspected
}

func (d *Detector) evaluateAll() {
	// Map iteration order is nondeterministic, but evaluate's effects per
	// replica are order-independent: transitions touch only that
	// replica's state and monotonic counters, and trace events would leak
	// ordering — so evaluate in sorted name order.
	names := make([]string, 0, len(d.mon))
	for name := range d.mon {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		d.evaluate(name, d.mon[name])
	}
}

func (d *Detector) evaluate(name string, m *monitored) {
	now := d.eng.Now()
	if m.node.Failed() {
		if m.failedAt < 0 {
			m.failedAt = now
		}
	} else {
		m.failedAt = -1
	}
	phi := d.Phi(name)
	m.phiGauge.Set(phi)
	sus := phi >= d.cfg.PhiThreshold
	if sus == m.suspected {
		return
	}
	m.suspected = sus
	m.susGauge.SetBool(sus)
	if sus {
		d.stats.Suspicions++
		falsePositive := m.failedAt < 0
		if falsePositive {
			d.stats.FalsePositives++
		} else {
			d.stats.TruePositives++
			d.stats.DetectionLatencySum += now - m.failedAt
		}
		d.tr.Emit("detector", "detector.suspect",
			trace.F("target", name), trace.Ff("phi", phi),
			trace.F("false_positive", boolStr(falsePositive)))
		d.transition(now, name, true, falsePositive)
		return
	}
	if !m.node.Failed() {
		d.stats.Heals++
	}
	d.tr.Emit("detector", "detector.clear", trace.F("target", name), trace.Ff("phi", phi))
	d.transition(now, name, false, false)
}

func (d *Detector) transition(now float64, name string, suspected, falsePositive bool) {
	for _, fn := range d.onTrans {
		fn(now, name, suspected, falsePositive)
	}
}

func boolStr(b bool) string {
	if b {
		return "true"
	}
	return "false"
}
