package core

import (
	"fmt"

	"jade/internal/cluster"
	"jade/internal/fractal"
	"jade/internal/legacy"
	"jade/internal/metrics"
	"jade/internal/obs"
	"jade/internal/sim"
	"jade/internal/trace"
)

// Sensor observes one aspect of the managed system. Sample returns the
// current observation and whether it is valid yet (moving averages need
// their window to fill before the reactor should trust them).
type Sensor interface {
	Sample(now float64) (value float64, ok bool)
}

// Reactor is the analysis/decision element of a control loop: it receives
// sensor notifications and drives actuators when reconfiguration is
// needed.
type Reactor interface {
	React(now float64, value float64)
}

// ControlLoop wires a sensor to a reactor at a fixed period. It is itself
// wrapped in a Fractal component, so autonomic managers are deployed and
// managed with the same framework they implement ("Jade administrates
// itself", §3.4).
type ControlLoop struct {
	p       *Platform
	name    string
	period  float64
	sensor  Sensor
	reactor Reactor
	ticker  *sim.Ticker
	comp    *fractal.Component

	samples uint64
	// LastValue is the most recent valid sensor reading.
	LastValue float64
	// lastSample is the bus event recording the most recent valid
	// sample; reactors link their decisions back to it.
	lastSample trace.ID

	// Introspection-plane instruments (nil-safe).
	samplesCtr *obs.Counter
	valueGauge *obs.Gauge
}

// NewControlLoop builds a loop (stopped). Period is in seconds; the paper
// executes its loops every second.
func NewControlLoop(p *Platform, name string, period float64, sensor Sensor, reactor Reactor) (*ControlLoop, error) {
	if period <= 0 {
		return nil, fmt.Errorf("jade: control loop %s with period %v", name, period)
	}
	l := &ControlLoop{p: p, name: name, period: period, sensor: sensor, reactor: reactor}
	l.samplesCtr = p.Metrics().Counter("jade_loop_samples_total",
		"Sensor samples taken per control loop.", obs.L("loop", name))
	l.valueGauge = p.Metrics().Gauge("jade_loop_value",
		"Most recent valid sensor reading per control loop.", obs.L("loop", name))
	comp, err := fractal.NewPrimitive(name, l)
	if err != nil {
		return nil, err
	}
	l.comp = comp
	p.RegisterLoop(l)
	return l, nil
}

// Name returns the loop name.
func (l *ControlLoop) Name() string { return l.name }

// Component returns the loop's management component.
func (l *ControlLoop) Component() *fractal.Component { return l.comp }

// Samples returns the number of sensor samples taken.
func (l *ControlLoop) Samples() uint64 { return l.samples }

// Period returns the loop's execution interval in seconds.
func (l *ControlLoop) Period() float64 { return l.period }

// Running reports whether the loop ticks.
func (l *ControlLoop) Running() bool { return l.ticker != nil }

// OnStart implements the component lifecycle: it arms the ticker.
func (l *ControlLoop) OnStart(*fractal.Component) error {
	if l.ticker != nil {
		return fmt.Errorf("jade: control loop %s already running", l.name)
	}
	l.ticker = l.p.Eng.Every(l.period, "loop:"+l.name, l.tick)
	return nil
}

// OnStop implements the component lifecycle: it stops the ticker.
func (l *ControlLoop) OnStop(*fractal.Component) error {
	if l.ticker != nil {
		l.ticker.Stop()
		l.ticker = nil
	}
	return nil
}

// Start arms the loop (through its component lifecycle).
func (l *ControlLoop) Start() error { return l.comp.Start() }

// Stop disarms the loop.
func (l *ControlLoop) Stop() error { return l.comp.Stop() }

// LastSampleEvent returns the bus event ID of the most recent valid
// sensor sample (0 before warmup).
func (l *ControlLoop) LastSampleEvent() trace.ID { return l.lastSample }

func (l *ControlLoop) tick(now float64) {
	l.samples++
	l.samplesCtr.Inc()
	v, ok := l.sensor.Sample(now)
	if !ok {
		return
	}
	l.LastValue = v
	l.valueGauge.Set(v)
	l.lastSample = l.p.tracer.Emit("loop.sample", l.name, trace.Ff("value", v))
	l.reactor.React(now, v)
}

// NodeSet appends the nodes a sensor monitors to dst and returns the
// result; tiers change size, so it is a function, and the sensor passes a
// slice of its own so that a sample allocates nothing.
type NodeSet func(dst []*cluster.Node) []*cluster.Node

// CPUSensor is the paper's self-optimization probe: every sample it reads
// each monitored node's CPU usage since the previous sample, averages
// spatially across the tier's nodes, and feeds a temporal moving average
// (60 s for the application tier, 90 s for the database tier). Sampling
// consumes a small amount of CPU on each monitored node — the intrusivity
// Table 1 measures.
type CPUSensor struct {
	nodes   NodeSet
	window  *metrics.MovingAverage
	probe   float64 // per-node CPU cost of one sample
	readers map[*cluster.Node]*cluster.UtilizationReader

	// Raw and Smoothed record the sensor's readings for the experiment
	// figures (instantaneous spatial average and moving average).
	Raw      *metrics.Series
	Smoothed *metrics.Series

	count int // samples taken; the first cpuWarmupSamples-1 are not valid

	// A sample's scratch: the monitored nodes, and the readings of those
	// up.
	nodeBuf []*cluster.Node
	vals    []float64
	// probes are the idle probe jobs; a node still running the previous
	// sample's probe gets a second one.
	probes legacy.FreeList[probe]
}

// probe is the CPU job one sample queues on one monitored node; it goes
// back to its sensor's free list when the node is done with it.
type probe struct {
	cluster.Job
	s *CPUSensor
}

func (p *probe) JobDone() { p.s.probes.Put(p) }

func (p *probe) JobFailed() { p.s.probes.Put(p) }

// cpuWarmupSamples is the minimum number of samples before a CPU sensor
// reports valid data.
const cpuWarmupSamples = 5

// NewCPUSensor builds a CPU sensor over a node set with the given moving
// average window (seconds).
func NewCPUSensor(nodes NodeSet, window float64, probeCost float64) *CPUSensor {
	return &CPUSensor{
		nodes:    nodes,
		window:   metrics.NewMovingAverage(window),
		probe:    probeCost,
		readers:  make(map[*cluster.Node]*cluster.UtilizationReader),
		Raw:      metrics.NewSeries("cpu-raw"),
		Smoothed: metrics.NewSeries("cpu-smoothed"),
	}
}

// Sample implements Sensor.
func (s *CPUSensor) Sample(now float64) (float64, bool) {
	ns := s.nodes(s.nodeBuf[:0])
	s.nodeBuf = ns
	if len(ns) == 0 {
		return 0, false
	}
	vals := s.vals[:0]
	for _, n := range ns {
		if n.Failed() {
			continue
		}
		r, ok := s.readers[n]
		if !ok {
			r = cluster.NewUtilizationReader(n)
			s.readers[n] = r
		}
		vals = append(vals, r.Read())
		if s.probe > 0 {
			p := s.probes.Get()
			p.s = s
			n.Run(&p.Job, s.probe, p)
		}
	}
	s.vals = vals
	if len(vals) == 0 {
		return 0, false
	}
	raw := metrics.SpatialMean(vals)
	s.window.Push(now, raw)
	smoothed := s.window.Avg()
	s.Raw.Add(now, raw)
	s.Smoothed.Add(now, smoothed)
	s.count++
	return smoothed, s.count >= cpuWarmupSamples
}

// WindowState exposes the moving-average window for introspection:
// its duration in seconds, the number of samples currently retained, and
// whether a full window's worth of history has accumulated.
func (s *CPUSensor) WindowState() (seconds float64, count int, full bool) {
	return s.window.Window, s.window.Count(), s.window.Full()
}

// Inhibitor serializes reconfigurations across control loops: a
// reconfiguration started by one loop inhibits any new reconfiguration
// for a period (one minute in the paper), preventing oscillations.
type Inhibitor struct {
	until float64
}

// Inhibited reports whether reconfigurations are currently suppressed.
func (i *Inhibitor) Inhibited(now float64) bool { return now < i.until }

// Until returns the virtual time at which the current inhibition ends
// (0 before any trigger).
func (i *Inhibitor) Until() float64 { return i.until }

// Trigger suppresses reconfigurations for d seconds from now.
func (i *Inhibitor) Trigger(now, d float64) {
	if now+d > i.until {
		i.until = now + d
	}
}
