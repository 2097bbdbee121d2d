package core

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"jade/internal/cjdbc"
	"jade/internal/cluster"
	"jade/internal/fractal"
	"jade/internal/metrics"
	"jade/internal/obs"
	"jade/internal/refresh"
	"jade/internal/trace"
)

// Errors returned by the tier actuators.
var (
	ErrTierAtMin = errors.New("jade: tier already at its minimum size")
	ErrTierAtMax = errors.New("jade: tier already at its maximum size")
	ErrTierBusy  = errors.New("jade: tier reconfiguration in progress")
)

// Tier is the actuator of one replicated tier: Tomcat replicas behind the
// PLB balancer, or MySQL replicas behind the C-JDBC controller. Thanks to
// the uniform component interface it is generic — "increasing or decreasing
// the number of replicas is implemented as adding or removing components in
// the application structure" (§4.1) — and everything that tells the two
// tiers apart is in its kind.
type Tier struct {
	p         *Platform
	d         *Deployment
	kind      *tierKind
	balancer  *fractal.Component // PLB, or the C-JDBC controller
	upstream  *fractal.Component // what a new replica's kind.uses interface binds to
	composite *fractal.Component
	replicas  []string
	counter   int
	busy      bool

	// MinReplicas and MaxReplicas bound the tier size (MaxReplicas 0
	// means "whatever the node pool allows").
	MinReplicas int
	MaxReplicas int

	// StateTransferSeconds models copying the database snapshot onto a new
	// database replica's node before replaying the log delta.
	StateTransferSeconds float64

	// DumpName names the registered dump used when no active backend is
	// left to snapshot (e.g. repairing the last replica after a crash):
	// the new replica installs the initial dump and replays the whole
	// recovery log, exactly the §4.1 cold path. Default "rubis".
	DumpName string
}

// tierKind is what tells the two tiers apart: names and labels, and the
// two places where §4.1's database protocol has a step the application
// tier does not.
type tierKind struct {
	name    string // TierName
	pkg     string // wrapper kind and software package of a replica
	prefix  string // new replicas are named prefix + counter
	members string // the balancer's client interface ...
	serves  string // ... and the replica's server interface it binds to
	uses    string // the replica's own client interface ("" for none)
	joined  string // actuate.step labels around the architectural bind
	left    string

	// prepare runs once the software is installed, before the replica is
	// named (a failure consumes no name); the ready it returns runs on the
	// created component before its first start.
	prepare func(t *Tier, a *actuation) (ready func(*fractal.Component, func(error)), err error)
	// join and leave bracket the architectural bind to the balancer (nil:
	// the bind is all there is). evict is the join's undo and the forced
	// leave of a failed replica.
	join  func(t *Tier, a *actuation, name string, comp *fractal.Component, done func(error)) error
	leave func(t *Tier, a *actuation, name string, done func()) error
	evict func(t *Tier, name string)
}

// The names a tier gives the replicas it creates: the prefix and a
// counter from 1.
const (
	AppReplicaPrefix = "tomcat-r"
	DBReplicaPrefix  = "mysql-r"
)

var (
	appKind = &tierKind{name: "application-servers", pkg: "tomcat", prefix: AppReplicaPrefix,
		members: "workers", serves: "http", uses: "jdbc", joined: "joined-balancer", left: "left-balancer",
		prepare: func(t *Tier, _ *actuation) (func(*fractal.Component, func(error)), error) {
			return func(comp *fractal.Component, next func(error)) {
				next(comp.Bind(t.kind.uses, t.upstream.MustInterface(t.kind.uses)))
			}, nil
		}}
	dbKind = &tierKind{name: "database-backends", pkg: "mysql", prefix: DBReplicaPrefix,
		members: "backends", serves: "sql", joined: "joined-backend", left: "left-backend",
		prepare: dbPrepare, join: dbJoin, leave: dbLeave,
		evict: func(t *Tier, name string) {
			if ctl := t.cjdbc().Controller(); ctl != nil {
				_ = ctl.MarkFailed(name, nil)
			}
		}}
)

// NewAppTier builds the application-tier actuator for a deployment. plbName
// is the PLB component, dbName the component new Tomcats bind their JDBC
// interface to (C-JDBC in the paper), replicas the initial Tomcat component
// names.
func NewAppTier(p *Platform, d *Deployment, plbName, dbName string, replicas []string) (*Tier, error) {
	t, err := newTier(p, d, appKind, plbName, replicas)
	if err == nil {
		t.upstream, err = d.Component(dbName)
	}
	return t, err
}

// NewDBTier builds the database-tier actuator: replicas kept consistent
// through the recovery log. cjdbcName is the controller component, replicas
// the initial MySQL component names.
func NewDBTier(p *Platform, d *Deployment, cjdbcName string, replicas []string) (*Tier, error) {
	t, err := newTier(p, d, dbKind, cjdbcName, replicas)
	if err != nil {
		return nil, err
	}
	if _, ok := t.balancer.Content().(*CJDBCWrapper); !ok {
		return nil, fmt.Errorf("jade: %s is not a cjdbc component", cjdbcName)
	}
	t.StateTransferSeconds, t.DumpName = 5, "rubis"
	return t, nil
}

func newTier(p *Platform, d *Deployment, k *tierKind, balancer string, replicas []string) (*Tier, error) {
	bc, err := d.Component(balancer)
	if err != nil {
		return nil, err
	}
	composite := d.Root
	for _, r := range replicas {
		c, err := d.Component(r)
		if err != nil {
			return nil, err
		}
		if c.Parent() != nil {
			composite = c.Parent()
		}
	}
	return &Tier{p: p, d: d, kind: k, balancer: bc, composite: composite,
		replicas: append([]string(nil), replicas...), counter: len(replicas), MinReplicas: 1}, nil
}

func (t *Tier) TierName() string { return t.kind.name }

func (t *Tier) ReplicaCount() int { return len(t.replicas) }

func (t *Tier) ReplicaNames() []string { return append([]string(nil), t.replicas...) }

// NodeOf returns the node hosting the named replica, nil when unknown.
func (t *Tier) NodeOf(name string) *cluster.Node { return t.d.nodes[name] }

// Nodes returns the nodes currently hosting replicas.
func (t *Tier) Nodes() []*cluster.Node {
	return t.AppendNodes(make([]*cluster.Node, 0, len(t.replicas)))
}

// AppendNodes appends the nodes currently hosting replicas to dst, in
// replica order; it is the tier's NodeSet.
func (t *Tier) AppendNodes(dst []*cluster.Node) []*cluster.Node {
	for _, name := range t.replicas {
		if n := t.NodeOf(name); n != nil {
			dst = append(dst, n)
		}
	}
	return dst
}

// Reconfiguring reports whether an actuation is currently in flight;
// observers (e.g. invariant checkers) use it to distinguish transient
// mid-reconfiguration states from steady-state violations.
func (t *Tier) Reconfiguring() bool { return t.busy }

func (t *Tier) CanGrow() bool {
	return !t.busy && !t.atMax() && t.p.Pool.FreeCount() > 0
}

func (t *Tier) CanShrink() bool {
	return !t.busy && len(t.replicas) > t.MinReplicas
}

func (t *Tier) atMax() bool { return t.MaxReplicas > 0 && len(t.replicas) >= t.MaxReplicas }

func (t *Tier) nextName() string {
	for {
		t.counter++
		name := fmt.Sprintf("%s%d", t.kind.prefix, t.counter)
		if _, err := t.d.Component(name); err != nil {
			return name
		}
	}
}

func (t *Tier) dropReplica(name string) {
	t.replicas = slices.DeleteFunc(t.replicas, func(r string) bool { return r == name })
}

// actuation is one grow or shrink in flight: its span, what a failure has
// to undo, and what the kind's hooks add to the closing step and log line.
type actuation struct {
	t      *Tier
	verb   string
	span   trace.ID
	undo   []func()
	index  int64         // database: the recovery-log index a grow replays from
	fields []trace.Field // database: added to the left step
	suffix string        // database: added to the closing log line
	done   func(error)
}

// begin opens an actuation unless the tier is busy or already at bound.
func (t *Tier) begin(verb string, atBound bool, bound error, done func(error)) *actuation {
	switch {
	case t.busy:
		done(ErrTierBusy)
	case atBound:
		done(bound)
	case t.balancer.State() != fractal.Started:
		done(fmt.Errorf("jade: %s %s is not running", t.balancer.Content().(Wrapper).Kind(), t.balancer.Name()))
	default:
		t.busy = true
		return &actuation{t: t, verb: verb, done: done,
			span: t.p.tracer.Begin(0, "actuate", t.kind.name+":"+verb, trace.Fi("replicas", len(t.replicas)))}
	}
	return nil
}

func (a *actuation) step(label string, fields ...trace.Field) {
	a.t.p.tracer.EmitIn(a.span, "actuate.step", label, fields...)
}

// finish closes the actuation — the one place busy is cleared. A failure
// first runs the undo list, last step first.
func (a *actuation) finish(err error) {
	t := a.t
	for i := len(a.undo) - 1; err != nil && i >= 0; i-- {
		a.undo[i]()
	}
	t.busy = false
	if err == nil {
		t.p.reconfigured(t.kind.name + ":" + a.verb)
	}
	t.p.endActuation(a.span, "selfsize: "+t.kind.name+" "+a.verb, err, a.done)
}

// endActuation logs a failed actuation, closes its span and reports.
func (p *Platform) endActuation(span trace.ID, what string, err error, done func(error)) {
	if err != nil {
		p.logf("%s failed: %v", what, err)
	}
	p.tracer.End(span, trace.Outcome(err))
	if done != nil {
		done(err)
	}
}

// Grow adds a replica: allocate a node, install the software, prepare and
// place the component, start it, join it to the balancer. For the database
// tier that is the §4.1 protocol: the prepare step installs a snapshot of
// an active backend, the join replays the recovery-log delta and activates.
func (t *Tier) Grow(done func(error)) {
	k := t.kind
	a := t.begin("grow", t.atMax(), ErrTierAtMax, done)
	if a == nil {
		return
	}
	node, err := t.p.Pool.Allocate()
	if err != nil {
		a.finish(err)
		return
	}
	a.undo = append(a.undo, func() { t.p.release(node) })
	a.step("node-allocated", trace.F("node", node.Name()))
	t.p.SIS.Install(k.pkg, node, func(err error) {
		var ready func(*fractal.Component, func(error))
		if err == nil {
			ready, err = k.prepare(t, a)
		}
		if err != nil {
			a.finish(err)
			return
		}
		name := t.nextName()
		a.step("installed", trace.F("package", k.pkg), trace.F("replica", name))
		t.p.place(t.d, t.composite, k.pkg, name, node, ready, func(comp *fractal.Component, err error) {
			if err != nil {
				a.finish(err)
				return
			}
			a.undo = append(a.undo, func() {
				if _, err := t.d.withdraw(name); err != nil {
					t.p.logf("selfsize: cleanup of %s: %v", name, err)
				}
			})
			t.p.StartComponent(comp, func(err error) {
				if err != nil {
					a.finish(err)
					return
				}
				a.step("started", trace.F("replica", name))
				joined := func(err error) {
					if err == nil {
						err = t.balancer.Bind(k.members, comp.MustInterface(k.serves))
					}
					if err != nil {
						a.finish(err)
						return
					}
					a.step(k.joined, trace.F("replica", name))
					t.replicas = append(t.replicas, name)
					t.p.logf("selfsize: %s grew to %d replicas (+%s on %s%s)",
						k.name, len(t.replicas), name, node.Name(), a.suffix)
					a.finish(nil)
				}
				if k.join == nil {
					joined(nil)
					return
				}
				a.undo = append(a.undo, func() { k.evict(t, name) })
				if err := k.join(t, a, name, comp, joined); err != nil {
					a.finish(err)
				}
			})
		})
	})
}

// Shrink takes the most recently added replica out of the balancer, stops
// it and retires it. A database replica first leaves the controller, which
// records its checkpoint index in the recovery log.
func (t *Tier) Shrink(done func(error)) {
	k := t.kind
	a := t.begin("shrink", len(t.replicas) <= t.MinReplicas, ErrTierAtMin, done)
	if a == nil {
		return
	}
	name := t.replicas[len(t.replicas)-1]
	comp, err := t.d.Component(name)
	if err != nil {
		a.finish(err)
		return
	}
	left := func() {
		if err := t.balancer.Unbind(k.members, comp.MustInterface(k.serves)); err != nil {
			a.finish(err)
			return
		}
		a.step(k.left, append([]trace.Field{trace.F("replica", name)}, a.fields...)...)
		t.p.StopComponent(comp, func(err error) {
			if err == nil && k.uses != "" {
				err = comp.Unbind(k.uses, nil)
			}
			node := t.NodeOf(name)
			if err == nil {
				err = t.p.retire(t.d, name)
			}
			if err != nil {
				a.finish(err)
				return
			}
			t.dropReplica(name)
			a.step("node-released", trace.F("node", node.Name()), trace.F("replica", name))
			t.p.logf("selfsize: %s shrank to %d replicas (-%s%s)", k.name, len(t.replicas), name, a.suffix)
			a.finish(nil)
		})
	}
	if k.leave == nil {
		left()
	} else if err := k.leave(t, a, name, left); err != nil {
		a.finish(err)
	}
}

// The database tier's protocol steps (§4.1).

func (t *Tier) cjdbc() *CJDBCWrapper { return t.balancer.Content().(*CJDBCWrapper) }

// dbPrepare takes the snapshot the new replica starts from — an active
// backend's, or with none left the initial dump at recovery-log index 0,
// to be followed by a replay of the whole log — and returns the state
// transfer that installs it.
func dbPrepare(t *Tier, a *actuation) (func(*fractal.Component, func(error)), error) {
	snap, idx, err := t.cjdbc().Controller().AnyActiveSnapshot()
	if errors.Is(err, cjdbc.ErrNoBackend) && t.DumpName != "" {
		if dump, ok := t.p.Dump(t.DumpName); ok {
			snap, idx, err = dump, 0, nil
			t.p.logf("selfsize: %s has no active backend; rebuilding from dump %q + full log replay",
				t.kind.name, t.DumpName)
		}
	}
	if err != nil {
		return nil, err
	}
	a.index = idx
	a.suffix = fmt.Sprintf(", replayed from log index %d", idx)
	return func(comp *fractal.Component, next func(error)) {
		t.p.Eng.After(t.StateTransferSeconds, "dbtier:state-transfer", func() {
			err := comp.Content().(*MySQLWrapper).Server().LoadSnapshot(snap)
			if err == nil {
				a.step("state-transferred", trace.F("replica", comp.Name()), trace.Fi("log-index", int(idx)))
			}
			next(err)
		})
	}, nil
}

// dbJoin replays the recovery log on the started replica from the
// snapshot's index and activates it.
func dbJoin(t *Tier, a *actuation, name string, comp *fractal.Component, done func(error)) error {
	return t.cjdbc().JoinBackend(name, comp.Content().(*MySQLWrapper), a.index, done)
}

// dbLeave disables the replica cleanly, its checkpoint index recorded in
// the recovery log.
func dbLeave(t *Tier, a *actuation, name string, done func()) error {
	return t.cjdbc().LeaveBackend(name, func(checkpoint int64) {
		a.fields = []trace.Field{trace.Fi("checkpoint", int(checkpoint))}
		a.suffix = fmt.Sprintf(", checkpoint %d", checkpoint)
		done()
	})
}

// ThresholdReactor is the paper's decision logic: keep the tier's
// smoothed CPU usage between a minimum and a maximum threshold by
// resizing, with a shared post-reconfiguration inhibition window.
type ThresholdReactor struct {
	p    *Platform
	tier *Tier

	// Min and Max are the CPU-usage thresholds.
	Min, Max float64
	// Inhibit is the (possibly shared) inhibition latch.
	Inhibit *Inhibitor
	// InhibitSeconds is the post-reconfiguration quiet period.
	InhibitSeconds float64
	// Arbiter, when set, replaces the Inhibitor: reconfigurations are
	// requested from the arbitration manager with Priority (see
	// Arbiter; this is the paper's future-work conflict arbitration).
	Arbiter  *Arbiter
	Priority int
	// OnResize (optional) observes replica-count changes.
	OnResize func(now float64, replicas int)
	// SampleEvent (optional) returns the bus event of the sensor sample
	// a decision was based on, linking decision spans back to the
	// sensor (set by NewSizingManager).
	SampleEvent func() trace.ID

	// Grows and Shrinks count completed reconfigurations.
	Grows, Shrinks uint64

	// Introspection-plane instruments (nil-safe), registered by
	// NewSizingManager: completed resize decisions, current replica
	// count, signed distance from the smoothed value to the nearest
	// threshold (negative outside the band), and hysteresis state.
	GrowsCtr       *obs.Counter
	ShrinksCtr     *obs.Counter
	ReplicasGauge  *obs.Gauge
	DistanceGauge  *obs.Gauge
	InhibitedGauge *obs.Gauge
}

// thresholdDistance is the signed distance from v to the nearest edge of
// the [min,max] band: positive inside, negative outside.
func thresholdDistance(v, min, max float64) float64 {
	return math.Min(max-v, v-min)
}

// acquire asks whether the reactor may reconfigure now: the Arbiter
// decides when one is set; otherwise the shared Inhibitor admits the
// first comer outside its quiet window and opens a new one.
func (r *ThresholdReactor) acquire(now float64) bool {
	if r.Arbiter != nil {
		return r.Arbiter.Request(now, r.tier.TierName(), r.Priority)
	}
	if r.Inhibit.Inhibited(now) {
		return false
	}
	r.Inhibit.Trigger(now, r.InhibitSeconds)
	return true
}

// NewThresholdReactor builds the reactor with the paper's one-minute
// inhibition.
func NewThresholdReactor(p *Platform, tier *Tier, min, max float64, shared *Inhibitor) *ThresholdReactor {
	if shared == nil {
		shared = &Inhibitor{}
	}
	return &ThresholdReactor{
		p:              p,
		tier:           tier,
		Min:            min,
		Max:            max,
		Inhibit:        shared,
		InhibitSeconds: 60,
		Priority:       PriorityOptimization,
	}
}

// React implements Reactor.
func (r *ThresholdReactor) React(now float64, v float64) {
	r.DistanceGauge.Set(thresholdDistance(v, r.Min, r.Max))
	r.InhibitedGauge.SetBool(r.Inhibit != nil && r.Inhibit.Inhibited(now))
	r.ReplicasGauge.Set(float64(r.tier.ReplicaCount()))
	switch {
	case v > r.Max && r.tier.CanGrow():
		r.resize(now, "grow", v, ">", r.Max, r.tier.Grow, &r.Grows, r.GrowsCtr)
	case v < r.Min && r.tier.CanShrink():
		r.resize(now, "shrink", v, "<", r.Min, r.tier.Shrink, &r.Shrinks, r.ShrinksCtr)
	}
}

// resize acts on one threshold crossing, acquire permitting: it opens the
// decision span (the actuation nests under it via the ambient cause), runs
// the actuation and tallies a success.
func (r *ThresholdReactor) resize(now float64, direction string, v float64, rel string, threshold float64,
	act func(func(error)), tally *uint64, ctr *obs.Counter) {
	if !r.acquire(now) {
		return
	}
	fields := []trace.Field{
		trace.F("tier", r.tier.TierName()),
		trace.F("direction", direction),
		trace.Ff("cpu", v),
		trace.Ff("threshold", threshold),
		trace.Fi("replicas", r.tier.ReplicaCount()),
	}
	if r.SampleEvent != nil {
		if id := r.SampleEvent(); id != 0 {
			fields = append(fields, trace.Fid("sample", id))
		}
	}
	tr := r.p.tracer
	dec := tr.Begin(0, "decision", r.tier.TierName()+":"+direction, fields...)
	r.p.logf("selfsize: %s cpu %.2f %s %.2f, %sing", r.tier.TierName(), v, rel, threshold, direction)
	tr.WithCause(dec, func() {
		act(func(err error) {
			if err == nil {
				*tally++
				ctr.Inc()
				r.notify()
			}
			tr.End(dec, trace.Outcome(err))
		})
	})
}

func (r *ThresholdReactor) notify() {
	if r.OnResize != nil {
		r.OnResize(r.p.Eng.Now(), r.tier.ReplicaCount())
	}
}

// sizingPeriod is the sizing loops' execution interval, in seconds (1 s
// in the paper).
const sizingPeriod = 1

// SizingConfig parameterizes one self-optimization manager instance.
type SizingConfig struct {
	// Window is the CPU moving-average span (60 s app tier, 90 s db
	// tier in the paper).
	Window float64 `json:"window,omitempty"`
	// Min and Max are the CPU thresholds.
	Min float64 `json:"min,omitempty"`
	Max float64 `json:"max,omitempty"`
	// InhibitSeconds is the post-reconfiguration quiet period (60 s).
	InhibitSeconds float64 `json:"inhibit_seconds,omitempty"`
	// MaxReplicas caps the tier (0 = pool-bounded; 2 app and 3 db
	// replicas on the paper's testbed).
	MaxReplicas int `json:"max_replicas,omitempty"`
}

// AppSizingDefaults mirrors the paper's application-tier loop.
func AppSizingDefaults() SizingConfig {
	return SizingConfig{Window: 60, Min: 0.35, Max: 0.80, InhibitSeconds: 60, MaxReplicas: 2}
}

// DBSizingDefaults mirrors the paper's database-tier loop.
func DBSizingDefaults() SizingConfig {
	return SizingConfig{Window: 90, Min: 0.40, Max: 0.80, InhibitSeconds: 60, MaxReplicas: 3}
}

// SizingManager is one deployed self-optimization manager: a CPU sensor,
// a threshold reactor and the control loop binding them, plus the series
// the experiment figures read.
type SizingManager struct {
	Loop    *ControlLoop
	Sensor  *CPUSensor
	Reactor *ThresholdReactor
	Tier    *Tier

	// Replicas traces the tier size over time (Fig. 5).
	Replicas *metrics.Series
}

// NewSizingManager assembles and registers (but does not start) a
// self-optimization manager for one tier.
func NewSizingManager(p *Platform, name string, tier *Tier, cfg SizingConfig, shared *Inhibitor) (*SizingManager, error) {
	sensor := NewCPUSensor(tier.AppendNodes, cfg.Window, p.opts.ProbeCPUCost)
	reactor := NewThresholdReactor(p, tier, cfg.Min, cfg.Max, shared)
	reactor.InhibitSeconds = cfg.InhibitSeconds
	if cfg.MaxReplicas > 0 {
		tier.MaxReplicas = cfg.MaxReplicas
	}
	loop, err := NewControlLoop(p, name, sizingPeriod, sensor, reactor)
	if err != nil {
		return nil, err
	}
	reactor.SampleEvent = loop.LastSampleEvent
	tl := obs.L("tier", tier.TierName())
	reactor.GrowsCtr = p.Metrics().Counter("jade_sizing_grows_total",
		"Completed tier-grow reconfigurations per sizing manager.", tl)
	reactor.ShrinksCtr = p.Metrics().Counter("jade_sizing_shrinks_total",
		"Completed tier-shrink reconfigurations per sizing manager.", tl)
	reactor.ReplicasGauge = p.Metrics().Gauge("jade_sizing_replicas",
		"Current replica count per managed tier.", tl)
	reactor.DistanceGauge = p.Metrics().Gauge("jade_sizing_threshold_distance",
		"Signed distance from the smoothed CPU value to the nearest threshold (negative outside the band).", tl)
	reactor.InhibitedGauge = p.Metrics().Gauge("jade_sizing_inhibited",
		"1 while the shared reconfiguration inhibitor suppresses this tier's resizes.", tl)
	reactor.ReplicasGauge.Set(float64(tier.ReplicaCount()))
	m := &SizingManager{
		Loop:     loop,
		Sensor:   sensor,
		Reactor:  reactor,
		Tier:     tier,
		Replicas: metrics.NewSeries(tier.TierName() + "-replicas"),
	}
	m.Replicas.Add(p.Eng.Now(), float64(tier.ReplicaCount()))
	reactor.OnResize = func(now float64, replicas int) {
		m.Replicas.Add(now, float64(replicas))
	}
	return m, nil
}

// Watch subscribes the manager to a refreshable sizing view: threshold
// and hysteresis changes land on the reactor at the view's Set tick (on
// the simulation goroutine), so the very next React tick judges the CPU
// band against the new values — a live retune, no restart.
func (m *SizingManager) Watch(v *refresh.View[SizingConfig]) {
	v.Subscribe(func(now float64, old, cur SizingConfig) {
		m.Reactor.Min, m.Reactor.Max = cur.Min, cur.Max
		m.Reactor.InhibitSeconds = cur.InhibitSeconds
	})
}

// Status captures the manager's live state for the admin endpoint's
// /loops page: loop identity and sampling progress, the sensor's
// moving-average window, the reactor's thresholds and hysteresis state,
// and the decision tally.
func (m *SizingManager) Status(now float64) obs.LoopStatus {
	ws, wc, wf := m.Sensor.WindowState()
	st := obs.LoopStatus{
		Name:              m.Loop.Name(),
		Tier:              m.Tier.TierName(),
		Running:           m.Loop.Running(),
		PeriodSeconds:     m.Loop.Period(),
		Samples:           int(m.Loop.Samples()),
		LastValue:         m.Loop.LastValue,
		WindowSeconds:     ws,
		WindowCount:       wc,
		WindowFull:        wf,
		MinThreshold:      m.Reactor.Min,
		MaxThreshold:      m.Reactor.Max,
		ThresholdDistance: thresholdDistance(m.Loop.LastValue, m.Reactor.Min, m.Reactor.Max),
		Grows:             int(m.Reactor.Grows),
		Shrinks:           int(m.Reactor.Shrinks),
		Replicas:          m.Tier.ReplicaCount(),
	}
	if m.Reactor.Inhibit != nil {
		st.Inhibited = m.Reactor.Inhibit.Inhibited(now)
		st.InhibitedUntil = m.Reactor.Inhibit.Until()
	}
	return st
}
