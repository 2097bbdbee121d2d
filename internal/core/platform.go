// Package core implements Jade, the paper's contribution: an environment
// for building autonomic management software over legacy systems.
//
// Jade's two pillars (§3):
//
//  1. A management layer built on the Fractal component model: every
//     legacy software piece (Apache, Tomcat, MySQL, the load balancers)
//     is wrapped in a component exposing the uniform attribute / binding /
//     lifecycle control interfaces; wrapper implementations translate
//     those operations into proprietary configuration-file edits and
//     start/stop scripts.
//  2. Autonomic managers built as control loops: sensors observe the
//     managed system, reactors decide, actuators reconfigure through the
//     uniform component interface. This package ships the paper's
//     self-optimization manager (threshold-driven tier resizing) and the
//     self-recovery manager (failure detection and repair).
package core

import (
	"fmt"
	"sort"

	"jade/internal/cluster"
	"jade/internal/config"
	"jade/internal/fractal"
	"jade/internal/legacy"
	"jade/internal/obs"
	"jade/internal/sim"
	"jade/internal/sqlengine"
	"jade/internal/trace"
)

// Options configures a Jade platform.
type Options struct {
	// Seed drives all simulation randomness.
	Seed int64
	// Nodes is the cluster pool size.
	Nodes int
	// NodeConfig configures every pool node.
	NodeConfig cluster.Config
	// Logf receives management-layer log lines (default: discarded).
	Logf func(format string, args ...any)
	// ManagementMemoryMB is the footprint of the Jade management
	// components deployed on every managed node (the paper measures its
	// effect in Table 1). Applied per node while a node hosts a managed
	// component.
	ManagementMemoryMB float64
	// ProbeCPUCost is the CPU consumed on each monitored node per sensor
	// sample (Table 1's CPU intrusivity).
	ProbeCPUCost float64
	// Routing selects the per-tier backend-selection policies used by the
	// balancing wrappers (zero value keeps each tier's historic default).
	Routing RoutingConfig
	// TraceDisabled switches the telemetry bus off: instrumentation
	// calls become two atomic loads and log lines skip formatting unless
	// Logf is set. Sweeps and benchmarks use it to take tracing off the
	// hot path; it does not affect the simulation schedule.
	TraceDisabled bool
}

// DefaultOptions mirrors the paper's testbed scale: a 9-node cluster of
// uniform x86 machines.
func DefaultOptions() Options {
	return Options{
		Seed:               1,
		Nodes:              9,
		NodeConfig:         cluster.DefaultConfig(),
		ManagementMemoryMB: 27,    // ~2.6% of 1 GB, Table 1's memory delta
		ProbeCPUCost:       0.003, // 0.3% of one CPU at 1 Hz sampling
	}
}

// Platform is a Jade instance managing one simulated cluster.
type Platform struct {
	Eng  *sim.Engine
	Net  *legacy.Network
	FS   *config.MemFS
	Pool *cluster.Pool
	SIS  *InstallService

	opts      Options
	registry  map[string]WrapperFactory
	dumps     map[string]*sqlengine.Engine
	logf      func(format string, args ...any)
	loops     []*ControlLoop
	mgmtNodes map[string]bool // nodes carrying the management footprint

	// tracer is the structured telemetry bus. Always present; every
	// logf line and management decision is recorded on it, and the
	// original Options.Logf becomes its onward sink.
	tracer *trace.Tracer

	// metrics is the introspection-plane registry. Always present, clocked
	// on the engine's virtual time; every tier server, the cluster pool
	// and every control loop register their instruments in it.
	metrics *obs.Registry

	// mgmtRoot is the composite holding Jade's own management
	// components (the control loops): Jade administrates itself with
	// the same component model it manages applications with (§3.4).
	mgmtRoot *fractal.Component

	// reconfigHooks fire after every completed reconfiguration
	// (deployment, grow, shrink, repair discard). The invariant harness
	// subscribes here to check the architecture at every boundary.
	reconfigHooks []func(now float64, event string)

	// repairDiscardHooks fire when a repair discards a replica. alive
	// probes whether the discarded identity is still being served — the
	// DoubleRepair invariant records it to rule out split-brain after
	// false-positive repairs.
	repairDiscardHooks []func(now float64, tier, replica string, alive func() (bool, string))
}

// NewPlatform builds a platform with the standard wrapper registry.
func NewPlatform(opts Options) *Platform {
	if opts.Nodes <= 0 {
		opts.Nodes = DefaultOptions().Nodes
	}
	if opts.NodeConfig.CPUCapacity == 0 {
		opts.NodeConfig = cluster.DefaultConfig()
	}
	eng := sim.NewEngine(opts.Seed)
	tracer := trace.New(eng.Now, 0, 0)
	tracer.SetLogSink(opts.Logf)
	if opts.TraceDisabled {
		tracer.SetEnabled(false)
	}
	metrics := obs.NewRegistry(eng.Now)
	p := &Platform{
		Eng:       eng,
		Net:       legacy.NewNetwork(),
		FS:        config.NewMemFS(),
		Pool:      cluster.NewPool(eng, "node", opts.Nodes, opts.NodeConfig),
		opts:      opts,
		registry:  make(map[string]WrapperFactory),
		dumps:     make(map[string]*sqlengine.Engine),
		logf:      tracer.Logf, // every log line is also a bus event
		mgmtNodes: make(map[string]bool),
		tracer:    tracer,
		metrics:   metrics,
	}
	p.Pool.Metrics = obs.NewPoolMetrics(metrics)
	p.Pool.Metrics.SetSizes(p.Pool.FreeCount(), p.Pool.AllocatedCount())
	nodeFails := metrics.Counter("jade_node_failures_total", "Node crashes observed by the platform.")
	nodeReboots := metrics.Counter("jade_node_reboots_total", "Node reboots observed by the platform.")
	for _, n := range p.Pool.Nodes() {
		n.OnFail(func(n *cluster.Node) {
			nodeFails.Inc()
			tracer.Emit("node.fail", n.Name())
		})
		n.OnReboot(func(n *cluster.Node) {
			nodeReboots.Inc()
			tracer.Emit("node.reboot", n.Name())
		})
	}
	p.SIS = NewInstallService(eng, p.logf)
	root, err := fractal.NewComposite("jade")
	if err != nil {
		panic(err) // static name; cannot fail
	}
	p.mgmtRoot = root
	registerStandardWrappers(p)
	registerStandardPackages(p.SIS)
	return p
}

// Env returns the legacy environment view of the platform.
func (p *Platform) Env() *legacy.Env {
	return &legacy.Env{Eng: p.Eng, Net: p.Net, FS: p.FS, Trace: p.tracer, Obs: p.metrics}
}

// Metrics returns the platform's introspection-plane registry.
func (p *Platform) Metrics() *obs.Registry { return p.metrics }

// Logf writes a management-layer log line. Lines are recorded on the
// telemetry bus (kind "log") and forwarded to Options.Logf, so verbose
// output and traces can never disagree.
func (p *Platform) Logf(format string, args ...any) { p.logf(format, args...) }

// Trace returns the platform's telemetry bus.
func (p *Platform) Trace() *trace.Tracer { return p.tracer }

// UpdateRouting replaces the platform's routing configuration, so
// wrappers started (or restarted, e.g. by the repair manager) after the
// call build their selector pools with the new policies. Pools already
// live are retuned in place by the scenario's routing subscription —
// together the two paths make a live routing retune stick across
// repairs. Simulation goroutine only.
func (p *Platform) UpdateRouting(rc RoutingConfig) { p.opts.Routing = rc }

// RegisterDump stores a named database dump the Software Installation
// Service can install on fresh MySQL replicas (the RUBiS dataset in the
// experiments).
func (p *Platform) RegisterDump(name string, db *sqlengine.Engine) {
	p.dumps[name] = db
}

// Dump returns a registered dump.
func (p *Platform) Dump(name string) (*sqlengine.Engine, bool) {
	db, ok := p.dumps[name]
	return db, ok
}

// RegisterWrapper adds a wrapper factory under a type name.
func (p *Platform) RegisterWrapper(kind string, f WrapperFactory) {
	p.registry[kind] = f
}

// WrapperKinds returns the registered wrapper type names, sorted.
func (p *Platform) WrapperKinds() []string {
	out := make([]string, 0, len(p.registry))
	for k := range p.registry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// wrapperSet returns the registry as a validation set for ADL.
func (p *Platform) wrapperSet() map[string]bool {
	out := make(map[string]bool, len(p.registry))
	for k := range p.registry {
		out[k] = true
	}
	return out
}

// attachManagement charges the Jade management footprint to a node (the
// per-node management components of Table 1). Idempotent per node.
func (p *Platform) attachManagement(n *cluster.Node) {
	if p.opts.ManagementMemoryMB <= 0 || p.mgmtNodes[n.Name()] {
		return
	}
	if err := n.AllocMemory(p.opts.ManagementMemoryMB); err != nil {
		p.logf("jade: management footprint on %s: %v", n.Name(), err)
		return
	}
	p.mgmtNodes[n.Name()] = true
}

// detachManagement releases the footprint when a node leaves management.
func (p *Platform) detachManagement(n *cluster.Node) {
	if !p.mgmtNodes[n.Name()] {
		return
	}
	n.FreeMemory(p.opts.ManagementMemoryMB)
	delete(p.mgmtNodes, n.Name())
}

// OnReconfiguration registers a callback invoked after every completed
// reconfiguration of the managed architecture: initial deployment, tier
// grow/shrink, and the discard step of a repair. The event string names
// the boundary (e.g. "application-servers:grow").
func (p *Platform) OnReconfiguration(fn func(now float64, event string)) {
	p.reconfigHooks = append(p.reconfigHooks, fn)
}

// OnRepairDiscard subscribes to replica discards performed by repairs.
func (p *Platform) OnRepairDiscard(fn func(now float64, tier, replica string, alive func() (bool, string))) {
	p.repairDiscardHooks = append(p.repairDiscardHooks, fn)
}

// repairDiscarded notifies the repair-discard subscribers.
func (p *Platform) repairDiscarded(tier, replica string, alive func() (bool, string)) {
	for _, fn := range p.repairDiscardHooks {
		fn(p.Eng.Now(), tier, replica, alive)
	}
}

// reconfigured notifies the reconfiguration subscribers.
func (p *Platform) reconfigured(event string) {
	p.tracer.Emit("reconfig", event)
	for _, fn := range p.reconfigHooks {
		fn(p.Eng.Now(), event)
	}
}

// StartComponent performs the full managed start of a component: the
// Fractal lifecycle start (which validates bindings and lets wrapper
// hooks regenerate legacy configuration), then the wrapper's asynchronous
// legacy start (scripts, boot delays, listener registration). On legacy
// failure the component is stopped again.
func (p *Platform) StartComponent(c *fractal.Component, done func(error)) {
	finish := func(err error) {
		if done != nil {
			done(err)
		}
	}
	if err := c.Start(); err != nil {
		finish(err)
		return
	}
	p.tracer.Emit("lifecycle.start", c.Name())
	w, ok := c.Content().(Wrapper)
	if !ok {
		finish(nil)
		return
	}
	w.StartManaged(func(err error) {
		if err != nil {
			_ = c.Stop()
			p.tracer.Emit("lifecycle.start-failed", c.Name(), trace.F("error", err.Error()))
			finish(fmt.Errorf("jade: starting %s: %w", c.Name(), err))
			return
		}
		p.tracer.Emit("lifecycle.started", c.Name())
		finish(nil)
	})
}

// StopComponent stops the legacy software, then the component.
func (p *Platform) StopComponent(c *fractal.Component, done func(error)) {
	finish := func(err error) {
		if done != nil {
			done(err)
		}
	}
	p.tracer.Emit("lifecycle.stop", c.Name())
	w, ok := c.Content().(Wrapper)
	if !ok {
		finish(c.Stop())
		return
	}
	w.StopManaged(func(err error) {
		if err != nil {
			finish(fmt.Errorf("jade: stopping %s: %w", c.Name(), err))
			return
		}
		p.tracer.Emit("lifecycle.stopped", c.Name())
		finish(c.Stop())
	})
}

// RegisterLoop records a control loop with the platform (so "Jade
// administrates itself": loops appear in the management architecture).
func (p *Platform) RegisterLoop(l *ControlLoop) {
	p.loops = append(p.loops, l)
	if l.comp != nil && l.comp.Parent() == nil {
		_ = p.mgmtRoot.Add(l.comp)
	}
}

// Loops returns the registered control loops.
func (p *Platform) Loops() []*ControlLoop { return p.loops }

// ManagementRoot returns the composite holding Jade's own components.
func (p *Platform) ManagementRoot() *fractal.Component { return p.mgmtRoot }

// DescribeManagement renders Jade's own architecture — the deployed
// autonomic managers as components.
func (p *Platform) DescribeManagement() string { return p.mgmtRoot.Describe() }
