// Package plb simulates PLB 0.3, the application-server load balancer the
// paper places in front of the replicated Tomcat tier. It forwards HTTP
// requests to a dynamic set of workers; the self-sizing actuator's
// "integrate the new replica with the load balancer" step is AddWorker,
// and the shrink path's "unbind some replicas from the load balancer" is
// RemoveWorker. Worker selection is delegated to the shared
// internal/selector framework: the pool tracks in-flight counts, decayed
// failure/latency history and suspected-down workers, and the configured
// policy (round-robin by default) picks among the eligible ones.
package plb

import (
	"errors"
	"fmt"

	"jade/internal/cluster"
	"jade/internal/fluid"
	"jade/internal/legacy"
	"jade/internal/obs"
	"jade/internal/selector"
	"jade/internal/sim"
	"jade/internal/trace"
)

// Errors returned by the balancer.
var (
	ErrNoWorker      = errors.New("plb: no worker available")
	ErrWorkerExists  = errors.New("plb: worker already registered")
	ErrUnknownWorker = errors.New("plb: unknown worker")
	ErrNotRunning    = errors.New("plb: balancer not running")
)

// Options tunes a balancer instance.
type Options struct {
	// Routing configures the worker-selection policy and its pool
	// (selector round-robin by default, PLB's historic behavior).
	Routing selector.Options
	// ProxyCost is the CPU-seconds consumed on the balancer node per
	// forwarded request (PLB is lightweight; the paper dedicates it one
	// node that never saturates).
	ProxyCost float64
	// Port is the listening port registered on the network.
	Port int
	// MemoryMB is the balancer process footprint, held while running.
	MemoryMB float64
}

// DefaultOptions mirrors the paper's deployment.
func DefaultOptions() Options {
	return Options{
		Routing:   selector.DefaultOptions(selector.RoundRobin),
		ProxyCost: 0.0002,
		Port:      8080,
		MemoryMB:  32,
	}
}

// Balancer is one PLB instance.
type Balancer struct {
	eng     *sim.Engine
	net     *legacy.Network
	node    *cluster.Node
	name    string
	opts    Options
	addr    string
	running bool

	pool    *selector.Pool
	targets map[string]legacy.HTTPHandler
	// sessions pins affinity keys to workers under the rendezvous
	// policy; entries are evicted when their worker leaves the pool
	// (clean shrink or fencing discard alike), so a sticky session can
	// never be routed to a departed worker.
	sessions map[string]string

	forwarded uint64
	dropped   uint64

	// Trace, when set, records worker membership changes and, for
	// requests carrying a TraceSpan, a "forward" child span naming the
	// chosen worker. All Tracer methods are nil-receiver safe, so the
	// field may stay unset.
	Trace *trace.Tracer
	// Obs, when set, records per-request counters and forward latency for
	// the balancer instance. Nil-safe like Trace.
	Obs *obs.TierMetrics
}

// New creates a stopped balancer on node.
func New(eng *sim.Engine, net *legacy.Network, node *cluster.Node, name string, opts Options) *Balancer {
	ropts := opts.Routing
	ropts.Now = eng.Now
	b := &Balancer{
		eng:      eng,
		net:      net,
		node:     node,
		name:     name,
		opts:     opts,
		pool:     selector.New(ropts),
		targets:  make(map[string]legacy.HTTPHandler),
		sessions: make(map[string]string),
	}
	b.pool.OnEvict(func(worker string) {
		for key, w := range b.sessions {
			if w == worker {
				delete(b.sessions, key)
			}
		}
	})
	return b
}

// Name returns the balancer's name.
func (b *Balancer) Name() string { return b.name }

// Node returns the balancer's node.
func (b *Balancer) Node() *cluster.Node { return b.node }

// Addr returns the registered address while running.
func (b *Balancer) Addr() string { return b.addr }

// Running reports whether the balancer is serving.
func (b *Balancer) Running() bool { return b.running }

// Forwarded returns the number of requests successfully handed to workers.
func (b *Balancer) Forwarded() uint64 { return b.forwarded }

// Dropped returns the number of requests rejected for lack of workers.
func (b *Balancer) Dropped() uint64 { return b.dropped }

// Pool exposes the worker pool (suspicion feeding, introspection).
func (b *Balancer) Pool() *selector.Pool { return b.pool }

// FluidModel exposes the balancer's service model to the fluid workload
// network: every proxied request costs ProxyCost CPU-seconds on the
// balancer node, so as a fluid station the PLB saturates at
// μ = C/ProxyCost requests per second.
func (b *Balancer) FluidModel() fluid.ServiceModel {
	return fluid.ServiceModel{
		Name:        b.name,
		Node:        b.node,
		CostPerUnit: b.opts.ProxyCost,
		Up:          func() bool { return b.running },
	}
}

// Start registers the balancer's listener.
func (b *Balancer) Start() error {
	if b.running {
		return fmt.Errorf("plb %s: already running", b.name)
	}
	if err := b.node.AllocMemory(b.opts.MemoryMB); err != nil {
		return err
	}
	addr := fmt.Sprintf("%s:%d", b.node.Name(), b.opts.Port)
	if err := b.net.Register(addr, b); err != nil {
		b.node.FreeMemory(b.opts.MemoryMB)
		return err
	}
	b.addr = addr
	b.running = true
	return nil
}

// Stop unregisters the listener. Pending requests complete.
func (b *Balancer) Stop() {
	if !b.running {
		return
	}
	b.net.Unregister(b.addr)
	b.addr = ""
	b.running = false
	b.node.FreeMemory(b.opts.MemoryMB)
}

// AddWorker registers a worker target under a unique name.
func (b *Balancer) AddWorker(name string, target legacy.HTTPHandler) error {
	if err := b.pool.Add(name, 1); err != nil {
		return fmt.Errorf("%w: %s", ErrWorkerExists, name)
	}
	b.targets[name] = target
	b.Trace.Emit("membership.join", b.name, trace.F("worker", name), trace.Fi("workers", b.pool.Len()))
	return nil
}

// RemoveWorker unbinds a worker; in-flight requests on it complete, and
// any sessions pinned to it are evicted.
func (b *Balancer) RemoveWorker(name string) error {
	if err := b.pool.Remove(name); err != nil {
		return fmt.Errorf("%w: %s", ErrUnknownWorker, name)
	}
	delete(b.targets, name)
	b.Trace.Emit("membership.leave", b.name, trace.F("worker", name), trace.Fi("workers", b.pool.Len()))
	return nil
}

// Workers returns worker names sorted.
func (b *Balancer) Workers() []string { return b.pool.Names() }

// WorkerCount returns the number of registered workers.
func (b *Balancer) WorkerCount() int { return b.pool.Len() }

// SessionCount returns the number of pinned session entries.
func (b *Balancer) SessionCount() int { return len(b.sessions) }

// StickyWorker returns the worker a session key is pinned to, if any.
func (b *Balancer) StickyWorker(key string) (string, bool) {
	w, ok := b.sessions[key]
	return w, ok
}

// Pending returns the in-flight request count for a worker.
func (b *Balancer) Pending(name string) (int, error) {
	if !b.pool.Has(name) {
		return 0, fmt.Errorf("%w: %s", ErrUnknownWorker, name)
	}
	return b.pool.Pendings()[name], nil
}

// Pendings returns the in-flight request count of every worker, keyed by
// worker name. Invariant checkers verify the counts never go negative
// (a negative count would mean a completion callback ran twice).
func (b *Balancer) Pendings() map[string]int { return b.pool.Pendings() }

// pickWorker selects a worker for the request's affinity key. Under the
// rendezvous policy a key sticks to its first worker until that worker
// leaves the pool or goes down; other policies ignore the table.
func (b *Balancer) pickWorker(key string) (string, bool) {
	sticky := b.pool.Policy() == selector.Rendezvous && key != ""
	if sticky {
		if w, ok := b.sessions[key]; ok && b.pool.Healthy(w) {
			return w, true
		}
	}
	name, ok := b.pool.Pick(key)
	if ok && sticky {
		b.sessions[key] = name
	}
	return name, ok
}

// HandleHTTP proxies the request to a worker chosen by policy, consuming
// the proxy cost on the balancer node first.
func (b *Balancer) HandleHTTP(req *legacy.WebRequest, done func(error)) {
	if !b.running {
		b.Obs.Drop()
		b.dropped++
		done(fmt.Errorf("%w: %s", ErrNotRunning, b.name))
		return
	}
	f := &forward{b: b, req: req, done: done, parent: req.TraceSpan}
	f.began = b.Obs.Begin()
	f.submitted = b.eng.Now()
	// The forward span opens before the balancer node's run queue so it
	// covers local queue wait + service; "busy" records that local
	// interval and "svc" the ideal service time, letting the attribution
	// walker split the span's self-time into queue/service/network.
	if f.parent != 0 {
		f.span = b.Trace.Begin(f.parent, "forward", b.name)
		req.TraceSpan = f.span
	}
	b.node.Run(&f.job, b.opts.ProxyCost, f)
}

// forward is the record of one proxied request: what was asked, the
// proxy job on the balancer node (the record is its own continuation),
// and what the span and the instruments need when the request ends.
type forward struct {
	b    *Balancer
	req  *legacy.WebRequest
	done func(error)
	job  cluster.Job

	began     float64  // Obs.Begin
	submitted float64  // when the proxy job was queued
	busy      float64  // queue wait + service on the balancer node
	parent    trace.ID // the request's span on arrival; restored at the end
	span      trace.ID // the "forward" span, zero when the request is untraced
	worker    string
	sent      float64 // when the request left for the worker
}

// JobDone picks the worker and hands the request on.
func (f *forward) JobDone() {
	b := f.b
	f.busy = b.eng.Now() - f.submitted
	name, ok := b.pickWorker(f.req.SessionKey)
	if !ok {
		b.dropped++
		f.finish(fmt.Errorf("%w (plb %s)", ErrNoWorker, b.name))
		return
	}
	f.worker = name
	target := b.targets[name]
	b.pool.Acquire(name)
	b.forwarded++
	f.sent = b.eng.Now()
	b.net.ForwardHTTP(b.node.Name(), "app", target, f.req, f.replied)
}

func (f *forward) replied(err error) {
	f.b.pool.Release(f.worker, f.b.eng.Now()-f.sent, err != nil)
	f.finish(err)
}

// JobFailed: the balancer node crashed under the proxy job.
func (f *forward) JobFailed() {
	b := f.b
	b.dropped++
	f.busy = b.eng.Now() - f.submitted
	f.finish(fmt.Errorf("plb %s: balancer node failed", b.name))
}

// finish closes the span, records the outcome and answers the caller.
func (f *forward) finish(err error) {
	b := f.b
	if f.span != 0 {
		f.req.TraceSpan = f.parent
		fields := []trace.Field{
			trace.Ff("busy", f.busy),
			trace.Ff("svc", b.opts.ProxyCost/b.node.Config().CPUCapacity),
			trace.Outcome(err),
		}
		if f.worker != "" {
			fields = append(fields, trace.F("worker", f.worker))
		}
		b.Trace.End(f.span, fields...)
	}
	b.Obs.End(f.began, err)
	f.done(err)
}
