// Package plb simulates the two HTTP balancers of the paper's Fig. 2 as
// one Balancer: PLB 0.3, the application-server load balancer in front of
// the replicated Tomcat tier (New), and the L4 switch in front of the
// replicated Apache tier, a connection-level balancer with per-server
// weights matching link-level hardware (NewL4). Both forward HTTP requests
// to a dynamic member set; the self-sizing actuator's "integrate the new
// replica with the load balancer" step is Add, and the shrink path's
// "unbind some replicas from the load balancer" is Remove. Member selection
// is delegated to the shared internal/selector framework: the pool tracks
// in-flight counts, decayed failure/latency history and suspected-down
// members, and the configured policy (round-robin for PLB, weighted
// round-robin for the switch) picks among the eligible ones. What differs
// between the two is the data in kind, fixed by the constructor.
package plb

import (
	"errors"
	"fmt"

	"jade/internal/cluster"
	"jade/internal/fluid"
	"jade/internal/legacy"
	"jade/internal/netsim"
	"jade/internal/obs"
	"jade/internal/selector"
	"jade/internal/sim"
	"jade/internal/trace"
)

// Errors returned by a balancer; which set depends on its kind.
var (
	ErrNoWorker      = errors.New("plb: no worker available")
	ErrWorkerExists  = errors.New("plb: worker already registered")
	ErrUnknownWorker = errors.New("plb: unknown worker")
	ErrNotRunning    = errors.New("plb: balancer not running")

	ErrNoServer         = errors.New("l4: no real server available")
	ErrServerExists     = errors.New("l4: server already registered")
	ErrUnknownServer    = errors.New("l4: unknown server")
	ErrSwitchNotRunning = errors.New("l4: switch not running")

	// ErrBadWeight is wrapped behind the kind's label ("l4: weight must be
	// positive: ...").
	ErrBadWeight = errors.New("weight must be positive")
)

// kind is what tells a PLB from an L4 switch.
type kind struct {
	label   string // obs tier and error texts: "plb", "l4"
	unit    string // what the instance is called when its node fails
	next    string // RPC tier class of the hop to a member
	member  string // trace field naming a member; its plural counts them
	members string
	// weighted: a join records the member's weight.
	weighted bool
	// sticky: under the rendezvous policy a key is pinned to its first
	// member in the session table; the switch rehashes every connection.
	sticky bool

	errNone, errExists, errUnknown, errNotRunning error
}

var (
	plbKind = &kind{label: "plb", unit: "balancer", next: "app", member: "worker", members: "workers", sticky: true,
		errNone: ErrNoWorker, errExists: ErrWorkerExists, errUnknown: ErrUnknownWorker, errNotRunning: ErrNotRunning}
	l4Kind = &kind{label: "l4", unit: "switch", next: "web", member: "server", members: "servers", weighted: true,
		errNone: ErrNoServer, errExists: ErrServerExists, errUnknown: ErrUnknownServer, errNotRunning: ErrSwitchNotRunning}
)

// Options tunes a balancer instance.
type Options struct {
	// Routing configures the member-selection policy and its pool.
	Routing selector.Options
	// ProxyCost is the CPU-seconds consumed on the balancer node per
	// forwarded request (PLB is lightweight; the paper dedicates it one
	// node that never saturates. Hardware switches are effectively free;
	// their small non-zero default keeps the node's utilization meter
	// honest).
	ProxyCost float64
	// Port is the listening port registered on the network.
	Port int
	// MemoryMB is the balancer's footprint on its node, held while running.
	MemoryMB float64
}

// DefaultOptions mirrors the paper's PLB deployment.
func DefaultOptions() Options {
	return Options{
		Routing:   selector.DefaultOptions(selector.RoundRobin),
		ProxyCost: 0.0002,
		Port:      8080,
		MemoryMB:  32,
	}
}

// DefaultL4Options mirrors a hardware L4 switch front end.
func DefaultL4Options() Options {
	return Options{
		Routing:   selector.DefaultOptions(selector.WeightedRoundRobin),
		ProxyCost: 0.00005,
		Port:      80,
		MemoryMB:  8,
	}
}

// Balancer is one PLB or L4 switch instance.
type Balancer struct {
	kind    *kind
	eng     *sim.Engine
	net     *legacy.Network
	node    *cluster.Node
	name    string
	opts    Options
	addr    string
	running bool

	pool    *selector.Pool
	targets map[string]legacy.HTTPHandler
	// sessions pins affinity keys to members of a sticky balancer under
	// the rendezvous policy; entries are evicted when their member leaves
	// the pool (clean shrink or fencing discard alike), so a sticky
	// session can never be routed to a departed member.
	sessions map[string]string

	forwarded uint64
	dropped   uint64
	forwards  legacy.FreeList[forward]

	// Trace, when set, records membership changes and, for requests
	// carrying a TraceSpan, a "forward" child span naming the chosen
	// member. All Tracer methods are nil-receiver safe, so the field may
	// stay unset.
	Trace *trace.Tracer
	// Obs, when set, records per-request counters and forward latency for
	// the balancer instance. Nil-safe like Trace.
	Obs *obs.TierMetrics
}

// New creates a stopped PLB on node.
func New(eng *sim.Engine, net *legacy.Network, node *cluster.Node, name string, opts Options) *Balancer {
	return plbKind.build(eng, net, node, name, opts)
}

// NewL4 creates a stopped L4 switch on node.
func NewL4(eng *sim.Engine, net *legacy.Network, node *cluster.Node, name string, opts Options) *Balancer {
	return l4Kind.build(eng, net, node, name, opts)
}

func (k *kind) build(eng *sim.Engine, net *legacy.Network, node *cluster.Node, name string, opts Options) *Balancer {
	ropts := opts.Routing
	ropts.Now = eng.Now
	b := &Balancer{
		kind:     k,
		eng:      eng,
		net:      net,
		node:     node,
		name:     name,
		opts:     opts,
		pool:     selector.New(ropts),
		targets:  make(map[string]legacy.HTTPHandler),
		sessions: make(map[string]string),
	}
	b.pool.OnEvict(func(member string) {
		for key, m := range b.sessions {
			if m == member {
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

// Forwarded returns the number of requests handed to members.
func (b *Balancer) Forwarded() uint64 { return b.forwarded }

// Dropped returns the number of requests rejected.
func (b *Balancer) Dropped() uint64 { return b.dropped }

// Pool exposes the member pool (suspicion feeding, introspection).
func (b *Balancer) Pool() *selector.Pool { return b.pool }

// FluidModel exposes the balancer's service model to the fluid workload
// network: every forwarded request costs ProxyCost CPU-seconds on the
// balancer node, so as a fluid station it saturates at μ = C/ProxyCost
// requests per second.
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
		return fmt.Errorf("%s %s: already running", b.kind.label, b.name)
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

// Add registers a member target under a unique name with a positive weight
// (which only the weighted policies read).
func (b *Balancer) Add(name string, target legacy.HTTPHandler, weight int) error {
	k := b.kind
	if weight <= 0 {
		return fmt.Errorf("%s: %w: %d for %s", k.label, ErrBadWeight, weight, name)
	}
	if err := b.pool.Add(name, weight); err != nil {
		return fmt.Errorf("%w: %s", k.errExists, name)
	}
	b.targets[name] = target
	fields := []trace.Field{trace.F(k.member, name)}
	if k.weighted {
		fields = append(fields, trace.Fi("weight", weight))
	}
	b.Trace.Emit("membership.join", b.name, append(fields, trace.Fi(k.members, b.pool.Len()))...)
	return nil
}

// Remove unbinds a member; in-flight requests on it complete, and any
// sessions pinned to it are evicted.
func (b *Balancer) Remove(name string) error {
	if err := b.pool.Remove(name); err != nil {
		return fmt.Errorf("%w: %s", b.kind.errUnknown, name)
	}
	delete(b.targets, name)
	b.Trace.Emit("membership.leave", b.name, trace.F(b.kind.member, name), trace.Fi(b.kind.members, b.pool.Len()))
	return nil
}

// Members returns member names sorted.
func (b *Balancer) Members() []string { return b.pool.Names() }

// MemberCount returns the number of registered members.
func (b *Balancer) MemberCount() int { return b.pool.Len() }

// SessionCount returns the number of pinned session entries.
func (b *Balancer) SessionCount() int { return len(b.sessions) }

// Sticky returns the member a session key is pinned to, if any.
func (b *Balancer) Sticky(key string) (string, bool) {
	m, ok := b.sessions[key]
	return m, ok
}

// Pending returns the in-flight request count for a member.
func (b *Balancer) Pending(name string) (int, error) {
	if !b.pool.Has(name) {
		return 0, fmt.Errorf("%w: %s", b.kind.errUnknown, name)
	}
	return b.pool.Pendings()[name], nil
}

// Pendings returns the in-flight request count of every member, keyed by
// name. Invariant checkers verify the counts never go negative (a negative
// count would mean a completion callback ran twice).
func (b *Balancer) Pendings() map[string]int { return b.pool.Pendings() }

// pick selects a member for the request's affinity key. On a sticky
// balancer under the rendezvous policy a key stays with its first member
// until that member leaves the pool or goes down; otherwise the policy
// alone decides.
func (b *Balancer) pick(key string) (string, bool) {
	sticky := b.kind.sticky && b.pool.Policy() == selector.Rendezvous && key != ""
	if sticky {
		if m, ok := b.sessions[key]; ok && b.pool.Healthy(m) {
			return m, true
		}
	}
	name, ok := b.pool.Pick(key)
	if ok && sticky {
		b.sessions[key] = name
	}
	return name, ok
}

// HandleHTTP forwards the request to a member chosen by policy, consuming
// the proxy cost on the balancer node first.
func (b *Balancer) HandleHTTP(req *legacy.WebRequest, done netsim.Reply) {
	if !b.running {
		b.Obs.Drop()
		b.dropped++
		done.Reply(fmt.Errorf("%w: %s", b.kind.errNotRunning, b.name))
		return
	}
	f := b.forwards.Get()
	f.b, f.req, f.done, f.parent = b, req, done, req.TraceSpan
	// The member's hop travels under the "forward" span.
	f.Begin(b.eng.Now(), b.Obs, b.Trace, f.parent, "forward", b.name)
	req.TraceSpan = f.Span
	b.node.Run(&f.Job, b.opts.ProxyCost, f)
}

// forward is the record of one forwarded request: what was asked, the hop
// on the balancer node (the record is its job's continuation, and the
// member's reply), the span the request arrived with, and the member it
// went to.
type forward struct {
	legacy.Hop
	b      *Balancer
	req    *legacy.WebRequest
	done   netsim.Reply
	parent trace.ID // restored when the request leaves
	member string
	sent   float64 // when the request left for the member
}

// JobDone picks the member and hands the request on.
func (f *forward) JobDone() {
	b := f.b
	f.Ran(b.eng.Now())
	name, ok := b.pick(f.req.SessionKey)
	if !ok {
		b.dropped++
		f.finish(fmt.Errorf("%w (%s %s)", b.kind.errNone, b.kind.label, b.name))
		return
	}
	f.member = name
	target := b.targets[name]
	b.pool.Acquire(name)
	b.forwarded++
	f.sent = b.eng.Now()
	b.net.ForwardHTTP(b.node.Name(), b.kind.next, target, f.req, f)
}

// Reply takes the member's answer.
func (f *forward) Reply(err error) {
	f.b.pool.Release(f.member, f.b.eng.Now()-f.sent, err != nil)
	f.finish(err)
}

// JobFailed: the balancer node crashed under the proxy job.
func (f *forward) JobFailed() {
	b := f.b
	b.dropped++
	f.Ran(b.eng.Now())
	f.finish(fmt.Errorf("%s %s: %s node failed", b.kind.label, b.name, b.kind.unit))
}

// finish ends the hop, naming the member if one was chosen, puts the
// record back (see legacy.Hop) and answers the caller.
func (f *forward) finish(err error) {
	b, done := f.b, f.done
	if f.Span != 0 {
		f.req.TraceSpan = f.parent
	}
	svc := b.opts.ProxyCost / b.node.Config().CPUCapacity
	if f.member != "" {
		f.End(b.Obs, b.Trace, svc, err, trace.F(b.kind.member, f.member))
	} else {
		f.End(b.Obs, b.Trace, svc, err)
	}
	b.forwards.Put(f)
	done.Reply(err)
}
