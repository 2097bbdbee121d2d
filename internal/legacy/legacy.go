// Package legacy simulates the legacy software tier of the paper's
// testbed: Apache web servers, Tomcat servlet servers and MySQL database
// servers. Each is a process bound to a cluster node, started and stopped
// through script-like operations, and configured exclusively through its
// proprietary configuration file (httpd.conf, server.xml, my.cnf) which it
// parses at startup — exactly the boundary Jade's wrappers manage.
//
// Processes register network listeners in a Network registry keyed by
// "host:port" strings, so a server can only reach a peer whose address
// appears in its own configuration file. A Jade binding operation
// therefore has to be *reflected into the legacy configuration* to have
// any effect, as in the paper.
package legacy

import (
	"errors"
	"fmt"
	"sort"

	"jade/internal/cluster"
	"jade/internal/config"
	"jade/internal/netsim"
	"jade/internal/obs"
	"jade/internal/sim"
	"jade/internal/sqlengine"
	"jade/internal/trace"
)

// Errors returned by the legacy layer.
var (
	ErrNotRunning     = errors.New("legacy: server not running")
	ErrAlreadyRunning = errors.New("legacy: server already running")
	ErrAddressInUse   = errors.New("legacy: address already in use")
	ErrNoRoute        = errors.New("legacy: no listener at address")
	ErrServerFailed   = errors.New("legacy: server failed")
	ErrNoBackend      = errors.New("legacy: no backend configured")
)

// State is a server process state.
type State int

// Process lifecycle states.
const (
	Stopped State = iota
	Starting
	Running
	Failed
)

func (s State) String() string {
	switch s {
	case Stopped:
		return "STOPPED"
	case Starting:
		return "STARTING"
	case Running:
		return "RUNNING"
	case Failed:
		return "FAILED"
	}
	return "?"
}

// Query is one SQL request flowing from the application tier to the
// database tier, with its CPU service demand on a database node. The
// statement travels in one of three forms, the first one set winning:
// Prepared with Arg (a servlet's read, which needs no text), Stmt (text
// C-JDBC has parsed), or SQL alone.
type Query struct {
	SQL  string
	Cost float64 // CPU-seconds on a database node
	// Stmt, when non-nil, is SQL already parsed: C-JDBC parses a statement
	// once and hands the result to every backend it sends the query to. A
	// server given neither Stmt nor Prepared parses SQL itself.
	Stmt sqlengine.Statement
	// Prepared, when non-nil, is the statement as a template prepared once
	// per process, and Arg the argument of its placeholder if it has one
	// (a Connector/J prepared statement, as the RUBiS servlets use). Text
	// renders it for whatever reads statements as strings.
	Prepared *sqlengine.Prepared
	Arg      int64
	// TraceSpan, when non-zero, is the telemetry span this query belongs
	// to; servers along the path attach their own child spans under it.
	TraceSpan trace.ID
}

// args returns the arguments of q.Prepared. A template with more than the
// one placeholder a Query has room for gets one argument, and the engine
// refuses the count.
func (q *Query) args() []int64 {
	return []int64{q.Arg}[:min(q.Prepared.NumArgs(), 1)]
}

// Text returns the statement as SQL text: the prepared statement rendered
// with its argument, or else SQL.
func (q *Query) Text() (string, error) {
	if q.Prepared != nil {
		return q.Prepared.Text(q.args()...)
	}
	return q.SQL, nil
}

// IsWrite reports whether the statement mutates database state, from the
// prepared or parsed form when there is one and from the text otherwise.
func (q *Query) IsWrite() bool {
	switch {
	case q.Prepared != nil:
		return q.Prepared.IsWrite()
	case q.Stmt != nil:
		_, read := q.Stmt.(sqlengine.SelectStmt)
		return !read
	}
	return sqlengine.IsWrite(q.SQL)
}

// run executes the statement on db: a write for its effect, a read for its
// error (the rows are counted, not built: nobody downstream reads them).
func (q *Query) run(db *sqlengine.Engine) error {
	if q.Prepared != nil {
		_, err := db.CountPrepared(q.Prepared, q.args()...)
		return err
	}
	stmt := q.Stmt
	if stmt == nil {
		var err error
		if stmt, err = sqlengine.Parse(q.SQL); err != nil {
			return err
		}
	}
	_, err := db.Count(stmt)
	return err
}

// WebRequest is one HTTP request flowing through the tiers.
type WebRequest struct {
	Interaction string
	Static      bool    // served by the web tier without forwarding
	WebCost     float64 // CPU-seconds on the web tier
	AppCost     float64 // CPU-seconds on the application tier
	Queries     []Query // database work issued by the servlet
	// SessionKey identifies the client session the request belongs to.
	// Affinity-aware balancer policies (rendezvous) use it to keep a
	// session pinned to one worker; other policies ignore it.
	SessionKey string
	// TraceSpan, when non-zero, is the telemetry span covering this
	// request; each hop (balancer, servlet server, database proxy) opens
	// its child span under the one it received and rewrites the field for
	// the next hop, yielding a causal L4/PLB -> Tomcat -> C-JDBC -> MySQL
	// tree.
	TraceSpan trace.ID
}

// HTTPHandler is anything that can serve a WebRequest: a Tomcat instance,
// a PLB or L4 balancer, or an Apache server.
type HTTPHandler interface {
	HandleHTTP(req *WebRequest, done netsim.Reply)
}

// SQLExecutor is anything that can execute a Query: a MySQL instance or
// the C-JDBC controller.
type SQLExecutor interface {
	ExecSQL(q Query, done netsim.Reply)
}

// Network is the simulated LAN: a registry of listeners by "host:port".
// Without a fabric, calls between listeners are direct and instantaneous;
// with an enabled one, every forward is an RPC over it, with latency,
// loss, retries and partitions. Endpoints are node names; pseudo-endpoints
// like "client" name off-cluster parties.
type Network struct {
	listeners map[string]any
	fabric    *netsim.Fabric
}

// NewNetwork returns an empty network.
func NewNetwork() *Network { return &Network{listeners: make(map[string]any)} }

// SetFabric installs (or, with nil, removes) the fabric forwards travel
// over.
func (n *Network) SetFabric(f *netsim.Fabric) { n.fabric = f }

// endpointName extracts the network endpoint of a handler: the name of
// the node it runs on, or "" for handlers not tied to a node (an empty
// endpoint is still subject to default latency and loss, but cannot be
// partitioned).
func endpointName(target any) string {
	if nn, ok := target.(interface{ Node() *cluster.Node }); ok {
		if node := nn.Node(); node != nil {
			return node.Name()
		}
	}
	return ""
}

// httpCall is one forwarded HTTP request: the fabric's call record plus
// what each attempt hands the target.
type httpCall struct {
	netsim.RPC
	target HTTPHandler
	req    *WebRequest
}

func (c *httpCall) Attempt(reply netsim.Reply) { c.target.HandleHTTP(c.req, reply) }

// sqlCall is one forwarded query, the same way.
type sqlCall struct {
	netsim.RPC
	target SQLExecutor
	q      Query
}

func (c *sqlCall) Attempt(reply netsim.Reply) { c.target.ExecSQL(c.q, reply) }

// ForwardHTTP delivers req to target on behalf of the endpoint from,
// over the fabric when one is enabled and directly otherwise. tier names
// the RPC budget class ("front", "web", "app").
func (n *Network) ForwardHTTP(from, tier string, target HTTPHandler, req *WebRequest, done netsim.Reply) {
	if !n.fabric.Enabled() {
		target.HandleHTTP(req, done)
		return
	}
	c := &httpCall{target: target, req: req}
	n.fabric.Start(&c.RPC, from, endpointName(target), tier, c, done)
}

// ForwardSQL delivers q to target on behalf of the endpoint from, over
// the fabric when one is enabled and directly otherwise.
func (n *Network) ForwardSQL(from, tier string, target SQLExecutor, q Query, done netsim.Reply) {
	if !n.fabric.Enabled() {
		target.ExecSQL(q, done)
		return
	}
	c := &sqlCall{target: target, q: q}
	n.fabric.Start(&c.RPC, from, endpointName(target), tier, c, done)
}

// remoteHTTP adapts ForwardHTTP to the HTTPHandler interface.
type remoteHTTP struct {
	n          *Network
	from, tier string
	target     HTTPHandler
}

func (r remoteHTTP) HandleHTTP(req *WebRequest, done netsim.Reply) {
	r.n.ForwardHTTP(r.from, r.tier, r.target, req, done)
}

// RemoteHTTP wraps target so every request traverses the network from
// the named endpoint (used to put the client emulator behind the fabric).
// Without an enabled fabric it returns target unchanged.
func (n *Network) RemoteHTTP(from, tier string, target HTTPHandler) HTTPHandler {
	if !n.fabric.Enabled() {
		return target
	}
	return remoteHTTP{n: n, from: from, tier: tier, target: target}
}

// Register binds a listener object to an address.
func (n *Network) Register(addr string, srv any) error {
	if _, ok := n.listeners[addr]; ok {
		return fmt.Errorf("%w: %s", ErrAddressInUse, addr)
	}
	n.listeners[addr] = srv
	return nil
}

// Unregister removes the listener at addr (no-op when absent).
func (n *Network) Unregister(addr string) { delete(n.listeners, addr) }

// LookupHTTP resolves an address to an HTTP handler.
func (n *Network) LookupHTTP(addr string) (HTTPHandler, error) {
	srv, ok := n.listeners[addr]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoRoute, addr)
	}
	h, ok := srv.(HTTPHandler)
	if !ok {
		return nil, fmt.Errorf("legacy: listener at %s is not an HTTP handler", addr)
	}
	return h, nil
}

// LookupSQL resolves an address to a SQL executor.
func (n *Network) LookupSQL(addr string) (SQLExecutor, error) {
	srv, ok := n.listeners[addr]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoRoute, addr)
	}
	h, ok := srv.(SQLExecutor)
	if !ok {
		return nil, fmt.Errorf("legacy: listener at %s is not a SQL executor", addr)
	}
	return h, nil
}

// Addresses returns registered addresses, sorted.
func (n *Network) Addresses() []string {
	out := make([]string, 0, len(n.listeners))
	for a := range n.listeners {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// Env bundles the shared substrate a legacy process runs in.
type Env struct {
	Eng *sim.Engine
	Net *Network
	FS  *config.MemFS
	// Trace, when set, lets servers attach child spans to requests that
	// carry a TraceSpan. All Tracer methods are nil-receiver safe, so the
	// field may stay unset (the standalone unit tests do).
	Trace *trace.Tracer
	// Obs, when set, is the metrics registry servers register their
	// per-instance request instruments in. Like Trace, it may stay unset:
	// a nil registry hands out nil instruments whose methods no-op.
	Obs *obs.Registry
}

// process holds state common to the three server kinds.
type process struct {
	env        *Env
	name       string
	node       *cluster.Node
	state      State
	memMB      float64
	startDelay float64
	stopDelay  float64
	listenAddr string
	obs        *obs.TierMetrics

	served uint64
	failed uint64
}

func (p *process) Name() string        { return p.name }
func (p *process) Node() *cluster.Node { return p.node }
func (p *process) State() State        { return p.state }
func (p *process) Served() uint64      { return p.served }
func (p *process) Errors() uint64      { return p.failed }

// watchNode fails the process when its node crashes.
func (p *process) watchNode() {
	p.node.OnFail(func(*cluster.Node) {
		if p.state == Running || p.state == Starting {
			p.state = Failed
			if p.listenAddr != "" {
				p.env.Net.Unregister(p.listenAddr)
				p.listenAddr = ""
			}
		}
	})
}

// begin transitions to Starting and schedules readiness after the start
// delay, mimicking the latency of an init script. ready runs with the
// process still in Starting; it must set Running or report an error.
func (p *process) begin(ready func() error, done func(error)) {
	finish := func(err error) {
		if done != nil {
			done(err)
		}
	}
	if p.state == Running || p.state == Starting {
		finish(fmt.Errorf("%w: %s", ErrAlreadyRunning, p.name))
		return
	}
	if p.node.Failed() {
		finish(fmt.Errorf("%w: node %s is down", ErrServerFailed, p.node.Name()))
		return
	}
	if err := p.node.AllocMemory(p.memMB); err != nil {
		finish(err)
		return
	}
	p.state = Starting
	p.env.Eng.After(p.startDelay, p.name+":start", func() {
		if p.state != Starting { // node failed meanwhile
			finish(fmt.Errorf("%w: %s", ErrServerFailed, p.name))
			return
		}
		if err := ready(); err != nil {
			p.state = Stopped
			p.node.FreeMemory(p.memMB)
			finish(err)
			return
		}
		p.state = Running
		finish(nil)
	})
}

// end transitions to Stopped after the stop delay.
func (p *process) end(done func(error)) {
	finish := func(err error) {
		if done != nil {
			done(err)
		}
	}
	if p.state != Running {
		finish(fmt.Errorf("%w: %s is %s", ErrNotRunning, p.name, p.state))
		return
	}
	if p.listenAddr != "" {
		p.env.Net.Unregister(p.listenAddr)
		p.listenAddr = ""
	}
	p.env.Eng.After(p.stopDelay, p.name+":stop", func() {
		p.state = Stopped
		p.node.FreeMemory(p.memMB)
		finish(nil)
	})
}

// Terminate hard-kills the process — the management plane's STONITH for
// a replica it no longer trusts (e.g. a live server being discarded
// after a false-positive failure suspicion). The listener disappears and
// memory is reclaimed immediately, with no graceful stop delay; jobs
// already submitted to the node's CPU run to completion.
func (p *process) Terminate() {
	if p.listenAddr != "" {
		p.env.Net.Unregister(p.listenAddr)
		p.listenAddr = ""
	}
	if p.state == Running || p.state == Starting {
		p.node.FreeMemory(p.memMB)
	}
	p.state = Stopped
}

func (p *process) listen(addr string, self any) error {
	if err := p.env.Net.Register(addr, self); err != nil {
		return err
	}
	p.listenAddr = addr
	return nil
}
