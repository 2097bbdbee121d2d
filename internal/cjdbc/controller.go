package cjdbc

import (
	"errors"
	"fmt"
	"sort"

	"jade/internal/cluster"
	"jade/internal/fluid"
	"jade/internal/legacy"
	"jade/internal/netsim"
	"jade/internal/obs"
	"jade/internal/selector"
	"jade/internal/sim"
	"jade/internal/sqlengine"
	"jade/internal/trace"
)

// Errors returned by the controller.
var (
	ErrNoBackend      = errors.New("cjdbc: no active backend")
	ErrBackendExists  = errors.New("cjdbc: backend already registered")
	ErrUnknownBackend = errors.New("cjdbc: unknown backend")
	ErrNotActive      = errors.New("cjdbc: backend not active")
	ErrNotRunning     = errors.New("cjdbc: controller not running")
	ErrBackendDown    = errors.New("cjdbc: backend server not running")
)

// BackendState is a backend's role in the virtual database.
type BackendState int

// Backend states.
const (
	// Syncing: replaying the recovery log before activation.
	Syncing BackendState = iota
	// Active: serving reads and applying broadcast writes.
	Active
	// Disabled: cleanly removed; its checkpoint is in the recovery log.
	Disabled
	// Dead: dropped after an execution failure (e.g. node crash).
	Dead
)

func (s BackendState) String() string {
	if s < 0 || int(s) >= len(stateNames) {
		return "?"
	}
	return stateNames[s]
}

var stateNames = [...]string{Syncing: "SYNCING", Active: "ACTIVE", Disabled: "DISABLED", Dead: "DEAD"}

// backend is a MySQL replica as the protocol drives it; a write is the
// request that wrote.
type backend = member[*legacy.MySQL, *request]

// Options tunes the controller.
type Options struct {
	// Port is the controller's listening port (C-JDBC's default 25322).
	Port int
	// ProxyCost is CPU-seconds on the controller node per request.
	ProxyCost float64
	// MemoryMB is the controller JVM footprint, held while running.
	MemoryMB float64
	// Routing configures the read-balancing policy and its backend pool
	// (selector least-pending by default, C-JDBC's historic behavior).
	// Only Active backends enter the pool; writes always broadcast.
	Routing selector.Options
}

// DefaultOptions mirrors C-JDBC 2.0.2 with RAIDb-1 (full mirroring).
func DefaultOptions() Options {
	return Options{Port: 25322, ProxyCost: 0.0005, Routing: selector.DefaultOptions(selector.LeastPending), MemoryMB: 150}
}

// Controller is the C-JDBC virtual database controller.
type Controller struct {
	eng     *sim.Engine
	net     *legacy.Network
	node    *cluster.Node
	name    string
	opts    Options
	addr    string
	running bool

	log  *RecoveryLog
	p    protocol[*legacy.MySQL, *request] // §4.1's write protocol
	pool *selector.Pool

	requests legacy.FreeList[request] // the per-statement records (see legacy.Hop)

	reads    uint64
	writes   uint64
	failures uint64

	// Trace, when set, records backend membership transitions and, for
	// queries carrying a TraceSpan, a "sql" child span with the chosen
	// backend. All Tracer methods are nil-receiver safe.
	Trace *trace.Tracer
	// Obs, when set, records per-query counters and latency for the
	// controller instance. Nil-safe like Trace.
	Obs *obs.TierMetrics
}

// New creates a stopped controller on node.
func New(eng *sim.Engine, net *legacy.Network, node *cluster.Node, name string, opts Options) *Controller {
	ropts := opts.Routing
	ropts.Now = eng.Now
	c := &Controller{eng: eng, net: net, node: node, name: name, opts: opts, log: NewRecoveryLog(), pool: selector.New(ropts)}
	c.p.fx = c
	return c
}

// Name returns the controller's name.
func (c *Controller) Name() string { return c.name }

// Node returns the controller's node.
func (c *Controller) Node() *cluster.Node { return c.node }

// Addr returns the registered address while running.
func (c *Controller) Addr() string { return c.addr }

// Running reports whether the controller is serving.
func (c *Controller) Running() bool { return c.running }

// Log exposes the recovery log (read-mostly; the experiment harness and
// the ablation benches inspect it).
func (c *Controller) Log() *RecoveryLog { return c.log }

// FluidModel exposes the controller's service model to the fluid
// workload network: every proxied query costs ProxyCost CPU-seconds on
// the controller node (the demand unit is the query, not the request —
// multiply by the mix's mean queries per request). The backend tier it
// feeds splits reads across the active replicas and broadcasts writes to
// all of them, per RAIDb-1.
func (c *Controller) FluidModel() fluid.ServiceModel {
	return fluid.ServiceModel{
		Name:        c.name,
		Node:        c.node,
		CostPerUnit: c.opts.ProxyCost,
		Up:          func() bool { return c.running },
	}
}

// Reads returns the number of read requests served.
func (c *Controller) Reads() uint64 { return c.reads }

// Writes returns the number of write requests accepted.
func (c *Controller) Writes() uint64 { return c.writes }

// Failures returns the number of requests that ultimately failed.
func (c *Controller) Failures() uint64 { return c.failures }

// Pool exposes the read-balancing backend pool (suspicion feeding,
// introspection). It holds exactly the Active backends.
func (c *Controller) Pool() *selector.Pool { return c.pool }

// Start registers the controller's listener.
func (c *Controller) Start() error {
	if c.running {
		return fmt.Errorf("cjdbc %s: already running", c.name)
	}
	if err := c.node.AllocMemory(c.opts.MemoryMB); err != nil {
		return err
	}
	addr := fmt.Sprintf("%s:%d", c.node.Name(), c.opts.Port)
	if err := c.net.Register(addr, c); err != nil {
		c.node.FreeMemory(c.opts.MemoryMB)
		return err
	}
	c.addr = addr
	c.running = true
	return nil
}

// Stop unregisters the listener.
func (c *Controller) Stop() {
	if !c.running {
		return
	}
	c.net.Unregister(c.addr)
	c.addr = ""
	c.running = false
	c.node.FreeMemory(c.opts.MemoryMB)
}

// Join registers a MySQL replica under name and synchronizes it. A
// backend with a recorded checkpoint resumes replay from it; a brand-new
// backend replays from index 0 and must have been loaded with the virtual
// database's initial snapshot beforehand (see SnapshotFrom / the Software
// Installation Service in the core package). done fires when the backend
// becomes Active.
func (c *Controller) Join(name string, srv *legacy.MySQL, done func(error)) error {
	start, _ := c.log.Checkpoint(name) // 0 when there is none
	return c.JoinAt(name, srv, start, done)
}

// JoinAt registers a replica whose state corresponds to the given recovery
// log index (it has executed every write below startIndex).
func (c *Controller) JoinAt(name string, srv *legacy.MySQL, startIndex int64, done func(error)) error {
	// A registered backend is serving, syncing or draining; a dead or
	// departed one is no longer registered, and may rejoin.
	if c.p.lookup(name) != nil {
		return fmt.Errorf("%w: %s", ErrBackendExists, name)
	}
	if srv.State() != legacy.Running {
		return fmt.Errorf("%w: %s is %s", ErrBackendDown, name, srv.State())
	}
	if startIndex < 0 || startIndex > c.log.Len() {
		return fmt.Errorf("cjdbc: join index %d outside log [0,%d]", startIndex, c.log.Len())
	}
	c.log.DropCheckpoint(name)
	c.p.join(name, startIndex, done, srv)
	return nil
}

// Leave cleanly disables an Active backend. It finishes applying every
// write already logged, then records its checkpoint index in the recovery
// log and stops. done (optional) receives the checkpoint index.
func (c *Controller) Leave(name string, done func(checkpoint int64)) error {
	b := c.p.lookup(name)
	if b == nil {
		return fmt.Errorf("%w: %s", ErrUnknownBackend, name)
	}
	if b.state != Active {
		return fmt.Errorf("%w: %s is %s", ErrNotActive, name, b.state)
	}
	c.p.leave(b, done)
	return nil
}

// MarkFailed drops a backend administratively (e.g. the self-recovery
// manager detected its node crashed before any query touched it). The
// backend's outstanding write acknowledgements fail over to the
// survivors.
func (c *Controller) MarkFailed(name string, cause error) error {
	b := c.p.lookup(name)
	if b == nil {
		return fmt.Errorf("%w: %s", ErrUnknownBackend, name)
	}
	if cause == nil {
		cause = ErrBackendDown
	}
	c.p.fail(b, cause)
	return nil
}

// send forwards b's next log record, its statement as logged: nothing is
// parsed again. Only an apply a client waits on keeps the write's trace
// span: a syncing or draining backend replays the record after the write
// completed, and a child span closing after its parent would break
// span-tree well-formedness (and misattribute latency).
func (c *Controller) send(b *backend, w *request) {
	rec, _ := c.log.At(b.applied)
	q := rec.Query
	if w == nil {
		q.TraceSpan = 0
	}
	c.net.ForwardSQL(c.node.Name(), "sql", b.srv, q, b)
}

func (c *Controller) answer(w *request, cause error) {
	switch {
	case cause == nil:
	case refused(cause):
		c.failures++
		cause = fmt.Errorf("cjdbc %s: write refused: %w", c.name, cause)
	default:
		c.failures++
		cause = fmt.Errorf("cjdbc %s: write lost on all backends: %w", c.name, cause)
	}
	w.finish(cause)
}

// refused reports whether err is a running server's answer that it cannot
// execute the statement (legacy.StatementError), which is the statement's
// fault: the backend that gave it stays.
func refused(err error) bool {
	var se *legacy.StatementError
	return errors.As(err, &se)
}

func (c *Controller) activate(b *backend) {
	if err := c.pool.Add(b.name, 1); err != nil {
		// Unreachable if state bookkeeping is right (the pool holds
		// exactly the Active backends), but never let it wedge a sync.
		c.pool.Discard(b.name)
		_ = c.pool.Add(b.name, 1)
	}
	c.Trace.Emit("membership.active", c.name, trace.F("backend", b.name), trace.Fi("applied", int(b.applied)))
}

func (c *Controller) evict(b *backend) { c.pool.Discard(b.name) }

func (c *Controller) checkpoint(b *backend) { c.log.SetCheckpoint(b.name, b.applied) }

func (c *Controller) joined(b *backend) {
	c.Trace.Emit("membership.join", c.name, trace.F("backend", b.name), trace.Fi("log-index", int(b.applied)), trace.Fi("backends", len(c.p.members)))
}

func (c *Controller) left(b *backend) {
	c.Trace.Emit("membership.leave", c.name, trace.F("backend", b.name), trace.Fi("checkpoint", int(b.applied)), trace.Fi("backends", len(c.p.members)))
}

func (c *Controller) died(b *backend, cause error) {
	c.Trace.Emit("membership.dead", c.name, trace.F("backend", b.name), trace.F("cause", cause.Error()), trace.Fi("backends", len(c.p.members)))
}

// pickReader selects an active backend through the pool. Under the
// rendezvous policy the query text is the affinity key (query-to-replica
// cache affinity), which is the one place a read's text is rendered; no
// other policy looks at the key.
func (c *Controller) pickReader(q *legacy.Query) *backend {
	key := ""
	if c.pool.Policy() == selector.Rendezvous {
		key, _ = q.Text() // a statement that does not render is refused by the backend
	}
	name, ok := c.pool.Pick(key)
	if !ok {
		return nil
	}
	b := c.p.lookup(name)
	if b == nil || b.state != Active {
		return nil
	}
	return b
}

// ExecSQL implements the virtual database: writes are logged and
// broadcast to every backend currently applying the log; reads go to one
// active backend chosen by policy, with one retry on backend failure. A
// query is parsed here only if it arrives as text alone: a servlet's write
// arrives built, and is logged and broadcast as it came.
func (c *Controller) ExecSQL(q legacy.Query, done netsim.Reply) {
	if !c.running {
		c.Obs.Drop()
		c.failures++
		done.Reply(fmt.Errorf("%w: %s", ErrNotRunning, c.name))
		return
	}
	// Classify here, and parse only what arrives as text alone, once:
	// every backend the query reaches and the recovery log take the
	// statement. A query that arrives prepared or built is taken as it is,
	// a prepared write bound to the statement it stands for. A read that
	// does not parse travels as text, and the backend that receives it
	// reports the error; a write without a statement cannot be logged.
	write := q.IsWrite()
	if write || q.Prepared == nil {
		var err error
		if q.Stmt, err = q.Statement(); write && err != nil {
			c.Obs.Drop()
			c.failures++
			done.Reply(fmt.Errorf("cjdbc %s: a write without a statement cannot be logged: %w", c.name, err))
			return
		}
		q.Prepared = nil
	}
	r := c.requests.Get()
	r.c, r.q, r.done, r.write = c, q, done, write
	if r.write {
		// A write's completion waits on the RAIDb-1 broadcast: time not
		// covered by this record's own applies is queueing for db-tier
		// capacity (earlier log records draining), which the attribution
		// walker charges to the db tier, not this one.
		r.Begin(c.eng.Now(), c.Obs, c.Trace, q.TraceSpan, "sql", c.name, trace.F("waits-on", "db"))
	} else {
		r.Begin(c.eng.Now(), c.Obs, c.Trace, q.TraceSpan, "sql", c.name)
	}
	r.q.TraceSpan = r.Span
	c.node.Run(&r.Job, c.opts.ProxyCost, r)
}

// request is the record of one statement in the controller: the query as
// the backends will receive it (parsed, under this hop's span), the hop on
// the controller node (the record is its job's continuation, and the reply
// to its read or write) and the read attempt in flight.
type request struct {
	legacy.Hop
	c     *Controller
	q     legacy.Query
	done  netsim.Reply
	write bool

	attempts int      // read attempts left, this one included
	backend  *backend // the replica the read in flight went to
	sent     float64  // when it left
}

// JobDone: the proxy cost is paid; route the statement.
func (r *request) JobDone() {
	c := r.c
	r.Ran(c.eng.Now())
	if r.write {
		c.execWrite(r)
		return
	}
	r.attempts = len(c.p.members) + 1
	r.read()
}

// JobFailed: the controller node crashed under the proxy job.
func (r *request) JobFailed() {
	r.c.failures++
	r.finish(fmt.Errorf("cjdbc %s: controller node failed", r.c.name))
}

// finish ends the hop, puts the record back (see legacy.Hop) and answers
// the caller.
func (r *request) finish(err error) {
	c, done := r.c, r.done
	r.End(c.Obs, c.Trace, c.opts.ProxyCost/c.node.Config().CPUCapacity, err)
	c.requests.Put(r)
	done.Reply(err)
}

func (c *Controller) execWrite(r *request) {
	// The write waits on every Active backend's acknowledgement; syncing
	// and draining backends apply it through their own pumps without
	// gating the client.
	acks := c.ActiveCount()
	if acks == 0 {
		c.failures++
		r.finish(fmt.Errorf("%w: cannot write through %s", ErrNoBackend, c.name))
		return
	}
	idx := c.log.Append(r.q)
	c.writes++
	if r.q.TraceSpan != 0 {
		c.Trace.EmitIn(r.q.TraceSpan, "sql.write", c.name,
			trace.Fi("log-index", int(idx)), trace.Fi("acks", acks))
	}
	c.p.write(r)
}

// read sends the statement to one active backend chosen by policy.
func (r *request) read() {
	c := r.c
	b := c.pickReader(&r.q)
	if b == nil {
		c.failures++
		r.finish(fmt.Errorf("%w: cannot read through %s", ErrNoBackend, c.name))
		return
	}
	c.pool.Acquire(b.name)
	r.backend, r.sent = b, c.eng.Now()
	if r.q.TraceSpan != 0 {
		c.Trace.EmitIn(r.q.TraceSpan, "sql.read", c.name, trace.F("backend", b.name))
	}
	c.net.ForwardSQL(c.node.Name(), "sql", b.srv, r.q, r)
}

// Reply takes the backend's answer to a read. A backend that failed
// (its server or its node is down, the call did not get through) is
// marked dead and the read goes to another while attempts remain; a
// backend that answered that the statement is wrong stays, and its answer
// is the caller's.
func (r *request) Reply(err error) {
	c, b := r.c, r.backend
	failed := err != nil && !refused(err)
	// Release feeds the latency/failure reservoirs before the failure
	// evicts the entry, so the failure is recorded against the backend.
	c.pool.Release(b.name, c.eng.Now()-r.sent, failed)
	if failed {
		c.p.fail(b, err)
		if r.attempts > 1 {
			r.attempts--
			r.read()
			return
		}
	}
	if err != nil {
		c.failures++
		r.finish(fmt.Errorf("cjdbc %s: read failed: %w", c.name, err))
		return
	}
	c.reads++
	r.finish(nil)
}

// BackendInfo is a snapshot of one backend's status. Fingerprint is its
// database's sqlengine fingerprint, the state the Applied log prefix
// produced.
type BackendInfo struct {
	Name        string
	State       BackendState
	Applied     int64
	Node        string
	Fingerprint uint64
}

// Backends returns status for all registered backends, sorted by name.
func (c *Controller) Backends() []BackendInfo {
	out := make([]BackendInfo, 0, len(c.p.members))
	for _, b := range c.p.members {
		out = append(out, BackendInfo{
			Name:        b.name,
			State:       b.state,
			Applied:     b.applied,
			Node:        b.srv.Node().Name(),
			Fingerprint: b.srv.DB().Fingerprint(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ActiveCount returns the number of Active backends.
func (c *Controller) ActiveCount() int {
	n := 0
	for _, b := range c.p.members {
		if b.state == Active {
			n++
		}
	}
	return n
}

// SnapshotFrom copies the database state of an Active backend together
// with the recovery-log index it corresponds to. Installing this snapshot
// on a fresh replica and calling JoinAt with the returned index brings it
// into the cluster consistently.
func (c *Controller) SnapshotFrom(name string) (*sqlengine.Engine, int64, error) {
	b := c.p.lookup(name)
	if b == nil {
		return nil, 0, fmt.Errorf("%w: %s", ErrUnknownBackend, name)
	}
	if b.state != Active {
		return nil, 0, fmt.Errorf("%w: %s is %s", ErrNotActive, name, b.state)
	}
	return b.srv.DB().Snapshot(), b.applied, nil
}

// AnyActiveSnapshot snapshots an arbitrary active backend (the lowest
// name, for determinism).
func (c *Controller) AnyActiveSnapshot() (*sqlengine.Engine, int64, error) {
	var best *backend
	for _, b := range c.p.members {
		if b.state == Active && (best == nil || b.name < best.name) {
			best = b
		}
	}
	if best == nil {
		return nil, 0, ErrNoBackend
	}
	return c.SnapshotFrom(best.name)
}

// ConsistencyReport compares the fingerprints of all active backends.
// Backends at different applied indices are reported individually; the
// report is Consistent when every active backend at the max applied index
// has the same fingerprint.
type ConsistencyReport struct {
	Consistent   bool
	Fingerprints map[string]uint64
	Applied      map[string]int64
}

// CheckConsistency fingerprints every active backend. It is meaningful
// when the simulation is quiescent (no in-flight writes).
func (c *Controller) CheckConsistency() ConsistencyReport {
	rep := ConsistencyReport{
		Consistent:   true,
		Fingerprints: map[string]uint64{},
		Applied:      map[string]int64{},
	}
	var first uint64
	for _, b := range c.p.members {
		if b.state != Active {
			continue
		}
		fp := b.srv.DB().Fingerprint()
		if len(rep.Fingerprints) == 0 {
			first = fp
		} else if fp != first {
			rep.Consistent = false
		}
		rep.Fingerprints[b.name] = fp
		rep.Applied[b.name] = b.applied
	}
	return rep
}
