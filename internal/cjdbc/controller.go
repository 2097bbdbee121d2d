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
	switch s {
	case Syncing:
		return "SYNCING"
	case Active:
		return "ACTIVE"
	case Disabled:
		return "DISABLED"
	case Dead:
		return "DEAD"
	}
	return "?"
}

// backend tracks one MySQL replica inside the controller.
type backend struct {
	name  string
	srv   *legacy.MySQL
	state BackendState
	// applied is the next log index this backend needs: every record
	// with Index < applied has been executed on it.
	applied int64
	// stopAt bounds the pump for a backend leaving cleanly: it still
	// applies every record below stopAt (writes it owes acks for), then
	// checkpoints and disables.
	stopAt int64 // -1 when unbounded
	// busy: a log record is on its way to the server, and apply is its
	// reply.
	busy  bool
	apply applyReply
	// onSynced fires when a Syncing backend catches up.
	onSynced func(error)
	// onLeft fires when a Disabled-pending backend finishes draining.
	onLeft func(int64)
}

// applyReply is the reply to the log record a backend was sent; busy keeps
// one in flight per backend, so the backend embeds it.
type applyReply struct {
	c   *Controller
	b   *backend
	idx int64
}

// Reply takes the server's answer: a failure drops the backend, a success
// acknowledges the record and sends the next.
func (a *applyReply) Reply(err error) {
	c, b, idx := a.c, a.b, a.idx
	b.busy = false
	if err != nil {
		c.markDead(b, err)
		return
	}
	b.applied = idx + 1
	c.ack(idx, b)
	c.pump(b)
}

// writeWait tracks one broadcast write's outstanding acknowledgements. The
// controller recycles it (putWait) and its map with it, empty by then.
type writeWait struct {
	waitingOn map[string]bool
	// stmt is the write, parsed, for the backends in waitingOn. The log
	// keeps only the string, and replay on a stale replica re-parses it.
	stmt      sqlengine.Statement
	successes int
	done      netsim.Reply // the request that wrote
	firstErr  error
}

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

	log      *RecoveryLog
	backends []*backend
	pool     *selector.Pool
	waiters  map[int64]*writeWait

	// The per-statement records (see legacy.Hop), and execWrite's scratch
	// list of the active backends.
	requests legacy.FreeList[request]
	waits    legacy.FreeList[writeWait]
	actives  []*backend

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
	return &Controller{
		eng:     eng,
		net:     net,
		node:    node,
		name:    name,
		opts:    opts,
		log:     NewRecoveryLog(),
		pool:    selector.New(ropts),
		waiters: make(map[int64]*writeWait),
	}
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

func (c *Controller) lookup(name string) *backend {
	for _, b := range c.backends {
		if b.name == name {
			return b
		}
	}
	return nil
}

// Join registers a MySQL replica under name and synchronizes it. A
// backend with a recorded checkpoint resumes replay from it; a brand-new
// backend replays from index 0 and must have been loaded with the virtual
// database's initial snapshot beforehand (see SnapshotFrom / the Software
// Installation Service in the core package). done fires when the backend
// becomes Active.
func (c *Controller) Join(name string, srv *legacy.MySQL, done func(error)) error {
	start, ok := c.log.Checkpoint(name)
	if !ok {
		start = 0
	}
	return c.JoinAt(name, srv, start, done)
}

// JoinAt registers a replica whose state corresponds to the given recovery
// log index (it has executed every write below startIndex).
func (c *Controller) JoinAt(name string, srv *legacy.MySQL, startIndex int64, done func(error)) error {
	// A backend still registered is either serving (Active/Syncing) or
	// draining towards its checkpoint (Disabled but not yet dropped);
	// both refuse a concurrent rejoin — only a Dead entry is replaced.
	// A cleanly removed backend is no longer registered and rejoins via
	// its recovery-log checkpoint.
	if b := c.lookup(name); b != nil && b.state != Dead {
		return fmt.Errorf("%w: %s", ErrBackendExists, name)
	}
	if srv.State() != legacy.Running {
		return fmt.Errorf("%w: %s is %s", ErrBackendDown, name, srv.State())
	}
	if startIndex < 0 || startIndex > c.log.Len() {
		return fmt.Errorf("cjdbc: join index %d outside log [0,%d]", startIndex, c.log.Len())
	}
	// Re-registration replaces a Dead/Disabled entry.
	if old := c.lookup(name); old != nil {
		c.drop(old)
	}
	b := &backend{name: name, srv: srv, state: Syncing, applied: startIndex, stopAt: -1, onSynced: done}
	c.backends = append(c.backends, b)
	c.log.DropCheckpoint(name)
	c.Trace.Emit("membership.join", c.name,
		trace.F("backend", name), trace.Fi("log-index", int(startIndex)), trace.Fi("backends", len(c.backends)))
	c.pump(b)
	return nil
}

func (c *Controller) drop(b *backend) {
	for i, x := range c.backends {
		if x == b {
			c.backends = append(c.backends[:i], c.backends[i+1:]...)
			return
		}
	}
}

// Leave cleanly disables an Active backend. It finishes applying every
// write already logged, then records its checkpoint index in the recovery
// log and stops. done (optional) receives the checkpoint index.
func (c *Controller) Leave(name string, done func(checkpoint int64)) error {
	b := c.lookup(name)
	if b == nil {
		return fmt.Errorf("%w: %s", ErrUnknownBackend, name)
	}
	if b.state != Active {
		return fmt.Errorf("%w: %s is %s", ErrNotActive, name, b.state)
	}
	b.stopAt = c.log.Len()
	b.onLeft = done
	if b.applied >= b.stopAt && !b.busy {
		c.finishLeave(b)
		return nil
	}
	// Mark as draining: no longer eligible for reads, still acking writes.
	b.state = Disabled
	c.pool.Discard(b.name)
	return nil
}

func (c *Controller) finishLeave(b *backend) {
	b.state = Disabled
	c.pool.Discard(b.name)
	c.log.SetCheckpoint(b.name, b.applied)
	c.drop(b)
	c.Trace.Emit("membership.leave", c.name,
		trace.F("backend", b.name), trace.Fi("checkpoint", int(b.applied)), trace.Fi("backends", len(c.backends)))
	if b.onLeft != nil {
		b.onLeft(b.applied)
		b.onLeft = nil
	}
}

// MarkFailed drops a backend administratively (e.g. the self-recovery
// manager detected its node crashed before any query touched it). The
// backend's outstanding write acknowledgements fail over to the
// survivors.
func (c *Controller) MarkFailed(name string, cause error) error {
	b := c.lookup(name)
	if b == nil {
		return fmt.Errorf("%w: %s", ErrUnknownBackend, name)
	}
	if cause == nil {
		cause = ErrBackendDown
	}
	c.markDead(b, cause)
	return nil
}

// markDead drops a backend after an execution failure and fails its
// outstanding write acknowledgements.
func (c *Controller) markDead(b *backend, cause error) {
	if b.state == Dead {
		return
	}
	b.state = Dead
	// Evict from the read pool first so retries (and any sticky affinity
	// downstream) can never route back to the dead backend.
	c.pool.Discard(b.name)
	c.drop(b)
	c.Trace.Emit("membership.dead", c.name,
		trace.F("backend", b.name), trace.F("cause", cause.Error()), trace.Fi("backends", len(c.backends)))
	// Fail outstanding acknowledgements in log order: their completion
	// callbacks re-enter the simulation, so iteration order must be
	// deterministic.
	idxs := make([]int64, 0, len(c.waiters))
	for idx := range c.waiters {
		idxs = append(idxs, idx)
	}
	sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
	for _, idx := range idxs {
		w := c.waiters[idx]
		if w.waitingOn[b.name] {
			delete(w.waitingOn, b.name)
			if w.firstErr == nil {
				w.firstErr = cause
			}
			c.maybeFinishWrite(idx, w)
		}
	}
	if b.onSynced != nil {
		b.onSynced(fmt.Errorf("cjdbc: backend %s died during sync: %w", b.name, cause))
		b.onSynced = nil
	}
	if b.onLeft != nil {
		// A draining backend that dies still yields its last index.
		c.log.SetCheckpoint(b.name, b.applied)
		b.onLeft(b.applied)
		b.onLeft = nil
	}
}

// pump drives a backend's apply loop: execute the next owed log record,
// then reconsider state transitions.
func (c *Controller) pump(b *backend) {
	if b.busy || b.state == Dead {
		return
	}
	limit := c.log.Len()
	if b.stopAt >= 0 && b.stopAt < limit {
		limit = b.stopAt
	}
	if b.applied >= limit {
		// Caught up.
		switch {
		case b.state == Syncing:
			b.state = Active
			if err := c.pool.Add(b.name, 1); err != nil {
				// Unreachable if state bookkeeping is right (the pool holds
				// exactly the Active backends), but never let it wedge a sync.
				c.pool.Discard(b.name)
				_ = c.pool.Add(b.name, 1)
			}
			c.Trace.Emit("membership.active", c.name,
				trace.F("backend", b.name), trace.Fi("applied", int(b.applied)))
			if b.onSynced != nil {
				fn := b.onSynced
				b.onSynced = nil
				fn(nil)
			}
		case b.stopAt >= 0 && b.applied >= b.stopAt:
			c.finishLeave(b)
		}
		return
	}
	rec, ok := c.log.At(b.applied)
	if !ok {
		return
	}
	b.busy = true
	// Only applies the client is still waiting on keep the query's trace
	// span: a syncing or draining backend replays the log after the write
	// already completed, and a child span closing after its parent would
	// break span-tree well-formedness (and misattribute latency).
	q := rec.Query
	if w, ok := c.waiters[rec.Index]; ok && w.waitingOn[b.name] {
		q.Stmt = w.stmt
	} else {
		q.TraceSpan = 0
	}
	b.apply = applyReply{c: c, b: b, idx: rec.Index}
	c.net.ForwardSQL(c.node.Name(), "sql", b.srv, q, &b.apply)
}

// ack records that a backend applied the write at idx.
func (c *Controller) ack(idx int64, b *backend) {
	w, ok := c.waiters[idx]
	if !ok || !w.waitingOn[b.name] {
		return
	}
	delete(w.waitingOn, b.name)
	w.successes++
	c.maybeFinishWrite(idx, w)
}

func (c *Controller) maybeFinishWrite(idx int64, w *writeWait) {
	if len(w.waitingOn) > 0 {
		return
	}
	delete(c.waiters, idx)
	done, successes, err := w.done, w.successes, w.firstErr
	c.putWait(w)
	if successes == 0 {
		c.failures++
		if err == nil {
			err = ErrNoBackend
		}
		done.Reply(fmt.Errorf("cjdbc %s: write lost on all backends: %w", c.name, err))
		return
	}
	done.Reply(nil)
}

// putWait puts a finished write's record back, keeping its map: every
// acknowledgement has been deleted from it, so it is empty and pins
// nothing.
func (c *Controller) putWait(w *writeWait) {
	m := w.waitingOn
	c.waits.Put(w)
	w.waitingOn = m
}

// appendActive appends the backends eligible for reads to dst.
func (c *Controller) appendActive(dst []*backend) []*backend {
	for _, b := range c.backends {
		if b.state == Active {
			dst = append(dst, b)
		}
	}
	return dst
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
	b := c.lookup(name)
	if b == nil || b.state != Active {
		return nil
	}
	return b
}

// ExecSQL implements the virtual database: writes are logged and
// broadcast to every backend currently applying the log; reads go to one
// active backend chosen by policy, with one retry on backend failure.
func (c *Controller) ExecSQL(q legacy.Query, done netsim.Reply) {
	if !c.running {
		c.Obs.Drop()
		c.failures++
		done.Reply(fmt.Errorf("%w: %s", ErrNotRunning, c.name))
		return
	}
	r := c.requests.Get()
	r.c, r.q, r.done = c, q, done
	// Classify and parse here, once: every backend the query reaches
	// executes the parsed form. A query that arrives prepared or parsed is
	// taken as it is; SQL that does not parse travels as text, and the
	// backend that receives it reports the error.
	r.write = q.IsWrite()
	if r.write && q.Prepared != nil {
		// A write goes the text path whatever form it arrived in: the
		// recovery log is a log of strings, and replay parses them (§4.1).
		r.q.SQL, _ = q.Text()
		r.q.Prepared = nil
	}
	if r.write && r.q.SQL == "" {
		c.Obs.Drop()
		c.failures++
		done.Reply(fmt.Errorf("cjdbc %s: a write without its SQL text cannot be logged", c.name))
		return
	}
	if r.q.Prepared == nil && r.q.Stmt == nil {
		r.q.Stmt, _ = sqlengine.Parse(r.q.SQL)
	}
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
		c.execWrite(r.q, r)
		return
	}
	r.attempts = len(c.backends) + 1
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

func (c *Controller) execWrite(q legacy.Query, done netsim.Reply) {
	// The ack set is every backend that will apply this record: actives
	// (client completion waits on them) — syncing and draining backends
	// apply it through their own pumps without gating the client.
	c.actives = c.appendActive(c.actives[:0])
	actives := c.actives
	if len(actives) == 0 {
		c.failures++
		done.Reply(fmt.Errorf("%w: cannot write through %s", ErrNoBackend, c.name))
		return
	}
	idx := c.log.Append(q)
	c.writes++
	if q.TraceSpan != 0 {
		c.Trace.EmitIn(q.TraceSpan, "sql.write", c.name,
			trace.Fi("log-index", int(idx)), trace.Fi("acks", len(actives)))
	}
	w := c.waits.Get()
	if w.waitingOn == nil {
		w.waitingOn = make(map[string]bool, len(actives))
	}
	w.stmt, w.done = q.Stmt, done
	for _, b := range actives {
		w.waitingOn[b.name] = true
	}
	c.waiters[idx] = w
	// Wake every backend that may now have work (actives and syncers).
	for _, b := range c.backends {
		c.pump(b)
	}
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

// Reply takes the answer to the statement: the broadcast's for a write,
// which is the caller's; the backend's for a read. A backend that failed
// (its server or its node is down, the call did not get through) is
// marked dead and the read goes to another while attempts remain; a
// backend that answered that the statement is wrong stays, and its answer
// is the caller's.
func (r *request) Reply(err error) {
	if r.write {
		r.finish(err)
		return
	}
	c, b := r.c, r.backend
	failed := false
	if err != nil {
		var rejected *legacy.StatementError
		failed = !errors.As(err, &rejected)
	}
	// Release feeds the latency/failure reservoirs before markDead
	// evicts the entry, so the failure is recorded against the backend.
	c.pool.Release(b.name, c.eng.Now()-r.sent, failed)
	if failed {
		c.markDead(b, err)
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
	out := make([]BackendInfo, 0, len(c.backends))
	for _, b := range c.backends {
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
func (c *Controller) ActiveCount() int { return len(c.appendActive(nil)) }

// SnapshotFrom copies the database state of an Active backend together
// with the recovery-log index it corresponds to. Installing this snapshot
// on a fresh replica and calling JoinAt with the returned index brings it
// into the cluster consistently.
func (c *Controller) SnapshotFrom(name string) (*sqlengine.Engine, int64, error) {
	b := c.lookup(name)
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
	actives := c.appendActive(nil)
	if len(actives) == 0 {
		return nil, 0, ErrNoBackend
	}
	best := actives[0]
	for _, b := range actives[1:] {
		if b.name < best.name {
			best = b
		}
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
	seen := false
	for _, b := range c.appendActive(nil) {
		fp := b.srv.DB().Fingerprint()
		rep.Fingerprints[b.name] = fp
		rep.Applied[b.name] = b.applied
		if !seen {
			first = fp
			seen = true
		} else if fp != first {
			rep.Consistent = false
		}
	}
	return rep
}
