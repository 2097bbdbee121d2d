// Package netsim is a deterministic simulated network layered on the
// virtual clock of internal/sim. The paper's testbed runs every
// inter-tier call and heartbeat over a real 100 Mbps LAN; netsim gives
// the reproduction the same property in simulation: messages take time,
// jitter, get lost, and can be cut off by injectable partitions, so the
// autonomic managers above are exercised against suspicion and timeout
// dynamics instead of a perfect oracle.
//
// The Fabric carries two kinds of traffic:
//
//   - Send: one-way datagrams (heartbeats). Lost or partitioned
//     messages silently disappear.
//   - Call: tier RPCs with a per-tier budget of timeout, retries and
//     backoff. The request and the response each traverse the network;
//     when every attempt times out the call is abandoned with
//     ErrRPCTimeout instead of hanging forever.
//
// A call lives in one record (RPC), which its caller owns (Start) or Call
// allocates, and which holds the first attempt; a retry allocates its own
// (rpcAttempt). Every event of an attempt is the attempt record itself.
// An attempt starts its own timer, then sends the request; each reply the
// callee gives crosses the network as a message of its own.
// Exactly two things may settle a call, whichever comes first: a reply
// arriving, from any attempt, or the last attempt's timer when the budget
// is spent. A reply that settles the call cancels the timer of the attempt
// it answers and no other: when it answers a superseded attempt, whose
// timer has already fired, the live attempt's timer still fires later and
// finds the call settled. Replies and timers that find the call settled do
// nothing, but they read the record. A settled call schedules no further
// attempt.
//
// So a record may be reused only once nothing of its call can read it.
// The record counts what still can: an attempt's timer while it is
// scheduled, a request in flight, an attempt its callee holds (from the
// request's delivery until the callee's Reply), a reply in flight, and a
// scheduled backoff. When the call is settled and the count is zero, the
// fabric hands the record back, once, to a callee that implements
// Releaser; the callee then answers each attempt delivered to it exactly
// once. Any other record (Call's, or Start's with a callee that does not
// implement Releaser) is never handed back, and a callee that never
// answers only leaves its record to the collector.
//
// An attempt's timer is scheduled on the engine's fixed-delay lane for its
// budget's timeout (sim.Engine.Lane), and so is a message on a link
// without jitter, on the lane for the link's latency: both fire exactly
// when the heap would have fired them, but cost no heap operation, which
// matters because nearly every timer is canceled by its reply
// milliseconds later. A jittered message goes on the heap.
//
// Endpoints are plain node names ("node3"); the pseudo-endpoints
// "client" and "jade" stand for the load injectors and the management
// node. All randomness comes from the Fabric's own seeded source, so a
// run is byte-identical given the same seed even with loss enabled.
package netsim

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"jade/internal/obs"
	"jade/internal/sim"
	"jade/internal/trace"
)

// ErrRPCTimeout is the final outcome of a Call whose every attempt timed
// out; callers account it as an error instead of hanging.
var ErrRPCTimeout = errors.New("netsim: rpc timed out")

// Well-known pseudo-endpoints.
const (
	// ClientEndpoint is the network name of the load injectors.
	ClientEndpoint = "client"
	// ManagementEndpoint is the network name of the management node that
	// hosts the failure detector (heartbeat sink).
	ManagementEndpoint = "jade"
)

// Link is the quality of one directed link (or of the whole fabric when
// used as the default). A zero LatencyMS falls back to a LAN-like 0.3 ms
// on the default link, and to the default link's latency on a per-link
// override.
type Link struct {
	// LatencyMS is the one-way delivery latency in milliseconds.
	LatencyMS float64 `json:"latency_ms,omitempty"`
	// JitterMS adds a uniform [0, JitterMS) milliseconds to each message.
	JitterMS float64 `json:"jitter_ms,omitempty"`
	// Loss is the probability in [0,1) that a message disappears.
	Loss float64 `json:"loss,omitempty"`
}

// RPCBudget bounds one tier's RPC attempts.
type RPCBudget struct {
	// TimeoutSeconds is the per-attempt patience (default 30 s).
	TimeoutSeconds float64 `json:"timeout_seconds,omitempty"`
	// Attempts is the total number of tries (default 3).
	Attempts int `json:"attempts,omitempty"`
	// BackoffSeconds is the pause before the first retry, doubling each
	// further retry (default 2 s).
	BackoffSeconds float64 `json:"backoff_seconds,omitempty"`
}

// Config configures the simulated network. The zero value is a disabled
// fabric (calls stay direct and instantaneous, the pre-netsim behavior).
type Config struct {
	// Enabled turns the fabric on.
	Enabled bool `json:"enabled,omitempty"`
	// Default is the link quality used when no per-link rule matches.
	Default Link `json:"default,omitempty"`
	// Links overrides link quality per directed pair, keyed "from->to".
	Links map[string]Link `json:"links,omitempty"`
	// RPC holds per-tier budgets keyed by tier class ("front", "web",
	// "app", "sql"); missing tiers use the budget defaults.
	RPC map[string]RPCBudget `json:"rpc,omitempty"`
	// Heartbeat configures the suspicion detector fed by this fabric.
	Heartbeat HeartbeatConfig `json:"heartbeat,omitempty"`
	// Seed offsets the fabric's private random source so network noise
	// can be varied independently of the workload (default 0: derived
	// from the scenario seed alone).
	Seed int64 `json:"seed,omitempty"`
}

// Stats are the fabric's cumulative message counters.
type Stats struct {
	Messages         uint64 `json:"messages"`
	Delivered        uint64 `json:"delivered"`
	DroppedLoss      uint64 `json:"dropped_loss"`
	DroppedPartition uint64 `json:"dropped_partition"`
	Retransmits      uint64 `json:"retransmits"`
	RPCs             uint64 `json:"rpcs"`
	Abandoned        uint64 `json:"abandoned"`
	Partitions       uint64 `json:"partitions"`
}

// partition is one active two-sided cut: messages between a member of a
// and a member of b are dropped. An empty b means "everyone else".
type partition struct {
	id   int
	a, b map[string]bool
}

func (p *partition) blocks(from, to string) bool {
	if len(p.b) == 0 {
		return p.a[from] != p.a[to]
	}
	return (p.a[from] && p.b[to]) || (p.a[to] && p.b[from])
}

// Fabric is the simulated network. A nil *Fabric is valid and inert:
// Send delivers immediately and Call runs the attempt directly, so call
// sites need no guards.
type Fabric struct {
	eng   *sim.Engine
	cfg   Config
	rng   *rand.Rand
	stats Stats

	parts  []*partition
	nextID int

	// def is cfg.Default with its latency resolved, and links is cfg.Links
	// resolved once against it, keyed by the directed endpoint pair, so
	// the per-message lookup builds no "from->to" string.
	def   Link
	links map[[2]string]Link
	// kinds interns the strings derived from a message kind, so the
	// per-message path does not concatenate. It grows to the callers'
	// vocabulary of kinds: in a run, the tier classes, their replies and
	// "heartbeat".
	kinds map[string]kindNames

	tr *trace.Tracer

	mMessages    *obs.Counter
	mDelivered   *obs.Counter
	mDropLoss    *obs.Counter
	mDropPart    *obs.Counter
	mRetransmits *obs.Counter
	mAbandoned   *obs.Counter
	gPartitions  *obs.Gauge
}

// New builds a fabric over the engine. seed is mixed with cfg.Seed so the
// fabric draws from its own stream, decoupled from workload randomness.
func New(eng *sim.Engine, cfg Config, seed int64) *Fabric {
	f := &Fabric{
		eng:   eng,
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(seed ^ cfg.Seed ^ 0x6e657473696d)), // "netsim"
		def:   cfg.Default,
		links: make(map[[2]string]Link, len(cfg.Links)),
		kinds: make(map[string]kindNames),
	}
	if f.def.LatencyMS == 0 {
		f.def.LatencyMS = 0.3 // switched 100 Mbps LAN one-way latency
	}
	for key, l := range cfg.Links {
		if l.LatencyMS == 0 {
			l.LatencyMS = f.def.LatencyMS
		}
		// A key without "->" never matched any pair; Spec validation
		// rejects it before it gets here.
		if from, to, ok := strings.Cut(key, "->"); ok {
			f.links[[2]string{from, to}] = l
		}
	}
	return f
}

// Instrument attaches the tracer and registers the fabric's metrics. Both
// arguments may be nil.
func (f *Fabric) Instrument(tr *trace.Tracer, reg *obs.Registry) {
	if f == nil {
		return
	}
	f.tr = tr
	if reg == nil {
		return
	}
	f.mMessages = reg.Counter("jade_net_messages_total", "Messages offered to the simulated network.")
	f.mDelivered = reg.Counter("jade_net_delivered_total", "Messages delivered by the simulated network.")
	f.mDropLoss = reg.Counter("jade_net_dropped_total", "Messages dropped by the simulated network.", obs.L("reason", "loss"))
	f.mDropPart = reg.Counter("jade_net_dropped_total", "Messages dropped by the simulated network.", obs.L("reason", "partition"))
	f.mRetransmits = reg.Counter("jade_net_retransmits_total", "RPC attempts retried after a timeout.")
	f.mAbandoned = reg.Counter("jade_net_rpc_abandoned_total", "RPCs abandoned after exhausting their retry budget.")
	f.gPartitions = reg.Gauge("jade_net_partitions_active", "Network partitions currently in force.")
}

// Enabled reports whether the fabric intercepts traffic (false for nil).
func (f *Fabric) Enabled() bool { return f != nil && f.cfg.Enabled }

// Stats returns a copy of the cumulative counters (zero for nil).
func (f *Fabric) Stats() Stats {
	if f == nil {
		return Stats{}
	}
	return f.stats
}

// link resolves the quality of the from->to link.
func (f *Fabric) link(from, to string) Link {
	if l, ok := f.links[[2]string{from, to}]; ok {
		return l
	}
	return f.def
}

// budget resolves the RPC budget of a tier class.
func (f *Fabric) budget(tier string) RPCBudget {
	var b RPCBudget
	if f.cfg.RPC != nil {
		b = f.cfg.RPC[tier]
	}
	if b.TimeoutSeconds <= 0 {
		b.TimeoutSeconds = 30
	}
	if b.Attempts <= 0 {
		b.Attempts = 3
	}
	if b.BackoffSeconds <= 0 {
		b.BackoffSeconds = 2
	}
	return b
}

// Partitioned reports whether an active partition separates from and to.
func (f *Fabric) Partitioned(from, to string) bool {
	if f == nil {
		return false
	}
	for _, p := range f.parts {
		if p.blocks(from, to) {
			return true
		}
	}
	return false
}

func toSet(names []string) map[string]bool {
	s := make(map[string]bool, len(names))
	for _, n := range names {
		s[n] = true
	}
	return s
}

// Partition installs a two-sided cut between the a-side and the b-side
// endpoints (b empty: a is cut off from everyone else) and returns an id
// for Heal. The cut is symmetric and takes effect immediately.
func (f *Fabric) Partition(a, b []string) int {
	f.nextID++
	p := &partition{id: f.nextID, a: toSet(a), b: toSet(b)}
	f.parts = append(f.parts, p)
	f.stats.Partitions++
	f.gPartitions.Set(float64(len(f.parts)))
	f.tr.Emit("net", "net.partition",
		trace.F("a", joinNames(a)), trace.F("b", joinNames(b)), trace.Fi("id", p.id))
	return p.id
}

// Heal removes the identified partition (no-op when already healed).
func (f *Fabric) Heal(id int) {
	for i, p := range f.parts {
		if p.id == id {
			f.parts = append(f.parts[:i], f.parts[i+1:]...)
			f.gPartitions.Set(float64(len(f.parts)))
			f.tr.Emit("net", "net.heal", trace.Fi("id", id))
			return
		}
	}
}

// HealAll removes every active partition.
func (f *Fabric) HealAll() {
	for len(f.parts) > 0 {
		f.Heal(f.parts[0].id)
	}
}

func joinNames(names []string) string {
	sorted := append([]string(nil), names...)
	sort.Strings(sorted)
	out := ""
	for i, n := range sorted {
		if i > 0 {
			out += ","
		}
		out += n
	}
	return out
}

// Send offers a one-way message and schedules deliver at arrival time.
// It reports whether the message survived (for tests; senders of
// datagrams cannot observe the loss). A disabled fabric delivers
// immediately.
func (f *Fabric) Send(from, to, kind string, deliver func()) bool {
	return f.send(from, to, kind, sim.Func(deliver))
}

// send is Send for a handler, which the fabric's own records schedule
// without allocating.
func (f *Fabric) send(from, to, kind string, deliver sim.Handler) bool {
	if !f.Enabled() {
		deliver.Fire()
		return true
	}
	f.stats.Messages++
	f.mMessages.Inc()
	if f.Partitioned(from, to) {
		f.stats.DroppedPartition++
		f.mDropPart.Inc()
		return false
	}
	l := f.link(from, to)
	// The loss draw happens for every non-partitioned message so the
	// random stream advances identically whether or not this message is
	// lost.
	if lost := f.rng.Float64() < l.Loss; lost {
		f.stats.DroppedLoss++
		f.mDropLoss.Inc()
		f.tr.Emit("net", "net.drop",
			trace.F("from", from), trace.F("to", to), trace.F("msg", kind))
		return false
	}
	delay := l.LatencyMS / 1000
	f.stats.Delivered++
	f.mDelivered.Inc()
	if l.JitterMS > 0 {
		delay += f.rng.Float64() * l.JitterMS / 1000
		f.eng.Schedule(f.eng.Now()+delay, f.names(kind).label, deliver)
	} else {
		f.eng.Lane(delay).Schedule(f.names(kind).label, deliver)
	}
	return true
}

// kindNames are the strings derived from a message kind: the engine label
// of its delivery event and, when the kind is a tier's RPC request, the
// kind of the responses.
type kindNames struct{ label, reply string }

func (f *Fabric) names(kind string) kindNames {
	n, ok := f.kinds[kind]
	if !ok {
		n = kindNames{label: "net:" + kind, reply: kind + ".reply"}
		f.kinds[kind] = n
	}
	return n
}

// Callee is the far end of an RPC: Attempt runs each time a request
// message arrives and answers through reply.
type Callee interface {
	Attempt(reply Reply)
}

// Releaser is a Callee that takes its call's record back: Release runs
// once, when the call is settled and nothing of it can read the record
// (see the package comment), typically to put the record on a free list.
// A Releaser answers each attempt delivered to it exactly once; a second
// answer to one attempt panics while the record is live.
type Releaser interface {
	Release()
}

// Reply is where an answer goes: the caller's own per-request record, so
// answering allocates nothing. An attempt of a call is the Reply its
// callee is handed.
type Reply interface {
	Reply(err error)
}

// ReplyFunc adapts a function to Reply.
type ReplyFunc func(err error)

func (fn ReplyFunc) Reply(err error) { fn(err) }

// attemptFunc adapts Call's attempt function to Callee. A disabled fabric
// hands back Call's own done, which goes through as it came; binding its
// Reply method would cost a direct call an object.
type attemptFunc func(reply func(error))

func (fn attemptFunc) Attempt(reply Reply) {
	if rf, ok := reply.(ReplyFunc); ok {
		fn(rf)
		return
	}
	fn(reply.Reply)
}

// Call performs one tier RPC from->to. attempt runs on the callee side
// each time a request message arrives (so a retried call may execute
// more than once — at-least-once semantics, like a real stateless HTTP
// retry); reply carries the result back across the network. done fires
// exactly once: with the first response to arrive, or with ErrRPCTimeout
// once the budget for tier is exhausted. A disabled fabric runs attempt
// directly with done as its reply. Call is Start over a record of its own.
func (f *Fabric) Call(from, to, tier string, attempt func(reply func(error)), done func(error)) {
	f.Start(new(RPC), from, to, tier, attemptFunc(attempt), ReplyFunc(done))
}

// Start is Call over a record the caller owns, typically embedded in its
// own per-call record. Events of the call may fire after done, so c stays
// the call's until nothing of it can read c any more: the record counts
// its pending timers, messages in flight, attempts its callee holds and
// backoffs, and when the call is settled and the count is zero it hands c
// back through callee's Release, if callee is a Releaser, which must then
// answer each attempt delivered to it exactly once. Without a Releaser, c
// is never reused. A disabled fabric runs callee.Attempt directly with
// done as its reply, leaves c untouched and never releases it.
func (f *Fabric) Start(c *RPC, from, to, tier string, callee Callee, done Reply) {
	if !f.Enabled() {
		callee.Attempt(done)
		return
	}
	f.stats.RPCs++
	rel, _ := callee.(Releaser)
	*c = RPC{f: f, from: from, to: to, tier: tier, budget: f.budget(tier), callee: callee, release: rel, done: done}
	c.try(0)
}

// RPC is the record of one call: what was asked, the budget resolved when
// it was issued, whether done has fired, how many of its events and held
// attempts can still read it, and its first attempt. The zero value is
// ready for Start.
type RPC struct {
	f              *Fabric
	from, to, tier string
	budget         RPCBudget
	callee         Callee
	release        Releaser // callee, when it takes the record back
	done           Reply
	settled        bool
	refs           int
	first          rpcAttempt
}

// drop uncounts one thing that could read the record, and hands the
// record back when the call is settled and nothing can read it any more.
// Nothing may touch the record after it.
func (c *RPC) drop() {
	c.refs--
	if c.refs == 0 && c.settled && c.release != nil {
		c.release.Release()
	}
}

// rpcAttempt is one try of an RPC: its number, its own timer, and the
// error of its first reply while that reply crosses the network. It is
// the Reply its callee is handed.
type rpcAttempt struct {
	c       *RPC
	n       int
	timeout sim.Handle
	replied bool
	err     error
}

// The events of an attempt are the attempt itself under four pointer
// types, so scheduling one allocates nothing.
type (
	attemptTimeout rpcAttempt
	attemptRequest rpcAttempt
	attemptReply   rpcAttempt
	attemptBackoff rpcAttempt
)

func (a *attemptTimeout) Fire() { (*rpcAttempt)(a).timedOut() }
func (a *attemptRequest) Fire() { (*rpcAttempt)(a).deliver() }
func (a *attemptReply) Fire()   { (*rpcAttempt)(a).replyArrived() }
func (a *attemptBackoff) Fire() { (*rpcAttempt)(a).retry() }

// try starts attempt n: the timer first, then the request message, each
// counted while it is pending. The first attempt lives in the record; a
// retry allocates its own, which its call's count covers too.
func (c *RPC) try(n int) {
	if c.settled {
		return
	}
	f := c.f
	a := &c.first
	if n > 0 {
		f.stats.Retransmits++
		f.mRetransmits.Inc()
		f.tr.Emit("net", "net.retransmit",
			trace.F("from", c.from), trace.F("to", c.to), trace.F("tier", c.tier), trace.Fi("attempt", n))
		a = new(rpcAttempt)
	}
	a.c, a.n = c, n
	a.timeout = f.eng.Lane(c.budget.TimeoutSeconds).Schedule("net:rpc-timeout", (*attemptTimeout)(a))
	c.refs++
	if f.send(c.from, c.to, c.tier, (*attemptRequest)(a)) {
		c.refs++
	}
}

// settle fires done with the outcome of attempt a unless the call is
// already settled. Only a's own timer is canceled, and uncounted if it was
// still pending: a late reply from a superseded attempt leaves the live
// attempt's timer to fire as a no-op. settle never hands the record back:
// the reply that settled the call is uncounted after it.
func (c *RPC) settle(a *rpcAttempt, err error) {
	if c.settled {
		return
	}
	c.settled = true
	if a.timeout.Pending() {
		c.f.eng.Cancel(a.timeout)
		c.refs--
	}
	c.done.Reply(err)
}

// deliver hands the attempt to the callee; the request's count passes to
// the attempt the callee now holds.
func (a *rpcAttempt) deliver() { a.c.callee.Attempt(a) }

// Reply sends the callee's result back; the response crosses the network
// too, and one that arrives after the call settled is discarded. The
// held attempt's count passes to the response, or is dropped with it when
// the response is lost. The first reply's error rides in the attempt
// record; a callee that replies again, outside Releaser's contract, gets
// an uncounted message of its own, so neither error overwrites the other.
func (a *rpcAttempt) Reply(err error) {
	c := a.c
	if a.replied {
		if c.release != nil {
			panic(fmt.Sprintf("netsim: %s call %s->%s answered twice by a Releaser", c.tier, c.from, c.to))
		}
		c.f.send(c.to, c.from, c.f.names(c.tier).reply, sim.Func(func() { c.settle(a, err) }))
		return
	}
	a.replied, a.err = true, err
	if !c.f.send(c.to, c.from, c.f.names(c.tier).reply, (*attemptReply)(a)) {
		c.drop()
	}
}

func (a *rpcAttempt) replyArrived() {
	c := a.c
	c.settle(a, a.err)
	c.drop()
}

// timedOut backs off into the next attempt, passing the timer's count to
// the backoff, or abandons the call when the budget is spent.
func (a *rpcAttempt) timedOut() {
	c := a.c
	if c.settled {
		c.drop()
		return
	}
	f := c.f
	if a.n+1 < c.budget.Attempts {
		// The conversion rounds the product, so no architecture fuses it
		// with the sum into one multiply-add: the instant is the same
		// everywhere.
		backoff := float64(c.budget.BackoffSeconds * float64(int(1)<<a.n))
		f.eng.Schedule(f.eng.Now()+backoff, "net:rpc-backoff", (*attemptBackoff)(a))
		return
	}
	c.settled = true
	f.stats.Abandoned++
	f.mAbandoned.Inc()
	f.tr.Emit("net", "net.abandon",
		trace.F("from", c.from), trace.F("to", c.to), trace.F("tier", c.tier), trace.Fi("attempts", a.n+1))
	c.done.Reply(fmt.Errorf("%w: %s %s->%s after %d attempts", ErrRPCTimeout, c.tier, c.from, c.to, a.n+1))
	c.drop()
}

func (a *rpcAttempt) retry() {
	c := a.c
	c.try(a.n + 1)
	c.drop()
}
