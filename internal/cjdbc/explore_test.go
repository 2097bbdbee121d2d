package cjdbc

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"
)

// The small-scope explorer drives the write protocol through a model of
// its world: three backend servers, each modelled as the log indices it
// executed, and a transport that retries an attempt whose timer fires
// before its reply arrives, as netsim does. It enumerates every reachable
// interleaving of at most xWrites client writes with at most xFaults
// faults: a request or reply delayed past its attempt's timeout, a request
// dropped, a reply dropped, a reply duplicated, a backend server crash, a
// snapshot of an Active backend joined as the third backend, a Leave. The
// walk is breadth first and skips states already seen, so the schedule it
// reports for an anomaly is a shortest one. Whenever nothing is in flight
// it checks that
//   - every index was executed at most once per backend;
//   - every Active backend holds exactly the log's prefix;
//   - no live backend is Dead;
//   - every client write was answered exactly once.

const (
	xWrites   = 3
	xFaults   = 2
	xAttempts = 2 // tries per call, as a netsim RPC budget
)

// xServer is a backend server: whether it runs, and the log indices it
// executed, sorted.
type xServer struct {
	up  bool
	ran []int64
}

// xMsg is a message in flight to or from backend to: attempt n's request
// to apply record idx, or its reply (failed when the server was down).
type xMsg struct {
	to     int
	idx    int64
	n      int
	reply  bool
	failed bool
}

func (m xMsg) String() string {
	what := "request"
	if m.reply {
		what = "reply"
	}
	return fmt.Sprintf("b%d %s %d#%d", m.to+1, what, m.idx, m.n)
}

// xCall is the apply in flight to a backend: the record, the current
// attempt, and whether that attempt's timer is still set.
type xCall struct {
	to    int
	idx   int64
	n     int
	timer bool
}

// The protocol's member handle is the backend's number, its write record
// the client write's.
type xMember = member[int, int]

// world is the protocol's driver in the model, and its fake effect sink.
type world struct {
	p        protocol[int, int]
	servers  [3]xServer
	calls    []xCall
	net      []xMsg
	writes   int // client writes issued
	answers  [xWrites]int
	dead     [3]bool // backends the protocol declared Dead
	faults   int
	snapshot bool // b3 joined from a snapshot
	ahead    bool // ... which held an index at or past the one it was paired with
	last     *step
}

// A step is one action of a schedule, linked to the one before it.
type step struct {
	prev *step
	a    xAct
}

func (w *world) send(m *xMember, _ int) {
	w.calls = append(w.calls, xCall{to: m.srv, idx: m.applied, timer: true})
	w.net = append(w.net, xMsg{to: m.srv, idx: m.applied})
}
func (w *world) answer(id int, _ error)   { w.answers[id]++ }
func (w *world) activate(*xMember)        {}
func (w *world) evict(*xMember)           {}
func (w *world) checkpoint(*xMember)      {}
func (w *world) joined(*xMember)          {}
func (w *world) left(*xMember)            {}
func (w *world) died(m *xMember, _ error) { w.dead[m.srv] = true }

// newWorld starts the model: b1 and b2 Active on an empty log, b3 a spare
// server.
func newWorld() *world {
	w := &world{}
	w.p.fx = w
	for i := range w.servers {
		w.servers[i].up = true
	}
	w.p.join("b1", 0, nil, 0)
	w.p.join("b2", 0, nil, 1)
	return w
}

func (w *world) clone() *world {
	c := *w
	c.p.fx = &c
	c.p.members, c.p.pending = make([]*xMember, len(w.p.members)), slices.Clone(w.p.pending)
	for i, m := range w.p.members {
		cm := *m
		cm.p = &c.p
		c.p.members[i] = &cm
	}
	for i := range c.servers {
		c.servers[i].ran = slices.Clone(w.servers[i].ran)
	}
	c.calls, c.net = slices.Clone(w.calls), slices.Clone(w.net)
	return &c
}

func (w *world) call(b int) int {
	return slices.IndexFunc(w.calls, func(c xCall) bool { return c.to == b })
}

func (w *world) member(b int) *xMember {
	return w.p.members[slices.IndexFunc(w.p.members, func(m *xMember) bool { return m.srv == b })]
}

// The kinds of action.
const (
	aWrite = iota
	aDeliver
	aDrop
	aDuplicate
	aTimeout
	aCrash
	aLeave
	aJoin
)

// xAct is one action: msg (at position k of the network) for the message
// actions, backend b for the others.
type xAct struct {
	kind  int
	msg   xMsg
	k, b  int
	fault bool
}

func (a xAct) String() string {
	b := fmt.Sprintf("b%d", a.b+1)
	switch a.kind {
	case aWrite:
		return "write"
	case aDeliver, aDrop, aDuplicate:
		return [...]string{aDeliver: "deliver ", aDrop: "drop ", aDuplicate: "duplicate "}[a.kind] + a.msg.String()
	case aTimeout:
		return fmt.Sprintf("timeout %s#%d", b, a.msg.n)
	case aCrash:
		return "crash " + b
	case aLeave:
		return "leave " + b
	}
	return "join b3 from a snapshot of " + b
}

// actions appends what can happen next to dst, in a fixed order.
func (w *world) actions(dst []xAct) []xAct {
	if w.writes < xWrites {
		dst = append(dst, xAct{kind: aWrite})
	}
	for k, m := range w.net {
		dst = append(dst, xAct{kind: aDeliver, msg: m, k: k}, xAct{kind: aDrop, msg: m, k: k, fault: true})
		if m.reply {
			dst = append(dst, xAct{kind: aDuplicate, msg: m, k: k, fault: true})
		}
	}
	for _, c := range w.calls {
		if c.timer {
			// The timer firing while the attempt's request or reply is
			// still in flight is a delay; once both are lost, their
			// consequence.
			late := slices.ContainsFunc(w.net, func(m xMsg) bool { return m.to == c.to && m.idx == c.idx && m.n == c.n })
			dst = append(dst, xAct{kind: aTimeout, msg: xMsg{n: c.n}, b: c.to, fault: late})
		}
	}
	for _, m := range w.p.members {
		if w.servers[m.srv].up {
			dst = append(dst, xAct{kind: aCrash, b: m.srv, fault: true})
		}
		if m.state == Active {
			dst = append(dst, xAct{kind: aLeave, b: m.srv, fault: true})
			if !w.snapshot {
				dst = append(dst, xAct{kind: aJoin, b: m.srv, fault: true})
			}
		}
	}
	return dst
}

func (w *world) apply(a xAct) {
	if a.fault {
		w.faults++
	}
	w.last = &step{prev: w.last, a: a}
	switch a.kind {
	case aWrite:
		w.write()
	case aDeliver:
		w.deliver(a.k)
	case aDrop:
		w.net = slices.Delete(w.net, a.k, a.k+1)
	case aDuplicate:
		w.net = slices.Insert(w.net, a.k, a.msg)
	case aTimeout:
		w.timeout(a.b)
	case aCrash:
		w.servers[a.b].up = false
	case aLeave:
		w.p.leave(w.member(a.b), nil)
	case aJoin:
		w.join(a.b)
	}
	// A reply to a call that has settled is a no-op wherever it goes.
	w.net = slices.DeleteFunc(w.net, func(m xMsg) bool {
		k := w.call(m.to)
		return m.reply && (k < 0 || w.calls[k].idx != m.idx)
	})
}

// write is a client write through the controller: refused when no
// backend is Active, logged and broadcast otherwise.
func (w *world) write() {
	id := w.writes
	w.writes++
	if !slices.ContainsFunc(w.p.members, func(m *xMember) bool { return m.state == Active }) {
		w.answers[id]++
		return
	}
	w.p.write(id)
}

// deliver hands message k over: a request runs on its server, which
// replies; a reply settles its call.
func (w *world) deliver(k int) {
	m := w.net[k]
	w.net = slices.Delete(w.net, k, k+1)
	if m.reply {
		var err error
		if m.failed {
			err = errors.New("server down")
		}
		w.settle(m.to, err)
		return
	}
	s := &w.servers[m.to]
	if s.up {
		i, _ := slices.BinarySearch(s.ran, m.idx)
		s.ran = slices.Insert(s.ran, i, m.idx)
	}
	m.reply, m.failed = true, !s.up
	w.net = append(w.net, m)
}

// timeout fires the current attempt's timer: the call retries, or is
// abandoned once its attempts are spent.
func (w *world) timeout(b int) {
	c := &w.calls[w.call(b)]
	c.timer = false
	if c.n+1 < xAttempts {
		c.n++
		c.timer = true
		w.net = append(w.net, xMsg{to: b, idx: c.idx, n: c.n})
		return
	}
	w.settle(b, errors.New("rpc timeout"))
}

// settle ends backend b's call and hands its outcome to the protocol.
func (w *world) settle(b int, err error) {
	w.calls = slices.Delete(w.calls, w.call(b), w.call(b)+1)
	w.member(b).Reply(err)
}

// join snapshots Active backend b as SnapshotFrom does, its server's state
// now with the index the protocol has acknowledged, and joins b3 from it.
func (w *world) join(b int) {
	at := w.member(b).applied
	ran := slices.Clone(w.servers[b].ran)
	w.snapshot, w.ahead = true, len(ran) > 0 && ran[len(ran)-1] >= at
	w.servers[2].ran = ran
	w.p.join("b3", at, nil, 2)
}

// quiet reports whether nothing is in flight.
func (w *world) quiet() bool { return len(w.net) == 0 && len(w.calls) == 0 }

// The anomalies the checks tell apart.
const (
	doubleExecution = "(a) a backend executed an index twice"
	liveDead        = "(b) a live backend is Dead"
	staleSnapshot   = "(c) the backend joined from a snapshot newer than its index executed an index twice"
	offPrefix       = "an Active backend is off the log's prefix"
	unanswered      = "a client write was not answered exactly once"
)

// check returns the anomalies of a quiet world.
func (w *world) check() []string {
	var found []string
	add := func(a string) {
		if !slices.Contains(found, a) {
			found = append(found, a)
		}
	}
	var twice [3]bool
	for b, s := range w.servers {
		for i := 1; i < len(s.ran); i++ {
			twice[b] = twice[b] || s.ran[i] == s.ran[i-1]
		}
		switch {
		case twice[b] && b == 2 && w.ahead:
			add(staleSnapshot)
		case twice[b]:
			add(doubleExecution)
		}
		if w.dead[b] && s.up {
			add(liveDead)
		}
	}
	for _, m := range w.p.members {
		ran := w.servers[m.srv].ran
		prefix := len(ran) == int(w.p.logged)
		for i := 0; prefix && i < len(ran); i++ {
			prefix = ran[i] == int64(i)
		}
		if m.state == Active && !prefix && !twice[m.srv] {
			add(offPrefix)
		}
	}
	for _, n := range w.answers[:w.writes] {
		if n != 1 {
			add(unanswered)
		}
	}
	return found
}

// key hashes the world's state: everything that decides what can happen
// next and what the checks read, not the schedule that reached it.
func (w *world) key(buf []byte) (uint64, []byte) {
	b := buf[:0]
	put := func(vs ...int64) {
		for _, v := range vs {
			b = append(b, byte(v), byte(v>>8), 0xff)
		}
	}
	bit := func(x bool) int64 {
		if x {
			return 1
		}
		return 0
	}
	put(w.p.logged)
	for _, m := range w.p.members {
		put(int64(m.srv), int64(m.state), m.applied, min(m.activeFrom, 255), min(m.stopAt, 255), bit(m.busy))
	}
	for _, e := range w.p.pending {
		put(-1, e.idx, int64(e.acks), bit(e.err != nil), int64(e.w))
	}
	for b, s := range w.servers {
		put(-2, bit(s.up), bit(w.dead[b]))
		put(s.ran...)
	}
	for _, c := range w.calls {
		put(-3, int64(c.to), c.idx, int64(c.n), bit(c.timer))
	}
	var msgs [16]int64
	for i, m := range w.net {
		msgs[i] = int64(m.to) | m.idx<<2 | int64(m.n)<<6 | bit(m.reply)<<8 | bit(m.failed)<<9
	}
	slices.Sort(msgs[:len(w.net)])
	put(-4)
	put(msgs[:len(w.net)]...)
	put(-5, int64(w.writes), int64(w.faults), bit(w.snapshot), bit(w.ahead))
	for _, n := range w.answers {
		put(int64(n))
	}
	h := uint64(14695981039346656037) // FNV-1a
	for _, c := range b {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return h, b
}

func (w *world) schedule() []string {
	var s []string
	for st := w.last; st != nil; st = st.prev {
		s = append(s, st.a.String())
	}
	slices.Reverse(s)
	return s
}

// explore walks every reachable state breadth first. It returns the
// number of states and, per anomaly, a shortest schedule that ends quiet
// with it.
func explore() (states int, shortest map[string][]string) {
	shortest = map[string][]string{}
	start := newWorld()
	var buf []byte
	var acts []xAct
	h, buf := start.key(buf)
	seen := map[uint64]bool{h: true}
	for frontier := []*world{start}; len(frontier) > 0; {
		var next []*world
		for _, w := range frontier {
			states++
			if w.quiet() {
				for _, a := range w.check() {
					if shortest[a] == nil {
						shortest[a] = w.schedule()
					}
				}
			}
			acts = w.actions(acts[:0])
			for _, a := range acts {
				if a.fault && w.faults == xFaults {
					continue
				}
				c := w.clone()
				c.apply(a)
				if h, buf = c.key(buf); !seen[h] {
					seen[h] = true
					next = append(next, c)
				}
			}
		}
		frontier = next
	}
	return states, shortest
}

// At this protocol the explorer finds ROADMAP item 1's three suspects and
// nothing else: a backend executes a write twice when a reply outlives its
// attempt's timer (a); a live backend is marked Dead when one call runs
// out of attempts (b); a snapshot is paired with an index older than its
// state (c). Each shortest schedule is pinned below as a test that asserts
// the anomaly reproduces; the change that fixes a suspect turns its test
// around.
func TestExploreWriteProtocol(t *testing.T) {
	start := time.Now()
	states, shortest := explore()
	t.Logf("visited %d schedules, one per distinct state (%d writes, %d faults, %d attempts per call) in %v", states, xWrites, xFaults, xAttempts, time.Since(start))
	for a, s := range shortest {
		t.Logf("%s, in %d steps:\n\t%s", a, len(s), strings.Join(s, "\n\t"))
	}
	for _, a := range []string{doubleExecution, liveDead, staleSnapshot} {
		if shortest[a] == nil {
			t.Errorf("no schedule shows %s", a)
		}
	}
	for _, a := range []string{offPrefix, unanswered} {
		if s := shortest[a]; s != nil {
			t.Errorf("%s:\n\t%s", a, strings.Join(s, "\n\t"))
		}
	}
}

// replay runs a schedule and returns the anomalies of the quiet world it
// ends in.
func replay(t *testing.T, schedule ...string) []string {
	t.Helper()
	w := newWorld()
	for _, label := range schedule {
		acts := w.actions(nil)
		k := slices.IndexFunc(acts, func(a xAct) bool { return a.String() == label })
		if k < 0 {
			t.Fatalf("%q cannot happen after %q", label, w.schedule())
		}
		w.apply(acts[k])
	}
	if !w.quiet() {
		t.Fatalf("the schedule ends with %d messages and %d calls in flight", len(w.net), len(w.calls))
	}
	return w.check()
}

// Suspect (a): b2's reply to write 0 outlives the attempt's timer, the
// retry reaches the server as well, and the write runs on it twice.
func TestSuspectRetryRunsAWriteTwice(t *testing.T) {
	got := replay(t, "leave b1", "write", "deliver b2 request 0#0", "timeout b2#0",
		"deliver b2 reply 0#0", "deliver b2 request 0#1")
	if !slices.Contains(got, doubleExecution) {
		t.Fatalf("anomalies %q, want %q", got, doubleExecution)
	}
}

// Suspect (b): both attempts of b2's apply time out, the call fails once,
// and the protocol takes that one error for b2's death while its server
// runs and has applied the write.
func TestSuspectOneFailedCallKillsALiveBackend(t *testing.T) {
	got := replay(t, "write", "deliver b1 request 0#0", "deliver b2 request 0#0", "deliver b1 reply 0#0",
		"timeout b2#0", "deliver b2 request 0#1", "timeout b2#1")
	if !slices.Contains(got, liveDead) {
		t.Fatalf("anomalies %q, want %q", got, liveDead)
	}
}

// Suspect (c): b2 has executed write 0 but its reply is still on the way,
// so a snapshot of b2 holds write 0 while its index says 0 writes; b3
// joins from it and executes write 0 again.
func TestSuspectSnapshotNewerThanItsIndex(t *testing.T) {
	got := replay(t, "leave b1", "write", "deliver b2 request 0#0", "join b3 from a snapshot of b2",
		"deliver b2 reply 0#0", "deliver b3 request 0#0", "deliver b3 reply 0#0")
	if !slices.Contains(got, staleSnapshot) {
		t.Fatalf("anomalies %q, want %q", got, staleSnapshot)
	}
}
