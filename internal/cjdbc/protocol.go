package cjdbc

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// protocol is §4.1's write protocol with no I/O of its own. Each write
// takes the next log index; a member applies the log in order from the
// index it joined at, is Active once caught up, and leaves by applying what
// it owes, then checkpointing. Member m owes the write at i an
// acknowledgement exactly when activeFrom ≤ i < stopAt and applied ≤ i,
// until it dies; a write is answered once no member owes it one.
//
// The driver holds the log, the servers, the read pool and the tracer, and
// does what the protocol asks through fx (B is its handle on a server, W
// its record of a write), synchronously and in the order written here:
// answers, pool changes and callbacks re-enter the simulation.
type protocol[B, W any] struct {
	fx      effects[B, W]
	members []*member[B, W] // registration order; the dead and departed are dropped
	pending []pending[W]    // the unfinished writes, in log order
	logged  int64           // the index the next write takes
}

// effects is what the protocol asks of its driver.
type effects[B, W any] interface {
	// send hands m the log record at m.applied, with m itself as the reply.
	// w is the write if a client waits on m's acknowledgement, else zero.
	send(m *member[B, W], w W)
	answer(w W, cause error)  // cause is nil when some member applied w
	activate(m *member[B, W]) // into the read pool
	evict(m *member[B, W])    // out of the read pool
	checkpoint(m *member[B, W])
	joined(m *member[B, W])
	left(m *member[B, W])
	died(m *member[B, W], cause error)
}

const never = math.MaxInt64 // an index no write reaches

// member is one backend.
type member[B, W any] struct {
	p     *protocol[B, W]
	name  string
	state BackendState
	// applied is the next log index the member needs; while busy, the
	// index of the record on its way to it.
	applied int64
	// activeFrom is the log length when it became Active, stopAt the log
	// length when it was asked to leave; never until then.
	activeFrom, stopAt int64
	busy               bool
	onSynced           func(error) // when a Syncing member catches up
	onLeft             func(int64) // when a leaving member has drained
	srv                B
}

// Reply takes the member's answer to the record on its way to it.
func (m *member[B, W]) Reply(err error) { m.p.reply(m, err) }

func (m *member[B, W]) owes(idx int64) bool {
	return m.state != Dead && m.activeFrom <= idx && idx < m.stopAt && m.applied <= idx
}

type pending[W any] struct {
	idx  int64
	acks int   // members that applied it
	err  error // the first death that cost it an acknowledgement
	w    W
}

func (p *protocol[B, W]) lookup(name string) *member[B, W] {
	for _, m := range p.members {
		if m.name == name {
			return m
		}
	}
	return nil
}

// drop shifts the members after m down in place: a loop over the members
// that m's death interrupts skips the next one, and digests hold that order.
func (p *protocol[B, W]) drop(m *member[B, W]) {
	for i, x := range p.members {
		if x == m {
			p.members = append(p.members[:i], p.members[i+1:]...)
			return
		}
	}
}

// find returns the write at idx's position in the pending list.
func (p *protocol[B, W]) find(idx int64) (int, bool) {
	return slices.BinarySearchFunc(p.pending, idx, func(e pending[W], idx int64) int { return cmp.Compare(e.idx, idx) })
}

// join registers a member that has executed every write below at and
// starts its replay; done fires when it becomes Active.
func (p *protocol[B, W]) join(name string, at int64, done func(error), srv B) {
	m := &member[B, W]{p: p, name: name, applied: at, activeFrom: never, stopAt: never, onSynced: done, srv: srv}
	p.members = append(p.members, m)
	p.fx.joined(m)
	p.pump(m)
}

// write logs w at the next index and wakes every member in registration
// order. The caller has checked that a member is Active.
func (p *protocol[B, W]) write(w W) {
	p.pending = append(p.pending, pending[W]{idx: p.logged, w: w})
	p.logged++
	for _, m := range p.members {
		p.pump(m)
	}
}

// pump sends m the next record it needs or, once it has caught up,
// activates a syncing member and retires a leaving one.
func (p *protocol[B, W]) pump(m *member[B, W]) {
	if m.busy || m.state == Dead {
		return
	}
	if m.applied < min(p.logged, m.stopAt) {
		m.busy = true
		var w W
		if k, ok := p.find(m.applied); ok && m.owes(m.applied) {
			w = p.pending[k].w
		}
		p.fx.send(m, w)
		return
	}
	switch {
	case m.state == Syncing:
		m.state, m.activeFrom = Active, p.logged
		p.fx.activate(m)
		if fn := m.onSynced; fn != nil {
			m.onSynced = nil
			fn(nil)
		}
	case m.applied >= m.stopAt:
		p.finishLeave(m)
	}
}

// reply: an error kills m; success acknowledges the write if m owed it,
// then sends m its next record.
func (p *protocol[B, W]) reply(m *member[B, W], err error) {
	m.busy = false
	if err != nil {
		p.fail(m, err)
		return
	}
	idx, owed := m.applied, m.owes(m.applied)
	m.applied++
	if owed {
		p.settle(idx, nil)
	}
	p.pump(m)
}

// settle counts an acknowledgement of the write at idx (cause nil), or a
// death that cost it one, and answers the write once no member owes it.
func (p *protocol[B, W]) settle(idx int64, cause error) {
	k, ok := p.find(idx)
	if !ok { // answered already, by a death inside an earlier answer
		return
	}
	e := &p.pending[k]
	if cause == nil {
		e.acks++
	} else if e.err == nil {
		e.err = cause
	}
	for _, m := range p.members {
		if m.owes(idx) {
			return
		}
	}
	w, err := e.w, e.err
	if e.acks > 0 {
		err = nil
	}
	p.pending = slices.Delete(p.pending, k, k+1)
	p.fx.answer(w, err)
}

// leave asks an Active member to stop at the current log length.
func (p *protocol[B, W]) leave(m *member[B, W], done func(checkpoint int64)) {
	m.stopAt, m.onLeft = p.logged, done
	if m.applied >= m.stopAt && !m.busy {
		p.finishLeave(m)
		return
	}
	// Draining: no longer eligible for reads, still acknowledging writes.
	m.state = Disabled
	p.fx.evict(m)
}

func (p *protocol[B, W]) finishLeave(m *member[B, W]) {
	m.state = Disabled
	p.fx.evict(m)
	p.fx.checkpoint(m)
	p.drop(m)
	p.fx.left(m)
	if fn := m.onLeft; fn != nil {
		m.onLeft = nil
		fn(m.applied)
	}
}

// fail drops m after an execution failure or a failure verdict: the writes
// it owed lose its acknowledgement, in log order, and a draining member
// still yields its checkpoint.
func (p *protocol[B, W]) fail(m *member[B, W], cause error) {
	if m.state == Dead {
		return
	}
	lo, hi := max(m.activeFrom, m.applied), min(m.stopAt, p.logged)
	m.state = Dead
	p.fx.evict(m) // first, so a read's retry cannot route back to m
	p.drop(m)
	p.fx.died(m, cause)
	for i := lo; i < hi; i++ {
		p.settle(i, cause)
	}
	if fn := m.onSynced; fn != nil {
		m.onSynced = nil
		fn(fmt.Errorf("cjdbc: backend %s died during sync: %w", m.name, cause))
	}
	if fn := m.onLeft; fn != nil {
		m.onLeft = nil
		p.fx.checkpoint(m)
		fn(m.applied)
	}
}
