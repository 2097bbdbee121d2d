package cjdbc

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
)

// sink records the protocol's effects in the order it asks for them. A
// member's handle and a write's record are their names.
type sink struct {
	p   protocol[string, string]
	log []string
	// fail, when set, answers a send to that member at once with an error,
	// as a server that is down does.
	fail string
}

type sMember = member[string, string]

func newSink() *sink {
	s := &sink{}
	s.p.fx = s
	return s
}

func (s *sink) record(format string, args ...any) {
	s.log = append(s.log, fmt.Sprintf(format, args...))
}

func (s *sink) send(m *sMember, w string) {
	s.record("send %s %d %s", m.name, m.applied, w)
	if m.name == s.fail {
		m.Reply(errors.New("down"))
	}
}
func (s *sink) answer(w string, cause error) { s.record("answer %s %v", w, cause) }
func (s *sink) activate(m *sMember)          { s.record("activate %s", m.name) }
func (s *sink) evict(m *sMember)             { s.record("evict %s", m.name) }
func (s *sink) checkpoint(m *sMember)        { s.record("checkpoint %s %d", m.name, m.applied) }
func (s *sink) joined(m *sMember)            { s.record("joined %s %d", m.name, m.applied) }
func (s *sink) left(m *sMember)              { s.record("left %s", m.name) }
func (s *sink) died(m *sMember, cause error) { s.record("died %s %v", m.name, cause) }

// take returns the effects recorded since the last call.
func (s *sink) take() string {
	out := strings.Join(s.log, "; ")
	s.log = s.log[:0]
	return out
}

func (s *sink) expect(t *testing.T, want string) {
	t.Helper()
	if got := s.take(); got != want {
		t.Fatalf("effects\n%s\nwant\n%s", got, want)
	}
}

func (s *sink) reply(name string, err error) { s.p.lookup(name).Reply(err) }

// A member owes the writes logged while it is Active and below the index
// it was asked to leave at; a syncing member replays a write nobody waits
// on it for, and a draining one still holds its write up.
func TestProtocolAckDuty(t *testing.T) {
	s := newSink()
	s.p.join("b1", 0, nil, "b1")
	s.expect(t, "joined b1 0; activate b1")
	s.p.write("w0")
	s.expect(t, "send b1 0 w0")
	synced := false
	s.p.join("b2", 0, func(err error) { synced = err == nil }, "b2")
	s.expect(t, "joined b2 0; send b2 0 ")
	s.reply("b2", nil)
	s.expect(t, "activate b2")
	if !synced {
		t.Fatal("b2 caught up without its callback")
	}
	s.reply("b1", nil)
	s.expect(t, "answer w0 <nil>")

	s.p.write("w1")
	s.expect(t, "send b1 1 w1; send b2 1 w1")
	var checkpoint int64 = -1
	s.p.leave(s.p.lookup("b2"), func(idx int64) { checkpoint = idx })
	s.expect(t, "evict b2")
	s.p.write("w2") // b2 drains: it owes w1, not w2
	s.reply("b1", nil)
	s.expect(t, "send b1 2 w2")
	s.reply("b1", nil)
	s.expect(t, "answer w2 <nil>")
	s.reply("b2", nil)
	s.expect(t, "answer w1 <nil>; evict b2; checkpoint b2 2; left b2")
	if checkpoint != 2 || len(s.p.members) != 1 || len(s.p.pending) != 0 {
		t.Fatalf("checkpoint %d, %d members, %d writes pending", checkpoint, len(s.p.members), len(s.p.pending))
	}
}

// A member's death costs the writes it owed their acknowledgement in log
// order, after it left the pool and the membership; a write that no member
// applied is lost with the first death's cause.
func TestProtocolDeathSettlesInLogOrder(t *testing.T) {
	s := newSink()
	s.p.join("b1", 0, nil, "b1")
	s.p.join("b2", 0, nil, "b2")
	s.take()
	for _, w := range []string{"w0", "w1", "w2"} {
		s.p.write(w)
	}
	s.expect(t, "send b1 0 w0; send b2 0 w0")
	s.reply("b1", nil)
	s.reply("b1", nil)
	s.reply("b1", nil)
	s.expect(t, "send b1 1 w1; send b1 2 w2")
	s.reply("b2", errors.New("crash"))
	s.expect(t, "evict b2; died b2 crash; answer w0 <nil>; answer w1 <nil>; answer w2 <nil>")

	s.p.write("w3")
	s.expect(t, "send b1 3 w3")
	s.p.fail(s.p.lookup("b1"), errors.New("verdict"))
	s.expect(t, "evict b1; died b1 verdict; answer w3 verdict")
	s.p.fail(&sMember{name: "b1", state: Dead}, errors.New("again")) // a second verdict is a no-op
	if got := s.take(); got != "" || len(s.p.members) != 0 || len(s.p.pending) != 0 {
		t.Fatalf("effects %q, %d members, %d writes pending", got, len(s.p.members), len(s.p.pending))
	}
}

// A write wakes the members in registration order. A member whose send
// fails at once is dropped from the list in place while the write's loop
// walks it, so the member after it is not woken by that write: it stays
// idle, and the write unanswered, until something else wakes it.
func TestProtocolWriteWakesInRegistrationOrder(t *testing.T) {
	s := newSink()
	for _, b := range []string{"b1", "b2", "b3"} {
		s.p.join(b, 0, nil, b)
	}
	s.take()
	s.fail = "b1"
	s.p.write("w0")
	s.expect(t, "send b1 0 w0; evict b1; died b1 down; send b3 0 w0")
	s.fail = ""
	s.reply("b3", nil)
	if s.take() != "" || len(s.p.pending) != 1 || s.p.lookup("b2").busy {
		t.Fatal("b2 was woken by the write after all")
	}
	s.p.write("w1")
	s.expect(t, "send b2 0 w0; send b3 1 w1")
	for _, b := range []string{"b2", "b2", "b3"} {
		s.reply(b, nil)
	}
	s.expect(t, "answer w0 <nil>; send b2 1 w1; answer w1 <nil>")
	if !slices.Equal([]string{s.p.members[0].name, s.p.members[1].name}, []string{"b2", "b3"}) {
		t.Fatalf("members %v", s.p.members)
	}
}
