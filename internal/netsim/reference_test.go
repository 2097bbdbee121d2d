package netsim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"jade/internal/sim"
	"jade/internal/trace"
)

// referenceSend is Fabric.Send as it was before the fixed-delay lanes:
// every delivery goes on the engine's heap at Now()+delay.
func (f *Fabric) referenceSend(from, to, kind string, deliver func()) {
	f.stats.Messages++
	f.mMessages.Inc()
	if f.Partitioned(from, to) {
		f.stats.DroppedPartition++
		f.mDropPart.Inc()
		return
	}
	l := f.link(from, to)
	if lost := f.rng.Float64() < l.Loss; lost {
		f.stats.DroppedLoss++
		f.mDropLoss.Inc()
		f.tr.Emit("net", "net.drop",
			trace.F("from", from), trace.F("to", to), trace.F("msg", kind))
		return
	}
	delay := l.LatencyMS / 1000
	if l.JitterMS > 0 {
		delay += f.rng.Float64() * l.JitterMS / 1000
	}
	f.stats.Delivered++
	f.mDelivered.Inc()
	f.eng.Schedule(f.eng.Now()+delay, "net:"+kind, sim.Func(deliver))
}

// referenceCall is Fabric.Call as it was before the call record: nested
// closures over a settled flag, kept verbatim as the oracle for
// TestCallMatchesReferenceClosures (the way sqlengine's reference_test.go
// keeps the row-by-row executor), except that its messages go through
// referenceSend, so it schedules only through the engine's heap.
func (f *Fabric) referenceCall(from, to, tier string, attempt func(reply func(error)), done func(error)) {
	if !f.Enabled() {
		attempt(done)
		return
	}
	b := f.budget(tier)
	f.stats.RPCs++
	settled := false
	var try func(n int)
	try = func(n int) {
		if settled {
			return
		}
		if n > 0 {
			f.stats.Retransmits++
			f.mRetransmits.Inc()
			f.tr.Emit("net", "net.retransmit",
				trace.F("from", from), trace.F("to", to), trace.F("tier", tier), trace.Fi("attempt", n))
		}
		var timeout sim.Handle
		reply := func(err error) {
			// The response crosses the network too; late responses from
			// superseded attempts lose the race and are discarded.
			f.referenceSend(to, from, tier+".reply", func() {
				if settled {
					return
				}
				settled = true
				f.eng.Cancel(timeout)
				done(err)
			})
		}
		timeout = f.eng.After(b.TimeoutSeconds, "net:rpc-timeout", func() {
			if settled {
				return
			}
			if n+1 < b.Attempts {
				backoff := b.BackoffSeconds * float64(int(1)<<n)
				f.eng.After(backoff, "net:rpc-backoff", func() { try(n + 1) })
				return
			}
			settled = true
			f.stats.Abandoned++
			f.mAbandoned.Inc()
			f.tr.Emit("net", "net.abandon",
				trace.F("from", from), trace.F("to", to), trace.F("tier", tier), trace.Fi("attempts", n+1))
			done(fmt.Errorf("%w: %s %s->%s after %d attempts", ErrRPCTimeout, tier, from, to, n+1))
		})
		f.referenceSend(from, to, tier, func() { attempt(reply) })
	}
	try(0)
}

// callTranscript is everything observable about a batch of RPCs: each
// dispatched event, each done(err), and the fabric's counters; and how
// often the script answered twice on one arrival, or after its call had
// settled, and how many calls had an arrival it never answered.
type callTranscript struct {
	Events      []string
	Dones       []string
	Stats       Stats
	Twice, Late int
	Silent      int
}

// callNet is a lossy network the scripted calls run over, each with a
// 3-attempt budget of 1 s timeouts for tier "app".
type callNet struct {
	name string
	link Link            // the default link
	over map[string]Link // per-link overrides
}

var callNets = []callNet{
	{name: "jittered", link: Link{LatencyMS: 1, JitterMS: 4, Loss: 0.3}},
	{name: "links with and without jitter", link: Link{LatencyMS: 1, Loss: 0.3}, over: map[string]Link{
		"a->b": {LatencyMS: 2, Loss: 0.3},
		"b->a": {LatencyMS: 1, JitterMS: 4, Loss: 0.3},
	}},
}

// A scripted call goes through one of four paths. The reference chain and
// Call hand their callee a func(error); Start hands its callee the attempt
// itself as its Reply, so a second or late answer reaches the record, and
// so does a recycler's call, whose records the fabric hands back.
type scriptedCall func(f *Fabric, from, to, tier string, attempt func(Reply), done func(error))

func viaReference(f *Fabric, from, to, tier string, attempt func(Reply), done func(error)) {
	f.referenceCall(from, to, tier, func(reply func(error)) { attempt(ReplyFunc(reply)) }, done)
}

func viaCall(f *Fabric, from, to, tier string, attempt func(Reply), done func(error)) {
	f.Call(from, to, tier, func(reply func(error)) { attempt(ReplyFunc(reply)) }, done)
}

func viaStart(f *Fabric, from, to, tier string, attempt func(Reply), done func(error)) {
	f.Start(new(RPC), from, to, tier, calleeFunc(attempt), ReplyFunc(done))
}

// calleeFunc adapts a function to Callee.
type calleeFunc func(reply Reply)

func (fn calleeFunc) Attempt(reply Reply) { fn(reply) }

// recycledCall is a caller's call record kept the way legacy's forwards
// keep theirs: the RPC embedded, the record the callee, and a free list
// the fabric hands it back to through Release.
type recycledCall struct {
	RPC
	pool    *recycler
	attempt func(Reply)
}

func (r *recycledCall) Attempt(reply Reply) {
	if r.pool == nil {
		panic("netsim test: a request was delivered to a released record")
	}
	r.attempt(reply)
}

func (r *recycledCall) Release() { r.pool.put(r) }

// recycler is the free list of call records behind viaRecycled. It counts the
// records it made, the calls that took an idle one, and the records
// handed back twice or not zeroed by the time they were taken again.
type recycler struct {
	idle                []*recycledCall
	isIdle              map[*recycledCall]bool
	made, reused, twice int
	dirty               int
}

func newRecycler() *recycler { return &recycler{isIdle: make(map[*recycledCall]bool)} }

func (p *recycler) put(r *recycledCall) {
	if p.isIdle[r] {
		p.twice++
		return
	}
	p.isIdle[r] = true
	*r = recycledCall{}
	p.idle = append(p.idle, r)
}

// viaRecycled is a scriptedCall through Start with a Releaser callee.
func (p *recycler) viaRecycled(f *Fabric, from, to, tier string, attempt func(Reply), done func(error)) {
	var r *recycledCall
	if n := len(p.idle); n > 0 {
		r, p.idle = p.idle[n-1], p.idle[:n-1]
		delete(p.isIdle, r)
		if !reflect.ValueOf(r).Elem().IsZero() {
			p.dirty++
		}
		p.reused++
	} else {
		r = new(recycledCall)
		p.made++
	}
	r.pool, r.attempt = p, attempt
	f.Start(&r.RPC, from, to, tier, r, ReplyFunc(done))
}

// scriptedCalls issues 40 staggered RPCs through call over net. What the
// callee does on the k-th arrival of call i — answer at once, answer late
// (possibly after the attempt timed out and a newer one is live), answer
// twice, or stay silent — depends only on (seed, i, k), never on the
// implementation. With once, the callee keeps Releaser's contract and
// answers each arrival at most once: the two answers of a double become
// one, 1.6 s late.
func scriptedCalls(seed int64, net callNet, call scriptedCall, once bool) callTranscript {
	eng := sim.NewEngine(seed)
	f := New(eng, Config{
		Enabled: true,
		Default: net.link,
		Links:   net.over,
		RPC:     map[string]RPCBudget{"app": {TimeoutSeconds: 1, Attempts: 3, BackoffSeconds: 0.5}},
	}, seed)
	var tr callTranscript
	eng.SetEventHook(func(t float64, label string) {
		tr.Events = append(tr.Events, fmt.Sprintf("%.9f %s", t, label))
	})
	for i := 0; i < 40; i++ {
		i := i
		eng.At(float64(i)*0.37, "issue", func() {
			arrivals := 0
			settled, silent := false, false
			answer := func(reply Reply, err error) {
				if settled {
					tr.Late++
				}
				reply.Reply(err)
			}
			call(f, "a", "b", "app", func(reply Reply) {
				arrivals++
				script := rand.New(rand.NewSource(seed<<16 + int64(i)<<4 + int64(arrivals)))
				fail := fmt.Errorf("call %d arrival %d failed", i, arrivals)
				switch script.Intn(6) {
				case 0:
					answer(reply, nil)
				case 1:
					answer(reply, fail)
				case 2: // late: 1.7 s and 4 s outlive the attempt that asked
					eng.After([]float64{0.2, 1.7, 4}[script.Intn(3)], "callee:late", func() { answer(reply, fail) })
				case 3: // twice at once, each with its own result
					if once { // once, outliving the attempt that asked
						eng.After(1.6, "callee:again", func() { answer(reply, fail) })
						break
					}
					tr.Twice++
					answer(reply, fail)
					answer(reply, nil)
				case 4: // twice, the second late
					if once {
						eng.After(1.6, "callee:again", func() { answer(reply, nil) })
						break
					}
					tr.Twice++
					answer(reply, nil)
					eng.After(1.6, "callee:again", func() { answer(reply, fail) })
				case 5: // never
					if !silent {
						silent = true
						tr.Silent++
					}
				}
			}, func(err error) {
				settled = true
				tr.Dones = append(tr.Dones, fmt.Sprintf("%.9f call %d: %v", eng.Now(), i, err))
			})
		})
	}
	eng.Run()
	tr.Stats = f.Stats()
	return tr
}

func requireSameSequence(t *testing.T, seed int64, what string, got, want []string) {
	t.Helper()
	for i := 0; i < len(got) || i < len(want); i++ {
		if i >= len(got) || i >= len(want) || got[i] != want[i] {
			g, w := "<none>", "<none>"
			if i < len(got) {
				g = got[i]
			}
			if i < len(want) {
				w = want[i]
			}
			t.Fatalf("seed %d: %s %d is %q, reference %q (%d vs %d in all)", seed, what, i, g, w, len(got), len(want))
		}
	}
}

// TestCallMatchesReferenceClosures runs the call record, through Call and
// through Start, and the closure chain it replaced on twin engines and
// fabrics and requires the same event sequence, the same done(err)
// sequence (error text included) and the same counters. Through Start the
// callee answers on the attempt's Reply, twice on one arrival and after
// its call settled included. The reference schedules only on the engine's
// heap, so over the networks without jitter, and across a budget change
// with calls outstanding, it also holds the fabric's fixed-delay lanes to
// the heap. Mutants it was checked to catch: a reply canceling the live
// attempt's timer instead of its own (a "net:rpc-timeout" event goes
// missing), a second reply on one attempt overwriting the first one's
// error, and a second reply being dropped.
//
// Through a recycler, the callee is a Releaser whose records the fabric
// hands back to a free list for the next call, and the script answers each
// arrival at most once, late answers included; it must match the
// reference running the same script, reuse records, hand none back twice
// or unzeroed, and at the end hold every record whose calls were all
// answered. Mutants it was checked to catch: releasing at settle without
// counting, not counting the attempt a callee holds (both reach a
// released record), and not uncounting a timer that settle cancels (no
// record comes back).
func TestCallMatchesReferenceClosures(t *testing.T) {
	for _, net := range callNets {
		var retransmits, abandoned uint64
		var twice, late, silent, reused int
		for seed := int64(1); seed <= 20; seed++ {
			want := scriptedCalls(seed, net, viaReference, false)
			for _, via := range []struct {
				name string
				call scriptedCall
			}{{"Call", viaCall}, {"Start", viaStart}} {
				got := scriptedCalls(seed, net, via.call, false)
				requireSameTranscript(t, seed, net.name+" via "+via.name, got, want)
			}
			if len(want.Dones) != 40 {
				t.Fatalf("%s, seed %d: %d of 40 calls settled", net.name, seed, len(want.Dones))
			}
			retransmits += want.Stats.Retransmits
			abandoned += want.Stats.Abandoned
			twice += want.Twice
			late += want.Late

			want = scriptedCalls(seed, net, viaReference, true)
			rec := newRecycler()
			got := scriptedCalls(seed, net, rec.viaRecycled, true)
			requireSameTranscript(t, seed, net.name+" via a recycler", got, want)
			if rec.twice != 0 || rec.dirty != 0 {
				t.Errorf("%s, seed %d: %d records handed back twice, %d taken again unzeroed", net.name, seed, rec.twice, rec.dirty)
			}
			if n := len(rec.idle); n != rec.made-want.Silent {
				t.Errorf("%s, seed %d: %d of %d records idle at the end, want all but the %d calls with an unanswered arrival",
					net.name, seed, n, rec.made, want.Silent)
			}
			for _, r := range rec.idle {
				if !reflect.ValueOf(r).Elem().IsZero() {
					t.Errorf("%s, seed %d: idle record %p is not zeroed", net.name, seed, r)
				}
			}
			late += want.Late
			silent += want.Silent
			reused += rec.reused
		}
		if retransmits == 0 || abandoned == 0 || twice == 0 || late == 0 || silent == 0 || reused == 0 {
			t.Fatalf("%s: script exercised %d retransmits, %d abandons, %d double and %d late answers, %d with an unanswered arrival, %d reused records; it must cover each",
				net.name, retransmits, abandoned, twice, late, silent, reused)
		}
	}
}

func requireSameTranscript(t *testing.T, seed int64, name string, got, want callTranscript) {
	t.Helper()
	if got.Stats != want.Stats || got.Twice != want.Twice || got.Late != want.Late || got.Silent != want.Silent {
		t.Errorf("%s, seed %d: stats %+v, %d twice, %d late, %d silent; reference %+v, %d, %d, %d",
			name, seed, got.Stats, got.Twice, got.Late, got.Silent,
			want.Stats, want.Twice, want.Late, want.Silent)
	}
	requireSameSequence(t, seed, name+" done", got.Dones, want.Dones)
	requireSameSequence(t, seed, name+" event", got.Events, want.Events)
}
