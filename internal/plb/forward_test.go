package plb

import (
	"errors"
	"reflect"
	"testing"

	"jade/internal/legacy"
	"jade/internal/netsim"
	"jade/internal/selector"
)

// checkForwards checks the balancer's free list after quiescence: no
// forward is on it twice, every one is zeroed, and there are want of them,
// the most requests the balancer held at once.
func checkForwards(t *testing.T, b *Balancer, want int) {
	t.Helper()
	idle := make([]*forward, b.forwards.Len())
	seen := make(map[*forward]bool, len(idle))
	for i := range idle {
		f := b.forwards.Get()
		if seen[f] {
			t.Errorf("forward %p was put back twice", f)
		}
		seen[f] = true
		if !reflect.ValueOf(f).Elem().IsZero() {
			t.Errorf("idle forward %p is not zeroed: %+v", f, *f)
		}
		idle[i] = f
	}
	for _, f := range idle {
		b.forwards.Put(f)
	}
	if len(idle) != want {
		t.Errorf("%d idle forwards, want %d", len(idle), want)
	}
}

// counting wraps an HTTP handler and counts the requests it holds; late
// counts those that arrive while settled() holds.
type counting struct {
	h              legacy.HTTPHandler
	settled        func() bool
	inFlight, peak int
	late           int
}

func (c *counting) HandleHTTP(req *legacy.WebRequest, done netsim.Reply) {
	if c.settled() {
		c.late++
	}
	c.inFlight++
	c.peak = max(c.peak, c.inFlight)
	c.h.HandleHTTP(req, netsim.ReplyFunc(func(err error) {
		c.inFlight--
		done.Reply(err)
	}))
}

// Every exit of a forward puts it back exactly once, and a reused forward
// starts zeroed: the member's answer (JobDone), no member to pick (JobDone),
// a crash under the proxy job (JobFailed), a request to a balancer whose
// node is down (JobFailed from inside Node.Run), a refusal because the
// balancer is stopped (no record at all), and a delivery that reaches the
// balancer after its call settled.
func TestForwardRecordLifecycle(t *testing.T) {
	setup := func(t *testing.T) (*Balancer, func(func(error))) {
		eng, b := newBalancer(t, selector.RoundRobin)
		if err := b.Add("t1", &fakeWorker{eng: eng, delay: 0.01}, 1); err != nil {
			t.Fatal(err)
		}
		send := func(done func(error)) {
			b.HandleHTTP(&legacy.WebRequest{SessionKey: "s1"}, netsim.ReplyFunc(done))
		}
		return b, send
	}
	run := func(b *Balancer) { b.eng.Run() }

	t.Run("JobDone", func(t *testing.T) {
		b, send := setup(t)
		var first *forward
		for i := 0; i < 3; i++ {
			var got error = errors.New("never answered")
			send(func(err error) { got = err })
			run(b)
			if got != nil {
				t.Fatal(got)
			}
			checkForwards(t, b, 1)
			f := b.forwards.Get()
			b.forwards.Put(f)
			if first == nil {
				first = f
			} else if f != first {
				t.Fatalf("request %d took a new forward", i)
			}
		}
		answered := 0
		for i := 0; i < 4; i++ {
			send(func(err error) {
				if err != nil {
					t.Error(err)
				}
				answered++
			})
		}
		run(b)
		if answered != 4 {
			t.Fatalf("%d of 4 answered", answered)
		}
		checkForwards(t, b, 4)
		// No member left to pick: the forward answers from JobDone.
		if err := b.Remove("t1"); err != nil {
			t.Fatal(err)
		}
		var got error
		send(func(err error) { got = err })
		run(b)
		if !errors.Is(got, ErrNoWorker) {
			t.Fatalf("request with no worker: %v", got)
		}
		checkForwards(t, b, 4)
	})

	// A crash under the proxy job; the caller, answered from inside the
	// crash, sends a second request to the balancer whose node is down.
	t.Run("JobFailed", func(t *testing.T) {
		b, send := setup(t)
		var first, second error
		send(func(err error) {
			first = err
			send(func(err error) { second = err })
		})
		b.eng.After(b.opts.ProxyCost/2, "crash", b.node.Fail)
		run(b)
		if first == nil || second == nil || b.Dropped() != 2 {
			t.Fatalf("crash under the proxy job: %v, then %v, %d dropped; want two node failures", first, second, b.Dropped())
		}
		checkForwards(t, b, 1)
	})

	t.Run("not running", func(t *testing.T) {
		b, send := setup(t)
		b.Stop()
		var got error
		send(func(err error) { got = err })
		run(b)
		if !errors.Is(got, ErrNotRunning) {
			t.Fatalf("request to a stopped balancer: %v", got)
		}
		checkForwards(t, b, 0)
	})

	// Over a lossy fabric whose links are slower than an attempt's
	// patience, every call is abandoned after its third attempt, and the
	// requests still on the link reach the balancer after that.
	t.Run("delivery after the call settled", func(t *testing.T) {
		b, _ := setup(t)
		fab := netsim.New(b.eng, netsim.Config{
			Enabled: true,
			Default: netsim.Link{LatencyMS: 50, Loss: 0.2},
			RPC:     map[string]netsim.RPCBudget{"front": {TimeoutSeconds: 0.01, Attempts: 3, BackoffSeconds: 0.02}},
		}, 1)
		b.net.SetFabric(fab)
		const calls = 20
		issued, settled := 0, 0
		target := &counting{h: b, settled: func() bool { return settled == issued }}
		for i := 0; i < calls; i++ {
			b.eng.After(float64(i), "call", func() {
				issued++
				b.net.ForwardHTTP("client", "front", target, &legacy.WebRequest{}, netsim.ReplyFunc(func(error) { settled++ }))
			})
		}
		run(b)
		if settled != calls || target.late == 0 || target.inFlight != 0 {
			t.Fatalf("%d of %d calls settled, %d deliveries after their call settled, %d still in flight", settled, calls, target.late, target.inFlight)
		}
		checkForwards(t, b, target.peak)
	})
}
