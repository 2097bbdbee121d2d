package plb

import (
	"errors"
	"testing"

	"jade/internal/cluster"
	"jade/internal/legacy"
	"jade/internal/netsim"
	"jade/internal/obs"
	"jade/internal/selector"
	"jade/internal/sim"
)

// fakeWorker is a scriptable HTTP backend.
type fakeWorker struct {
	eng      *sim.Engine
	delay    float64
	err      error
	served   int
	inFly    int
	maxInFly int
}

func (f *fakeWorker) HandleHTTP(req *legacy.WebRequest, done netsim.Reply) {
	f.inFly++
	if f.inFly > f.maxInFly {
		f.maxInFly = f.inFly
	}
	f.eng.After(f.delay, "fake", func() {
		f.inFly--
		f.served++
		done.Reply(f.err)
	})
}

func newBalancer(t *testing.T, policy selector.Policy) (*sim.Engine, *Balancer) {
	t.Helper()
	eng := sim.NewEngine(5)
	net := legacy.NewNetwork()
	node := cluster.NewNode(eng, "lbnode", cluster.DefaultConfig())
	opts := DefaultOptions()
	opts.Routing = selector.DefaultOptions(policy)
	b := New(eng, net, node, "plb", opts)
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	return eng, b
}

func TestRoundRobinDistribution(t *testing.T) {
	eng, b := newBalancer(t, selector.RoundRobin)
	w1 := &fakeWorker{eng: eng, delay: 0.01}
	w2 := &fakeWorker{eng: eng, delay: 0.01}
	if err := b.Add("t1", w1, 1); err != nil {
		t.Fatal(err)
	}
	if err := b.Add("t2", w2, 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		b.HandleHTTP(&legacy.WebRequest{}, netsim.ReplyFunc(func(error) {}))
	}
	eng.Run()
	if w1.served != 5 || w2.served != 5 {
		t.Fatalf("split = %d/%d, want 5/5", w1.served, w2.served)
	}
	if b.Forwarded() != 10 {
		t.Fatalf("Forwarded = %d", b.Forwarded())
	}
}

func TestLeastConnectionsPrefersIdleWorker(t *testing.T) {
	eng, b := newBalancer(t, selector.LeastPending)
	slow := &fakeWorker{eng: eng, delay: 10}
	fast := &fakeWorker{eng: eng, delay: 0.001}
	if err := b.Add("slow", slow, 1); err != nil {
		t.Fatal(err)
	}
	if err := b.Add("fast", fast, 1); err != nil {
		t.Fatal(err)
	}
	// First two requests land one on each; afterwards the slow worker is
	// still busy so everything goes to the fast one.
	for i := 0; i < 10; i++ {
		at := float64(i) * 0.1
		eng.At(at, "req", func() {
			b.HandleHTTP(&legacy.WebRequest{}, netsim.ReplyFunc(func(error) {}))
		})
	}
	eng.Run()
	if slow.served != 1 {
		t.Fatalf("slow worker served %d, want 1", slow.served)
	}
	if fast.served != 9 {
		t.Fatalf("fast worker served %d, want 9", fast.served)
	}
}

func TestAddRemoveWorkerDynamics(t *testing.T) {
	eng, b := newBalancer(t, selector.RoundRobin)
	w1 := &fakeWorker{eng: eng, delay: 0.001}
	if err := b.Add("t1", w1, 1); err != nil {
		t.Fatal(err)
	}
	if err := b.Add("t1", w1, 1); !errors.Is(err, ErrWorkerExists) {
		t.Fatalf("duplicate add: %v", err)
	}
	if got := b.Members(); len(got) != 1 || got[0] != "t1" {
		t.Fatalf("Workers = %v", got)
	}
	if b.MemberCount() != 1 {
		t.Fatalf("MemberCount = %d", b.MemberCount())
	}
	if err := b.Remove("t1"); err != nil {
		t.Fatal(err)
	}
	if err := b.Remove("t1"); !errors.Is(err, ErrUnknownWorker) {
		t.Fatalf("double remove: %v", err)
	}
	var got error
	b.HandleHTTP(&legacy.WebRequest{}, netsim.ReplyFunc(func(err error) { got = err }))
	eng.Run()
	if !errors.Is(got, ErrNoWorker) {
		t.Fatalf("request with no workers: %v", got)
	}
	if b.Dropped() != 1 {
		t.Fatalf("Dropped = %d", b.Dropped())
	}
}

func TestRemoveWorkerLetsInFlightComplete(t *testing.T) {
	eng, b := newBalancer(t, selector.RoundRobin)
	w := &fakeWorker{eng: eng, delay: 5}
	if err := b.Add("t1", w, 1); err != nil {
		t.Fatal(err)
	}
	completed := false
	b.HandleHTTP(&legacy.WebRequest{}, netsim.ReplyFunc(func(err error) {
		if err != nil {
			t.Errorf("in-flight request failed: %v", err)
		}
		completed = true
	}))
	eng.RunUntil(0.1)
	if err := b.Remove("t1"); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if !completed {
		t.Fatal("in-flight request lost on Remove")
	}
}

func TestPendingAccounting(t *testing.T) {
	eng, b := newBalancer(t, selector.RoundRobin)
	w := &fakeWorker{eng: eng, delay: 1}
	if err := b.Add("t1", w, 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		b.HandleHTTP(&legacy.WebRequest{}, netsim.ReplyFunc(func(error) {}))
	}
	eng.RunUntil(0.5)
	if p, err := b.Pending("t1"); err != nil || p != 3 {
		t.Fatalf("Pending = %d, %v", p, err)
	}
	eng.Run()
	if p, _ := b.Pending("t1"); p != 0 {
		t.Fatalf("Pending after drain = %d", p)
	}
	if _, err := b.Pending("ghost"); !errors.Is(err, ErrUnknownWorker) {
		t.Fatalf("Pending(ghost): %v", err)
	}
}

func TestWorkerErrorsCountedAndPropagated(t *testing.T) {
	eng, b := newBalancer(t, selector.RoundRobin)
	w := &fakeWorker{eng: eng, delay: 0.001, err: errors.New("boom")}
	if err := b.Add("t1", w, 1); err != nil {
		t.Fatal(err)
	}
	var got error
	b.HandleHTTP(&legacy.WebRequest{}, netsim.ReplyFunc(func(err error) { got = err }))
	eng.Run()
	if got == nil || got.Error() != "boom" {
		t.Fatalf("worker error not propagated: %v", got)
	}
}

func TestLifecycle(t *testing.T) {
	eng, b := newBalancer(t, selector.RoundRobin)
	if err := b.Start(); err == nil {
		t.Fatal("double start accepted")
	}
	if b.Addr() != "lbnode:8080" {
		t.Fatalf("Addr = %q", b.Addr())
	}
	b.Stop()
	if b.Running() {
		t.Fatal("running after stop")
	}
	var got error
	b.HandleHTTP(&legacy.WebRequest{}, netsim.ReplyFunc(func(err error) { got = err }))
	eng.Run()
	if !errors.Is(got, ErrNotRunning) {
		t.Fatalf("request to stopped balancer: %v", got)
	}
	b.Stop() // idempotent
	if err := b.Start(); err != nil {
		t.Fatalf("restart: %v", err)
	}
}

func TestBalancerNodeFailure(t *testing.T) {
	eng, b := newBalancer(t, selector.RoundRobin)
	w := &fakeWorker{eng: eng, delay: 0.001}
	if err := b.Add("t1", w, 1); err != nil {
		t.Fatal(err)
	}
	var got error
	b.HandleHTTP(&legacy.WebRequest{}, netsim.ReplyFunc(func(err error) { got = err }))
	b.Node().Fail()
	eng.Run()
	if got == nil {
		t.Fatal("request on failed balancer node succeeded")
	}
}

func TestSessionAffinityStickyAndEvicted(t *testing.T) {
	eng, b := newBalancer(t, selector.Rendezvous)
	workers := map[string]*fakeWorker{}
	for _, n := range []string{"t1", "t2", "t3"} {
		w := &fakeWorker{eng: eng, delay: 0.001}
		workers[n] = w
		if err := b.Add(n, w, 1); err != nil {
			t.Fatal(err)
		}
	}
	// Each session key sticks to one worker across repeated requests.
	for i := 0; i < 5; i++ {
		for _, key := range []string{"s1", "s2", "s3", "s4"} {
			b.HandleHTTP(&legacy.WebRequest{SessionKey: key}, netsim.ReplyFunc(func(error) {}))
		}
		eng.Run()
	}
	if b.SessionCount() != 4 {
		t.Fatalf("SessionCount = %d, want 4", b.SessionCount())
	}
	pinned, ok := b.Sticky("s1")
	if !ok {
		t.Fatal("s1 has no sticky worker")
	}
	total := 0
	for _, w := range workers {
		total += w.served
	}
	if total != 20 {
		t.Fatalf("served total = %d, want 20", total)
	}
	// Removing the pinned worker evicts its sessions; the key re-pins to
	// a survivor and requests keep flowing.
	if err := b.Remove(pinned); err != nil {
		t.Fatal(err)
	}
	if w, ok := b.Sticky("s1"); ok {
		t.Fatalf("session s1 still pinned to departed worker %s", w)
	}
	var got error
	b.HandleHTTP(&legacy.WebRequest{SessionKey: "s1"}, netsim.ReplyFunc(func(err error) { got = err }))
	eng.Run()
	if got != nil {
		t.Fatalf("re-pinned request failed: %v", got)
	}
	if w, ok := b.Sticky("s1"); !ok || w == pinned {
		t.Fatalf("s1 re-pinned to %q (ok=%v), departed worker was %q", w, ok, pinned)
	}
}

// instantWorker answers every request at once.
type instantWorker struct{}

func (instantWorker) HandleHTTP(_ *legacy.WebRequest, done netsim.Reply) { done.Reply(nil) }

// A forwarded request is one record, which is also the worker's reply,
// taken from the balancer's free list (measured 0; 1 while each request
// allocated its record, 2 while the record bound a callback for the
// worker, 10 before the record, the proxy job and the node's own
// allocations included), with instruments on and tracing off.
func TestHandleHTTPAllocs(t *testing.T) {
	eng, b := newBalancer(t, selector.RoundRobin)
	b.Obs = obs.NewTierMetrics(obs.NewRegistry(eng.Now), "lb", "plb")
	if err := b.Add("t1", instantWorker{}, 1); err != nil {
		t.Fatal(err)
	}
	req := &legacy.WebRequest{SessionKey: "s1"}
	answered := 0
	done := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
		answered++
	}
	got := testing.AllocsPerRun(200, func() {
		b.HandleHTTP(req, netsim.ReplyFunc(done))
		eng.Run()
	})
	if got > 0 {
		t.Errorf("a forwarded request allocates %v objects in plb and cluster, want 0", got)
	}
	if answered != 201 || b.Obs.Requests.Value() != 201 {
		t.Fatalf("%d answers and %d counted requests over 201 runs", answered, b.Obs.Requests.Value())
	}
}
