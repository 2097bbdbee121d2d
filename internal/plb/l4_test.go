package plb

import (
	"errors"
	"fmt"
	"testing"

	"jade/internal/cluster"
	"jade/internal/legacy"
	"jade/internal/netsim"
	"jade/internal/obs"
	"jade/internal/selector"
	"jade/internal/sim"
)

// The L4 switch's cases, against NewL4: the Balancer under the switch's
// kind and defaults.

func newSwitch(t *testing.T) (*sim.Engine, *Balancer) {
	t.Helper()
	eng := sim.NewEngine(3)
	net := legacy.NewNetwork()
	node := cluster.NewNode(eng, "sw", cluster.DefaultConfig())
	s := NewL4(eng, net, node, "l4", DefaultL4Options())
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	return eng, s
}

func TestEqualWeightsRoundRobin(t *testing.T) {
	eng, s := newSwitch(t)
	a := &fakeWorker{eng: eng, delay: 0.001}
	b := &fakeWorker{eng: eng, delay: 0.001}
	if err := s.Add("a", a, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Add("b", b, 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		s.HandleHTTP(&legacy.WebRequest{}, netsim.ReplyFunc(func(error) {}))
	}
	eng.Run()
	if a.served != 5 || b.served != 5 {
		t.Fatalf("split = %d/%d", a.served, b.served)
	}
}

func TestWeightedDistribution(t *testing.T) {
	eng, s := newSwitch(t)
	heavy := &fakeWorker{eng: eng, delay: 0.001}
	light := &fakeWorker{eng: eng, delay: 0.001}
	if err := s.Add("heavy", heavy, 3); err != nil {
		t.Fatal(err)
	}
	if err := s.Add("light", light, 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		s.HandleHTTP(&legacy.WebRequest{}, netsim.ReplyFunc(func(error) {}))
	}
	eng.Run()
	if heavy.served != 30 || light.served != 10 {
		t.Fatalf("weighted split = %d/%d, want 30/10", heavy.served, light.served)
	}
}

func TestServerManagement(t *testing.T) {
	_, s := newSwitch(t)
	a := &fakeWorker{}
	err := s.Add("a", a, 0)
	if !errors.Is(err, ErrBadWeight) || err.Error() != "l4: weight must be positive: 0 for a" {
		t.Fatalf("zero weight: %v", err)
	}
	if err := s.Add("a", a, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Add("a", a, 1); !errors.Is(err, ErrServerExists) {
		t.Fatalf("duplicate: %v", err)
	}
	if got := s.Members(); len(got) != 1 || got[0] != "a" {
		t.Fatalf("Members = %v", got)
	}
	if err := s.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if err := s.Remove("a"); !errors.Is(err, ErrUnknownServer) {
		t.Fatalf("double remove: %v", err)
	}
}

func TestNoServersDrops(t *testing.T) {
	eng, s := newSwitch(t)
	var got error
	s.HandleHTTP(&legacy.WebRequest{}, netsim.ReplyFunc(func(err error) { got = err }))
	eng.Run()
	if !errors.Is(got, ErrNoServer) {
		t.Fatalf("no-server request: %v", got)
	}
	if s.Dropped() != 1 {
		t.Fatalf("Dropped = %d", s.Dropped())
	}
}

func TestSwitchLifecycle(t *testing.T) {
	eng, s := newSwitch(t)
	if err := s.Start(); err == nil {
		t.Fatal("double start accepted")
	}
	if s.Addr() != "sw:80" {
		t.Fatalf("Addr = %q", s.Addr())
	}
	s.Stop()
	if s.Running() {
		t.Fatal("running after stop")
	}
	var got error
	s.HandleHTTP(&legacy.WebRequest{}, netsim.ReplyFunc(func(err error) { got = err }))
	eng.Run()
	if !errors.Is(got, ErrSwitchNotRunning) {
		t.Fatalf("stopped switch request: %v", got)
	}
	s.Stop()
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if s.Forwarded() != 0 {
		t.Fatalf("Forwarded = %d", s.Forwarded())
	}
}

func TestErrorPropagation(t *testing.T) {
	eng, s := newSwitch(t)
	bad := &fakeWorker{eng: eng, delay: 0.001, err: errors.New("down")}
	if err := s.Add("bad", bad, 1); err != nil {
		t.Fatal(err)
	}
	var got error
	s.HandleHTTP(&legacy.WebRequest{}, netsim.ReplyFunc(func(err error) { got = err }))
	eng.Run()
	if got == nil || got.Error() != "down" {
		t.Fatalf("error not propagated: %v", got)
	}
}

func TestSwitchNodeFailure(t *testing.T) {
	eng, s := newSwitch(t)
	a := &fakeWorker{eng: eng, delay: 0.001}
	if err := s.Add("a", a, 1); err != nil {
		t.Fatal(err)
	}
	var got error
	s.HandleHTTP(&legacy.WebRequest{}, netsim.ReplyFunc(func(err error) { got = err }))
	s.Node().Fail()
	eng.Run()
	if got == nil || got.Error() != "l4 l4: switch node failed" {
		t.Fatalf("request on failed switch node: %v", got)
	}
}

// The switch rehashes every connection: under rendezvous it pins no key,
// where a PLB would (TestSessionAffinityStickyAndEvicted).
func TestSwitchPinsNoSession(t *testing.T) {
	eng := sim.NewEngine(3)
	opts := DefaultL4Options()
	opts.Routing = selector.DefaultOptions(selector.Rendezvous)
	s := NewL4(eng, legacy.NewNetwork(), cluster.NewNode(eng, "sw", cluster.DefaultConfig()), "l4", opts)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"a", "b", "c"} {
		if err := s.Add(n, instantWorker{}, 1); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 12; i++ {
		s.HandleHTTP(&legacy.WebRequest{SessionKey: fmt.Sprintf("s%d", i%4)}, netsim.ReplyFunc(func(error) {}))
	}
	eng.Run()
	if s.Forwarded() != 12 || s.SessionCount() != 0 {
		t.Fatalf("forwarded %d, %d sessions pinned; want 12 and 0", s.Forwarded(), s.SessionCount())
	}
}

// An L4 forward is one record, which is also the server's reply, taken
// from the switch's free list as a PLB's is (measured 0; 1 while each
// forward allocated its record, 2 while the record bound a callback for the
// server, 6 before the record, when a forward was a chain of closures
// around Submit). Instruments on, tracing off.
func TestL4HandleHTTPAllocs(t *testing.T) {
	eng, s := newSwitch(t)
	s.Obs = obs.NewTierMetrics(obs.NewRegistry(eng.Now), "lb", "l4")
	if err := s.Add("a", instantWorker{}, 1); err != nil {
		t.Fatal(err)
	}
	req := &legacy.WebRequest{SessionKey: "s1"}
	done := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	got := testing.AllocsPerRun(200, func() {
		s.HandleHTTP(req, netsim.ReplyFunc(done))
		eng.Run()
	})
	if got > 0 {
		t.Errorf("a forwarded connection allocates %v objects in plb and cluster, want 0", got)
	}
	if s.Forwarded() != 201 || s.Obs.Requests.Value() != 201 {
		t.Fatalf("%d forwarded and %d counted requests over 201 runs", s.Forwarded(), s.Obs.Requests.Value())
	}
}
