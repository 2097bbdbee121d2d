package invariant

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"jade/internal/cjdbc"
	"jade/internal/cluster"
	"jade/internal/config"
	"jade/internal/fractal"
	"jade/internal/legacy"
	"jade/internal/netsim"
	"jade/internal/plb"
	"jade/internal/sim"
)

// stubChecker violates after a configurable virtual time.
type stubChecker struct {
	name    string
	failAt  float64
	evalled int
}

func (s *stubChecker) Name() string { return s.name }
func (s *stubChecker) Check(now float64, boundary bool) error {
	s.evalled++
	if s.failAt > 0 && now >= s.failAt {
		return fmt.Errorf("stub violation at %.0f", now)
	}
	return nil
}

func TestHarnessTicksAndBoundaries(t *testing.T) {
	eng := sim.NewEngine(1)
	h := NewHarness(eng)
	c := &stubChecker{name: "stub"}
	h.Register(c)
	h.Start()
	h.CheckNow("deploy:test")
	eng.RunUntil(10)
	h.Stop()
	if h.Violation() != nil {
		t.Fatalf("unexpected violation: %v", h.Violation())
	}
	if h.Boundaries() != 1 {
		t.Fatalf("boundaries = %d, want 1", h.Boundaries())
	}
	// 1 boundary + ticks at 1..10.
	if c.evalled < 10 {
		t.Fatalf("checker evaluated %d times, want >= 10", c.evalled)
	}
	if h.Checks() != uint64(c.evalled) {
		t.Fatalf("Checks() = %d, checker saw %d", h.Checks(), c.evalled)
	}
}

func TestHarnessViolationFreezesEngine(t *testing.T) {
	eng := sim.NewEngine(1)
	h := NewHarness(eng)
	h.Register(&stubChecker{name: "stub", failAt: 3})
	h.Start()
	eng.RunUntil(100)
	v := h.Violation()
	if v == nil {
		t.Fatal("no violation recorded")
	}
	if v.Time != 3 {
		t.Fatalf("violation at t=%v, want 3", v.Time)
	}
	if eng.Now() != 3 {
		t.Fatalf("engine froze at t=%v, want 3 (violation instant)", eng.Now())
	}
	if eng.Err() == nil {
		t.Fatal("engine fault not set")
	}
	// A faulted engine refuses to resume.
	ran := false
	eng.After(1, "post", func() { ran = true })
	eng.RunUntil(200)
	if ran || eng.Now() != 3 {
		t.Fatalf("faulted engine resumed (now=%v ran=%v)", eng.Now(), ran)
	}
}

func TestHarnessContinueOnViolation(t *testing.T) {
	eng := sim.NewEngine(1)
	h := NewHarness(eng)
	h.ContinueOnViolation = true
	h.Register(&stubChecker{name: "stub", failAt: 3})
	h.Start()
	eng.RunUntil(10)
	if eng.Now() != 10 {
		t.Fatalf("engine stopped at %v despite ContinueOnViolation", eng.Now())
	}
	v := h.Violation()
	if v == nil || v.Time != 3 {
		t.Fatalf("first violation = %+v, want t=3", v)
	}
}

func TestNodeConservation(t *testing.T) {
	eng := sim.NewEngine(1)
	pool := cluster.NewPool(eng, "node", 2, cluster.DefaultConfig())
	c := NewNodeConservation(pool)
	if err := c.Check(0, false); err != nil {
		t.Fatalf("fresh pool: %v", err)
	}
	n, err := pool.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	n.Submit(100, nil, nil)
	eng.RunUntil(1)
	if err := c.Check(1, false); err != nil {
		t.Fatalf("busy node: %v", err)
	}
	// Simulate a buggy actuator writing to a crashed node: memory held on
	// a failed node is a conservation violation.
	n.Fail()
	if err := n.AllocMemory(10); err != nil {
		t.Fatal(err)
	}
	err = c.Check(2, false)
	if err == nil || !strings.Contains(err.Error(), "still holds") {
		t.Fatalf("failed node with memory: err = %v, want 'still holds'", err)
	}
}

func TestLifecycleChecker(t *testing.T) {
	newComp := func(name string, specs ...fractal.ItfSpec) *fractal.Component {
		c, err := fractal.NewPrimitive(name, nil, specs...)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	a := newComp("a", fractal.ItfSpec{Name: "out", Signature: "svc", Role: fractal.Client})
	b := newComp("b", fractal.ItfSpec{Name: "in", Signature: "svc", Role: fractal.Server})
	if err := a.Bind("out", b.MustInterface("in")); err != nil {
		t.Fatal(err)
	}
	chk := NewLifecycle(a, b)
	// Both stopped: legal.
	if err := chk.Check(0, true); err != nil {
		t.Fatalf("both stopped: %v", err)
	}
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	if err := chk.Check(1, true); err != nil {
		t.Fatalf("both started: %v", err)
	}
	// Stop the server while the client stays started: illegal.
	if err := b.Stop(); err != nil {
		t.Fatal(err)
	}
	err := chk.Check(2, true)
	if err == nil || !strings.Contains(err.Error(), "STOPPED") {
		t.Fatalf("started->stopped binding: err = %v, want STOPPED violation", err)
	}
}

func TestArbiterLegality(t *testing.T) {
	var log []ArbiterDecisionView
	chk := NewArbiterLegality(120, func() []ArbiterDecisionView { return log })

	// Sizing granted, then recovery preempts inside the window: legal.
	log = append(log, ArbiterDecisionView{T: 10, Priority: 1, Granted: true})
	log = append(log, ArbiterDecisionView{T: 20, Priority: 10, Granted: true})
	if err := chk.Check(20, true); err != nil {
		t.Fatalf("recovery preempting sizing: %v", err)
	}
	// Sizing granted inside recovery's quiet window: illegal.
	log = append(log, ArbiterDecisionView{T: 30, Priority: 1, Granted: true})
	err := chk.Check(30, true)
	if err == nil || !strings.Contains(err.Error(), "quiet window") {
		t.Fatalf("sizing preempting recovery: err = %v, want quiet-window violation", err)
	}
}

func TestArbiterLegalityRespectsRelease(t *testing.T) {
	var log []ArbiterDecisionView
	chk := NewArbiterLegality(120, func() []ArbiterDecisionView { return log })
	log = append(log,
		ArbiterDecisionView{T: 10, Priority: 10, Granted: true},
		ArbiterDecisionView{T: 15, Priority: 10, Granted: true, Released: true},
		ArbiterDecisionView{T: 20, Priority: 1, Granted: true},
	)
	if err := chk.Check(20, true); err != nil {
		t.Fatalf("grant after early release: %v", err)
	}
}

type fakeTier struct {
	name     string
	replicas []string
	busy     bool
}

func (f *fakeTier) TierName() string       { return f.name }
func (f *fakeTier) ReplicaNames() []string { return f.replicas }
func (f *fakeTier) Reconfiguring() bool    { return f.busy }

func TestBalancerAgreement(t *testing.T) {
	tier := &fakeTier{name: "app", replicas: []string{"t1", "t2"}}
	members := []string{"t1", "t2"}
	chk := NewBalancerAgreement("plb/app", func() []string { return members }, tier)

	if err := chk.Check(0, true); err != nil {
		t.Fatalf("matching sets: %v", err)
	}
	// Member that is not a replica: illegal.
	members = []string{"t1", "ghost"}
	if err := chk.Check(1, true); err == nil || !strings.Contains(err.Error(), "not a replica") {
		t.Fatalf("ghost member: err = %v, want 'not a replica'", err)
	}
	// Missing member while quiescent: illegal.
	members = []string{"t1"}
	if err := chk.Check(2, true); err == nil || !strings.Contains(err.Error(), "missing from balancer") {
		t.Fatalf("missing member: err = %v, want 'missing from balancer'", err)
	}
	// Same gap mid-reconfiguration: legal.
	tier.busy = true
	if err := chk.Check(3, true); err != nil {
		t.Fatalf("missing member mid-reconfiguration: %v", err)
	}
	// Balancer down: skipped.
	members = nil
	tier.busy = false
	if err := chk.Check(4, true); err != nil {
		t.Fatalf("balancer down: %v", err)
	}
}

func TestBalancerAgreementNegativePending(t *testing.T) {
	tier := &fakeTier{name: "app", replicas: []string{"t1"}}
	chk := NewBalancerAgreement("plb/app", func() []string { return []string{"t1"} }, tier)
	chk.Pendings = func() map[string]int { return map[string]int{"t1": -1} }
	if err := chk.Check(0, true); err == nil || !strings.Contains(err.Error(), "negative") {
		t.Fatalf("negative pending: err = %v, want 'negative'", err)
	}
}

func TestBalancerAgreementFailedNodeGrace(t *testing.T) {
	eng := sim.NewEngine(1)
	pool := cluster.NewPool(eng, "node", 1, cluster.DefaultConfig())
	n, err := pool.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	tier := &fakeTier{name: "app", replicas: []string{"t1"}}
	chk := NewBalancerAgreement("plb/app", func() []string { return []string{"t1"} }, tier)
	chk.NodeOf = func(string) (*cluster.Node, error) { return n, nil }
	chk.FailedGrace = 100
	n.Fail()
	if err := chk.Check(10, true); err != nil {
		t.Fatalf("within grace: %v", err)
	}
	if err := chk.Check(60, true); err != nil {
		t.Fatalf("still within grace: %v", err)
	}
	if err := chk.Check(111, true); err == nil || !strings.Contains(err.Error(), "failed node") {
		t.Fatalf("past grace: err = %v, want failed-node violation", err)
	}
	// Repair heals the node; the clock resets.
	n.Reboot()
	if err := chk.Check(112, true); err != nil {
		t.Fatalf("healed node: %v", err)
	}
}

// nopHandler is a no-op HTTP target for registering balancer members.
type nopHandler struct{}

func (nopHandler) HandleHTTP(req *legacy.WebRequest, done netsim.Reply) { done.Reply(nil) }

// TestBalancerAgreementOverL4Switch drives the checker against a real L4
// switch: its member set must track the replica set exactly like the PLB.
func TestBalancerAgreementOverL4Switch(t *testing.T) {
	eng := sim.NewEngine(1)
	net := legacy.NewNetwork()
	pool := cluster.NewPool(eng, "node", 1, cluster.DefaultConfig())
	n, err := pool.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	sw := plb.NewL4(eng, net, n, "l4", plb.DefaultL4Options())
	if err := sw.Start(); err != nil {
		t.Fatal(err)
	}
	tier := &fakeTier{name: "web", replicas: []string{"apache1", "apache2"}}
	chk := NewBalancerAgreement("l4/web", func() []string {
		if !sw.Running() {
			return nil
		}
		return sw.Members()
	}, tier)
	chk.Pendings = sw.Pendings

	handler := nopHandler{}
	for _, name := range tier.replicas {
		if err := sw.Add(name, handler, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := chk.Check(0, true); err != nil {
		t.Fatalf("matching L4 members: %v", err)
	}
	// A member the actuator does not know about is a violation.
	if err := sw.Add("rogue", handler, 1); err != nil {
		t.Fatal(err)
	}
	if err := chk.Check(1, true); err == nil || !strings.Contains(err.Error(), "not a replica") {
		t.Fatalf("rogue L4 member: err = %v, want 'not a replica'", err)
	}
	if err := sw.Remove("rogue"); err != nil {
		t.Fatal(err)
	}
	// A replica silently dropped from the switch is a violation too.
	if err := sw.Remove("apache2"); err != nil {
		t.Fatal(err)
	}
	if err := chk.Check(2, true); err == nil || !strings.Contains(err.Error(), "missing from balancer") {
		t.Fatalf("dropped L4 member: err = %v, want 'missing from balancer'", err)
	}
	// A stopped switch is skipped entirely.
	sw.Stop()
	if err := chk.Check(3, true); err != nil {
		t.Fatalf("stopped switch: %v", err)
	}
}

// cjdbcRig builds a controller with two active MySQL backends.
type cjdbcRig struct {
	eng *sim.Engine
	env *legacy.Env
	ctl *cjdbc.Controller
	dbs map[string]*legacy.MySQL
}

func newCJDBCRig(t *testing.T) *cjdbcRig {
	t.Helper()
	eng := sim.NewEngine(11)
	env := &legacy.Env{Eng: eng, Net: legacy.NewNetwork(), FS: config.NewMemFS()}
	pool := cluster.NewPool(eng, "node", 4, cluster.DefaultConfig())
	cn, err := pool.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	ctl := cjdbc.New(eng, env.Net, cn, "cjdbc", cjdbc.DefaultOptions())
	if err := ctl.Start(); err != nil {
		t.Fatal(err)
	}
	r := &cjdbcRig{eng: eng, env: env, ctl: ctl, dbs: map[string]*legacy.MySQL{}}
	for _, name := range []string{"mysql1", "mysql2"} {
		n, err := pool.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		m := legacy.NewMySQL(env, name, n, legacy.DefaultMySQLOptions())
		cnf := config.NewMyCnf()
		cnf.SetInt("mysqld", "port", 3306)
		if err := env.FS.WriteFile(m.ConfPath(), []byte(cnf.Render())); err != nil {
			t.Fatal(err)
		}
		started := errors.New("pending")
		m.Start(func(err error) { started = err })
		eng.Run()
		if started != nil {
			t.Fatal(started)
		}
		joined := errors.New("pending")
		if err := ctl.Join(name, m, func(err error) { joined = err }); err != nil {
			t.Fatal(err)
		}
		eng.Run()
		if joined != nil {
			t.Fatal(joined)
		}
		r.dbs[name] = m
	}
	return r
}

func (r *cjdbcRig) exec(t *testing.T, sql string) {
	t.Helper()
	done := errors.New("pending")
	r.ctl.ExecSQL(legacy.Query{SQL: sql}, netsim.ReplyFunc(func(err error) { done = err }))
	r.eng.Run()
	if done != nil {
		t.Fatalf("%s: %v", sql, done)
	}
}

func TestCJDBCConsistencyChecker(t *testing.T) {
	r := newCJDBCRig(t)
	chk := NewCJDBCConsistency("cjdbc", func() *cjdbc.Controller { return r.ctl })
	r.exec(t, "CREATE TABLE items (id INT, qty INT)")
	r.exec(t, "INSERT INTO items (id, qty) VALUES (1, 10)")
	if err := chk.Check(r.eng.Now(), true); err != nil {
		t.Fatalf("replicated writes: %v", err)
	}
	r.exec(t, "UPDATE items SET qty = 20 WHERE id = 1")
	if err := chk.Check(r.eng.Now(), true); err != nil {
		t.Fatalf("after update: %v", err)
	}
	// Corrupt one backend directly, bypassing the controller's write
	// broadcast: same applied index, different state.
	if _, err := r.dbs["mysql2"].DB().Exec("UPDATE items SET qty = 999 WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	err := chk.Check(r.eng.Now()+1, true)
	if err == nil || !strings.Contains(err.Error(), "state divergence") {
		t.Fatalf("corrupted backend: err = %v, want state divergence", err)
	}
}

// A backend corrupted between two ticker checks one second apart is reported
// by the second: fingerprints are compared on every check, not every few.
func TestCJDBCConsistencyCatchesDivergenceOnNextTick(t *testing.T) {
	r := newCJDBCRig(t)
	chk := NewCJDBCConsistency("cjdbc", func() *cjdbc.Controller { return r.ctl })
	r.exec(t, "CREATE TABLE items (id INT)")
	if err := chk.Check(1, false); err != nil {
		t.Fatal(err)
	}
	if _, err := r.dbs["mysql2"].DB().Exec("INSERT INTO items (id) VALUES (7)"); err != nil {
		t.Fatal(err)
	}
	err := chk.Check(2, false)
	if err == nil || !strings.Contains(err.Error(), "state divergence") {
		t.Fatalf("tick after the corruption: err = %v, want state divergence", err)
	}
}
