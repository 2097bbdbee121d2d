package fractal

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

// hookRecorder records content-hook invocations and can inject failures.
type hookRecorder struct {
	log       []string
	failStart bool
	failAttr  bool
	failBind  bool
}

func (h *hookRecorder) OnStart(c *Component) error {
	h.log = append(h.log, "start:"+c.Name())
	if h.failStart {
		return errors.New("content start failed")
	}
	return nil
}

func (h *hookRecorder) OnStop(c *Component) error {
	h.log = append(h.log, "stop:"+c.Name())
	return nil
}

func (h *hookRecorder) OnSetAttribute(c *Component, name, value string) error {
	h.log = append(h.log, fmt.Sprintf("attr:%s=%s", name, value))
	if h.failAttr {
		return errors.New("attribute rejected")
	}
	return nil
}

func (h *hookRecorder) OnBind(c *Component, itf string, server *Interface) error {
	h.log = append(h.log, "bind:"+itf+"->"+server.String())
	if h.failBind {
		return errors.New("bind rejected")
	}
	return nil
}

func (h *hookRecorder) OnUnbind(c *Component, itf string, server *Interface) error {
	h.log = append(h.log, "unbind:"+itf+"->"+server.String())
	return nil
}

func mkServer(t *testing.T, name string) *Component {
	t.Helper()
	c, err := NewPrimitive(name, nil,
		ItfSpec{Name: "svc", Signature: "http", Role: Server})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func mkClient(t *testing.T, name string, content any) *Component {
	t.Helper()
	c, err := NewPrimitive(name, content,
		ItfSpec{Name: "out", Signature: "http", Role: Client, Contingency: Optional})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestComponentCreationValidation(t *testing.T) {
	if _, err := NewPrimitive("", nil); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := NewPrimitive("x", nil, ItfSpec{Name: ""}); err == nil {
		t.Fatal("empty interface name accepted")
	}
	if _, err := NewPrimitive("x", nil,
		ItfSpec{Name: "a", Signature: "s", Role: Server},
		ItfSpec{Name: "a", Signature: "s", Role: Server}); !errors.Is(err, ErrDuplicateItf) {
		t.Fatalf("duplicate interface: %v", err)
	}
}

func TestInterfaceIntrospection(t *testing.T) {
	c := mkServer(t, "apache1")
	itf, err := c.Interface("svc")
	if err != nil {
		t.Fatal(err)
	}
	if itf.Name() != "svc" || itf.Role() != Server ||
		itf.Owner() != c || itf.String() != "apache1.svc" {
		t.Fatalf("interface introspection wrong: %+v", itf)
	}
	if _, err := c.Interface("ghost"); !errors.Is(err, ErrNoSuchInterface) {
		t.Fatalf("missing interface: %v", err)
	}
	if got := c.Interfaces(); len(got) != 1 || got[0] != itf {
		t.Fatalf("Interfaces = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustInterface on missing itf did not panic")
		}
	}()
	c.MustInterface("ghost")
}

func TestBindUnbindSingleton(t *testing.T) {
	srv := mkServer(t, "tomcat1")
	srv2 := mkServer(t, "tomcat2")
	cli := mkClient(t, "apache1", nil)
	target := srv.MustInterface("svc")
	if err := cli.Bind("out", target); err != nil {
		t.Fatal(err)
	}
	if bs := cli.Bindings("out"); len(bs) != 1 || bs[0].ServerItf != target {
		t.Fatalf("Bindings = %v", bs)
	}
	// Singleton interface refuses a second binding.
	if err := cli.Bind("out", srv2.MustInterface("svc")); !errors.Is(err, ErrAlreadyBound) {
		t.Fatalf("second bind: %v", err)
	}
	if err := cli.Unbind("out", nil); err != nil {
		t.Fatal(err)
	}
	if len(cli.Bindings("out")) != 0 {
		t.Fatal("still bound after unbind")
	}
	if err := cli.Unbind("out", nil); !errors.Is(err, ErrNotBound) {
		t.Fatalf("double unbind: %v", err)
	}
}

func TestBindValidation(t *testing.T) {
	srv := mkServer(t, "s")
	cli := mkClient(t, "c", nil)
	// Bind on a server interface.
	if err := srv.Bind("svc", cli.MustInterface("out")); !errors.Is(err, ErrRoleMismatch) {
		t.Fatalf("bind server itf: %v", err)
	}
	// Bind to a client interface.
	cli2 := mkClient(t, "c2", nil)
	if err := cli.Bind("out", cli2.MustInterface("out")); !errors.Is(err, ErrRoleMismatch) {
		t.Fatalf("bind to client itf: %v", err)
	}
	// Signature clash.
	odd, err := NewPrimitive("odd", nil, ItfSpec{Name: "svc", Signature: "jdbc", Role: Server})
	if err != nil {
		t.Fatal(err)
	}
	if err := cli.Bind("out", odd.MustInterface("svc")); !errors.Is(err, ErrSignatureClash) {
		t.Fatalf("signature clash: %v", err)
	}
	// Nil target.
	if err := cli.Bind("out", nil); err == nil {
		t.Fatal("nil target accepted")
	}
	// Unknown interface.
	if err := cli.Bind("ghost", srv.MustInterface("svc")); !errors.Is(err, ErrNoSuchInterface) {
		t.Fatalf("bind unknown itf: %v", err)
	}
	if err := cli.Unbind("ghost", nil); !errors.Is(err, ErrNoSuchInterface) {
		t.Fatalf("unbind unknown itf: %v", err)
	}
	if err := srv.Unbind("svc", nil); !errors.Is(err, ErrRoleMismatch) {
		t.Fatalf("unbind server itf: %v", err)
	}
}

func TestStaticBindingRequiresStopped(t *testing.T) {
	srv := mkServer(t, "tomcat1")
	cli := mkClient(t, "apache1", nil)
	if err := cli.Bind("out", srv.MustInterface("svc")); err != nil {
		t.Fatal(err)
	}
	if err := cli.Start(); err != nil {
		t.Fatal(err)
	}
	srv2 := mkServer(t, "tomcat2")
	if err := cli.Unbind("out", nil); !errors.Is(err, ErrNotStopped) {
		t.Fatalf("unbind while started: %v", err)
	}
	if err := cli.Stop(); err != nil {
		t.Fatal(err)
	}
	if err := cli.Unbind("out", nil); err != nil {
		t.Fatal(err)
	}
	if err := cli.Bind("out", srv2.MustInterface("svc")); err != nil {
		t.Fatal(err)
	}
}

func TestDynamicCollectionInterface(t *testing.T) {
	lb, err := NewPrimitive("plb", nil,
		ItfSpec{Name: "workers", Signature: "http", Role: Client,
			Contingency: Optional, Collection: true, Dynamic: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := lb.Start(); err != nil {
		t.Fatal(err)
	}
	t1 := mkServer(t, "tomcat1")
	t2 := mkServer(t, "tomcat2")
	// Dynamic interface binds while started.
	if err := lb.Bind("workers", t1.MustInterface("svc")); err != nil {
		t.Fatal(err)
	}
	if err := lb.Bind("workers", t2.MustInterface("svc")); err != nil {
		t.Fatal(err)
	}
	// Duplicate exact binding refused.
	if err := lb.Bind("workers", t1.MustInterface("svc")); !errors.Is(err, ErrAlreadyBound) {
		t.Fatalf("duplicate collection bind: %v", err)
	}
	if got := lb.Bindings("workers"); len(got) != 2 {
		t.Fatalf("bindings = %d", len(got))
	}
	// Ambiguous unbind requires a target.
	if err := lb.Unbind("workers", nil); err == nil {
		t.Fatal("ambiguous unbind accepted")
	}
	if err := lb.Unbind("workers", t1.MustInterface("svc")); err != nil {
		t.Fatal(err)
	}
	if got := lb.Bindings("workers"); len(got) != 1 || got[0].ServerItf.Owner() != t2 {
		t.Fatalf("bindings after unbind = %v", got)
	}
	// Unbinding a non-bound target fails.
	if err := lb.Unbind("workers", t1.MustInterface("svc")); !errors.Is(err, ErrNotBound) {
		t.Fatalf("unbind absent target: %v", err)
	}
}

func TestMandatoryContingency(t *testing.T) {
	c, err := NewPrimitive("apache1", nil,
		ItfSpec{Name: "ajp", Signature: "ajp13", Role: Client, Contingency: Mandatory})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); !errors.Is(err, ErrMandatoryUnbound) {
		t.Fatalf("start with unbound mandatory itf: %v", err)
	}
	srv, err := NewPrimitive("tomcat1", nil,
		ItfSpec{Name: "ajp", Signature: "ajp13", Role: Server})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Bind("ajp", srv.MustInterface("ajp")); err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
}

func TestLifecycleHooksAndStates(t *testing.T) {
	h := &hookRecorder{}
	c := mkClient(t, "x", h)
	if c.State() != Stopped {
		t.Fatal("fresh component not stopped")
	}
	if err := c.Stop(); !errors.Is(err, ErrNotStarted) {
		t.Fatalf("stop while stopped: %v", err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	if c.State() != Started {
		t.Fatal("not started after Start")
	}
	if err := c.Start(); !errors.Is(err, ErrAlreadyStarted) {
		t.Fatalf("double start: %v", err)
	}
	if err := c.Stop(); err != nil {
		t.Fatal(err)
	}
	want := []string{"start:x", "stop:x"}
	if len(h.log) != 2 || h.log[0] != want[0] || h.log[1] != want[1] {
		t.Fatalf("hook log = %v", h.log)
	}
}

func TestContentStartFailurePropagates(t *testing.T) {
	h := &hookRecorder{failStart: true}
	c := mkClient(t, "x", h)
	if err := c.Start(); err == nil {
		t.Fatal("content failure swallowed")
	}
	if c.State() != Stopped {
		t.Fatal("component started despite content failure")
	}
}

func TestCompositeLifecycleOrder(t *testing.T) {
	root, err := NewComposite("j2ee")
	if err != nil {
		t.Fatal(err)
	}
	var log []string
	mk := func(name string) *Component {
		c, err := NewPrimitive(name, &orderedHook{name: name, log: &log},
			ItfSpec{Name: "out", Signature: "http", Role: Client, Contingency: Optional})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	a, b := mk("mysql1"), mk("tomcat1")
	if err := root.Add(a); err != nil {
		t.Fatal(err)
	}
	if err := root.Add(b); err != nil {
		t.Fatal(err)
	}
	if err := root.Start(); err != nil {
		t.Fatal(err)
	}
	if err := root.Stop(); err != nil {
		t.Fatal(err)
	}
	want := []string{"start:mysql1", "start:tomcat1", "stop:tomcat1", "stop:mysql1"}
	if strings.Join(log, ",") != strings.Join(want, ",") {
		t.Fatalf("lifecycle order = %v, want %v", log, want)
	}
}

type orderedHook struct {
	name string
	log  *[]string
	fail bool
}

func (o *orderedHook) OnStart(*Component) error {
	*o.log = append(*o.log, "start:"+o.name)
	if o.fail {
		return errors.New("boom")
	}
	return nil
}

func (o *orderedHook) OnStop(*Component) error {
	*o.log = append(*o.log, "stop:"+o.name)
	return nil
}

func TestCompositeStartRollsBackOnChildFailure(t *testing.T) {
	root, _ := NewComposite("root")
	var log []string
	ok1, _ := NewPrimitive("ok1", &orderedHook{name: "ok1", log: &log})
	bad, _ := NewPrimitive("bad", &orderedHook{name: "bad", log: &log, fail: true})
	for _, c := range []*Component{ok1, bad} {
		if err := root.Add(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := root.Start(); err == nil {
		t.Fatal("composite start succeeded despite failing child")
	}
	if root.State() != Stopped || ok1.State() != Stopped {
		t.Fatalf("states after rollback: root=%v ok1=%v", root.State(), ok1.State())
	}
	joined := strings.Join(log, ",")
	if !strings.Contains(joined, "stop:ok1") {
		t.Fatalf("started sibling not rolled back: %v", log)
	}
}

func TestContentController(t *testing.T) {
	root, _ := NewComposite("root")
	child := mkServer(t, "c1")
	prim := mkServer(t, "p1")
	if err := prim.Add(child); !errors.Is(err, ErrNotComposite) {
		t.Fatalf("Add on primitive: %v", err)
	}
	if err := root.Add(child); err != nil {
		t.Fatal(err)
	}
	if err := root.Add(child); err == nil {
		t.Fatal("re-adding parented child accepted")
	}
	dup := mkServer(t, "c1")
	if err := root.Add(dup); !errors.Is(err, ErrDuplicateChild) {
		t.Fatalf("duplicate child name: %v", err)
	}
	got, err := root.Child("c1")
	if err != nil || got != child {
		t.Fatalf("Child = %v, %v", got, err)
	}
	if child.Parent() != root || child.Path() != "root/c1" {
		t.Fatalf("parent/path wrong: %v %q", child.Parent(), child.Path())
	}
	if _, err := root.Remove("ghost"); !errors.Is(err, ErrNoSuchChild) {
		t.Fatalf("remove ghost: %v", err)
	}
	if err := child.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := root.Remove("c1"); !errors.Is(err, ErrNotStopped) {
		t.Fatalf("remove started child: %v", err)
	}
	if err := child.Stop(); err != nil {
		t.Fatal(err)
	}
	removed, err := root.Remove("c1")
	if err != nil || removed != child || child.Parent() != nil {
		t.Fatalf("Remove = %v, %v", removed, err)
	}
	if len(root.Children()) != 0 {
		t.Fatal("children not empty after removal")
	}
}

func TestVisitOrder(t *testing.T) {
	root, _ := NewComposite("root")
	a, _ := NewComposite("a")
	b := mkServer(t, "b")
	leaf := mkServer(t, "leaf")
	if err := root.Add(a); err != nil {
		t.Fatal(err)
	}
	if err := a.Add(leaf); err != nil {
		t.Fatal(err)
	}
	if err := root.Add(b); err != nil {
		t.Fatal(err)
	}
	var names []string
	root.Visit(func(c *Component) { names = append(names, c.Name()) })
	want := "root,a,leaf,b"
	if strings.Join(names, ",") != want {
		t.Fatalf("visit order = %v, want %s", names, want)
	}
}

func TestAttributesWithHook(t *testing.T) {
	h := &hookRecorder{}
	c := mkClient(t, "apache1", h)
	if err := c.SetAttribute("port", "80"); err != nil {
		t.Fatal(err)
	}
	if v, err := c.Attribute("port"); err != nil || v != "80" {
		t.Fatalf("Attribute = %q, %v", v, err)
	}
	if err := c.SetAttribute("port", "8080"); err != nil {
		t.Fatal(err)
	}
	if got := c.Attributes(); len(got) != 1 || got[0] != "port" {
		t.Fatalf("Attributes = %v", got)
	}
	if _, err := c.Attribute("ghost"); !errors.Is(err, ErrNoSuchAttribute) {
		t.Fatalf("missing attribute: %v", err)
	}
	if got := c.AttributeOr("ghost", "def"); got != "def" {
		t.Fatalf("AttributeOr = %q", got)
	}
	if err := c.SetAttribute("", "x"); err == nil {
		t.Fatal("empty attribute name accepted")
	}
	// A rejecting hook prevents the attribute from being recorded.
	h.failAttr = true
	if err := c.SetAttribute("bad", "1"); err == nil {
		t.Fatal("rejected attribute accepted")
	}
	if _, err := c.Attribute("bad"); err == nil {
		t.Fatal("rejected attribute stored")
	}
}

func TestBindHookRejection(t *testing.T) {
	h := &hookRecorder{failBind: true}
	srv := mkServer(t, "s")
	cli := mkClient(t, "c", h)
	if err := cli.Bind("out", srv.MustInterface("svc")); err == nil {
		t.Fatal("rejected bind accepted")
	}
	if len(cli.Bindings("out")) != 0 {
		t.Fatal("rejected bind recorded")
	}
}

func TestDescribeRendersArchitecture(t *testing.T) {
	root, _ := NewComposite("j2ee")
	srv := mkServer(t, "tomcat1")
	cli := mkClient(t, "apache1", nil)
	if err := cli.SetAttribute("port", "80"); err != nil {
		t.Fatal(err)
	}
	if err := root.Add(cli); err != nil {
		t.Fatal(err)
	}
	if err := root.Add(srv); err != nil {
		t.Fatal(err)
	}
	if err := cli.Bind("out", srv.MustInterface("svc")); err != nil {
		t.Fatal(err)
	}
	d := root.Describe()
	for _, want := range []string{
		"j2ee [composite, STOPPED]",
		"apache1 [primitive, STOPPED]",
		"@port = 80",
		"out (client http) -> tomcat1.svc",
		"svc (server http)",
	} {
		if !strings.Contains(d, want) {
			t.Fatalf("Describe missing %q:\n%s", want, d)
		}
	}
}

func TestRoleAndStateStrings(t *testing.T) {
	if Server.String() != "server" || Client.String() != "client" {
		t.Fatal("role strings")
	}
	if Stopped.String() != "STOPPED" || Started.String() != "STARTED" {
		t.Fatal("state strings")
	}
}

// Property: any sequence of bind/unbind operations on a collection
// interface leaves Bindings() consistent with the net effect.
func TestPropertyCollectionBindingsConsistent(t *testing.T) {
	servers := make([]*Component, 5)
	for i := range servers {
		s, err := NewPrimitive(fmt.Sprintf("s%d", i), nil,
			ItfSpec{Name: "svc", Signature: "x", Role: Server})
		if err != nil {
			t.Fatal(err)
		}
		servers[i] = s
	}
	f := func(ops []uint8) bool {
		lb, err := NewPrimitive("lb", nil,
			ItfSpec{Name: "w", Signature: "x", Role: Client,
				Contingency: Optional, Collection: true, Dynamic: true})
		if err != nil {
			return false
		}
		want := map[int]bool{}
		for _, op := range ops {
			i := int(op) % len(servers)
			target := servers[i].MustInterface("svc")
			if op%2 == 0 {
				if err := lb.Bind("w", target); err == nil {
					want[i] = true
				} else if !want[i] {
					return false // bind failed though not bound
				}
			} else {
				if err := lb.Unbind("w", target); err == nil {
					if !want[i] {
						return false // unbind succeeded though not bound
					}
					delete(want, i)
				} else if want[i] {
					return false
				}
			}
		}
		return len(lb.Bindings("w")) == len(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
