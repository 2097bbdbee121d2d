package core

import (
	"errors"
	"strings"
	"testing"

	"jade/internal/adl"
	"jade/internal/legacy"
	"jade/internal/netsim"
)

func TestApacheWrapperPortReflectedIntoHTTPDConf(t *testing.T) {
	p := NewPlatform(DefaultOptions())
	node, err := p.Pool.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	comp, err := NewApacheComponent(p, "apache1", node)
	if err != nil {
		t.Fatal(err)
	}
	if err := comp.SetAttribute("port", "8081"); err != nil {
		t.Fatal(err)
	}
	aw := comp.Content().(*ApacheWrapper)
	raw, err := p.FS.ReadFile(aw.Server().ConfPath())
	if err != nil {
		t.Fatal(err)
	}
	hc, err := legacy.ParseHTTPD(raw)
	if err != nil {
		t.Fatal(err)
	}
	if port, err := hc.GetInt("Listen"); err != nil || port != 8081 {
		t.Fatalf("Listen = %d, %v", port, err)
	}
	// Bad ports rejected before touching the file.
	for _, bad := range []string{"x", "-1", "0"} {
		if err := comp.SetAttribute("port", bad); !errors.Is(err, ErrBadAttribute) {
			t.Fatalf("port %q: %v", bad, err)
		}
	}
	// The legacy server actually listens on the configured port.
	var serr error = errors.New("pending")
	p.StartComponent(comp, func(err error) { serr = err })
	p.Eng.Run()
	if serr != nil {
		t.Fatal(serr)
	}
	if _, err := p.Net.LookupHTTP(node.Name() + ":8081"); err != nil {
		t.Fatalf("apache not listening on configured port: %v", err)
	}
}

func TestTomcatWrapperUnbindRemovesJDBCResource(t *testing.T) {
	_, dep := deployThreeTier(t)
	p := dep.MustComponent("tomcat1").Content().(*TomcatWrapper).p
	tomcat := dep.MustComponent("tomcat1")
	var serr error = errors.New("pending")
	p.StopComponent(tomcat, func(err error) { serr = err })
	p.Eng.Run()
	if serr != nil {
		t.Fatal(serr)
	}
	if err := tomcat.Unbind("jdbc", nil); err != nil {
		t.Fatal(err)
	}
	tw := tomcat.Content().(*TomcatWrapper)
	raw, err := p.FS.ReadFile(tw.Server().ConfPath())
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(raw), "jdbc:mysql") {
		t.Fatalf("server.xml still holds a JDBC resource:\n%s", raw)
	}
	// Restarting without the resource works; query-free requests serve.
	serr = errors.New("pending")
	p.StartComponent(tomcat, func(err error) { serr = err })
	p.Eng.Run()
	if serr != nil {
		t.Fatal(serr)
	}
}

func TestCJDBCWrapperReadPolicyAttribute(t *testing.T) {
	p := NewPlatform(DefaultOptions())
	node, err := p.Pool.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	comp, err := NewCJDBCComponent(p, "cjdbc1", node)
	if err != nil {
		t.Fatal(err)
	}
	if err := comp.SetAttribute("read-policy", "round-robin"); err != nil {
		t.Fatal(err)
	}
	if err := comp.SetAttribute("read-policy", "banana"); !errors.Is(err, ErrBadAttribute) {
		t.Fatalf("bad policy: %v", err)
	}
	var serr error = errors.New("pending")
	p.StartComponent(comp, func(err error) { serr = err })
	p.Eng.Run()
	if serr != nil {
		t.Fatal(serr)
	}
	// Frozen while running.
	if err := comp.SetAttribute("read-policy", "least-pending"); !errors.Is(err, ErrAttributeFrozen) {
		t.Fatalf("policy change while running: %v", err)
	}
	if err := comp.SetAttribute("port", "9999"); !errors.Is(err, ErrAttributeFrozen) {
		t.Fatalf("port change while running: %v", err)
	}
}

func TestBalancerWrappersRejectNonHTTPTargets(t *testing.T) {
	p := NewPlatform(DefaultOptions())
	n1, _ := p.Pool.Allocate()
	n2, _ := p.Pool.Allocate()
	n3, _ := p.Pool.Allocate()
	plbComp, err := NewPLBComponent(p, "plb1", n1)
	if err != nil {
		t.Fatal(err)
	}
	l4Comp, err := NewL4Component(p, "l4", n2)
	if err != nil {
		t.Fatal(err)
	}
	// A MySQL "sql" interface has signature jdbc — the fractal layer
	// rejects it on signature grounds before the wrapper even runs.
	mysqlComp, err := NewMySQLComponent(p, "mysql1", n3)
	if err != nil {
		t.Fatal(err)
	}
	sqlItf := mysqlComp.MustInterface("sql")
	if err := plbComp.Bind("workers", sqlItf); err == nil {
		t.Fatal("plb bound a jdbc interface")
	}
	if err := l4Comp.Bind("servers", sqlItf); err == nil {
		t.Fatal("l4 bound a jdbc interface")
	}
}

func TestL4WrapperLiveServerManagement(t *testing.T) {
	// Deploy the web tier standalone: l4 over one apache, then bind a
	// second apache live (the l4 "servers" interface is dynamic).
	p := NewPlatform(DefaultOptions())
	db, _ := smallDataset().InitialDatabase(1)
	p.RegisterDump("rubis", db)
	def, err := adl.Parse(`<definition name="web">
	  <component name="l4" wrapper="l4"/>
	  <component name="apache1" wrapper="apache"/>
	  <component name="apache2" wrapper="apache"/>
	  <binding client="l4.servers" server="apache1.http"/>
	</definition>`)
	if err != nil {
		t.Fatal(err)
	}
	var dep *Deployment
	derr := errors.New("pending")
	p.Deploy(def, func(d *Deployment, err error) { dep, derr = d, err })
	p.Eng.Run()
	if derr != nil {
		t.Fatal(derr)
	}
	l4c := dep.MustComponent("l4")
	lw := l4c.Content().(*BalancerWrapper)
	if got := lw.Balancer().Members(); len(got) != 1 {
		t.Fatalf("servers = %v", got)
	}
	// Live bind of apache2.
	if err := l4c.Bind("servers", dep.MustComponent("apache2").MustInterface("http")); err != nil {
		t.Fatal(err)
	}
	if got := lw.Balancer().Members(); len(got) != 2 {
		t.Fatalf("servers after live bind = %v", got)
	}
	// Static requests split across both.
	for i := 0; i < 8; i++ {
		lw.Balancer().HandleHTTP(&legacy.WebRequest{Static: true, WebCost: 0.001}, netsim.ReplyFunc(func(err error) {
			if err != nil {
				t.Errorf("request: %v", err)
			}
		}))
	}
	p.Eng.Run()
	a1 := dep.MustComponent("apache1").Content().(*ApacheWrapper).Server().Served()
	a2 := dep.MustComponent("apache2").Content().(*ApacheWrapper).Server().Served()
	if a1 != 4 || a2 != 4 {
		t.Fatalf("split = %d/%d", a1, a2)
	}
	// Live unbind.
	if err := l4c.Unbind("servers", dep.MustComponent("apache2").MustInterface("http")); err != nil {
		t.Fatal(err)
	}
	if got := lw.Balancer().Members(); len(got) != 1 {
		t.Fatalf("servers after live unbind = %v", got)
	}
}

func TestWrapperKindsAndNodes(t *testing.T) {
	_, dep := deployThreeTier(t)
	kinds := map[string]string{
		"plb1": "plb", "tomcat1": "tomcat", "cjdbc1": "cjdbc", "mysql1": "mysql",
	}
	for name, kind := range kinds {
		w := dep.MustComponent(name).Content().(Wrapper)
		if w.Kind() != kind {
			t.Fatalf("%s kind = %q", name, w.Kind())
		}
		node, err := dep.NodeOf(name)
		if err != nil || w.Node() != node {
			t.Fatalf("%s node mismatch", name)
		}
	}
}
