package core

import (
	"errors"
	"strings"
	"testing"

	"jade/internal/adl"
	"jade/internal/cluster"
	"jade/internal/fractal"
	"jade/internal/legacy"
	"jade/internal/netsim"
	"jade/internal/rubis"
)

// threeTierADL is the paper's deployment: PLB in front of one Tomcat,
// C-JDBC in front of one MySQL.
const threeTierADL = `<?xml version="1.0"?>
<definition name="rubis-j2ee">
  <component name="plb1" wrapper="plb"/>
  <composite name="app-tier">
    <component name="tomcat1" wrapper="tomcat"/>
  </composite>
  <composite name="db-tier">
    <component name="cjdbc1" wrapper="cjdbc"/>
    <component name="mysql1" wrapper="mysql">
      <attribute name="dump" value="rubis"/>
    </component>
  </composite>
  <binding client="plb1.workers" server="tomcat1.http"/>
  <binding client="tomcat1.jdbc" server="cjdbc1.jdbc"/>
  <binding client="cjdbc1.backends" server="mysql1.sql"/>
</definition>
`

// smallDataset keeps population fast in unit tests.
func smallDataset() rubis.Dataset {
	return rubis.Dataset{Regions: 5, Categories: 5, Users: 30, Items: 40, BidsPerItem: 1, CommentsPerUser: 1}
}

// deployThreeTier spins up a platform and deploys the standard stack.
func deployThreeTier(t *testing.T) (*Platform, *Deployment) {
	t.Helper()
	p := NewPlatform(DefaultOptions())
	db, err := smallDataset().InitialDatabase(p.opts.Seed)
	if err != nil {
		t.Fatal(err)
	}
	p.RegisterDump("rubis", db)
	def, err := adl.Parse(threeTierADL)
	if err != nil {
		t.Fatal(err)
	}
	var dep *Deployment
	var derr error = errors.New("pending")
	p.Deploy(def, func(d *Deployment, err error) { dep, derr = d, err })
	p.Eng.Run()
	if derr != nil {
		t.Fatal(derr)
	}
	return p, dep
}

// run sends one request through the deployed front end and waits (with a
// bounded horizon, since armed control loops keep the event queue
// non-empty forever).
func run(t *testing.T, p *Platform, dep *Deployment, req *legacy.WebRequest) error {
	t.Helper()
	front := dep.MustComponent("plb1").Content().(*BalancerWrapper).Balancer()
	var got error = errors.New("request never completed")
	doneAt := -1.0
	front.HandleHTTP(req, netsim.ReplyFunc(func(err error) { got, doneAt = err, p.Eng.Now() }))
	p.Eng.RunUntil(p.Eng.Now() + 60)
	if doneAt < 0 {
		t.Fatal("request did not complete within 60 simulated seconds")
	}
	return got
}

func TestDeployThreeTierArchitecture(t *testing.T) {
	p, dep := deployThreeTier(t)
	for _, name := range []string{"plb1", "tomcat1", "cjdbc1", "mysql1"} {
		c, err := dep.Component(name)
		if err != nil {
			t.Fatal(err)
		}
		if c.State() != fractal.Started {
			t.Fatalf("%s state = %v", name, c.State())
		}
	}
	// Architecture introspection (§3.2: "inspect the overall J2EE
	// infrastructure, considered as a single composite component").
	desc := dep.Describe()
	for _, want := range []string{"rubis-j2ee [composite", "app-tier", "db-tier",
		"tomcat1", "workers (client http) -> tomcat1.http",
		"jdbc (client jdbc) -> cjdbc1.jdbc", "backends (client jdbc) -> mysql1.sql"} {
		if !strings.Contains(desc, want) {
			t.Fatalf("Describe missing %q:\n%s", want, desc)
		}
	}
	// Four components, four nodes allocated.
	if p.Pool.AllocatedCount() != 4 {
		t.Fatalf("allocated nodes = %d", p.Pool.AllocatedCount())
	}
	// The dump was installed on the initial replica.
	mw := dep.MustComponent("mysql1").Content().(*MySQLWrapper)
	if mw.Server().DB().RowCount("users") != smallDataset().Users {
		t.Fatal("dump not installed on initial replica")
	}
	// The SIS installed each component's package on its node.
	for name, pkg := range map[string]string{"plb1": "plb", "tomcat1": "tomcat", "cjdbc1": "cjdbc", "mysql1": "mysql"} {
		if n, err := dep.NodeOf(name); err != nil || !p.SIS.IsInstalled(n, pkg) {
			t.Fatalf("%s: package %s not installed on its node (%v)", name, pkg, err)
		}
	}
}

func TestEndToEndRequestThroughDeployedStack(t *testing.T) {
	p, dep := deployThreeTier(t)
	req := &legacy.WebRequest{
		Interaction: "ViewItem",
		WebCost:     0.001, AppCost: 0.01,
		Queries: []legacy.Query{
			{SQL: "SELECT * FROM items WHERE id = 1", Cost: 0.02},
			{SQL: "INSERT INTO buy_now (id, buyer_id, item_id, qty, date) VALUES (100, 1, 1, 1, 0)", Cost: 0.01},
		},
	}
	if err := run(t, p, dep, req); err != nil {
		t.Fatal(err)
	}
	mw := dep.MustComponent("mysql1").Content().(*MySQLWrapper)
	if mw.Server().DB().RowCount("buy_now") != 1 {
		t.Fatal("write did not reach the database tier")
	}
	cw := dep.MustComponent("cjdbc1").Content().(*CJDBCWrapper)
	if cw.Controller().Log().Len() != 1 {
		t.Fatalf("recovery log = %d records", cw.Controller().Log().Len())
	}
}

func TestDeployValidationFailures(t *testing.T) {
	p := NewPlatform(DefaultOptions())
	// Unknown wrapper.
	bad, err := adl.Parse(`<definition name="x"><component name="a" wrapper="oracle"/></definition>`)
	if err != nil {
		t.Fatal(err)
	}
	var derr error
	p.Deploy(bad, func(_ *Deployment, err error) { derr = err })
	p.Eng.Run()
	if !errors.Is(derr, adl.ErrUnknownWrapper) {
		t.Fatalf("unknown wrapper: %v", derr)
	}
	// Pool exhaustion: 9 nodes, 10 components.
	var b strings.Builder
	b.WriteString(`<definition name="big">`)
	for i := 0; i < 10; i++ {
		b.WriteString(`<component name="m` + string(rune('a'+i)) + `" wrapper="mysql"/>`)
	}
	b.WriteString(`</definition>`)
	big, err := adl.Parse(b.String())
	if err != nil {
		t.Fatal(err)
	}
	derr = nil
	p2 := NewPlatform(DefaultOptions())
	p2.Deploy(big, func(_ *Deployment, err error) { derr = err })
	p2.Eng.Run()
	if derr == nil {
		t.Fatal("deploying 10 components on 9 nodes succeeded")
	}
	// The aborted deployment released every node it had claimed.
	if p2.Pool.AllocatedCount() != 0 {
		t.Fatalf("failed deploy leaked %d nodes", p2.Pool.AllocatedCount())
	}
	if p2.Pool.FreeCount() != 9 {
		t.Fatalf("free = %d after aborted deploy", p2.Pool.FreeCount())
	}
}

func TestAbortedDeployStopsStartedComponents(t *testing.T) {
	// A dangling binding is discovered after components are created;
	// everything must be rolled back and no listener may survive.
	p := NewPlatform(DefaultOptions())
	db, _ := smallDataset().InitialDatabase(1)
	p.RegisterDump("rubis", db)
	def, err := adl.Parse(`<definition name="broken">
	  <component name="mysql1" wrapper="mysql"><attribute name="dump" value="rubis"/></component>
	  <component name="tomcat1" wrapper="tomcat"/>
	  <binding client="tomcat1.jdbc" server="mysql1.ghost"/>
	</definition>`)
	if err != nil {
		t.Fatal(err)
	}
	var derr error
	p.Deploy(def, func(_ *Deployment, err error) { derr = err })
	p.Eng.Run()
	if derr == nil {
		t.Fatal("deploy with dangling interface succeeded")
	}
	if p.Pool.AllocatedCount() != 0 {
		t.Fatalf("leaked %d nodes", p.Pool.AllocatedCount())
	}
	if got := len(p.Net.Addresses()); got != 0 {
		t.Fatalf("leaked %d listeners: %v", got, p.Net.Addresses())
	}
	requireNoManagementFootprint(t, p)

	// A placement that fails after the wrapper factory ran — the factory
	// charged the node the management footprint, then an attribute is
	// refused, or the root already holds a composite of that name (neither
	// is Validate's to catch) — gives the node back without the footprint,
	// like the placements before it.
	for _, adlText := range []string{
		`<definition name="bad-attribute">
		  <component name="mysql1" wrapper="mysql"/>
		  <component name="tomcat1" wrapper="tomcat"><attribute name="ajp-port" value="none"/></component>
		</definition>`,
		`<definition name="name-clash">
		  <composite name="db"><component name="mysql1" wrapper="mysql"/></composite>
		  <component name="db" wrapper="mysql"/>
		</definition>`,
	} {
		p := NewPlatform(DefaultOptions())
		def, err := adl.Parse(adlText)
		if err != nil {
			t.Fatal(err)
		}
		derr = nil
		p.Deploy(def, func(_ *Deployment, err error) { derr = err })
		p.Eng.Run()
		if derr == nil {
			t.Fatalf("%s deployed", def.Name)
		}
		if p.Pool.AllocatedCount() != 0 {
			t.Fatalf("%s: leaked %d nodes (%v)", def.Name, p.Pool.AllocatedCount(), derr)
		}
		requireNoManagementFootprint(t, p)
	}
}

// requireNoManagementFootprint checks that no node of an emptied platform
// is still charged Table 1's per-node management components: every node
// holds its installed packages and nothing else.
func requireNoManagementFootprint(t *testing.T, p *Platform) {
	t.Helper()
	if len(p.mgmtNodes) != 0 {
		t.Fatalf("nodes still carrying the management footprint: %v", p.mgmtNodes)
	}
	for _, n := range p.Pool.Nodes() {
		var pkgs float64
		for _, name := range p.SIS.Packages() {
			if p.SIS.IsInstalled(n, name) {
				pkgs += p.SIS.packages[name].MemoryMB
			}
		}
		if n.MemoryUsed() != pkgs {
			t.Fatalf("%s holds %v MB, its installed packages %v MB", n.Name(), n.MemoryUsed(), pkgs)
		}
	}
}

func TestDeployPinnedNode(t *testing.T) {
	p := NewPlatform(DefaultOptions())
	db, _ := smallDataset().InitialDatabase(1)
	p.RegisterDump("rubis", db)
	def, err := adl.Parse(`<definition name="pinned">
	  <component name="mysql1" wrapper="mysql" node="node7"/>
	</definition>`)
	if err != nil {
		t.Fatal(err)
	}
	var dep *Deployment
	var derr error = errors.New("pending")
	p.Deploy(def, func(d *Deployment, err error) { dep, derr = d, err })
	p.Eng.Run()
	if derr != nil {
		t.Fatal(derr)
	}
	n, err := dep.NodeOf("mysql1")
	if err != nil || n.Name() != "node7" {
		t.Fatalf("pinned node = %v, %v", n, err)
	}
}

// teardown, which an aborted deployment runs, stops and retires every
// component of a running deployment and releases everything it holds.
func TestUndeployReleasesEverything(t *testing.T) {
	p, dep := deployThreeTier(t)
	var comps []*fractal.Component
	for _, name := range dep.ComponentNames() {
		comps = append(comps, dep.MustComponent(name))
	}
	var uerr error = errors.New("pending")
	p.teardown(dep, func(err error) { uerr = err })
	p.Eng.Run()
	if uerr != nil {
		t.Fatal(uerr)
	}
	if p.Pool.AllocatedCount() != 0 {
		t.Fatalf("allocated after teardown = %d", p.Pool.AllocatedCount())
	}
	for _, c := range comps {
		if c.State() != fractal.Stopped || c.Parent() != nil {
			t.Fatalf("%s still started or in the architecture after teardown", c.Name())
		}
	}
	if got := dep.ComponentNames(); len(got) != 4-len(comps) {
		t.Fatalf("components still deployed after teardown: %v", got)
	}
	requireNoManagementFootprint(t, p)
}

func TestFigure4ReconfigurationViaComponentOperations(t *testing.T) {
	// The paper's qualitative scenario, §5.1: with Jade the rebind is
	// exactly four operations on the management layer; the
	// worker.properties rewrite happens inside the wrapper.
	p := NewPlatform(DefaultOptions())
	db, _ := smallDataset().InitialDatabase(1)
	p.RegisterDump("rubis", db)
	def, err := adl.Parse(`<definition name="fig4">
	  <component name="apache1" wrapper="apache"/>
	  <component name="tomcat1" wrapper="tomcat"/>
	  <component name="tomcat2" wrapper="tomcat">
	    <attribute name="ajp-port" value="8098"/>
	  </component>
	  <component name="cjdbc1" wrapper="cjdbc"/>
	  <component name="mysql1" wrapper="mysql"><attribute name="dump" value="rubis"/></component>
	  <binding client="apache1.ajp" server="tomcat1.ajp"/>
	  <binding client="tomcat1.jdbc" server="cjdbc1.jdbc"/>
	  <binding client="tomcat2.jdbc" server="cjdbc1.jdbc"/>
	  <binding client="cjdbc1.backends" server="mysql1.sql"/>
	</definition>`)
	if err != nil {
		t.Fatal(err)
	}
	var dep *Deployment
	var derr error = errors.New("pending")
	p.Deploy(def, func(d *Deployment, err error) { dep, derr = d, err })
	p.Eng.Run()
	if derr != nil {
		t.Fatal(derr)
	}

	apache := dep.MustComponent("apache1")
	aw := apache.Content().(*ApacheWrapper)
	t1 := dep.MustComponent("tomcat1").Content().(*TomcatWrapper)
	t2 := dep.MustComponent("tomcat2").Content().(*TomcatWrapper)

	// Traffic flows to tomcat1 initially.
	var rerr error = errors.New("pending")
	aw.Server().HandleHTTP(&legacy.WebRequest{WebCost: 0.001, AppCost: 0.001},
		netsim.ReplyFunc(func(err error) { rerr = err }))
	p.Eng.Run()
	if rerr != nil {
		t.Fatal(rerr)
	}
	if t1.Server().Served() != 1 {
		t.Fatal("initial binding did not route to tomcat1")
	}

	// The paper's four management operations:
	//   Apache1.stop(); Apache1.unbind("ajp-itf");
	//   Apache1.bind("ajp-itf", tomcat2-itf); Apache1.start()
	var serr error = errors.New("pending")
	p.StopComponent(apache, func(err error) { serr = err })
	p.Eng.Run()
	if serr != nil {
		t.Fatal(serr)
	}
	if err := apache.Unbind("ajp", dep.MustComponent("tomcat1").MustInterface("ajp")); err != nil {
		t.Fatal(err)
	}
	if err := apache.Bind("ajp", dep.MustComponent("tomcat2").MustInterface("ajp")); err != nil {
		t.Fatal(err)
	}
	serr = errors.New("pending")
	p.StartComponent(apache, func(err error) { serr = err })
	p.Eng.Run()
	if serr != nil {
		t.Fatal(serr)
	}

	// The wrapper reflected the rebind into worker.properties.
	raw, err := p.FS.ReadFile(aw.Server().WorkersPath())
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	if strings.Contains(text, "tomcat1") {
		t.Fatalf("worker.properties still references tomcat1:\n%s", text)
	}
	if !strings.Contains(text, "worker.tomcat2.port=8098") {
		t.Fatalf("worker.properties missing tomcat2 entry:\n%s", text)
	}

	// Traffic now flows to tomcat2.
	rerr = errors.New("pending")
	aw.Server().HandleHTTP(&legacy.WebRequest{WebCost: 0.001, AppCost: 0.001},
		netsim.ReplyFunc(func(err error) { rerr = err }))
	p.Eng.Run()
	if rerr != nil {
		t.Fatal(rerr)
	}
	if t2.Server().Served() != 1 || t1.Server().Served() != 1 {
		t.Fatalf("after rebind: tomcat1=%d tomcat2=%d", t1.Server().Served(), t2.Server().Served())
	}
}

func TestStaticRebindRequiresStop(t *testing.T) {
	p := NewPlatform(DefaultOptions())
	db, _ := smallDataset().InitialDatabase(1)
	p.RegisterDump("rubis", db)
	def, _ := adl.Parse(`<definition name="x">
	  <component name="apache1" wrapper="apache"/>
	  <component name="tomcat1" wrapper="tomcat"/>
	  <component name="cjdbc1" wrapper="cjdbc"/>
	  <component name="mysql1" wrapper="mysql"><attribute name="dump" value="rubis"/></component>
	  <binding client="apache1.ajp" server="tomcat1.ajp"/>
	  <binding client="tomcat1.jdbc" server="cjdbc1.jdbc"/>
	  <binding client="cjdbc1.backends" server="mysql1.sql"/>
	</definition>`)
	var dep *Deployment
	var derr error = errors.New("pending")
	p.Deploy(def, func(d *Deployment, err error) { dep, derr = d, err })
	p.Eng.Run()
	if derr != nil {
		t.Fatal(derr)
	}
	apache := dep.MustComponent("apache1")
	err := apache.Unbind("ajp", dep.MustComponent("tomcat1").MustInterface("ajp"))
	if !errors.Is(err, fractal.ErrNotStopped) {
		t.Fatalf("unbind while started: %v", err)
	}
}

func TestAppTierGrowAndShrink(t *testing.T) {
	p, dep := deployThreeTier(t)
	tier, err := NewAppTier(p, dep, "plb1", "cjdbc1", []string{"tomcat1"})
	if err != nil {
		t.Fatal(err)
	}
	plbW := dep.MustComponent("plb1").Content().(*BalancerWrapper)

	var gerr error = errors.New("pending")
	tier.Grow(func(err error) { gerr = err })
	p.Eng.Run()
	if gerr != nil {
		t.Fatal(gerr)
	}
	if tier.ReplicaCount() != 2 {
		t.Fatalf("replicas = %d", tier.ReplicaCount())
	}
	if plbW.Balancer().MemberCount() != 2 {
		t.Fatalf("plb workers = %d", plbW.Balancer().MemberCount())
	}
	// The new replica serves traffic.
	newName := tier.ReplicaNames()[1]
	newW := dep.MustComponent(newName).Content().(*TomcatWrapper)
	for i := 0; i < 4; i++ {
		if err := run(t, p, dep, &legacy.WebRequest{WebCost: 0.001, AppCost: 0.001}); err != nil {
			t.Fatal(err)
		}
	}
	if newW.Server().Served() != 2 {
		t.Fatalf("new replica served %d of 4 round-robin requests", newW.Server().Served())
	}

	var serr error = errors.New("pending")
	tier.Shrink(func(err error) { serr = err })
	p.Eng.Run()
	if serr != nil {
		t.Fatal(serr)
	}
	if tier.ReplicaCount() != 1 || plbW.Balancer().MemberCount() != 1 {
		t.Fatalf("after shrink: replicas=%d workers=%d",
			tier.ReplicaCount(), plbW.Balancer().MemberCount())
	}
	// The freed node returned to the pool.
	if p.Pool.AllocatedCount() != 4 {
		t.Fatalf("allocated = %d after shrink", p.Pool.AllocatedCount())
	}
	// Shrinking to zero is refused.
	serr = nil
	tier.Shrink(func(err error) { serr = err })
	p.Eng.Run()
	if !errors.Is(serr, ErrTierAtMin) {
		t.Fatalf("shrink below min: %v", serr)
	}
}

func TestDBTierGrowSyncsThroughRecoveryLog(t *testing.T) {
	p, dep := deployThreeTier(t)
	tier, err := NewDBTier(p, dep, "cjdbc1", []string{"mysql1"})
	if err != nil {
		t.Fatal(err)
	}
	cw := dep.MustComponent("cjdbc1").Content().(*CJDBCWrapper)

	// Write through the stack so the recovery log is non-trivial.
	for i := 0; i < 10; i++ {
		req := &legacy.WebRequest{
			WebCost: 0.001, AppCost: 0.002,
			Queries: []legacy.Query{{
				SQL:  "INSERT INTO buy_now (id, buyer_id, item_id, qty, date) VALUES (" + itoa(i) + ", 1, 1, 1, 0)",
				Cost: 0.002,
			}},
		}
		if err := run(t, p, dep, req); err != nil {
			t.Fatal(err)
		}
	}
	if cw.Controller().Log().Len() != 10 {
		t.Fatalf("log length = %d", cw.Controller().Log().Len())
	}

	var gerr error = errors.New("pending")
	tier.Grow(func(err error) { gerr = err })
	p.Eng.Run()
	if gerr != nil {
		t.Fatal(gerr)
	}
	if tier.ReplicaCount() != 2 || cw.Controller().ActiveCount() != 2 {
		t.Fatalf("replicas=%d actives=%d", tier.ReplicaCount(), cw.Controller().ActiveCount())
	}
	rep := cw.Controller().CheckConsistency()
	if !rep.Consistent {
		t.Fatalf("replicas inconsistent after sync: %+v", rep)
	}

	// Shrink records a checkpoint.
	name := tier.ReplicaNames()[1]
	var serr error = errors.New("pending")
	tier.Shrink(func(err error) { serr = err })
	p.Eng.Run()
	if serr != nil {
		t.Fatal(serr)
	}
	if _, ok := cw.Controller().Log().Checkpoint(name); !ok {
		t.Fatal("no checkpoint recorded for removed replica")
	}
	if cw.Controller().ActiveCount() != 1 {
		t.Fatalf("actives after shrink = %d", cw.Controller().ActiveCount())
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

func TestSelfSizingGrowsUnderLoad(t *testing.T) {
	p, dep := deployThreeTier(t)
	tier, err := NewAppTier(p, dep, "plb1", "cjdbc1", []string{"tomcat1"})
	if err != nil {
		t.Fatal(err)
	}
	cfg := AppSizingDefaults()
	cfg.Window = 10 // shorter window for a fast test
	mgr, err := NewSizingManager(p, "app-sizer", tier, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.Loop.Start(); err != nil {
		t.Fatal(err)
	}

	// Drive the single Tomcat to ~95% CPU: 95 requests/s of 0.01 app
	// cost each, no db work.
	front := dep.MustComponent("plb1").Content().(*BalancerWrapper).Balancer()
	tk := p.Eng.Every(1.0/95, "load", func(now float64) {
		front.HandleHTTP(&legacy.WebRequest{WebCost: 0.0001, AppCost: 0.01}, netsim.ReplyFunc(func(error) {}))
	})
	t0 := p.Eng.Now()
	p.Eng.RunUntil(t0 + 120)
	tk.Stop()
	if tier.ReplicaCount() < 2 {
		t.Fatalf("tier did not grow under load: %d replicas, sensor=%v",
			tier.ReplicaCount(), mgr.Loop.LastValue)
	}
	if mgr.Reactor.Grows == 0 {
		t.Fatal("reactor recorded no grows")
	}
	if mgr.Replicas.Last().V < 2 {
		t.Fatal("replica series not updated")
	}

	// Load stops; the tier shrinks back to one replica.
	p.Eng.RunUntil(t0 + 400)
	if tier.ReplicaCount() != 1 {
		t.Fatalf("tier did not shrink after load: %d replicas", tier.ReplicaCount())
	}
	if mgr.Reactor.Shrinks == 0 {
		t.Fatal("reactor recorded no shrinks")
	}
	if err := mgr.Loop.Stop(); err != nil {
		t.Fatal(err)
	}
}

func TestInhibitorPreventsBackToBackReconfigurations(t *testing.T) {
	var i Inhibitor
	if i.Inhibited(0) {
		t.Fatal("fresh inhibitor inhibits")
	}
	i.Trigger(10, 60)
	if !i.Inhibited(30) || !i.Inhibited(69.9) {
		t.Fatal("not inhibited inside window")
	}
	if i.Inhibited(70.1) {
		t.Fatal("inhibited after window")
	}
	// A shorter overlapping trigger does not shrink the window.
	i.Trigger(20, 10)
	if !i.Inhibited(50) {
		t.Fatal("window shrank")
	}
}

func TestSharedInhibitorSerializesLoops(t *testing.T) {
	p, dep := deployThreeTier(t)
	appTier, err := NewAppTier(p, dep, "plb1", "cjdbc1", []string{"tomcat1"})
	if err != nil {
		t.Fatal(err)
	}
	dbTier, err := NewDBTier(p, dep, "cjdbc1", []string{"mysql1"})
	if err != nil {
		t.Fatal(err)
	}
	shared := &Inhibitor{}
	appR := NewThresholdReactor(p, appTier, 0.3, 0.8, shared)
	dbR := NewThresholdReactor(p, dbTier, 0.3, 0.8, shared)
	// Both see overload at the same instant; only the first reconfigures.
	appR.React(100, 0.95)
	dbR.React(100, 0.95)
	p.Eng.Run()
	total := int(appR.Grows + dbR.Grows)
	if total != 1 {
		t.Fatalf("reconfigurations = %d, want 1 (shared inhibition)", total)
	}
	// After the window, the other may proceed.
	dbR.React(161, 0.95)
	p.Eng.Run()
	if dbR.Grows+appR.Grows != 2 {
		t.Fatal("second reconfiguration blocked after inhibition window")
	}
}

func TestRecoveryManagerRepairsTomcatReplica(t *testing.T) {
	p, dep := deployThreeTier(t)
	tier, err := NewAppTier(p, dep, "plb1", "cjdbc1", []string{"tomcat1"})
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := NewRecoveryManager(p, "self-recovery", 1, tier)
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.Loop.Start(); err != nil {
		t.Fatal(err)
	}
	node, _ := dep.NodeOf("tomcat1")
	p.Eng.After(5, "crash", node.Fail)
	p.Eng.RunUntil(p.Eng.Now() + 90)
	if mgr.Repairs != 1 {
		t.Fatalf("repairs = %d", mgr.Repairs)
	}
	if tier.ReplicaCount() != 1 {
		t.Fatalf("replicas = %d after repair", tier.ReplicaCount())
	}
	// The replacement serves traffic.
	newName := tier.ReplicaNames()[0]
	if newName == "tomcat1" {
		t.Fatal("failed replica still in tier")
	}
	if err := run(t, p, dep, &legacy.WebRequest{WebCost: 0.001, AppCost: 0.001}); err != nil {
		t.Fatalf("request after repair: %v", err)
	}
}

func TestRecoveryManagerRepairsDBReplica(t *testing.T) {
	p, dep := deployThreeTier(t)
	dbTier, err := NewDBTier(p, dep, "cjdbc1", []string{"mysql1"})
	if err != nil {
		t.Fatal(err)
	}
	// Two backends so the virtual db survives one crash.
	var gerr error = errors.New("pending")
	dbTier.Grow(func(err error) { gerr = err })
	p.Eng.Run()
	if gerr != nil {
		t.Fatal(gerr)
	}
	mgr, err := NewRecoveryManager(p, "self-recovery", 1, dbTier)
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.Loop.Start(); err != nil {
		t.Fatal(err)
	}
	node, _ := dep.NodeOf("mysql1")
	p.Eng.After(5, "crash", node.Fail)
	p.Eng.RunUntil(p.Eng.Now() + 150)
	if mgr.Repairs != 1 {
		t.Fatalf("repairs = %d", mgr.Repairs)
	}
	cw := dep.MustComponent("cjdbc1").Content().(*CJDBCWrapper)
	if cw.Controller().ActiveCount() != 2 {
		t.Fatalf("actives after repair = %d", cw.Controller().ActiveCount())
	}
	if !cw.Controller().CheckConsistency().Consistent {
		t.Fatal("replicas inconsistent after repair")
	}
}

func TestSISInstallLifecycle(t *testing.T) {
	p := NewPlatform(DefaultOptions())
	node, err := p.Pool.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	var ierr error = errors.New("pending")
	t0 := p.Eng.Now()
	p.SIS.Install("tomcat", node, func(err error) { ierr = err })
	p.Eng.Run()
	if ierr != nil {
		t.Fatal(ierr)
	}
	first := p.Eng.Now() - t0
	if !p.SIS.IsInstalled(node, "tomcat") {
		t.Fatal("package not recorded")
	}
	// Reinstall is fast.
	t1 := p.Eng.Now()
	ierr = errors.New("pending")
	p.SIS.Install("tomcat", node, func(err error) { ierr = err })
	p.Eng.Run()
	if ierr != nil {
		t.Fatal(ierr)
	}
	if again := p.Eng.Now() - t1; again >= first {
		t.Fatalf("reinstall (%v) not faster than first install (%v)", again, first)
	}
	// Unknown package.
	ierr = nil
	p.SIS.Install("oracle", node, func(err error) { ierr = err })
	p.Eng.Run()
	if !errors.Is(ierr, ErrUnknownPackage) {
		t.Fatalf("unknown package: %v", ierr)
	}
	// Install on failed node fails.
	node.Fail()
	ierr = nil
	p.SIS.Install("mysql", node, func(err error) { ierr = err })
	p.Eng.Run()
	if ierr == nil {
		t.Fatal("install on failed node succeeded")
	}
}

func TestControlLoopLifecycleAndWarmup(t *testing.T) {
	p := NewPlatform(DefaultOptions())
	node, err := p.Pool.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	sensor := NewCPUSensor(func() []*cluster.Node { return []*cluster.Node{node} }, 10, 0)
	var reactions int
	reactor := reactorFunc(func(now, v float64) { reactions++ })
	loop, err := NewControlLoop(p, "test-loop", 1, sensor, reactor)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewControlLoop(p, "bad", 0, sensor, reactor); err == nil {
		t.Fatal("zero period accepted")
	}
	if loop.Running() {
		t.Fatal("running before start")
	}
	if err := loop.Start(); err != nil {
		t.Fatal(err)
	}
	// Warmup: the sensor withholds its first few samples.
	p.Eng.RunUntil(3)
	if reactions != 0 {
		t.Fatalf("reactor ran during warmup: %d", reactions)
	}
	p.Eng.RunUntil(20)
	if reactions == 0 {
		t.Fatal("reactor never ran")
	}
	if loop.Samples() < 15 {
		t.Fatalf("samples = %d", loop.Samples())
	}
	if err := loop.Stop(); err != nil {
		t.Fatal(err)
	}
	before := loop.Samples()
	p.Eng.RunUntil(40)
	if loop.Samples() != before {
		t.Fatal("loop sampled after stop")
	}
	// Loops are registered with the platform (Jade administrates
	// itself); the rejected zero-period loop is not.
	if len(p.Loops()) != 1 {
		t.Fatalf("registered loops = %d", len(p.Loops()))
	}
	if loop.Component().Name() != "test-loop" {
		t.Fatal("loop component missing")
	}
}

// reactorFunc adapts a function to the Reactor interface.
type reactorFunc func(now, v float64)

func (f reactorFunc) React(now, v float64) { f(now, v) }

func TestCPUSensorSpatialAndTemporalAveraging(t *testing.T) {
	p := NewPlatform(DefaultOptions())
	n1, _ := p.Pool.Allocate()
	n2, _ := p.Pool.Allocate()
	sensor := NewCPUSensor(func() []*cluster.Node { return []*cluster.Node{n1, n2} }, 30, 0)
	// n1 fully busy, n2 idle → spatial mean 0.5.
	n1.Submit(1000, nil, nil)
	tk := p.Eng.Every(1, "probe", func(now float64) { sensor.Sample(now) })
	p.Eng.RunUntil(20)
	tk.Stop()
	if v := sensor.Smoothed.Last().V; v < 0.45 || v > 0.55 {
		t.Fatalf("smoothed spatial mean = %v, want ≈0.5", v)
	}
	if sensor.Raw.Len() == 0 {
		t.Fatal("raw series empty")
	}
	// Failed nodes are excluded from the spatial average.
	n2.Fail()
	v, ok := sensor.Sample(21)
	if !ok {
		t.Fatal("sample invalid after one node failure")
	}
	if v < 0.45 {
		t.Fatalf("average after exclusion = %v", v)
	}
	// All nodes failed → invalid sample.
	n1.Fail()
	if _, ok := sensor.Sample(22); ok {
		t.Fatal("sample valid with all nodes failed")
	}
	// Empty node set → invalid sample.
	empty := NewCPUSensor(func() []*cluster.Node { return nil }, 30, 0)
	if _, ok := empty.Sample(0); ok {
		t.Fatal("sample valid with no nodes")
	}
}

func TestCPUSensorProbeCostIsIntrusivity(t *testing.T) {
	p := NewPlatform(DefaultOptions())
	node, _ := p.Pool.Allocate()
	sensor := NewCPUSensor(func() []*cluster.Node { return []*cluster.Node{node} }, 30, 0.003)
	tk := p.Eng.Every(1, "probe", func(now float64) { sensor.Sample(now) })
	p.Eng.RunUntil(100)
	tk.Stop()
	p.Eng.Run()
	// 100 probes × 0.003 CPU-seconds ≈ 0.3 CPU-seconds of busy time.
	busy := node.BusyTotal()
	if busy < 0.25 || busy > 0.35 {
		t.Fatalf("probe busy time = %v, want ≈0.3", busy)
	}
}

func TestManagementFootprintAccounting(t *testing.T) {
	p, dep := deployThreeTier(t)
	node, _ := dep.NodeOf("tomcat1")
	// Node memory = tomcat package (30) + tomcat process (200) +
	// management footprint (27).
	if got := node.MemoryUsed(); got != 257 {
		t.Fatalf("tomcat node memory = %v, want 257", got)
	}
	_ = p
}

func TestCJDBCRunningBindRequiresSync(t *testing.T) {
	p, dep := deployThreeTier(t)
	cjdbcComp := dep.MustComponent("cjdbc1")
	// Create a fresh MySQL replica out-of-band and try to bind it
	// directly while the controller runs: refused, the actuator must
	// sync it first.
	node, err := p.Pool.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	comp, err := NewMySQLComponent(p, "rogue", node)
	if err != nil {
		t.Fatal(err)
	}
	err = cjdbcComp.Bind("backends", comp.MustInterface("sql"))
	if !errors.Is(err, ErrNotSynced) {
		t.Fatalf("unsynced bind: %v", err)
	}
}

func TestWrapperAttributeValidation(t *testing.T) {
	p, dep := deployThreeTier(t)
	_ = p
	tomcat := dep.MustComponent("tomcat1")
	if err := tomcat.SetAttribute("ajp-port", "nope"); !errors.Is(err, ErrBadAttribute) {
		t.Fatalf("bad ajp-port: %v", err)
	}
	plbc := dep.MustComponent("plb1")
	if err := plbc.SetAttribute("port", "9090"); !errors.Is(err, ErrAttributeFrozen) {
		t.Fatalf("port change while running: %v", err)
	}
	mysql := dep.MustComponent("mysql1")
	if err := mysql.SetAttribute("port", "-1"); !errors.Is(err, ErrBadAttribute) {
		t.Fatalf("bad mysql port: %v", err)
	}
	// Free-form attributes are always accepted.
	if err := tomcat.SetAttribute("note", "hello"); err != nil {
		t.Fatal(err)
	}
}

func TestAttributeEditsReachConfigFiles(t *testing.T) {
	p, dep := deployThreeTier(t)
	mysqlW := dep.MustComponent("mysql1").Content().(*MySQLWrapper)
	// Stop the server, change the port attribute, verify my.cnf.
	var serr error = errors.New("pending")
	p.StopComponent(dep.MustComponent("mysql1"), func(err error) { serr = err })
	p.Eng.Run()
	if serr != nil {
		t.Fatal(serr)
	}
	if err := dep.MustComponent("mysql1").SetAttribute("port", "3399"); err != nil {
		t.Fatal(err)
	}
	raw, err := p.FS.ReadFile(mysqlW.Server().ConfPath())
	if err != nil {
		t.Fatal(err)
	}
	cnf, err := legacy.ParseMyCnf(raw)
	if err != nil {
		t.Fatal(err)
	}
	if port, err := cnf.GetInt("mysqld", "port"); err != nil || port != 3399 {
		t.Fatalf("my.cnf port = %d, %v", port, err)
	}
}
