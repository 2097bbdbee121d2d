package legacy

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"jade/internal/cluster"
	"jade/internal/config"
	"jade/internal/netsim"
	"jade/internal/sim"
)

// testEnv builds a simulation environment with a pool of nodes.
func testEnv(t *testing.T, nodes int) (*Env, *cluster.Pool) {
	t.Helper()
	eng := sim.NewEngine(42)
	pool := cluster.NewPool(eng, "node", nodes, cluster.DefaultConfig())
	return &Env{Eng: eng, Net: NewNetwork(), FS: config.NewMemFS()}, pool
}

func allocNode(t *testing.T, p *cluster.Pool) *cluster.Node {
	t.Helper()
	n, err := p.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// writeMySQLConf writes a minimal my.cnf for m.
func writeMySQLConf(t *testing.T, env *Env, m *MySQL, port int) {
	t.Helper()
	cnf := config.NewMyCnf()
	cnf.SetInt("mysqld", "port", port)
	if err := env.FS.WriteFile(m.ConfPath(), []byte(cnf.Render())); err != nil {
		t.Fatal(err)
	}
}

// writeTomcatConf writes a minimal server.xml for tc.
func writeTomcatConf(t *testing.T, env *Env, tc *Tomcat, ajpPort int, jdbcURL string) {
	t.Helper()
	sx := config.NewServerXML(tc.Name())
	sx.SetConnector("ajp13", ajpPort, "")
	if jdbcURL != "" {
		sx.SetJDBC("rubis", "com.mysql.jdbc.Driver", jdbcURL)
	}
	text, err := sx.Render()
	if err != nil {
		t.Fatal(err)
	}
	if err := env.FS.WriteFile(tc.ConfPath(), []byte(text)); err != nil {
		t.Fatal(err)
	}
}

// writeApacheConf writes httpd.conf and worker.properties for a.
func writeApacheConf(t *testing.T, env *Env, a *Apache, port int, workers []config.Worker) {
	t.Helper()
	hc := config.NewHTTPDConf()
	hc.Set("Listen", fmt.Sprintf("%d", port))
	hc.Set("ServerName", a.Node().Name())
	if err := env.FS.WriteFile(a.ConfPath(), []byte(hc.Render())); err != nil {
		t.Fatal(err)
	}
	wp := config.NewWorkerProperties()
	for _, w := range workers {
		wp.SetWorker(w)
	}
	if err := env.FS.WriteFile(a.WorkersPath(), []byte(wp.Render())); err != nil {
		t.Fatal(err)
	}
}

// startOK starts a server and fails the test on error.
func startOK(t *testing.T, eng *sim.Engine, start func(func(error))) {
	t.Helper()
	var got error = errors.New("start callback never ran")
	start(func(err error) { got = err })
	eng.Run()
	if got != nil {
		t.Fatal(got)
	}
}

// buildStack deploys mysql -> tomcat -> apache on three nodes and starts
// them in dependency order.
func buildStack(t *testing.T) (*Env, *Apache, *Tomcat, *MySQL) {
	t.Helper()
	env, pool := testEnv(t, 3)
	m := NewMySQL(env, "mysql1", allocNode(t, pool), DefaultMySQLOptions())
	writeMySQLConf(t, env, m, 3306)
	tc := NewTomcat(env, "tomcat1", allocNode(t, pool), DefaultTomcatOptions())
	writeTomcatConf(t, env, tc, 8009, "jdbc:mysql://"+m.Node().Name()+":3306/rubis")
	a := NewApache(env, "apache1", allocNode(t, pool), DefaultApacheOptions())
	writeApacheConf(t, env, a, 80, []config.Worker{
		{Name: "tomcat1", Host: tc.Node().Name(), Port: 8009},
	})
	startOK(t, env.Eng, m.Start)
	startOK(t, env.Eng, tc.Start)
	startOK(t, env.Eng, a.Start)
	return env, a, tc, m
}

func TestStackStartupAndStates(t *testing.T) {
	env, a, tc, m := buildStack(t)
	for _, s := range []interface{ State() State }{a, tc, m} {
		if s.State() != Running {
			t.Fatalf("server state = %v, want RUNNING", s.State())
		}
	}
	addrs := env.Net.Addresses()
	if len(addrs) != 3 {
		t.Fatalf("network addresses = %v", addrs)
	}
	if got := a.Routes(); len(got) != 1 || got[0] != "tomcat1" {
		t.Fatalf("apache routes = %v", got)
	}
	if tc.JDBCAddr() != m.Node().Name()+":3306" {
		t.Fatalf("tomcat jdbc addr = %q", tc.JDBCAddr())
	}
}

func TestEndToEndDynamicRequest(t *testing.T) {
	env, a, tc, m := buildStack(t)
	// Seed schema through the running stack.
	var setupErr error
	m.ExecSQL(Query{SQL: "CREATE TABLE items (id INT, name TEXT)", Cost: 0.01},
		netsim.ReplyFunc(func(err error) { setupErr = err }))
	env.Eng.Run()
	if setupErr != nil {
		t.Fatal(setupErr)
	}

	req := &WebRequest{
		Interaction: "ViewItem",
		WebCost:     0.002,
		AppCost:     0.010,
		Queries: []Query{
			{SQL: "INSERT INTO items (id, name) VALUES (1, 'book')", Cost: 0.005},
			{SQL: "SELECT * FROM items WHERE id = 1", Cost: 0.005},
		},
	}
	var reqErr error = errors.New("never completed")
	t0 := env.Eng.Now()
	a.HandleHTTP(req, netsim.ReplyFunc(func(err error) { reqErr = err }))
	env.Eng.Run()
	if reqErr != nil {
		t.Fatal(reqErr)
	}
	latency := env.Eng.Now() - t0
	want := req.WebCost + req.AppCost + req.Queries[0].Cost + req.Queries[1].Cost
	if latency < want-1e-9 || latency > want+1e-6 {
		t.Fatalf("unloaded latency = %v, want ≈ %v", latency, want)
	}
	if m.DB().RowCount("items") != 1 {
		t.Fatal("write did not reach the database")
	}
	if a.Served() != 1 || tc.Served() != 1 {
		t.Fatalf("served counters: apache=%d tomcat=%d", a.Served(), tc.Served())
	}
}

func TestStaticRequestServedByWebTierOnly(t *testing.T) {
	env, a, tc, _ := buildStack(t)
	req := &WebRequest{Interaction: "logo.png", Static: true, WebCost: 0.001, AppCost: 99}
	var err error = errors.New("pending")
	a.HandleHTTP(req, netsim.ReplyFunc(func(e error) { err = e }))
	env.Eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if tc.Served() != 0 {
		t.Fatal("static request reached the application tier")
	}
}

func TestApacheRoundRobinAcrossWorkers(t *testing.T) {
	env, pool := testEnv(t, 4)
	m := NewMySQL(env, "mysql1", allocNode(t, pool), DefaultMySQLOptions())
	writeMySQLConf(t, env, m, 3306)
	tc1 := NewTomcat(env, "tomcat1", allocNode(t, pool), DefaultTomcatOptions())
	writeTomcatConf(t, env, tc1, 8009, "jdbc:mysql://"+m.Node().Name()+":3306/rubis")
	tc2 := NewTomcat(env, "tomcat2", allocNode(t, pool), DefaultTomcatOptions())
	writeTomcatConf(t, env, tc2, 8009, "jdbc:mysql://"+m.Node().Name()+":3306/rubis")
	a := NewApache(env, "apache1", allocNode(t, pool), DefaultApacheOptions())
	writeApacheConf(t, env, a, 80, []config.Worker{
		{Name: "tomcat1", Host: tc1.Node().Name(), Port: 8009},
		{Name: "tomcat2", Host: tc2.Node().Name(), Port: 8009},
		{Name: "loadbalancer", Type: "lb", Balanced: []string{"tomcat1", "tomcat2"}},
	})
	startOK(t, env.Eng, m.Start)
	startOK(t, env.Eng, tc1.Start)
	startOK(t, env.Eng, tc2.Start)
	startOK(t, env.Eng, a.Start)

	for i := 0; i < 10; i++ {
		a.HandleHTTP(&WebRequest{WebCost: 0.001, AppCost: 0.001}, netsim.ReplyFunc(func(error) {}))
	}
	env.Eng.Run()
	if tc1.Served() != 5 || tc2.Served() != 5 {
		t.Fatalf("round robin split = %d/%d, want 5/5", tc1.Served(), tc2.Served())
	}
}

func TestFigure4RebindScenario(t *testing.T) {
	// The paper's qualitative scenario: Apache1 bound to Tomcat1 is
	// stopped, worker.properties is rewritten to point at Tomcat2 on
	// node3, and Apache1 is restarted.
	env, pool := testEnv(t, 4)
	m := NewMySQL(env, "mysql1", allocNode(t, pool), DefaultMySQLOptions())
	writeMySQLConf(t, env, m, 3306)
	tc1 := NewTomcat(env, "tomcat1", allocNode(t, pool), DefaultTomcatOptions())
	writeTomcatConf(t, env, tc1, 66, "jdbc:mysql://"+m.Node().Name()+":3306/rubis")
	tc2 := NewTomcat(env, "tomcat2", allocNode(t, pool), DefaultTomcatOptions())
	writeTomcatConf(t, env, tc2, 8098, "jdbc:mysql://"+m.Node().Name()+":3306/rubis")
	a := NewApache(env, "apache1", allocNode(t, pool), DefaultApacheOptions())
	writeApacheConf(t, env, a, 80, []config.Worker{
		{Name: "tomcat1", Host: tc1.Node().Name(), Port: 66},
	})
	startOK(t, env.Eng, m.Start)
	startOK(t, env.Eng, tc1.Start)
	startOK(t, env.Eng, tc2.Start)
	startOK(t, env.Eng, a.Start)

	a.HandleHTTP(&WebRequest{WebCost: 0.001, AppCost: 0.001}, netsim.ReplyFunc(func(error) {}))
	env.Eng.Run()
	if tc1.Served() != 1 {
		t.Fatal("initial binding did not route to tomcat1")
	}

	// Manual reconfiguration, legacy style.
	var stopErr error = errors.New("pending")
	a.Stop(func(err error) { stopErr = err })
	env.Eng.Run()
	if stopErr != nil {
		t.Fatal(stopErr)
	}
	raw, err := env.FS.ReadFile(a.WorkersPath())
	if err != nil {
		t.Fatal(err)
	}
	wp, err := ParseWorkers(raw)
	if err != nil {
		t.Fatal(err)
	}
	wp.RemoveWorker("tomcat1")
	wp.SetWorker(config.Worker{Name: "tomcat2", Host: tc2.Node().Name(), Port: 8098, LBFactor: 100})
	if err := env.FS.WriteFile(a.WorkersPath(), []byte(wp.Render())); err != nil {
		t.Fatal(err)
	}
	startOK(t, env.Eng, a.Start)

	a.HandleHTTP(&WebRequest{WebCost: 0.001, AppCost: 0.001}, netsim.ReplyFunc(func(error) {}))
	env.Eng.Run()
	if tc2.Served() != 1 {
		t.Fatal("rebinding did not route to tomcat2")
	}
	if tc1.Served() != 1 {
		t.Fatal("tomcat1 received traffic after unbind")
	}
}

func TestStartFailsWithoutConfig(t *testing.T) {
	env, pool := testEnv(t, 1)
	m := NewMySQL(env, "mysql1", allocNode(t, pool), DefaultMySQLOptions())
	var got error
	m.Start(func(err error) { got = err })
	env.Eng.Run()
	if got == nil {
		t.Fatal("start without my.cnf succeeded")
	}
	if m.State() != Stopped {
		t.Fatalf("state after failed start = %v", m.State())
	}
	// Memory must have been released by the failed start.
	if m.Node().MemoryUsed() != 0 {
		t.Fatalf("failed start leaked %v MB", m.Node().MemoryUsed())
	}
}

func TestApacheStartFailsOnUnresolvableWorker(t *testing.T) {
	env, pool := testEnv(t, 1)
	a := NewApache(env, "apache1", allocNode(t, pool), DefaultApacheOptions())
	writeApacheConf(t, env, a, 80, []config.Worker{
		{Name: "ghost", Host: "node99", Port: 8009},
	})
	var got error
	a.Start(func(err error) { got = err })
	env.Eng.Run()
	if !errors.Is(got, ErrNoRoute) {
		t.Fatalf("start with dangling worker: %v", got)
	}
}

func TestDoubleStartRejected(t *testing.T) {
	env, pool := testEnv(t, 1)
	m := NewMySQL(env, "mysql1", allocNode(t, pool), DefaultMySQLOptions())
	writeMySQLConf(t, env, m, 3306)
	startOK(t, env.Eng, m.Start)
	var got error
	m.Start(func(err error) { got = err })
	env.Eng.Run()
	if !errors.Is(got, ErrAlreadyRunning) {
		t.Fatalf("double start: %v", got)
	}
}

func TestStopRejectedWhenNotRunning(t *testing.T) {
	env, pool := testEnv(t, 1)
	m := NewMySQL(env, "mysql1", allocNode(t, pool), DefaultMySQLOptions())
	var got error
	m.Stop(func(err error) { got = err })
	env.Eng.Run()
	if !errors.Is(got, ErrNotRunning) {
		t.Fatalf("stop while stopped: %v", got)
	}
}

func TestRequestsFailWhenServerStopped(t *testing.T) {
	env, a, _, m := buildStack(t)
	var stopErr error
	a.Stop(func(err error) { stopErr = err })
	env.Eng.Run()
	if stopErr != nil {
		t.Fatal(stopErr)
	}
	var got error
	a.HandleHTTP(&WebRequest{}, netsim.ReplyFunc(func(err error) { got = err }))
	env.Eng.Run()
	if !errors.Is(got, ErrNotRunning) {
		t.Fatalf("request to stopped apache: %v", got)
	}
	var sqlErr error
	var mStopErr error
	m.Stop(func(err error) { mStopErr = err })
	env.Eng.Run()
	if mStopErr != nil {
		t.Fatal(mStopErr)
	}
	m.ExecSQL(Query{SQL: "SELECT 1 FROM x"}, netsim.ReplyFunc(func(err error) { sqlErr = err }))
	env.Eng.Run()
	if !errors.Is(sqlErr, ErrNotRunning) {
		t.Fatalf("query to stopped mysql: %v", sqlErr)
	}
}

func TestNodeFailureAbortsInFlightRequests(t *testing.T) {
	env, a, tc, _ := buildStack(t)
	var got error
	a.HandleHTTP(&WebRequest{WebCost: 0.001, AppCost: 10}, netsim.ReplyFunc(func(err error) { got = err }))
	// Crash the tomcat node while the request is in the app tier.
	env.Eng.After(0.5, "crash", func() { tc.Node().Fail() })
	env.Eng.Run()
	if !errors.Is(got, ErrServerFailed) {
		t.Fatalf("in-flight request on crashed node: %v", got)
	}
	if tc.State() != Failed {
		t.Fatalf("tomcat state = %v, want FAILED", tc.State())
	}
	// The failed server's listener is gone.
	if _, err := env.Net.LookupHTTP(tc.Node().Name() + ":8009"); !errors.Is(err, ErrNoRoute) {
		t.Fatalf("failed server still listening: %v", err)
	}
}

func TestMySQLStatePersistsAcrossRestart(t *testing.T) {
	env, pool := testEnv(t, 1)
	m := NewMySQL(env, "mysql1", allocNode(t, pool), DefaultMySQLOptions())
	writeMySQLConf(t, env, m, 3306)
	startOK(t, env.Eng, m.Start)
	var err1 error
	m.ExecSQL(Query{SQL: "CREATE TABLE t (a INT)", Cost: 0.001}, netsim.ReplyFunc(func(e error) { err1 = e }))
	env.Eng.Run()
	if err1 != nil {
		t.Fatal(err1)
	}
	var stopErr error
	m.Stop(func(e error) { stopErr = e })
	env.Eng.Run()
	if stopErr != nil {
		t.Fatal(stopErr)
	}
	startOK(t, env.Eng, m.Start)
	if m.DB().RowCount("t") != 0 || len(m.DB().Tables()) != 1 {
		t.Fatal("database state lost across restart")
	}
}

func TestLoadSnapshotRequiresStoppedServer(t *testing.T) {
	env, pool := testEnv(t, 1)
	m := NewMySQL(env, "mysql1", allocNode(t, pool), DefaultMySQLOptions())
	writeMySQLConf(t, env, m, 3306)
	startOK(t, env.Eng, m.Start)
	if err := m.LoadSnapshot(m.DB()); !errors.Is(err, ErrAlreadyRunning) {
		t.Fatalf("LoadSnapshot on running server: %v", err)
	}
}

func TestParseJDBCURL(t *testing.T) {
	cases := []struct {
		url  string
		want string
		ok   bool
	}{
		{"jdbc:mysql://node5:3306/rubis", "node5:3306", true},
		{"jdbc:mysql://node5:3306/", "node5:3306", true},
		{"jdbc:postgres://x:1/db", "", false},
		{"jdbc:mysql://node5/rubis", "", false},
		{"jdbc:mysql://node5:port/rubis", "", false},
		{"jdbc:mysql://:3306/rubis", "", false},
		{"jdbc:mysql://node5:3306", "", false},
	}
	for _, c := range cases {
		got, err := ParseJDBCURL(c.url)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("ParseJDBCURL(%q) = %q, %v", c.url, got, err)
		}
		if !c.ok && err == nil {
			t.Errorf("ParseJDBCURL(%q) accepted invalid URL", c.url)
		}
	}
}

func TestNetworkAddressConflict(t *testing.T) {
	n := NewNetwork()
	if err := n.Register("node1:80", "x"); err != nil {
		t.Fatal(err)
	}
	if err := n.Register("node1:80", "y"); !errors.Is(err, ErrAddressInUse) {
		t.Fatalf("duplicate register: %v", err)
	}
	n.Unregister("node1:80")
	if err := n.Register("node1:80", "z"); err != nil {
		t.Fatalf("register after unregister: %v", err)
	}
	// Wrong-protocol lookups fail cleanly.
	if _, err := n.LookupHTTP("node1:80"); err == nil ||
		strings.Contains(err.Error(), "no listener") {
		t.Fatalf("LookupHTTP on non-handler: %v", err)
	}
	if _, err := n.LookupSQL("node1:80"); err == nil {
		t.Fatal("LookupSQL on non-executor succeeded")
	}
}

func TestTomcatWithoutJDBCFailsOnQueries(t *testing.T) {
	env, pool := testEnv(t, 1)
	tc := NewTomcat(env, "tomcat1", allocNode(t, pool), DefaultTomcatOptions())
	writeTomcatConf(t, env, tc, 8009, "") // no JDBC resource
	startOK(t, env.Eng, tc.Start)
	var got error
	tc.HandleHTTP(&WebRequest{AppCost: 0.001, Queries: []Query{{SQL: "SELECT 1 FROM t"}}},
		netsim.ReplyFunc(func(err error) { got = err }))
	env.Eng.Run()
	if !errors.Is(got, ErrNoBackend) {
		t.Fatalf("query without JDBC: %v", got)
	}
	// A query-free request still works.
	var ok error = errors.New("pending")
	tc.HandleHTTP(&WebRequest{AppCost: 0.001}, netsim.ReplyFunc(func(err error) { ok = err }))
	env.Eng.Run()
	if ok != nil {
		t.Fatal(ok)
	}
}

func TestSQLErrorPropagatesThroughTiers(t *testing.T) {
	env, a, _, _ := buildStack(t)
	var got error
	a.HandleHTTP(&WebRequest{
		WebCost: 0.001, AppCost: 0.001,
		Queries: []Query{{SQL: "SELECT * FROM missing", Cost: 0.001}},
	}, netsim.ReplyFunc(func(err error) { got = err }))
	env.Eng.Run()
	if got == nil || !strings.Contains(got.Error(), "no such table") {
		t.Fatalf("SQL error did not propagate: %v", got)
	}
}

func TestStateStrings(t *testing.T) {
	for s, want := range map[State]string{
		Stopped: "STOPPED", Starting: "STARTING", Running: "RUNNING",
		Failed: "FAILED", State(99): "?",
	} {
		if s.String() != want {
			t.Errorf("State(%d).String() = %q", s, s.String())
		}
	}
}
