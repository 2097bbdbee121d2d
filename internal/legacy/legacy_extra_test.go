package legacy

import (
	"errors"
	"fmt"
	"testing"

	"jade/internal/config"
	"jade/internal/netsim"
	"jade/internal/obs"
	"jade/internal/sqlengine"
)

func TestPortConflictOnSameNode(t *testing.T) {
	// Two MySQL instances on the same node with the same my.cnf port:
	// the second start must fail with an address conflict, as a real
	// bind(2) would.
	env, pool := testEnv(t, 1)
	node := allocNode(t, pool)
	m1 := NewMySQL(env, "mysqlA", node, DefaultMySQLOptions())
	m2 := NewMySQL(env, "mysqlB", node, DefaultMySQLOptions())
	writeMySQLConf(t, env, m1, 3306)
	writeMySQLConf(t, env, m2, 3306)
	startOK(t, env.Eng, m1.Start)
	var got error
	m2.Start(func(err error) { got = err })
	env.Eng.Run()
	if !errors.Is(got, ErrAddressInUse) {
		t.Fatalf("conflicting port start: %v", got)
	}
	if m2.State() != Stopped {
		t.Fatalf("state after conflict = %v", m2.State())
	}
	// Distinct ports coexist.
	writeMySQLConf(t, env, m2, 3307)
	startOK(t, env.Eng, m2.Start)
}

func TestMemoryReleasedOnStop(t *testing.T) {
	env, pool := testEnv(t, 1)
	node := allocNode(t, pool)
	m := NewMySQL(env, "mysql1", node, DefaultMySQLOptions())
	writeMySQLConf(t, env, m, 3306)
	base := node.MemoryUsed()
	startOK(t, env.Eng, m.Start)
	running := node.MemoryUsed()
	if running <= base {
		t.Fatalf("start did not allocate memory: %v -> %v", base, running)
	}
	var serr error = errors.New("pending")
	m.Stop(func(err error) { serr = err })
	env.Eng.Run()
	if serr != nil {
		t.Fatal(serr)
	}
	if node.MemoryUsed() != base {
		t.Fatalf("stop leaked memory: %v, want %v", node.MemoryUsed(), base)
	}
}

func TestStartOnFailedNodeFailsFast(t *testing.T) {
	env, pool := testEnv(t, 1)
	node := allocNode(t, pool)
	m := NewMySQL(env, "mysql1", node, DefaultMySQLOptions())
	writeMySQLConf(t, env, m, 3306)
	node.Fail()
	var got error
	m.Start(func(err error) { got = err })
	env.Eng.Run()
	if !errors.Is(got, ErrServerFailed) {
		t.Fatalf("start on failed node: %v", got)
	}
}

func TestNodeFailsDuringStartup(t *testing.T) {
	env, pool := testEnv(t, 1)
	node := allocNode(t, pool)
	m := NewMySQL(env, "mysql1", node, DefaultMySQLOptions())
	writeMySQLConf(t, env, m, 3306)
	var got error
	m.Start(func(err error) { got = err })
	// MySQL's start delay is 5 s; crash the node mid-boot.
	env.Eng.After(1, "crash", node.Fail)
	env.Eng.Run()
	if !errors.Is(got, ErrServerFailed) {
		t.Fatalf("start on crashing node: %v", got)
	}
	if m.State() != Failed {
		t.Fatalf("state = %v, want FAILED", m.State())
	}
}

func TestApacheMixedStaticDynamicWorkload(t *testing.T) {
	env, a, tc, _ := buildStack(t)
	done := 0
	for i := 0; i < 10; i++ {
		static := i%2 == 0
		a.HandleHTTP(&WebRequest{Static: static, WebCost: 0.001, AppCost: 0.001},
			netsim.ReplyFunc(func(err error) {
				if err != nil {
					t.Errorf("request failed: %v", err)
				}
				done++
			}))
	}
	env.Eng.Run()
	if done != 10 {
		t.Fatalf("completed = %d", done)
	}
	if a.Served() != 10 {
		t.Fatalf("apache served = %d", a.Served())
	}
	if tc.Served() != 5 {
		t.Fatalf("tomcat served = %d, want only the dynamic half", tc.Served())
	}
}

func TestConcurrentRequestsShareTierCPU(t *testing.T) {
	// Two simultaneous dynamic requests with 0.1 s app cost each on one
	// Tomcat: processor sharing makes both finish at ~0.2 s + overheads,
	// not 0.1 s.
	env, a, _, _ := buildStack(t)
	var finish []float64
	t0 := env.Eng.Now()
	for i := 0; i < 2; i++ {
		a.HandleHTTP(&WebRequest{WebCost: 0, AppCost: 0.1}, netsim.ReplyFunc(func(err error) {
			if err != nil {
				t.Fatal(err)
			}
			finish = append(finish, env.Eng.Now()-t0)
		}))
	}
	env.Eng.Run()
	if len(finish) != 2 {
		t.Fatalf("completions = %d", len(finish))
	}
	for _, f := range finish {
		if f < 0.199 {
			t.Fatalf("finish at %v: requests did not share the CPU", f)
		}
	}
}

func TestTomcatResolvesCJDBCStyleAddress(t *testing.T) {
	// The JDBC URL may point at any SQL executor on the network; a
	// second MySQL stands in for the C-JDBC controller here.
	env, pool := testEnv(t, 2)
	m := NewMySQL(env, "virtualdb", allocNode(t, pool), DefaultMySQLOptions())
	cnf := config.NewMyCnf()
	cnf.SetInt("mysqld", "port", 25322)
	if err := env.FS.WriteFile(m.ConfPath(), []byte(cnf.Render())); err != nil {
		t.Fatal(err)
	}
	startOK(t, env.Eng, m.Start)
	tc := NewTomcat(env, "tomcat1", allocNode(t, pool), DefaultTomcatOptions())
	writeTomcatConf(t, env, tc, 8009, fmt.Sprintf("jdbc:mysql://%s:25322/rubis", m.Node().Name()))
	startOK(t, env.Eng, tc.Start)
	if tc.JDBCAddr() != m.Node().Name()+":25322" {
		t.Fatalf("jdbc addr = %q", tc.JDBCAddr())
	}
}

func TestListenerFreedAfterStopAllowsRestartElsewhere(t *testing.T) {
	// Stop a server, start another one on the same address: the network
	// slot must have been released.
	env, pool := testEnv(t, 1)
	node := allocNode(t, pool)
	m1 := NewMySQL(env, "mysqlA", node, DefaultMySQLOptions())
	writeMySQLConf(t, env, m1, 3306)
	startOK(t, env.Eng, m1.Start)
	var serr error = errors.New("pending")
	m1.Stop(func(err error) { serr = err })
	env.Eng.Run()
	if serr != nil {
		t.Fatal(serr)
	}
	m2 := NewMySQL(env, "mysqlB", node, DefaultMySQLOptions())
	writeMySQLConf(t, env, m2, 3306)
	startOK(t, env.Eng, m2.Start)
}

// instantSQL answers every query at once.
type instantSQL struct{}

func (instantSQL) ExecSQL(_ Query, done netsim.Reply) { done.Reply(nil) }

// A servlet request is one record, which is also the reply to each of its
// statements, taken from the Tomcat's free list and put back when the
// request is answered: 0 objects whether it issues one query or four (1
// while each request allocated its record; 2 while the record bound a
// callback for its statements; 9 before the record, plus 1 per further
// query). Instruments on, tracing off.
func TestTomcatHandleHTTPAllocs(t *testing.T) {
	env, pool := testEnv(t, 1)
	env.Obs = obs.NewRegistry(env.Eng.Now)
	if err := env.Net.Register("virtualdb:3306", instantSQL{}); err != nil {
		t.Fatal(err)
	}
	tc := NewTomcat(env, "tomcat1", allocNode(t, pool), DefaultTomcatOptions())
	writeTomcatConf(t, env, tc, 8009, "jdbc:mysql://virtualdb:3306/rubis")
	startOK(t, env.Eng, tc.Start)
	done := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, queries := range []int{1, 4} {
		req := &WebRequest{AppCost: 0.001, Queries: make([]Query, queries)}
		got := testing.AllocsPerRun(200, func() {
			tc.HandleHTTP(req, netsim.ReplyFunc(done))
			env.Eng.Run()
		})
		if got > 0 {
			t.Errorf("a request of %d queries allocates %v objects in legacy and cluster, want 0", queries, got)
		}
	}
	if tc.Served() != 402 {
		t.Fatalf("served %d of 402 requests", tc.Served())
	}
}

// A read costs MySQL nothing, prepared or parsed: its record comes from
// the server's free list, and the engine counts the rows of a read without
// building them (measured 0; 1 while each read allocated its record, 5
// while ExecSQL built the result it threw away, 8 before the record). Text
// pays what Parse allocates. Instruments on, tracing off.
func TestMySQLExecSQLAllocs(t *testing.T) {
	env, pool := testEnv(t, 1)
	env.Obs = obs.NewRegistry(env.Eng.Now)
	m := NewMySQL(env, "mysql1", allocNode(t, pool), DefaultMySQLOptions())
	writeMySQLConf(t, env, m, 3306)
	startOK(t, env.Eng, m.Start)
	for _, sql := range []string{"CREATE TABLE items (id INT, name TEXT)", "INSERT INTO items (id, name) VALUES (1000, 'book')"} {
		if _, err := m.DB().Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	const sql = "SELECT name FROM items WHERE id = 1000"
	stmt, err := sqlengine.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	prepared, err := sqlengine.Prepare("SELECT name FROM items WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}
	parse := testing.AllocsPerRun(200, func() {
		if _, err := sqlengine.Parse(sql); err != nil {
			t.Fatal(err)
		}
	})
	done := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		form string
		q    Query
		want float64
	}{
		{"prepared", Query{Cost: 0.001, Prepared: prepared, Arg: 1000}, 0},
		{"parsed", Query{Cost: 0.001, Stmt: stmt}, 0},
		{"text", Query{Cost: 0.001, SQL: sql}, parse + 0},
	} {
		got := testing.AllocsPerRun(200, func() {
			m.ExecSQL(c.q, netsim.ReplyFunc(done))
			env.Eng.Run()
		})
		if got > c.want {
			t.Errorf("a %s read allocates %v objects, want at most %v (Parse is %v)", c.form, got, c.want, parse)
		}
	}
	if m.Served() < 600 {
		t.Fatalf("served %d", m.Served())
	}
}

// instantHTTP answers every request at once.
type instantHTTP struct{}

func (instantHTTP) HandleHTTP(_ *WebRequest, done netsim.Reply) { done.Reply(nil) }

// An Apache request is one record, which is also the AJP worker's reply
// when the page is dynamic, taken from the server's free list: 0 objects
// static or forwarded (1 while each request allocated its record; 2
// forwarded while the record bound a callback for the worker; 5 and 6
// before the record, when a request was a chain of closures around
// Submit). Instruments on, tracing off.
func TestApacheHandleHTTPAllocs(t *testing.T) {
	env, pool := testEnv(t, 1)
	env.Obs = obs.NewRegistry(env.Eng.Now)
	if err := env.Net.Register("appserver:8009", instantHTTP{}); err != nil {
		t.Fatal(err)
	}
	a := NewApache(env, "apache1", allocNode(t, pool), DefaultApacheOptions())
	writeApacheConf(t, env, a, 80, []config.Worker{{Name: "tomcat1", Host: "appserver", Port: 8009}})
	startOK(t, env.Eng, a.Start)
	done := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, static := range []bool{true, false} {
		req := &WebRequest{Static: static, WebCost: 0.001}
		got := testing.AllocsPerRun(200, func() {
			a.HandleHTTP(req, netsim.ReplyFunc(done))
			env.Eng.Run()
		})
		if got > 0 {
			t.Errorf("a request (static=%v) allocates %v objects in legacy and cluster, want 0", static, got)
		}
	}
	if a.Served() != 402 {
		t.Fatalf("served %d of 402 requests", a.Served())
	}
}

// A forward over an enabled fabric is one record, the fabric's call record
// embedded in it, whose first attempt is the reply the target is handed;
// the fabric hands it back to the network's free list once the call is
// over: 0 objects beyond the target for a query and for a page (1 while
// each call allocated its record; 2 while the target was handed a bound
// method; 7 while the fabric bound four methods to a record and an attempt
// of its own, behind a forwarding closure). The fabric's instruments are
// on.
func TestForwardOverFabricAllocs(t *testing.T) {
	env, _ := testEnv(t, 1)
	fab := netsim.New(env.Eng, netsim.Config{Enabled: true}, 1)
	fab.Instrument(nil, obs.NewRegistry(env.Eng.Now))
	env.Net.SetFabric(fab)
	answered := 0
	done := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
		answered++
	}
	sql := func() { env.Net.ForwardSQL("app", "sql", instantSQL{}, Query{Cost: 0.001}, netsim.ReplyFunc(done)) }
	req := &WebRequest{}
	http := func() { env.Net.ForwardHTTP("web", "app", instantHTTP{}, req, netsim.ReplyFunc(done)) }
	for i := 0; i < 4096; i++ {
		sql()
		http()
	}
	env.Eng.Run()
	for _, c := range []struct {
		kind    string
		forward func()
	}{{"SQL", sql}, {"HTTP", http}} {
		got := testing.AllocsPerRun(200, func() {
			c.forward()
			env.Eng.Run()
		})
		if got > 0 {
			t.Errorf("a forwarded %s call allocates %v objects beyond its target, want 0", c.kind, got)
		}
	}
	if st := fab.Stats(); answered != 2*4096+2*201 || st.RPCs != uint64(answered) || st.Messages != 2*st.RPCs {
		t.Fatalf("%d answered, stats %+v: every forward must be one RPC of two messages", answered, st)
	}
}
