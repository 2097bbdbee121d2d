package legacy

import (
	"errors"
	"reflect"
	"testing"

	"jade/internal/cluster"
	"jade/internal/netsim"
)

// checkIdle checks a free list after quiescence: no record is on it twice,
// every record on it is zeroed, and there are at most peak of them, the
// most requests its tier had in flight at once. It returns the length.
func checkIdle[T any](t *testing.T, name string, l *FreeList[T], peak int) int {
	t.Helper()
	if len(l.idle) > peak {
		t.Errorf("%s: %d idle records, but at most %d requests were in flight", name, len(l.idle), peak)
	}
	seen := make(map[*T]bool, len(l.idle))
	for _, r := range l.idle {
		if seen[r] {
			t.Errorf("%s: record %p was put back twice", name, r)
		}
		seen[r] = true
		if !reflect.ValueOf(r).Elem().IsZero() {
			t.Errorf("%s: idle record %p is not zeroed: %+v", name, r, *r)
		}
	}
	return len(l.idle)
}

// counting wraps an HTTP handler and counts the requests it holds, for the
// peak a free list is bounded by; late counts those that arrive while
// settled() holds.
type counting struct {
	h              HTTPHandler
	settled        func() bool
	inFlight, peak int
	late           int
}

func (c *counting) HandleHTTP(req *WebRequest, done netsim.Reply) {
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

// Every exit of a hop puts its record back exactly once, and a reused
// record starts zeroed: an answer (JobDone), a crash under the job
// (JobFailed), a request that reaches a server whose node is already down
// (JobFailed from inside Node.Run), a refusal because the server is not
// running (no record at all), and a delivery that reaches a server after
// its call settled.
func TestHopRecordLifecycle(t *testing.T) {
	dynamic := func() *WebRequest {
		return &WebRequest{WebCost: 0.001, AppCost: 0.01, Queries: []Query{{SQL: "SELECT * FROM items", Cost: 0.01}}}
	}
	stack := func(t *testing.T) (*Env, *Apache, *Tomcat, *MySQL) {
		env, a, tc, m := buildStack(t)
		if _, err := m.DB().Exec("CREATE TABLE items (id INT)"); err != nil {
			t.Fatal(err)
		}
		return env, a, tc, m
	}
	// idle checks the three lists against the requests each server held.
	idle := func(t *testing.T, a *Apache, tc *Tomcat, m *MySQL, pages, servlets, executions int) {
		t.Helper()
		for _, c := range []struct {
			name      string
			got, want int
		}{
			{"apache", checkIdle(t, "apache", &a.pages, pages), pages},
			{"tomcat", checkIdle(t, "tomcat", &tc.servlets, servlets), servlets},
			{"mysql", checkIdle(t, "mysql", &m.executions, executions), executions},
		} {
			if c.got != c.want {
				t.Errorf("%s: %d idle records, want %d", c.name, c.got, c.want)
			}
		}
	}

	t.Run("JobDone", func(t *testing.T) {
		env, a, tc, m := stack(t)
		var first [3]any
		for i := 0; i < 3; i++ {
			var got error = errors.New("never answered")
			a.HandleHTTP(dynamic(), netsim.ReplyFunc(func(err error) { got = err }))
			env.Eng.Run()
			if got != nil {
				t.Fatal(got)
			}
			idle(t, a, tc, m, 1, 1, 1)
			recs := [3]any{a.pages.idle[0], tc.servlets.idle[0], m.executions.idle[0]}
			if i == 0 {
				first = recs
			} else if recs != first {
				t.Fatalf("request %d took new records %v, want the idle ones %v", i, recs, first)
			}
		}
		// Three at once: three of each, all back.
		answered := 0
		for i := 0; i < 3; i++ {
			a.HandleHTTP(dynamic(), netsim.ReplyFunc(func(err error) {
				if err != nil {
					t.Error(err)
				}
				answered++
			}))
		}
		env.Eng.Run()
		if answered != 3 {
			t.Fatalf("%d of 3 answered", answered)
		}
		idle(t, a, tc, m, 3, 3, 3)
	})

	// A crash under each tier's job: that tier's record takes JobFailed and
	// the ones upstream take its error. The caller, answered from inside the
	// crash, sends the same tier a second request before the server has
	// seen its node go: that record's job fails from inside Run.
	for _, c := range []struct {
		tier    string
		at      float64
		records [3]int // pages, servlets, executions
	}{
		{"web", 0.0005, [3]int{1, 0, 0}},
		{"app", 0.005, [3]int{1, 1, 0}},
		{"db", 0.016, [3]int{1, 1, 1}},
	} {
		t.Run("JobFailed/"+c.tier, func(t *testing.T) {
			env, a, tc, m := stack(t)
			var first, second error
			again := map[string]func(){
				"web": func() {
					a.HandleHTTP(&WebRequest{Static: true, WebCost: 0.001}, netsim.ReplyFunc(func(err error) { second = err }))
				},
				"app": func() { tc.HandleHTTP(dynamic(), netsim.ReplyFunc(func(err error) { second = err })) },
				"db": func() {
					m.ExecSQL(Query{SQL: "SELECT * FROM items", Cost: 0.01}, netsim.ReplyFunc(func(err error) { second = err }))
				},
			}[c.tier]
			a.HandleHTTP(dynamic(), netsim.ReplyFunc(func(err error) {
				first = err
				again()
			}))
			node := map[string]func(){"web": a.Node().Fail, "app": tc.Node().Fail, "db": m.Node().Fail}[c.tier]
			env.Eng.After(c.at, "crash", node)
			env.Eng.Run()
			if !errors.Is(first, ErrServerFailed) || !errors.Is(second, ErrServerFailed) {
				t.Fatalf("crash under the %s job: %v, then %v; want %v twice", c.tier, first, second, ErrServerFailed)
			}
			idle(t, a, tc, m, c.records[0], c.records[1], c.records[2])
		})
	}

	t.Run("not running", func(t *testing.T) {
		env, a, tc, m := stack(t)
		for _, stop := range []func(func(error)){a.Stop, tc.Stop, m.Stop} {
			stop(func(error) {})
		}
		env.Eng.Run()
		var errs [3]error
		a.HandleHTTP(dynamic(), netsim.ReplyFunc(func(err error) { errs[0] = err }))
		tc.HandleHTTP(dynamic(), netsim.ReplyFunc(func(err error) { errs[1] = err }))
		m.ExecSQL(Query{SQL: "SELECT * FROM items"}, netsim.ReplyFunc(func(err error) { errs[2] = err }))
		env.Eng.Run()
		for i, err := range errs {
			if !errors.Is(err, ErrNotRunning) {
				t.Errorf("request %d to a stopped server: %v", i, err)
			}
		}
		idle(t, a, tc, m, 0, 0, 0)
	})

	// Over a lossy fabric whose link is slower than an attempt's patience,
	// every call is abandoned after its third attempt times out, and the
	// requests still on the link reach the Tomcat after that: their
	// servlets answer a settled call.
	t.Run("delivery after the call settled", func(t *testing.T) {
		env, _, tc, m := stack(t)
		fab := netsim.New(env.Eng, netsim.Config{
			Enabled: true,
			Default: netsim.Link{LatencyMS: 50, Loss: 0.2},
			RPC:     map[string]netsim.RPCBudget{"app": {TimeoutSeconds: 0.01, Attempts: 3, BackoffSeconds: 0.02}},
		}, 1)
		env.Net.SetFabric(fab)
		// One call a second, each settled well within its second.
		const calls = 20
		issued, settled := 0, 0
		target := &counting{h: tc, settled: func() bool { return settled == issued }}
		var reqs []*WebRequest
		for i := 0; i < calls; i++ {
			env.Eng.After(float64(i), "call", func() {
				issued++
				req := dynamic()
				reqs = append(reqs, req)
				env.Net.ForwardHTTP("web", "app", target, req, netsim.ReplyFunc(func(error) {
					settled++
					if !req.Held() {
						t.Error("a request was free while the fabric still had its call")
					}
				}))
			})
		}
		env.Eng.Run()
		// Every call was handed back, so no request is held any more.
		for i, req := range reqs {
			if req.held != 0 {
				t.Errorf("request %d is held by %d calls at quiescence", i, req.held)
			}
		}
		deliveries := tc.Served() + tc.Errors()
		if settled != calls || target.late == 0 || target.inFlight != 0 {
			t.Fatalf("%d of %d calls settled, %d of %d deliveries after their call settled, %d still in flight", settled, calls, target.late, deliveries, target.inFlight)
		}
		// A servlet is held from delivery to answer, so the list grew to the
		// peak and every servlet came back.
		if n := checkIdle(t, "tomcat", &tc.servlets, target.peak); n != target.peak {
			t.Errorf("tomcat: %d idle servlets, want the peak in flight, %d", n, target.peak)
		}
		checkIdle(t, "mysql", &m.executions, int(deliveries))
	})
}

// preset fills an empty free list with n fresh records and returns them.
func preset[T any](l *FreeList[T], n int) map[*T]bool {
	recs := make(map[*T]bool, n)
	for i := 0; i < n; i++ {
		r := new(T)
		recs[r] = true
		l.Put(r)
	}
	return recs
}

// lateCheck passes requests to h and counts those delivered after their
// call settled.
type lateCheck struct {
	h       HTTPHandler
	settled map[*WebRequest]bool
	late    int
}

func (c *lateCheck) HandleHTTP(req *WebRequest, done netsim.Reply) {
	if c.settled[req] {
		c.late++
	}
	c.h.HandleHTTP(req, done)
}

// The fabric hands each of the network's call records back exactly once,
// zeroed, and only once nothing of its call can read it. Over a lossy,
// jittered fabric with timeouts shorter than some round trips, dynamic
// pages go client -> Apache -> Tomcat -> MySQL: calls retransmit, some are
// abandoned, requests reach Apache after their call settled and are
// answered then, and MySQL's node and then Tomcat's crash under their
// jobs. The lists start with more preset records than are ever in flight,
// so the run makes none of its own: a record that never comes back leaves
// its list short, and one put back twice shows up twice. An event that
// reached a record while it sat idle would panic on its zeroed fields, and
// one that reached it after it was taken again would answer a request
// twice or never.
func TestCallRecordLifecycle(t *testing.T) {
	env, a, tc, m := buildStack(t)
	if _, err := m.DB().Exec("CREATE TABLE items (id INT)"); err != nil {
		t.Fatal(err)
	}
	fab := netsim.New(env.Eng, netsim.Config{
		Enabled: true,
		Default: netsim.Link{LatencyMS: 1, JitterMS: 4, Loss: 0.1},
		RPC: map[string]netsim.RPCBudget{
			"front": {TimeoutSeconds: 0.02, Attempts: 3, BackoffSeconds: 0.005},
			"app":   {TimeoutSeconds: 0.08, Attempts: 3, BackoffSeconds: 0.01},
			"sql":   {TimeoutSeconds: 0.02, Attempts: 2, BackoffSeconds: 0.005},
		},
	}, 1)
	env.Net.SetFabric(fab)
	const records = 64
	httpRecs := preset(&env.Net.httpCalls, records)
	sqlRecs := preset(&env.Net.sqlCalls, records)

	const requests = 200
	front := &lateCheck{h: a, settled: make(map[*WebRequest]bool)}
	answers := make([]int, requests)
	failed := 0
	for i := 0; i < requests; i++ {
		env.Eng.After(float64(i)*0.02, "request", func() {
			req := &WebRequest{WebCost: 0.001, AppCost: 0.004, Queries: []Query{{SQL: "SELECT * FROM items", Cost: 0.004}}}
			env.Net.ForwardHTTP("client", "front", front, req, netsim.ReplyFunc(func(err error) {
				answers[i]++
				front.settled[req] = true
				if err != nil {
					failed++
				}
			}))
		})
	}
	// Each node crashes the first time it is seen running jobs after its
	// instant, while requests still arrive.
	crashed := map[*cluster.Node]int{} // the jobs under each crash
	last := env.Eng.Now() + requests*0.02
	var crashBusy func(n *cluster.Node)
	crashBusy = func(n *cluster.Node) {
		if n.ActiveJobs() > 0 {
			crashed[n] = n.ActiveJobs()
			n.Fail()
			return
		}
		if env.Eng.Now() < last {
			env.Eng.After(0.0005, "crash", func() { crashBusy(n) })
		}
	}
	env.Eng.After(2, "crash", func() { crashBusy(m.Node()) })
	env.Eng.After(3, "crash", func() { crashBusy(tc.Node()) })
	env.Eng.Run()

	for i, n := range answers {
		if n != 1 {
			t.Fatalf("request %d answered %d times", i, n)
		}
	}
	st := fab.Stats()
	if st.Retransmits == 0 || st.Abandoned == 0 || front.late == 0 || crashed[m.Node()] == 0 || crashed[tc.Node()] == 0 || failed == requests {
		t.Fatalf("%d retransmits, %d abandons, %d late deliveries, %d and %d jobs under MySQL's and Tomcat's crash, %d of the requests failed; the run must cover each and answer some requests",
			st.Retransmits, st.Abandoned, front.late, crashed[m.Node()], crashed[tc.Node()], failed)
	}
	if st.RPCs <= 2*records {
		t.Fatalf("%d calls over %d records per list: too few to reuse a record", st.RPCs, records)
	}
	checkPreset(t, "httpCalls", &env.Net.httpCalls, httpRecs)
	checkPreset(t, "sqlCalls", &env.Net.sqlCalls, sqlRecs)
}

// checkPreset checks a list at quiescence against the records preset on
// it: each back once and zeroed, and none made meanwhile.
func checkPreset[T any](t *testing.T, name string, l *FreeList[T], recs map[*T]bool) {
	t.Helper()
	if n := checkIdle(t, name, l, len(recs)); n != len(recs) {
		t.Errorf("%s: %d of %d records back in the list", name, n, len(recs))
	}
	for _, r := range l.idle {
		if !recs[r] {
			t.Errorf("%s: record %p was made during the run: the preset ones ran out", name, r)
		}
	}
}
