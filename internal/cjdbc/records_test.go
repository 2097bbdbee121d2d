package cjdbc

import (
	"errors"
	"reflect"
	"testing"

	"jade/internal/cluster"
	"jade/internal/legacy"
	"jade/internal/netsim"
	"jade/internal/obs"
	"jade/internal/sqlengine"
)

// checkIdle checks the request free list after quiescence: no record is
// on it twice, every one is zeroed, and there are want of them, the most
// the controller held at once.
func checkIdle(t *testing.T, l *legacy.FreeList[request], want int) {
	t.Helper()
	idle := make([]*request, l.Len())
	seen := make(map[*request]bool, len(idle))
	for i := range idle {
		r := l.Get()
		if seen[r] {
			t.Errorf("record %p was put back twice", r)
		}
		seen[r] = true
		v := reflect.ValueOf(r).Elem()
		for f := 0; f < v.NumField(); f++ {
			if !v.Field(f).IsZero() {
				t.Errorf("idle record %p has %s set: %+v", r, v.Type().Field(f).Name, *r)
			}
		}
		idle[i] = r
	}
	for _, r := range idle {
		l.Put(r)
	}
	if len(idle) != want {
		t.Errorf("%d idle records, want %d", len(idle), want)
	}
}

// runChecked runs the engine to quiescence and checks the controller's
// pending writes after every event: in strictly ascending log order and
// each its own request record, so no write is held twice, and none once
// the run is quiet. It returns the most writes pending at once.
func runChecked(t *testing.T, r *rig) (peak int) {
	t.Helper()
	for r.env.Eng.Step() {
		pending := r.ctl.p.pending
		for k := 1; k < len(pending); k++ {
			if pending[k].idx <= pending[k-1].idx {
				t.Fatalf("pending writes out of log order: %d after %d", pending[k].idx, pending[k-1].idx)
			}
			for _, e := range pending[:k] {
				if e.w == pending[k].w {
					t.Fatalf("request %p pending as writes %d and %d", e.w, e.idx, pending[k].idx)
				}
			}
		}
		peak = max(peak, len(pending))
	}
	if n := len(r.ctl.p.pending); n != 0 {
		t.Errorf("%d writes pending at quiescence", n)
	}
	return peak
}

// countingSQL wraps the controller and counts the statements it holds;
// late counts those that arrive while settled() holds. It is on the
// controller's node, so the fabric's links to that node carry its calls.
type countingSQL struct {
	c              *Controller
	settled        func() bool
	inFlight, peak int
	late           int
}

func (s *countingSQL) Node() *cluster.Node { return s.c.Node() }

func (s *countingSQL) ExecSQL(q legacy.Query, done netsim.Reply) {
	if s.settled() {
		s.late++
	}
	s.inFlight++
	s.peak = max(s.peak, s.inFlight)
	s.c.ExecSQL(q, netsim.ReplyFunc(func(err error) {
		s.inFlight--
		done.Reply(err)
	}))
}

// Every exit of a controller request puts it back exactly once, and a
// reused record starts zeroed: a read's answer, a read retried after its
// backend died, a write's broadcast, a write one of whose backends died
// (JobDone, then the reply); a crash under the proxy job (JobFailed); a
// statement to a controller whose node is down (JobFailed from inside
// Node.Run); a refusal because the controller is stopped (no record at
// all); and a delivery that reaches the controller after its call settled.
// Each write is pending once, in log order, until it is answered, and the
// pending list reuses its backing array.
func TestRequestRecordLifecycle(t *testing.T) {
	setup := func(t *testing.T) (*rig, *legacy.MySQL, *legacy.MySQL) {
		r := newRig(t, 4)
		m1, m2 := r.mysql("mysql1"), r.mysql("mysql2")
		r.join("b1", m1)
		r.join("b2", m2)
		r.mustExec("CREATE TABLE t (a INT)")
		return r, m1, m2
	}
	const read, write = "SELECT * FROM t", "INSERT INTO t (a) VALUES (1)"

	t.Run("JobDone", func(t *testing.T) {
		r, m1, _ := setup(t)
		var first [2]any
		for i := 0; i < 3; i++ {
			r.mustExec(read)
			r.mustExec(write)
			checkIdle(t, &r.ctl.requests, 1)
			req := r.ctl.requests.Get()
			r.ctl.requests.Put(req)
			if recs := [2]any{req, &r.ctl.p.pending[:1][0]}; i == 0 {
				first = recs
			} else if recs != first {
				t.Fatalf("round %d took a new record or pending list %v, want the idle ones %v", i, recs, first)
			}
		}
		// Three reads and three writes at once.
		answered := 0
		for _, sql := range []string{read, write, read, write, read, write} {
			r.ctl.ExecSQL(legacy.Query{SQL: sql, Cost: 0.001}, netsim.ReplyFunc(func(err error) {
				if err != nil {
					t.Error(err)
				}
				answered++
			}))
		}
		if peak := runChecked(t, r); answered != 6 || peak != 3 {
			t.Fatalf("%d of 6 answered, at most %d writes pending, want all and 3", answered, peak)
		}
		checkIdle(t, &r.ctl.requests, 6)
		// A backend's node crashes under a write and under a read: the
		// write finishes on the survivor, the read is retried there.
		for _, sql := range []string{write, read} {
			r.ctl.ExecSQL(legacy.Query{SQL: sql, Cost: 0.01}, netsim.ReplyFunc(func(err error) {
				if err != nil {
					t.Error(err)
				}
				answered++
			}))
		}
		r.env.Eng.After(r.ctl.opts.ProxyCost+0.005, "crash", m1.Node().Fail)
		runChecked(t, r)
		if answered != 8 || r.ctl.ActiveCount() != 1 {
			t.Fatalf("%d of 8 answered, %d active backends; want the crash survived on one", answered, r.ctl.ActiveCount())
		}
		checkIdle(t, &r.ctl.requests, 6)
	})

	// A crash under the proxy job; the caller, answered from inside the
	// crash, sends a second statement to the controller whose node is down.
	t.Run("JobFailed", func(t *testing.T) {
		r, _, _ := setup(t)
		var first, second error
		r.ctl.ExecSQL(legacy.Query{SQL: write, Cost: 0.001}, netsim.ReplyFunc(func(err error) {
			first = err
			r.ctl.ExecSQL(legacy.Query{SQL: read, Cost: 0.001}, netsim.ReplyFunc(func(err error) { second = err }))
		}))
		r.env.Eng.After(r.ctl.opts.ProxyCost/2, "crash", r.ctl.Node().Fail)
		runChecked(t, r)
		if first == nil || second == nil || r.ctl.Failures() != 2 {
			t.Fatalf("crash under the proxy job: %v, then %v, %d failures; want two node failures", first, second, r.ctl.Failures())
		}
		checkIdle(t, &r.ctl.requests, 1)
	})

	t.Run("not running", func(t *testing.T) {
		r, _, _ := setup(t)
		r.ctl.Stop()
		if err := r.exec(read); !errors.Is(err, ErrNotRunning) {
			t.Fatalf("statement to a stopped controller: %v", err)
		}
		checkIdle(t, &r.ctl.requests, 1) // the CREATE's
		if n := len(r.ctl.p.pending); n != 0 {
			t.Errorf("%d writes pending", n)
		}
	})

	// Over a lossy fabric whose link to the controller is slower than an
	// attempt's patience, every call is abandoned after its third attempt,
	// and the statements still on the link reach the controller after that.
	t.Run("delivery after the call settled", func(t *testing.T) {
		r, _, _ := setup(t)
		// Start from an empty list, so its length is this part's.
		r.ctl.requests = legacy.FreeList[request]{}
		r.env.Net.SetFabric(netsim.New(r.env.Eng, netsim.Config{
			Enabled: true,
			Links:   map[string]netsim.Link{"app->" + r.ctl.Node().Name(): {LatencyMS: 50, Loss: 0.2}},
			RPC:     map[string]netsim.RPCBudget{"sql": {TimeoutSeconds: 0.01, Attempts: 3, BackoffSeconds: 0.02}},
		}, 1))
		const calls = 20
		issued, settled := 0, 0
		target := &countingSQL{c: r.ctl, settled: func() bool { return settled == issued }}
		for i := 0; i < calls; i++ {
			sql := []string{read, write}[i%2]
			r.env.Eng.After(float64(i), "call", func() {
				issued++
				r.env.Net.ForwardSQL("app", "sql", target, legacy.Query{SQL: sql, Cost: 0.001}, netsim.ReplyFunc(func(error) { settled++ }))
			})
		}
		peak := runChecked(t, r)
		if settled != calls || target.late == 0 || target.inFlight != 0 {
			t.Fatalf("%d of %d calls settled, %d deliveries after their call settled, %d still in flight", settled, calls, target.late, target.inFlight)
		}
		checkIdle(t, &r.ctl.requests, target.peak)
		if peak == 0 || peak > target.peak {
			t.Errorf("at most %d writes pending, want 1 to %d", peak, target.peak)
		}
	})
}

// A write to two backends costs the controller nothing of its own: the
// request is recycled, the pending list reuses its backing array, and each
// backend's apply reply is its own, as are the backends' own records. What it pays is measured here and subtracted:
// sqlengine.Parse of its text, the recovery log's append and each
// backend's engine executing it (6, 0 and 1 each for this INSERT). A write
// that arrives built is not parsed: measured 2 objects per write, the two
// engines' rows, against 8 as text, 0 of either the controller's own; 18,
// 10 of them those records, while the controller and the backends
// allocated a set per write. Instruments on, tracing off.
func TestWriteAllocs(t *testing.T) {
	r := newRig(t, 3)
	r.ctl.Obs = obs.NewTierMetrics(obs.NewRegistry(r.env.Eng.Now), "sql", "cjdbc")
	m1, m2 := r.mysql("mysql1"), r.mysql("mysql2")
	r.join("b1", m1)
	r.join("b2", m2)
	r.mustExec("CREATE TABLE t (a INT, b TEXT)")
	const sql = "INSERT INTO t (a, b) VALUES (1000, 'x')"
	stmt, err := sqlengine.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	const runs = 200
	parse := testing.AllocsPerRun(runs, func() {
		if _, err := sqlengine.Parse(sql); err != nil {
			t.Fatal(err)
		}
	})
	// The log and the tables grow under the measured writes: measure their
	// share on copies that grow the same way.
	log := NewRecoveryLog()
	for i := int64(0); i < r.ctl.log.Len(); i++ {
		rec, _ := r.ctl.log.At(i)
		log.Append(rec.Query)
	}
	q := legacy.Query{SQL: sql, Cost: 0.001}
	appendLog := testing.AllocsPerRun(runs, func() { log.Append(q) })
	engine := 0.0
	for _, m := range []*legacy.MySQL{m1, m2} {
		db := m.DB().Snapshot()
		engine += testing.AllocsPerRun(runs, func() {
			if _, err := db.Count(stmt); err != nil {
				t.Fatal(err)
			}
		})
	}
	done := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		form  string
		q     legacy.Query
		parse float64
	}{
		{"text", q, parse},
		{"built", legacy.Query{Stmt: stmt, Cost: 0.001}, 0},
	} {
		got := testing.AllocsPerRun(runs, func() {
			r.ctl.ExecSQL(c.q, netsim.ReplyFunc(done))
			r.env.Eng.Run()
		})
		if own := got - c.parse - appendLog - engine; own > 0 {
			t.Errorf("a %s write allocates %v objects (%v parsing, %v logging, %v in the two engines): %v in cjdbc, legacy and cluster, want 0", c.form, got, c.parse, appendLog, engine, own)
		}
	}
	if m1.DB().RowCount("t") != 2*(runs+1) || m2.DB().RowCount("t") != 2*(runs+1) {
		t.Fatalf("backends hold %d and %d rows, want %d each", m1.DB().RowCount("t"), m2.DB().RowCount("t"), 2*(runs+1))
	}
}
