package rubis

import (
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"jade/internal/cluster"
	"jade/internal/config"
	"jade/internal/legacy"
	"jade/internal/netsim"
	"jade/internal/obs"
	"jade/internal/sim"
	"jade/internal/sqlengine"
	"jade/internal/trace"
)

// The differential test of the writes: on the draws of
// testdata/interaction_sql.golden (seeds 1 to 3, the 26 interactions in
// turn 50 times, an Int63 drawn after each request), every write the
// emulator builds deep-equals what the text Request renders for the same
// draws parses to, the text the built write renders on demand parses back
// to it, and the two generators stay in step. A replica rebuilt
// from the initial snapshot by executing the built statements, as replay
// executes a recovery log, has the fingerprint of one fed the texts.
func TestWritesMatchTheirText(t *testing.T) {
	ds := DefaultDataset()
	its := Interactions()
	for _, seed := range []int64{1, 2, 3} {
		base, err := ds.InitialDatabase(seed)
		if err != nil {
			t.Fatal(err)
		}
		viaLog, viaText := base.Snapshot(), base.Snapshot()
		var log []sqlengine.Statement
		gen := func() *GenContext {
			return &GenContext{DS: ds, RNG: rand.New(rand.NewSource(seed)), Counters: NewCounters(ds)}
		}
		g, bare := gen(), gen()
		for round := 0; round < 50; round++ {
			for i := range its {
				req := its[i].Request(g)
				var built issued
				its[i].build(bare, &built.WebRequest, built.queries[:0])
				for j, q := range req.Queries {
					if !q.IsWrite() {
						continue
					}
					stmt, err := sqlengine.Parse(q.SQL)
					if err != nil {
						t.Fatalf("%s: %q: %v", its[i].Name, q.SQL, err)
					}
					b := built.Queries[j]
					if b.SQL != "" || b.Prepared != nil || b.Cost != q.Cost || !reflect.DeepEqual(b.Stmt, stmt) {
						t.Fatalf("seed %d %s: the emulator's write\n%#v\nis not its text's\n%#v (%q)", seed, its[i].Name, b, stmt, q.SQL)
					}
					// What a recovery log record renders on demand reads back as the statement.
					if text, err := b.Text(); err != nil {
						t.Fatal(err)
					} else if back, err := sqlengine.Parse(text); err != nil || !reflect.DeepEqual(back, stmt) {
						t.Fatalf("%s renders %q: %v", its[i].Name, text, err)
					}
					if _, err := viaText.Exec(q.SQL); err != nil {
						t.Fatalf("%q: %v", q.SQL, err)
					}
					log = append(log, b.Stmt)
				}
				if a, b := g.RNG.Int63(), bare.RNG.Int63(); a != b {
					t.Fatalf("seed %d %s: the generators part: %d / %d", seed, its[i].Name, a, b)
				}
			}
		}
		for _, stmt := range log {
			if _, err := viaLog.ExecStmt(stmt); err != nil {
				t.Fatal(err)
			}
		}
		if len(log) == 0 || viaLog.Fingerprint() != viaText.Fingerprint() || viaLog.Writes() != viaText.Writes() {
			t.Fatalf("seed %d: %d writes; rebuilt from the statements %x (%d writes), fed the texts %x (%d)",
				seed, len(log), viaLog.Fingerprint(), viaLog.Writes(), viaText.Fingerprint(), viaText.Writes())
		}
	}
}

// Every read of every interaction, three ways on the initial database: its
// text parsed and executed, the prepared statement executed, the prepared
// statement counted. Same rows, row for row, and the count is their number.
// On a database without the tables all three fail alike. The request the
// emulator builds from the same draws is the same request without the text.
func TestPreparedReadsMatchTheirText(t *testing.T) {
	d := DefaultDataset()
	db, err := d.InitialDatabase(7)
	if err != nil {
		t.Fatal(err)
	}
	empty := sqlengine.New()
	gen := func() *GenContext {
		return &GenContext{DS: d, RNG: rand.New(rand.NewSource(9)), Counters: NewCounters(d)}
	}
	g, bare := gen(), gen()
	reads := 0
	for _, it := range Interactions() {
		for trial := 0; trial < 20; trial++ {
			req := it.Request(g)
			var built issued
			it.build(bare, &built.WebRequest, built.queries[:0])
			if len(built.Queries) != len(req.Queries) || built.Interaction != req.Interaction || built.AppCost != req.AppCost {
				t.Fatalf("%s: built %+v, Request %+v", it.Name, built.WebRequest, req)
			}
			for i, q := range req.Queries {
				b := built.Queries[i]
				if q.IsWrite() { // TestWritesMatchTheirText compares them
					if q.Prepared != nil || q.Stmt != nil || b.SQL != "" || b.Stmt == nil || b.Cost != q.Cost {
						t.Fatalf("%s: a write is not text in Request, a statement in the emulator: %+v / %+v", it.Name, q, b)
					}
					continue
				}
				reads++
				if b.SQL != "" || b.Prepared != q.Prepared || b.Arg != q.Arg || b.Cost != q.Cost {
					t.Fatalf("%s: built %+v, Request %+v", it.Name, b, q)
				}
				if text, err := b.Text(); err != nil || text != q.SQL {
					t.Fatalf("%s: Text = %q, %v; Request says %q", it.Name, text, err, q.SQL)
				}
				stmt, err := sqlengine.Parse(q.SQL)
				if err != nil {
					t.Fatalf("%s: %q: %v", it.Name, q.SQL, err)
				}
				args := []int64{q.Arg}[:q.Prepared.NumArgs()]
				want, err := db.ExecStmt(stmt)
				if err != nil {
					t.Fatalf("%s: %q: %v", it.Name, q.SQL, err)
				}
				got, err := db.ExecPrepared(q.Prepared, args...)
				if err != nil || !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: %q prepared: %v\n got %v\nwant %v", it.Name, q.SQL, err, got, want)
				}
				if n, err := db.CountPrepared(q.Prepared, args...); err != nil || n != len(want.Rows) {
					t.Fatalf("%s: %q counted: %d, %v; the result has %d rows", it.Name, q.SQL, n, err, len(want.Rows))
				}
				_, werr := empty.ExecStmt(stmt)
				_, gerr := empty.ExecPrepared(q.Prepared, args...)
				_, cerr := empty.CountPrepared(q.Prepared, args...)
				if !errors.Is(werr, sqlengine.ErrNoSuchTable) || gerr.Error() != werr.Error() || cerr.Error() != werr.Error() {
					t.Fatalf("%s: %q without tables: %v / %v / %v", it.Name, q.SQL, werr, gerr, cerr)
				}
			}
		}
	}
	if reads < 20*20 {
		t.Fatalf("only %d reads compared", reads)
	}
}

// recordingFront answers at once and remembers what it was asked.
type recordingFront struct {
	byName map[string]int
	writes int
}

func (f *recordingFront) HandleHTTP(req *legacy.WebRequest, done netsim.Reply) {
	f.byName[req.Interaction]++
	for i := range req.Queries {
		if req.Queries[i].IsWrite() {
			f.writes++
		}
	}
	done.Reply(nil)
}

// Sessions walk the transition graph, but only over what the mix issues:
// the browsing mix keeps the write interactions at weight zero, and a
// session that reaches one picks from the mix instead. (It used to issue
// it: a read-only run with Sessions wrote.)
func TestSessionsRespectZeroWeights(t *testing.T) {
	run := func(mix *Mix) *recordingFront {
		eng := sim.NewEngine(29)
		front := &recordingFront{byName: map[string]int{}}
		em := NewEmulator(eng, front, mix, ConstantProfile{Clients: 40, Length: 600}, DefaultDataset())
		em.ThinkTime = 1
		em.Chain = DefaultTransitions()
		if err := em.Start(); err != nil {
			t.Fatal(err)
		}
		eng.RunUntil(600)
		em.Stop()
		eng.Run()
		if got := len(em.Stats().InteractionNames()); got != len(front.byName) {
			t.Fatalf("stats name %d interactions, the front saw %d", got, len(front.byName))
		}
		return front
	}
	browsing := run(BrowsingMix())
	for _, it := range Interactions() {
		if n := browsing.byName[it.Name]; it.Write && n > 0 {
			t.Errorf("browsing mix with sessions issued %s %d times", it.Name, n)
		}
	}
	if browsing.writes > 0 {
		t.Errorf("browsing mix with sessions issued %d write statements", browsing.writes)
	}
	if len(browsing.byName) != 21 {
		t.Errorf("sessions over the browsing mix reached %d of its 21 interactions", len(browsing.byName))
	}
	if bidding := run(BiddingMix()); bidding.writes == 0 || len(bidding.byName) != 26 {
		t.Errorf("bidding mix with sessions: %d write statements, %d interactions", bidding.writes, len(bidding.byName))
	}
}

// emulatorAllocsPerRequest runs a browsing emulator against a front
// that answers at once and returns the objects it allocates per request;
// tr, when set, traces every request.
func emulatorAllocsPerRequest(t *testing.T, tr func(*sim.Engine) *trace.Tracer) float64 {
	t.Helper()
	eng := sim.NewEngine(3)
	front := &instantFront{}
	em := NewEmulator(eng, front, BrowsingMix(), ConstantProfile{Clients: 50, Length: 1e6}, DefaultDataset())
	em.ThinkTime = 1
	em.Obs = obs.NewTierMetrics(obs.NewRegistry(eng.Now), "client", "emulator")
	if tr != nil {
		em.Trace, em.TraceEvery = tr(eng), 1
	}
	if err := em.Start(); err != nil {
		t.Fatal(err)
	}
	now := 100.0
	eng.RunUntil(now)
	before := front.served
	const runs = 5
	allocs := testing.AllocsPerRun(runs, func() {
		now += 200
		eng.RunUntil(now)
	})
	requests := float64(front.served-before) / (runs + 1) // AllocsPerRun warms up with one more
	if requests < 5000 {
		t.Fatalf("%v requests per run", requests)
	}
	return allocs / requests
}

// What a cycle may cost: nothing, against an instant front, since each
// client rebuilds its one request record (measured 0.0015: the population
// ticker and the growth of the latency series; 1.00 more while each
// request allocated its record, and 7.5 with a context, a request, a
// statement slice, SQL text, a session key and two closures per cycle).
// Reads carry no text. Instruments on, tracing off.
func TestEmulatorAllocsPerRequest(t *testing.T) {
	if per := emulatorAllocsPerRequest(t, nil); per > 0.05 {
		t.Errorf("the emulator allocates %.3f objects per request, want at most 0.05", per)
	}
}

// A traced request costs what an untraced one does: the root span and
// its fields go into the tracer's own storage, whose growth is amortized
// over the store (a few slabs per thousand requests). Tracing on.
func TestTracedRequestAllocs(t *testing.T) {
	untraced := emulatorAllocsPerRequest(t, nil)
	traced := emulatorAllocsPerRequest(t, func(eng *sim.Engine) *trace.Tracer {
		return trace.New(eng.Now, 0, 0)
	})
	if traced-untraced > 0.01 {
		t.Errorf("a traced request allocates %.3f objects, an untraced one %.3f", traced, untraced)
	}
}

// A client rebuilds its one record for every request, so a rebuild must
// leave nothing of the record's last request behind. Every interaction of
// both mixes, rebuilt into a record that every other interaction of its mix
// has dirtied (statements, session key, span), deep-equals the same
// interaction built into a zero record, unused statement slots included;
// both builds start from the same generator state and leave it the same.
func TestRebuildOverwrites(t *testing.T) {
	ds := DefaultDataset()
	gen := func(seed int64) *GenContext {
		return &GenContext{DS: ds, RNG: rand.New(rand.NewSource(seed)), Counters: NewCounters(ds)}
	}
	for _, mix := range []*Mix{BiddingMix(), BrowsingMix()} {
		its := mix.Interactions
		for i := range its {
			for j := range its {
				if j == i {
					continue
				}
				var dirty issued
				dirty.rebuild(&its[j], gen(int64(j)))
				dirty.SessionKey, dirty.TraceSpan, dirty.Static = "c7", 42, true
				seed := int64(100*i + j)
				g, want := gen(seed), gen(seed)
				dirty.rebuild(&its[i], g)
				var clean issued
				its[i].build(want, &clean.WebRequest, clean.queries[:0])
				if !reflect.DeepEqual(dirty, clean) {
					t.Fatalf("%s: %s rebuilt over %s\n%+v\nwant\n%+v", mix.Name, its[i].Name, its[j].Name, dirty, clean)
				}
				if *g.Counters != *want.Counters || g.RNG.Int63() != want.RNG.Int63() {
					t.Fatalf("%s: %s rebuilt over %s leaves the generator elsewhere than a clean build", mix.Name, its[i].Name, its[j].Name)
				}
			}
		}
	}
}

// heldWatch sees every request twice: as its client issues it, in front of
// the fabric, and as the fabric delivers it to the Apache behind, until the
// Apache answers. It remembers the request each record was issued as, so
// that it can check that a record still held, by a fabric call or by the
// tiers, keeps it.
type heldWatch struct {
	t       *testing.T
	front   legacy.HTTPHandler // the fabric's side of the front call
	apache  *legacy.Apache
	last    map[string]*legacy.WebRequest // by session key: the client's last record
	atTiers map[*legacy.WebRequest]int    // deliveries the Apache has not answered
	watched map[*legacy.WebRequest]legacy.WebRequest
	queries map[*legacy.WebRequest][]legacy.Query
	all     map[*legacy.WebRequest]bool
	// issues that found the client's last record held, and the ones that
	// reused it
	fresh, reused int
}

// HandleHTTP is the client's side: the record has just been built.
func (w *heldWatch) HandleHTTP(req *legacy.WebRequest, done netsim.Reply) {
	if prev, ok := w.watched[req]; ok && w.atTiers[req] > 0 {
		w.t.Fatalf("%s reused its record for %s while the tiers still held %s", req.SessionKey, req.Interaction, prev.Interaction)
	}
	w.check()
	if prev := w.last[req.SessionKey]; prev != nil {
		switch {
		case prev == req:
			w.reused++
		case prev.Held():
			w.fresh++
		default:
			w.t.Errorf("client %s took a new record while its last one was free", req.SessionKey)
		}
	}
	w.last[req.SessionKey] = req
	w.all[req] = true
	w.watched[req] = *req
	w.queries[req] = append([]legacy.Query(nil), req.Queries...)
	w.front.HandleHTTP(req, done)
}

// tierSide is the fabric's target: the Apache, counting what it holds.
type tierSide struct{ w *heldWatch }

func (s tierSide) Node() *cluster.Node { return s.w.apache.Node() }

func (s tierSide) HandleHTTP(req *legacy.WebRequest, done netsim.Reply) {
	w := s.w
	w.atTiers[req]++
	w.apache.HandleHTTP(req, netsim.ReplyFunc(func(err error) {
		w.atTiers[req]--
		done.Reply(err)
	}))
}

// check compares every watched record that a call or a tier still holds
// with the request it was issued as, and forgets those nothing holds any
// more.
func (w *heldWatch) check() {
	for req, was := range w.watched {
		if !req.Held() && w.atTiers[req] == 0 {
			delete(w.watched, req)
			delete(w.queries, req)
			continue
		}
		if req.Interaction != was.Interaction || req.SessionKey != was.SessionKey || !sameQueries(req.Queries, w.queries[req]) {
			w.t.Fatalf("a held record changed from %s of %s to %s of %s", was.Interaction, was.SessionKey, req.Interaction, req.SessionKey)
		}
	}
}

// sameQueries reports whether a and b hold the same statements: the same
// templates and arguments, the same built statements.
func sameQueries(a, b []legacy.Query) bool {
	return slices.EqualFunc(a, b, func(x, y legacy.Query) bool {
		return x.SQL == y.SQL && x.Cost == y.Cost && x.Prepared == y.Prepared && x.Arg == y.Arg &&
			x.TraceSpan == y.TraceSpan && reflect.DeepEqual(x.Stmt, y.Stmt)
	})
}

// A client never reuses a record a fabric call still carries. The clients
// reach an Apache -> Tomcat -> MySQL stack over the fabric, and their
// front calls give up after 30 ms, sooner than the stack serves most
// dynamic pages: the client is answered and may issue again while Apache
// or Tomcat still holds its last request. That issue gets a new record,
// the held one keeps its request until the fabric hands back its last
// call, and at quiescence no record is held.
func TestHeldRequestIsNotReused(t *testing.T) {
	eng := sim.NewEngine(5)
	env := &legacy.Env{Eng: eng, Net: legacy.NewNetwork(), FS: config.NewMemFS()}
	pool := cluster.NewPool(eng, "node", 3, cluster.DefaultConfig())
	node := func() *cluster.Node {
		n, err := pool.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	write := func(path, text string) {
		if err := env.FS.WriteFile(path, []byte(text)); err != nil {
			t.Fatal(err)
		}
	}
	ds := DefaultDataset()
	db, err := ds.InitialDatabase(5)
	if err != nil {
		t.Fatal(err)
	}
	m := legacy.NewMySQL(env, "mysql1", node(), legacy.DefaultMySQLOptions())
	cnf := config.NewMyCnf()
	cnf.SetInt("mysqld", "port", 3306)
	write(m.ConfPath(), cnf.Render())
	if err := m.LoadSnapshot(db); err != nil {
		t.Fatal(err)
	}
	tc := legacy.NewTomcat(env, "tomcat1", node(), legacy.DefaultTomcatOptions())
	sx := config.NewServerXML(tc.Name())
	sx.SetConnector("ajp13", 8009, "")
	sx.SetJDBC("rubis", "com.mysql.jdbc.Driver", "jdbc:mysql://"+m.Node().Name()+":3306/rubis")
	text, err := sx.Render()
	if err != nil {
		t.Fatal(err)
	}
	write(tc.ConfPath(), text)
	a := legacy.NewApache(env, "apache1", node(), legacy.DefaultApacheOptions())
	hc := config.NewHTTPDConf()
	hc.Set("Listen", "80")
	write(a.ConfPath(), hc.Render())
	wp := config.NewWorkerProperties()
	wp.SetWorker(config.Worker{Name: "tomcat1", Host: tc.Node().Name(), Port: 8009})
	write(a.WorkersPath(), wp.Render())
	for _, start := range []func(func(error)){m.Start, tc.Start, a.Start} {
		var startErr error
		start(func(err error) { startErr = err })
		eng.Run()
		if startErr != nil {
			t.Fatal(startErr)
		}
	}

	env.Net.SetFabric(netsim.New(eng, netsim.Config{
		Enabled: true,
		Default: netsim.Link{LatencyMS: 1, JitterMS: 2},
		RPC: map[string]netsim.RPCBudget{
			"front": {TimeoutSeconds: 0.03, Attempts: 1},
			"app":   {TimeoutSeconds: 10, Attempts: 1},
			"sql":   {TimeoutSeconds: 10, Attempts: 1},
		},
	}, 5))
	w := &heldWatch{t: t, apache: a, last: map[string]*legacy.WebRequest{}, atTiers: map[*legacy.WebRequest]int{},
		watched: map[*legacy.WebRequest]legacy.WebRequest{}, queries: map[*legacy.WebRequest][]legacy.Query{}, all: map[*legacy.WebRequest]bool{}}
	w.front = env.Net.RemoteHTTP(netsim.ClientEndpoint, "front", tierSide{w})
	em := NewEmulator(eng, w, BrowsingMix(), ConstantProfile{Clients: 10, Length: 20}, ds)
	em.ThinkTime = 0.5
	if err := em.Start(); err != nil {
		t.Fatal(err)
	}
	checks := eng.Every(0.001, "check", func(float64) { w.check() })
	eng.RunUntil(eng.Now() + 20)
	checks.Stop()
	eng.Run()
	w.check()

	st := em.Stats()
	if w.fresh == 0 || w.reused == 0 || st.Failed == 0 || st.Completed == 0 {
		t.Fatalf("%d issues found the last record held, %d reused it; %d requests failed, %d completed: the run must time out front calls and answer others",
			w.fresh, w.reused, st.Failed, st.Completed)
	}
	for req := range w.all {
		if req.Held() || w.atTiers[req] != 0 {
			t.Errorf("a record of %s is still held at quiescence", req.SessionKey)
		}
	}
}
