package rubis

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

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

// What a cycle may cost: the request and the room for its statements, one
// object, against an instant front (measured 1.02: the population ticker
// and the growth of the latency series are the rest; 7.5 with a context, a
// request, a statement slice, SQL text, a session key and two closures per
// cycle). Reads carry no text. Instruments on, tracing off.
func TestEmulatorAllocsPerRequest(t *testing.T) {
	if per := emulatorAllocsPerRequest(t, nil); per > 2 {
		t.Errorf("the emulator allocates %.2f objects per request, want at most 2", per)
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
