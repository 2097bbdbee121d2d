package rubis

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"jade/internal/legacy"
	"jade/internal/netsim"
	"jade/internal/sim"
	"jade/internal/sqlengine"
)

func TestDatasetPopulateDeterministic(t *testing.T) {
	d := DefaultDataset()
	a, err := d.InitialDatabase(42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.InitialDatabase(42)
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("same seed produced different databases")
	}
	c, err := d.InitialDatabase(43)
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() == c.Fingerprint() {
		t.Fatal("different seeds produced identical databases")
	}
}

func TestDatasetRowCounts(t *testing.T) {
	d := DefaultDataset()
	db, err := d.InitialDatabase(1)
	if err != nil {
		t.Fatal(err)
	}
	checks := map[string]int{
		"regions":    d.Regions,
		"categories": d.Categories,
		"users":      d.Users,
		"items":      d.Items,
		"bids":       d.Items * d.BidsPerItem,
		"comments":   d.Users * d.CommentsPerUser,
		"buy_now":    0,
	}
	for table, want := range checks {
		if got := db.RowCount(table); got != want {
			t.Errorf("%s rows = %d, want %d", table, got, want)
		}
	}
}

func TestExactly26Interactions(t *testing.T) {
	its := Interactions()
	if len(its) != 26 {
		t.Fatalf("interaction count = %d, want 26 (as in RUBiS)", len(its))
	}
	seen := map[string]bool{}
	for _, it := range its {
		if seen[it.Name] {
			t.Fatalf("duplicate interaction %q", it.Name)
		}
		seen[it.Name] = true
		if it.Weight < 0 {
			t.Fatalf("%s has negative weight", it.Name)
		}
		if it.WebCost <= 0 || it.AppCost <= 0 {
			t.Fatalf("%s has non-positive tier costs", it.Name)
		}
	}
}

func TestMixWeightsSumToOne(t *testing.T) {
	m := BiddingMix()
	sum := 0.0
	for _, it := range m.Interactions {
		sum += it.Weight
	}
	if math.Abs(sum-1.0) > 1e-9 {
		t.Fatalf("bidding mix weights sum to %v", sum)
	}
}

func TestWriteFractions(t *testing.T) {
	if wf := BiddingMix().WriteFraction(); wf < 0.10 || wf > 0.20 {
		t.Fatalf("bidding mix write fraction = %v, want ~0.125", wf)
	}
	if wf := BrowsingMix().WriteFraction(); wf != 0 {
		t.Fatalf("browsing mix write fraction = %v, want 0", wf)
	}
}

// TestCalibration pins the per-tier expected costs that DESIGN.md derives
// the paper's saturation points from. If these drift, the replica-count
// trajectories of Figures 5-7 drift with them.
func TestCalibration(t *testing.T) {
	web, app, dbRead, dbWrite := BiddingMix().ExpectedCosts(DefaultDataset(), 123, 20000)
	checks := []struct {
		name, unit string
		got, want  float64
		tolerance  float64
	}{
		{"web", "s", web, 0.002, 0.15},
		{"app", "s", app, 0.013, 0.15},
		{"dbRead", "s", dbRead, 0.0285, 0.15},
		{"dbWrite", "s", dbWrite, 0.0015, 0.25},
	}
	for _, c := range checks {
		if math.Abs(c.got-c.want)/c.want > c.tolerance {
			t.Errorf("%s cost = %.5f, want %.5f ±%.0f%%", c.name, c.got, c.want, c.tolerance*100)
		}
	}
}

func TestAllQueriesParseAndExecute(t *testing.T) {
	d := DefaultDataset()
	db, err := d.InitialDatabase(7)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	g := &GenContext{DS: d, RNG: rng, Counters: NewCounters(d)}
	for _, it := range Interactions() {
		// Exercise each interaction several times to cover random IDs.
		for trial := 0; trial < 5; trial++ {
			req := it.Request(g)
			if req.Interaction != it.Name {
				t.Fatalf("request name = %q", req.Interaction)
			}
			for _, q := range req.Queries {
				if q.Cost <= 0 {
					t.Fatalf("%s: query with non-positive cost: %s", it.Name, q.SQL)
				}
				if _, err := db.Exec(q.SQL); err != nil {
					t.Fatalf("%s: %q: %v", it.Name, q.SQL, err)
				}
				// The statement-prefix rule rubis classified by before it
				// used the engine's IsWrite.
				prefix := strings.HasPrefix(q.SQL, "INSERT") || strings.HasPrefix(q.SQL, "UPDATE") || strings.HasPrefix(q.SQL, "DELETE")
				if sqlengine.IsWrite(q.SQL) != prefix {
					t.Fatalf("%s: write classification mismatch for %q", it.Name, q.SQL)
				}
			}
		}
	}
}

func TestWriteInteractionsActuallyWrite(t *testing.T) {
	d := DefaultDataset()
	db, err := d.InitialDatabase(7)
	if err != nil {
		t.Fatal(err)
	}
	before := db.Writes()
	rng := rand.New(rand.NewSource(11))
	g := &GenContext{DS: d, RNG: rng, Counters: NewCounters(d)}
	for _, it := range Interactions() {
		if !it.Write {
			continue
		}
		wrote := false
		for _, q := range it.Request(g).Queries {
			if sqlengine.IsWrite(q.SQL) {
				wrote = true
			}
			if _, err := db.Exec(q.SQL); err != nil {
				t.Fatalf("%s: %v", it.Name, err)
			}
		}
		if !wrote {
			t.Errorf("%s is marked Write but issues no write statements", it.Name)
		}
	}
	if db.Writes() == before {
		t.Fatal("no writes executed")
	}
}

func TestUniqueInsertIDsAcrossInteractions(t *testing.T) {
	d := DefaultDataset()
	db, err := d.InitialDatabase(7)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	g := &GenContext{DS: d, RNG: rng, Counters: NewCounters(d)}
	m := BiddingMix()
	for i := 0; i < 500; i++ {
		it := m.Pick(rng)
		for _, q := range it.Request(g).Queries {
			if _, err := db.Exec(q.SQL); err != nil {
				t.Fatalf("%s: %v", it.Name, err)
			}
		}
	}
	// Bid IDs must be unique: every id appears exactly once.
	res, err := db.Exec("SELECT COUNT(*) FROM bids")
	if err != nil {
		t.Fatal(err)
	}
	total := res.Rows[0][0].(int64)
	res2, err := db.Exec("SELECT id FROM bids ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int64]bool{}
	for _, row := range res2.Rows {
		id := row[0].(int64)
		if seen[id] {
			t.Fatalf("duplicate bid id %d", id)
		}
		seen[id] = true
	}
	if int64(len(seen)) != total {
		t.Fatalf("bid id count mismatch: %d vs %d", len(seen), total)
	}
}

func TestMixPickDistribution(t *testing.T) {
	m := BiddingMix()
	rng := rand.New(rand.NewSource(5))
	counts := map[string]int{}
	const n = 50000
	for i := 0; i < n; i++ {
		counts[m.Pick(rng).Name]++
	}
	for _, it := range m.Interactions {
		got := float64(counts[it.Name]) / n
		if math.Abs(got-it.Weight) > 0.01+it.Weight*0.15 {
			t.Errorf("%s frequency = %.4f, want %.4f", it.Name, got, it.Weight)
		}
	}
}

func TestRampProfileShape(t *testing.T) {
	r := PaperRamp()
	up := r.Duration() / 2 // hold is small relative to ramps
	if r.Active(-5) != 80 {
		t.Fatalf("Active(-5) = %d", r.Active(-5))
	}
	if r.Active(0) != 80 {
		t.Fatalf("Active(0) = %d", r.Active(0))
	}
	if got := r.Active(60); got != 101 {
		t.Fatalf("Active(60) = %d, want 101 (80+21)", got)
	}
	rampSecs := (500.0 - 80.0) / 21.0 * 60.0
	if got := r.Active(rampSecs + 1); got != 500 {
		t.Fatalf("Active at peak = %d", got)
	}
	// Symmetric decrease.
	tDown := rampSecs + r.HoldAtPeak + 60
	if got := r.Active(tDown); got != 479 {
		t.Fatalf("Active one minute into decrease = %d, want 479", got)
	}
	if got := r.Active(r.Duration() + 100); got != 80 {
		t.Fatalf("Active after end = %d", got)
	}
	if r.Max() != 500 {
		t.Fatalf("Max = %d", r.Max())
	}
	_ = up
	// Degenerate ramp.
	flat := RampProfile{Base: 10, Peak: 10, StepPerMinute: 0, HoldAtPeak: 50}
	if flat.Duration() != 50 || flat.Active(25) != 10 {
		t.Fatal("degenerate ramp wrong")
	}
}

func TestConstantProfile(t *testing.T) {
	p := ConstantProfile{Clients: 80, Length: 300}
	if p.Active(0) != 80 || p.Active(299) != 80 || p.Duration() != 300 || p.Max() != 80 {
		t.Fatal("constant profile wrong")
	}
}

// instantFront answers every request immediately.
type instantFront struct{ served int }

func (f *instantFront) HandleHTTP(req *legacy.WebRequest, done netsim.Reply) {
	f.served++
	done.Reply(nil)
}

func TestEmulatorClosedLoopAgainstInstantFront(t *testing.T) {
	eng := sim.NewEngine(17)
	front := &instantFront{}
	em := NewEmulator(eng, front, BiddingMix(), ConstantProfile{Clients: 10, Length: 300}, DefaultDataset())
	em.ThinkTime = 5
	if err := em.Start(); err != nil {
		t.Fatal(err)
	}
	if err := em.Start(); err == nil {
		t.Fatal("double start accepted")
	}
	eng.RunUntil(300)
	em.Stop()
	eng.Run()
	st := em.Stats()
	// 10 clients, mean cycle = 5s think + ~0s service → ~2 req/s → ~600
	// completions over 300 s. Allow generous slack for the exponential.
	if st.Completed < 300 || st.Completed > 1000 {
		t.Fatalf("completed = %d, want ≈600", st.Completed)
	}
	if st.Failed != 0 {
		t.Fatalf("failed = %d", st.Failed)
	}
	if got := st.Workload.At(100); got != 10 {
		t.Fatalf("workload series at 100 = %v", got)
	}
	if len(st.InteractionNames()) < 10 {
		t.Fatalf("only %d interactions observed", len(st.InteractionNames()))
	}
	sum := st.LatencySummary()
	if sum.Count == 0 || sum.Mean < 0 {
		t.Fatalf("latency summary = %+v", sum)
	}
}

func TestEmulatorFollowsRamp(t *testing.T) {
	eng := sim.NewEngine(19)
	front := &instantFront{}
	ramp := RampProfile{Base: 5, Peak: 20, StepPerMinute: 30, HoldAtPeak: 30}
	em := NewEmulator(eng, front, BrowsingMix(), ramp, DefaultDataset())
	em.ThinkTime = 1
	if err := em.Start(); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(0.5)
	if got := em.ActiveClients(); got != 5 {
		t.Fatalf("active at start = %d, want 5", got)
	}
	eng.RunUntil(31)
	// After 30 s at +30/min the target is 5 + 15 = 20 (peak).
	if got := em.ActiveClients(); got != 20 {
		t.Fatalf("active at peak = %d, want 20", got)
	}
	eng.RunUntil(ramp.Duration() + 10)
	eng.Run()
	if got := em.ActiveClients(); got != 0 {
		t.Fatalf("active after deadline = %d, want 0 (emulator stopped)", got)
	}
}

// errorFront fails every request.
type errorFront struct{}

func (errorFront) HandleHTTP(req *legacy.WebRequest, done netsim.Reply) {
	done.Reply(legacy.ErrNotRunning)
}

func TestEmulatorRecordsFailures(t *testing.T) {
	eng := sim.NewEngine(23)
	em := NewEmulator(eng, errorFront{}, BiddingMix(), ConstantProfile{Clients: 3, Length: 60}, DefaultDataset())
	em.ThinkTime = 2
	if err := em.Start(); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(60)
	em.Stop()
	eng.Run()
	st := em.Stats()
	if st.Failed == 0 {
		t.Fatal("no failures recorded")
	}
	if st.Completed != 0 {
		t.Fatalf("completed = %d on an erroring front end", st.Completed)
	}
	if st.Latency.Len() != 0 {
		t.Fatal("latency recorded for failed requests")
	}
}

func TestEmulatorDeterminism(t *testing.T) {
	run := func() uint64 {
		eng := sim.NewEngine(31)
		front := &instantFront{}
		em := NewEmulator(eng, front, BiddingMix(), ConstantProfile{Clients: 8, Length: 120}, DefaultDataset())
		if err := em.Start(); err != nil {
			t.Fatal(err)
		}
		eng.RunUntil(120)
		em.Stop()
		eng.Run()
		return em.Stats().Completed
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("emulator not deterministic: %d vs %d", a, b)
	}
}

func TestStatsInteractionAggregates(t *testing.T) {
	mix := BiddingMix()
	home, _ := mix.ByName("Home")
	s := newStats(mix)
	s.record(home.idx, 1, 0.1, nil)
	s.record(home.idx, 2, 0.3, nil)
	s.record(home.idx, 3, 0, legacy.ErrNotRunning)
	got := s.Interaction("Home")
	if got.Count != 2 || got.Errors != 1 || math.Abs(got.TotalLatency-0.4) > 1e-9 {
		t.Fatalf("aggregate = %+v", got)
	}
	if s.Interaction("Ghost").Count != 0 {
		t.Fatal("missing interaction non-zero")
	}
	if s.MeanLatencyBetween(0, 10) != 0.2 {
		t.Fatalf("MeanLatencyBetween = %v", s.MeanLatencyBetween(0, 10))
	}
}
