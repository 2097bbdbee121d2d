package rubis

import (
	"math"
	"math/rand"
	"testing"

	"jade/internal/legacy"
	"jade/internal/sim"
	"jade/internal/sqlengine"
)

func TestDefaultTransitionsValidate(t *testing.T) {
	c := DefaultTransitions()
	if err := c.Validate(Interactions()); err != nil {
		t.Fatal(err)
	}
	if c.Start() != "Home" {
		t.Fatalf("start = %q", c.Start())
	}
}

func TestChainValidationRejections(t *testing.T) {
	its := Interactions()
	// Unknown start.
	bad := NewChain("Ghost")
	if err := bad.Validate(its); err == nil {
		t.Fatal("unknown start accepted")
	}
	// Row not summing to one.
	c := DefaultTransitions()
	c.Set("Home", Transition{"Browse", 0.5})
	if err := c.Validate(its); err == nil {
		t.Fatal("under-weighted row accepted")
	}
	// Unknown target.
	c2 := DefaultTransitions()
	c2.Set("Home", Transition{"Ghost", 1.0})
	if err := c2.Validate(its); err == nil {
		t.Fatal("unknown target accepted")
	}
	// Unreachable interaction.
	c3 := DefaultTransitions()
	c3.Set("ViewItem", Transition{"Home", 1.0}) // cuts off bid flows
	if err := c3.Validate(its); err == nil {
		t.Fatal("unreachable interactions accepted")
	}
	// Non-positive probability.
	c4 := DefaultTransitions()
	c4.Set("Home", Transition{"Browse", 1.0}, Transition{"Sell", 0})
	if err := c4.Validate(its); err == nil {
		t.Fatal("zero probability accepted")
	}
}

func TestChainNextFallsBackToStart(t *testing.T) {
	c := NewChain("Home")
	rng := rand.New(rand.NewSource(1))
	if got := c.Next("nowhere", rng); got != "Home" {
		t.Fatalf("Next on stateless node = %q", got)
	}
}

func TestChainStationaryCoversAllInteractions(t *testing.T) {
	c := DefaultTransitions()
	dist := c.Stationary(1, 200000)
	if len(dist) != 26 {
		t.Fatalf("stationary support = %d interactions, want 26", len(dist))
	}
	sum := 0.0
	for _, p := range dist {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("stationary sums to %v", sum)
	}
}

// TestChainCalibrationRegime asserts the Markov sessions keep the tier
// demands in the same regime as the calibrated i.i.d. mix, so the
// saturation points of the figures hold for either workload model.
func TestChainCalibrationRegime(t *testing.T) {
	c := DefaultTransitions()
	m := BiddingMix()
	rng := rand.New(rand.NewSource(5))
	g := &GenContext{DS: DefaultDataset(), RNG: rng, Counters: NewCounters(DefaultDataset())}
	var web, app, dbRead, dbWrite float64
	writes := 0
	const n = 50000
	state := c.Start()
	for i := 0; i < n; i++ {
		state = c.Next(state, rng)
		it, ok := m.ByName(state)
		if !ok {
			t.Fatalf("chain state %q not in mix", state)
		}
		if it.Write {
			writes++
		}
		req := it.Request(g)
		web += req.WebCost
		app += req.AppCost
		for _, q := range req.Queries {
			if sqlengine.IsWrite(q.SQL) {
				dbWrite += q.Cost
			} else {
				dbRead += q.Cost
			}
		}
	}
	app /= n
	dbRead /= n
	wf := float64(writes) / n
	if wf < 0.05 || wf > 0.22 {
		t.Fatalf("session write fraction = %v, out of the bidding-mix regime", wf)
	}
	if dbRead < 0.018 || dbRead > 0.042 {
		t.Fatalf("session db read demand = %v, out of the calibrated regime [0.018, 0.042]", dbRead)
	}
	if app < 0.008 || app > 0.020 {
		t.Fatalf("session app demand = %v, out of the calibrated regime", app)
	}
	_ = web
	_ = dbWrite
}

func TestEmulatorChainModeRunsSessions(t *testing.T) {
	eng := sim.NewEngine(29)
	front := &instantFront{}
	em := NewEmulator(eng, front, BiddingMix(), ConstantProfile{Clients: 10, Length: 600}, DefaultDataset())
	em.ThinkTime = 2
	em.Chain = DefaultTransitions()
	if err := em.Start(); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(600)
	em.Stop()
	eng.Run()
	st := em.Stats()
	if st.Completed < 1000 {
		t.Fatalf("completed = %d", st.Completed)
	}
	// Flow invariant: store pages are only reachable through their auth
	// pages, so each Store* count is bounded by its upstream page count.
	if sb, pb := st.Interaction("StoreBid").Count, st.Interaction("PutBid").Count; sb > pb {
		t.Fatalf("StoreBid (%d) exceeded PutBid (%d): session flow broken", sb, pb)
	}
	if pb, pa := st.Interaction("PutBid").Count, st.Interaction("PutBidAuth").Count; pb > pa {
		t.Fatalf("PutBid (%d) exceeded PutBidAuth (%d)", pb, pa)
	}
	if ri, sf := st.Interaction("RegisterItem").Count, st.Interaction("SellItemForm").Count; ri > sf {
		t.Fatalf("RegisterItem (%d) exceeded SellItemForm (%d)", ri, sf)
	}
	// Sessions wander: many distinct interactions observed.
	if got := len(st.InteractionNames()); got < 20 {
		t.Fatalf("only %d interactions observed in session mode", got)
	}
}

func TestMixByName(t *testing.T) {
	m := BiddingMix()
	it, ok := m.ByName("ViewItem")
	if !ok || it.Name != "ViewItem" {
		t.Fatalf("ByName = %v, %v", it, ok)
	}
	if _, ok := m.ByName("Ghost"); ok {
		t.Fatal("unknown name found")
	}
}

func TestEmulatorChainModeDeterminism(t *testing.T) {
	run := func() uint64 {
		eng := sim.NewEngine(31)
		front := &instantFront{}
		em := NewEmulator(eng, front, BiddingMix(), ConstantProfile{Clients: 5, Length: 200}, DefaultDataset())
		em.Chain = DefaultTransitions()
		if err := em.Start(); err != nil {
			t.Fatal(err)
		}
		eng.RunUntil(200)
		em.Stop()
		eng.Run()
		return em.Stats().Completed
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("chain mode not deterministic: %d vs %d", a, b)
	}
}

var _ legacy.HTTPHandler = (*instantFront)(nil)
