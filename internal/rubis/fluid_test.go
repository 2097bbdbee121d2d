package rubis

import (
	"math"
	"math/rand"
	"testing"

	"jade/internal/sqlengine"
)

// referenceFluidDemand is the calibration loop as it was before it built
// requests without text: each request materialised by Request and each
// query classified by lexing its SQL.
func referenceFluidDemand(m *Mix, ds Dataset, seed int64, samples int) FluidDemand {
	rng := rand.New(rand.NewSource(seed))
	g := &GenContext{DS: ds, RNG: rng, Counters: NewCounters(ds)}
	var d FluidDemand
	for i := 0; i < samples; i++ {
		it := m.Pick(rng)
		req := it.Request(g)
		d.Web += req.WebCost
		d.App += req.AppCost
		for _, query := range req.Queries {
			d.QueriesPerRequest++
			if sqlengine.IsWrite(query.SQL) {
				d.DBWrite += query.Cost
				d.WriteQueriesPerRequest++
			} else {
				d.DBRead += query.Cost
			}
		}
	}
	n := float64(samples)
	d.Web /= n
	d.App /= n
	d.DBRead /= n
	d.DBWrite /= n
	d.QueriesPerRequest /= n
	d.WriteQueriesPerRequest /= n
	return d
}

// TestFluidDemandMatchesTextClassifier: the text-free calibration equals
// the text-classifying loop bit for bit, for both mixes over several
// seeds, and ExpectedCosts is its projection.
func TestFluidDemandMatchesTextClassifier(t *testing.T) {
	ds := DefaultDataset()
	bits := func(d FluidDemand) [6]uint64 {
		return [6]uint64{math.Float64bits(d.Web), math.Float64bits(d.App), math.Float64bits(d.DBRead),
			math.Float64bits(d.DBWrite), math.Float64bits(d.QueriesPerRequest), math.Float64bits(d.WriteQueriesPerRequest)}
	}
	for _, m := range []*Mix{BiddingMix(), BrowsingMix()} {
		for _, seed := range []int64{1, 7, 123, 4096} {
			want := referenceFluidDemand(m, ds, seed, 3000)
			got := m.FluidDemand(ds, seed, 3000)
			if bits(got) != bits(want) {
				t.Fatalf("%s seed %d: FluidDemand %+v, text loop %+v", m.Name, seed, got, want)
			}
			web, app, dbRead, dbWrite := m.ExpectedCosts(ds, seed, 3000)
			if p := (FluidDemand{web, app, dbRead, dbWrite, want.QueriesPerRequest, want.WriteQueriesPerRequest}); bits(p) != bits(want) {
				t.Fatalf("%s seed %d: ExpectedCosts %v %v %v %v, FluidDemand %+v", m.Name, seed, web, app, dbRead, dbWrite, want)
			}
		}
	}
}

// TestQueryIsWriteMatchesText: every query the calibration draws is
// classified by its prepared or text form exactly as lexing its rendered
// SQL classifies it.
func TestQueryIsWriteMatchesText(t *testing.T) {
	ds := DefaultDataset()
	for _, m := range []*Mix{BiddingMix(), BrowsingMix()} {
		gen := func() *GenContext {
			return &GenContext{DS: ds, RNG: rand.New(rand.NewSource(5)), Counters: NewCounters(ds)}
		}
		g, bare := gen(), gen()
		writes := 0
		for i := 0; i < 5000; i++ {
			it := m.Pick(g.RNG)
			if m.Pick(bare.RNG) != it {
				t.Fatalf("%s: the two draws diverged at sample %d", m.Name, i)
			}
			req := it.Request(g)
			var built issued
			it.build(bare, &built.WebRequest, built.queries[:0])
			for j := range built.Queries {
				text := req.Queries[j].SQL
				if got, want := built.Queries[j].IsWrite(), sqlengine.IsWrite(text); got != want {
					t.Fatalf("%s: %q: Query.IsWrite %v, sqlengine.IsWrite %v", it.Name, text, got, want)
				}
				if sqlengine.IsWrite(text) {
					writes++
				}
			}
		}
		if (writes > 0) != (m.WriteFraction() > 0) {
			t.Fatalf("%s drew %d writes with write fraction %v", m.Name, writes, m.WriteFraction())
		}
	}
}
