package rubis

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"jade/internal/sqlengine"
)

// referencePopulate is Populate as it was before the dump was built as
// rows: every row printed as INSERT text with fmt.Sprintf and parsed back
// by the engine. It is the oracle the row-built dump must equal.
func referencePopulate(d Dataset, db *sqlengine.Engine, rng *rand.Rand) error {
	for _, stmt := range schemaStatements() {
		if _, err := db.Exec(stmt); err != nil {
			return fmt.Errorf("rubis: schema: %w", err)
		}
	}
	exec := func(format string, args ...any) error {
		if _, err := db.Exec(fmt.Sprintf(format, args...)); err != nil {
			return fmt.Errorf("rubis: populate: %w", err)
		}
		return nil
	}
	for i := 0; i < d.Regions; i++ {
		if err := exec("INSERT INTO regions (id, name) VALUES (%d, 'region-%d')", i, i); err != nil {
			return err
		}
	}
	for i := 0; i < d.Categories; i++ {
		if err := exec("INSERT INTO categories (id, name) VALUES (%d, 'category-%d')", i, i); err != nil {
			return err
		}
	}
	for i := 0; i < d.Users; i++ {
		if err := exec(
			"INSERT INTO users (id, nickname, password, region, rating, balance) VALUES (%d, 'user%d', 'pw%d', %d, %d, %.2f)",
			i, i, i, rng.Intn(max(1, d.Regions)), rng.Intn(10), rng.Float64()*1000); err != nil {
			return err
		}
	}
	bidID, commentID := 0, 0
	for i := 0; i < d.Items; i++ {
		price := 1 + rng.Float64()*100
		if err := exec(
			"INSERT INTO items (id, name, seller, category, initial_price, max_bid, nb_of_bids, end_date, buy_now) VALUES (%d, 'item-%d', %d, %d, %.2f, %.2f, %d, %d, %.2f)",
			i, i, rng.Intn(max(1, d.Users)), rng.Intn(max(1, d.Categories)),
			price, price, 0, 1000000+rng.Intn(1000000), price*1.5); err != nil {
			return err
		}
		for b := 0; b < d.BidsPerItem; b++ {
			if err := exec(
				"INSERT INTO bids (id, user_id, item_id, bid, date) VALUES (%d, %d, %d, %.2f, %d)",
				bidID, rng.Intn(max(1, d.Users)), i, price+float64(b), b); err != nil {
				return err
			}
			bidID++
		}
	}
	for u := 0; u < d.Users; u++ {
		for c := 0; c < d.CommentsPerUser; c++ {
			if err := exec(
				"INSERT INTO comments (id, from_user, to_user, item_id, rating, comment) VALUES (%d, %d, %d, %d, %d, 'seed comment')",
				commentID, rng.Intn(max(1, d.Users)), u, rng.Intn(max(1, d.Items)), rng.Intn(5)); err != nil {
				return err
			}
			commentID++
		}
	}
	return nil
}

// sameCell compares two cells by type and value, floats bit for bit.
func sameCell(a, b sqlengine.Value) bool {
	switch x := a.(type) {
	case float64:
		y, ok := b.(float64)
		return ok && math.Float64bits(x) == math.Float64bits(y)
	case int64, string, nil:
		return a == b
	}
	return false
}

// TestPopulateMatchesReference: the row-built dump equals the INSERT-text
// dump cell for cell, with the same fingerprint and write count, and
// leaves the rng where the text path left it, over 100 seeds of the
// default dataset and of a larger one with more bids and comments.
func TestPopulateMatchesReference(t *testing.T) {
	larger := Dataset{Regions: 70, Categories: 31, Users: 420, Items: 610, BidsPerItem: 3, CommentsPerUser: 2}
	for _, d := range []Dataset{DefaultDataset(), larger} {
		for seed := int64(0); seed < 100; seed++ {
			want, got := sqlengine.New(), sqlengine.New()
			wrng, grng := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			if err := referencePopulate(d, want, wrng); err != nil {
				t.Fatal(err)
			}
			if err := d.Populate(got, grng); err != nil {
				t.Fatal(err)
			}
			if w, g := wrng.Int63(), grng.Int63(); w != g {
				t.Fatalf("%+v seed %d: the rng ends at %d, the text path leaves it at %d", d, seed, g, w)
			}
			if got.Fingerprint() != want.Fingerprint() || got.Writes() != want.Writes() {
				t.Fatalf("%+v seed %d: fingerprint %x, writes %d; text path %x, %d",
					d, seed, got.Fingerprint(), got.Writes(), want.Fingerprint(), want.Writes())
			}
			if gt, wt := fmt.Sprint(got.Tables()), fmt.Sprint(want.Tables()); gt != wt {
				t.Fatalf("seed %d: tables %s, text path %s", seed, gt, wt)
			}
			for _, name := range want.Tables() {
				wt, _ := want.Table(name)
				gt, _ := got.Table(name)
				if len(gt.Rows) != len(wt.Rows) {
					t.Fatalf("%+v seed %d: %s has %d rows, text path %d", d, seed, name, len(gt.Rows), len(wt.Rows))
				}
				for i, wrow := range wt.Rows {
					grow := gt.Rows[i]
					if len(grow) != len(wrow) {
						t.Fatalf("seed %d: %s row %d: %v, text path %v", seed, name, i, grow, wrow)
					}
					for c := range wrow {
						if !sameCell(grow[c], wrow[c]) {
							t.Fatalf("%+v seed %d: %s row %d column %s: %#v, text path %#v",
								d, seed, name, i, wt.Columns[c].Name, grow[c], wrow[c])
						}
					}
				}
			}
		}
	}
}

// TestCentsMatchesPrintedText: cents(x) is the double "%.2f" prints and
// ParseFloat reads back, bit for bit, on exact half-cent ties (which
// strconv rounds to the even cent and math.Round away from zero), on
// values a few ulps either side of them, on magnitudes past the fast
// path's error bound, on the specials, and on draws shaped like the
// dataset's prices and balances.
func TestCentsMatchesPrintedText(t *testing.T) {
	printed := func(x float64) float64 {
		v, err := strconv.ParseFloat(fmt.Sprintf("%.2f", x), 64)
		if err != nil {
			t.Fatalf("%.2f does not parse: %v", x, err)
		}
		return v
	}
	check := func(x float64) {
		t.Helper()
		if got, want := cents(x), printed(x); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("cents(%v) = %v, %%.2f reads back %v", x, got, want)
		}
	}
	ties := []float64{0.125, 0.375, 0.625, 0.875, 1.005, 2.675, 1.115, 10.125, 99.995, 1e15 + 0.125, 1e15 + 0.375, 1e9 + 0.125}
	for _, x := range ties {
		for _, s := range []float64{1, -1} {
			y := s * x
			check(y)
			up, down := y, y
			for i := 0; i < 4; i++ {
				up, down = math.Nextafter(up, math.Inf(1)), math.Nextafter(down, math.Inf(-1))
				check(up)
				check(down)
			}
		}
	}
	for _, x := range []float64{0, math.Copysign(0, -1), 0.001, -0.001, 0.005, 0.015, 999.999, 1e7 + 0.005, 4503599627370496.5,
		1e20, -1e20, math.MaxFloat64, math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1), math.NaN()} {
		check(x)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		price := 1 + rng.Float64()*100
		check(price)
		check(price * 1.5)
		check(price + float64(i%4))
		check(rng.Float64() * 1000)
	}
}

// TestInitialDatabaseAllocs holds the dump's allocation count: printing
// and parsing INSERT text made it 23 377 objects for the default dataset;
// built as rows it is one row, one statement box and the boxed values.
func TestInitialDatabaseAllocs(t *testing.T) {
	const budget = 11773
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := DefaultDataset().InitialDatabase(1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > budget {
		t.Fatalf("InitialDatabase allocates %.0f objects, budget %d", allocs, budget)
	}
}
