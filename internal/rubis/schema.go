// Package rubis reimplements the RUBiS 1.4.2 benchmark workload used in
// the paper's evaluation: an auction site modeled over eBay with 26 web
// interactions, a relational schema (users, items, categories, regions,
// bids, comments, buy-now purchases), and a client emulator that generates
// a tunable closed-loop workload and gathers latency/throughput
// statistics.
//
// The dataset is scaled down from RUBiS's defaults so experiments run in
// memory, but the schema and the interactions' SQL shapes are faithful;
// per-interaction CPU costs are calibrated so that the tier saturation
// points of the paper's scenario reproduce (see DESIGN.md).
package rubis

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"jade/internal/sqlengine"
)

// Dataset sizes the generated auction database.
type Dataset struct {
	Regions    int
	Categories int
	Users      int
	Items      int
	// BidsPerItem and CommentsPerUser seed initial activity.
	BidsPerItem     int
	CommentsPerUser int
}

// DefaultDataset is the scaled-down standard database.
func DefaultDataset() Dataset {
	return Dataset{
		Regions:         62, // RUBiS ships 62 US regions
		Categories:      20,
		Users:           300,
		Items:           450,
		BidsPerItem:     2,
		CommentsPerUser: 1,
	}
}

// schemaStatements returns the CREATE TABLE statements of the RUBiS
// schema subset the interactions touch.
func schemaStatements() []string {
	return []string{
		"CREATE TABLE regions (id INT, name TEXT)",
		"CREATE TABLE categories (id INT, name TEXT)",
		"CREATE TABLE users (id INT, nickname TEXT, password TEXT, region INT, rating INT, balance FLOAT)",
		"CREATE TABLE items (id INT, name TEXT, seller INT, category INT, initial_price FLOAT, max_bid FLOAT, nb_of_bids INT, end_date INT, buy_now FLOAT)",
		"CREATE TABLE bids (id INT, user_id INT, item_id INT, bid FLOAT, date INT)",
		"CREATE TABLE comments (id INT, from_user INT, to_user INT, item_id INT, rating INT, comment TEXT)",
		"CREATE TABLE buy_now (id INT, buyer_id INT, item_id INT, qty INT, date INT)",
	}
}

// Populate fills db with the dataset. The generated content is a pure
// function of the rng's state, so two replicas populated from equal seeds
// are identical. The schema is SQL text; every row is built as values and
// handed to the engine as an INSERT statement, with no text between the
// draws and the table. A FLOAT cell holds what "%.2f" printed and the
// engine's lexer read back (cents), so the rows, their digests and the
// write count are those of the dump as INSERT text.
func (d Dataset) Populate(db *sqlengine.Engine, rng *rand.Rand) error {
	for _, stmt := range schemaStatements() {
		if _, err := db.Exec(stmt); err != nil {
			return fmt.Errorf("rubis: schema: %w", err)
		}
	}
	regions := insertInto(db, "regions", "id", "name")
	for i := 0; i < d.Regions; i++ {
		if err := regions.row(int64(i), "region-"+strconv.Itoa(i)); err != nil {
			return err
		}
	}
	categories := insertInto(db, "categories", "id", "name")
	for i := 0; i < d.Categories; i++ {
		if err := categories.row(int64(i), "category-"+strconv.Itoa(i)); err != nil {
			return err
		}
	}
	users := insertInto(db, "users", "id", "nickname", "password", "region", "rating", "balance")
	for i := 0; i < d.Users; i++ {
		region := rng.Intn(max(1, d.Regions))
		rating := rng.Intn(10)
		balance := rng.Float64() * 1000
		id := strconv.Itoa(i)
		if err := users.row(int64(i), "user"+id, "pw"+id, int64(region), int64(rating), cents(balance)); err != nil {
			return err
		}
	}
	items := insertInto(db, "items", "id", "name", "seller", "category", "initial_price", "max_bid", "nb_of_bids", "end_date", "buy_now")
	bids := insertInto(db, "bids", "id", "user_id", "item_id", "bid", "date")
	bidID, commentID := 0, 0
	for i := 0; i < d.Items; i++ {
		price := 1 + float64(rng.Float64()*100)
		seller := rng.Intn(max(1, d.Users))
		category := rng.Intn(max(1, d.Categories))
		endDate := 1000000 + rng.Intn(1000000)
		p := cents(price)
		if err := items.row(int64(i), "item-"+strconv.Itoa(i), int64(seller), int64(category),
			p, p, int64(0), int64(endDate), cents(price*1.5)); err != nil {
			return err
		}
		for b := 0; b < d.BidsPerItem; b++ {
			user := rng.Intn(max(1, d.Users))
			if err := bids.row(int64(bidID), int64(user), int64(i), cents(price+float64(b)), int64(b)); err != nil {
				return err
			}
			bidID++
		}
	}
	comments := insertInto(db, "comments", "id", "from_user", "to_user", "item_id", "rating", "comment")
	for u := 0; u < d.Users; u++ {
		for c := 0; c < d.CommentsPerUser; c++ {
			from := rng.Intn(max(1, d.Users))
			item := rng.Intn(max(1, d.Items))
			rating := rng.Intn(5)
			if err := comments.row(int64(commentID), int64(from), int64(u), int64(item), int64(rating), "seed comment"); err != nil {
				return err
			}
			commentID++
		}
	}
	return nil
}

// inserter is one table's INSERT, refilled row after row: the engine
// copies the values into a row of its own, so the statement's slices are
// the inserter's to reuse.
type inserter struct {
	db   *sqlengine.Engine
	stmt sqlengine.InsertStmt
}

func insertInto(db *sqlengine.Engine, table string, columns ...string) *inserter {
	return &inserter{db: db, stmt: sqlengine.InsertStmt{Table: table, Columns: columns}}
}

// row inserts one row, its values in the order of the statement's columns.
func (in *inserter) row(vals ...sqlengine.Value) error {
	in.stmt.Values = append(in.stmt.Values[:0], vals...)
	if _, err := in.db.ExecStmt(in.stmt); err != nil {
		return fmt.Errorf("rubis: populate: %w", err)
	}
	return nil
}

// cents returns x as a "%.2f" literal reads back: the double nearest x
// rounded to two decimals (a tie to the even cent, as strconv rounds
// x's exact value). math.Round(x·100)/100 is that double whenever x·100
// is not within its rounding error of a half cent; below 1e9 that error
// is under 1e-7, so only a product within 1e-6 of a half cent, a larger
// one, or Inf and NaN take the printed text.
func cents(x float64) float64 {
	c := float64(x * 100)
	if math.Abs(c) < 1e9 && math.Abs(c-math.Floor(c)-0.5) > 1e-6 {
		return math.Round(c) / 100
	}
	var buf [32]byte
	v, _ := strconv.ParseFloat(string(strconv.AppendFloat(buf[:0], x, 'f', 2, 64)), 64)
	return v
}

// InitialDatabase builds and populates a fresh database from a seed.
func (d Dataset) InitialDatabase(seed int64) (*sqlengine.Engine, error) {
	db := sqlengine.New()
	if err := d.Populate(db, rand.New(rand.NewSource(seed))); err != nil {
		return nil, err
	}
	return db, nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
