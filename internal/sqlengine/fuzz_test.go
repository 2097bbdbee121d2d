package sqlengine_test

import (
	"math/rand"
	"reflect"
	"testing"

	"jade/internal/rubis"
	"jade/internal/sqlengine"
)

// FuzzParse feeds arbitrary bytes to the parser: it must not panic, IsWrite
// must agree with it, Format must render whatever it accepts as text that
// parses back to the same statement, and whatever it accepts must execute against a
// populated RUBiS database without panicking (errors are fine) and leave
// the maintained fingerprint equal to one rebuilt from the rows, unmoved
// if the statement is a SELECT. The committed corpus is under
// testdata/fuzz/FuzzParse.
func FuzzParse(f *testing.F) {
	ds := rubis.DefaultDataset()
	base, err := ds.InitialDatabase(1)
	if err != nil {
		f.Fatal(err)
	}
	g := &rubis.GenContext{DS: ds, RNG: rand.New(rand.NewSource(1)), Counters: rubis.NewCounters(ds)}
	for _, it := range rubis.Interactions() {
		for _, q := range it.Request(g).Queries {
			f.Add(q.SQL)
		}
	}
	f.Fuzz(func(t *testing.T, sql string) {
		stmt, err := sqlengine.Parse(sql)
		if err != nil {
			return
		}
		if _, read := stmt.(sqlengine.SelectStmt); sqlengine.IsWrite(sql) == read {
			t.Fatalf("IsWrite(%q) = %v for a %T", sql, !read, stmt)
		}
		text, err := sqlengine.Format(stmt)
		if err != nil {
			t.Fatalf("Format of %q: %v", sql, err)
		}
		if back, err := sqlengine.Parse(text); err != nil || !reflect.DeepEqual(back, stmt) {
			t.Fatalf("%q formats as %q, which reads back as %#v, %v; want %#v", sql, text, back, err, stmt)
		}
		db := base.Snapshot()
		for i := 0; i < 2; i++ { // the second run meets the indexes the first one built
			_, _ = db.ExecStmt(stmt)
			if got, want := db.Fingerprint(), sqlengine.RebuiltFingerprint(db); got != want {
				t.Fatalf("run %d of %q: fingerprint %x, rebuilt from the rows %x", i, sql, got, want)
			}
		}
		if _, ok := stmt.(sqlengine.SelectStmt); ok && db.Fingerprint() != base.Fingerprint() {
			t.Fatalf("SELECT changed the database: %q", sql)
		}
	})
}

// FuzzPrepare feeds arbitrary templates and arguments to Prepare. A
// template it accepts, given as many arguments as it has placeholders,
// must render text that parses, bind to the statement that text parses
// to, classify as IsWrite classifies that text, and execute on a populated
// RUBiS database exactly as the parsed text does: same result or same
// error, same count, same state afterwards, twice over (the second run
// meets the indexes the first one built). Any other number of arguments is
// an error at every entry, never a panic.
// The committed corpus is under testdata/fuzz/FuzzPrepare.
func FuzzPrepare(f *testing.F) {
	base, err := rubis.DefaultDataset().InitialDatabase(1)
	if err != nil {
		f.Fatal(err)
	}
	f.Add("SELECT * FROM items WHERE id = ?", int64(7), int64(0), uint8(1))
	f.Add("SELECT id, name FROM categories", int64(0), int64(0), uint8(0))
	f.Add("UPDATE items SET nb_of_bids = 3 WHERE seller = ? AND category != ?", int64(2), int64(-1), uint8(2))
	f.Add("INSERT INTO bids (id, user_id, item_id, bid, date) VALUES (?, ?, 3, 1.5, ?)", int64(9000), int64(4), uint8(3))
	f.Add("UPDATE items SET max_bid = ?, nb_of_bids = ? WHERE id = ?", int64(12), int64(-2), uint8(3))
	f.Fuzz(func(t *testing.T, template string, a, b int64, n uint8) {
		p, err := sqlengine.Prepare(template)
		if err != nil {
			return
		}
		args := make([]int64, n%5)
		for i := range args {
			args[i] = []int64{a, b}[i%2]
		}
		text, err := p.Text(args...)
		db, viaText := base.Snapshot(), base.Snapshot()
		vals := make([]sqlengine.Value, len(args))
		for i, a := range args {
			vals[i] = a
		}
		bound, berr := p.Bind(vals...)
		if len(args) != p.NumArgs() {
			_, xerr := db.ExecPrepared(p, args...)
			_, cerr := db.CountPrepared(p, args...)
			if err == nil || xerr == nil || cerr == nil || berr == nil || db.Fingerprint() != base.Fingerprint() {
				t.Fatalf("%q takes %d arguments and was given %d: %v, %v, %v, %v", template, p.NumArgs(), len(args), err, xerr, cerr, berr)
			}
			return
		}
		if err != nil {
			t.Fatalf("%q with %v does not render: %v", template, args, err)
		}
		stmt, err := sqlengine.Parse(text)
		if err != nil {
			t.Fatalf("%q with %v renders %q, which does not parse: %v", template, args, text, err)
		}
		if berr != nil || !reflect.DeepEqual(bound, stmt) {
			t.Fatalf("%q with %v binds to %#v, %v; its text %q parses to %#v", template, args, bound, berr, text, stmt)
		}
		if p.IsWrite() != sqlengine.IsWrite(text) {
			t.Fatalf("%q: IsWrite %v, its text %q %v", template, p.IsWrite(), text, !p.IsWrite())
		}
		same := func(what string, gerr, werr error) {
			t.Helper()
			if (gerr == nil) != (werr == nil) || gerr != nil && gerr.Error() != werr.Error() {
				t.Fatalf("%s of %q with %v: %v; of its text %q: %v", what, template, args, gerr, text, werr)
			}
			if g, w := db.Fingerprint(), viaText.Fingerprint(); g != w || g != sqlengine.RebuiltFingerprint(db) {
				t.Fatalf("%s of %q with %v left %x, of its text %x", what, template, args, g, w)
			}
		}
		for i := 0; i < 2; i++ {
			want, werr := viaText.ExecStmt(stmt)
			got, gerr := db.ExecPrepared(p, args...)
			same("ExecPrepared", gerr, werr)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%q with %v:\n got %+v\nwant %+v", template, args, got, want)
			}
			wn, werr := viaText.Count(stmt)
			gn, gerr := db.CountPrepared(p, args...)
			same("CountPrepared", gerr, werr)
			if _, read := stmt.(sqlengine.SelectStmt); gn != wn || read && gerr == nil && gn != len(want.Rows) {
				t.Fatalf("%q with %v counts %d, its text %d, the result has %d rows", template, args, gn, wn, len(want.Rows))
			}
		}
	})
}
