package sqlengine_test

import (
	"math/rand"
	"testing"

	"jade/internal/rubis"
	"jade/internal/sqlengine"
)

// FuzzParse feeds arbitrary bytes to the parser: it must not panic, IsWrite
// must agree with it, and whatever it accepts must execute against a
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
