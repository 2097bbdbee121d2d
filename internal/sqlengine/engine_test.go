package sqlengine

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func mustExec(t *testing.T, e *Engine, sql string) Result {
	t.Helper()
	r, err := e.Exec(sql)
	if err != nil {
		t.Fatalf("Exec(%q): %v", sql, err)
	}
	return r
}

func newUsers(t *testing.T) *Engine {
	t.Helper()
	e := New()
	mustExec(t, e, "CREATE TABLE users (id INT, nickname TEXT, rating FLOAT)")
	mustExec(t, e, "INSERT INTO users (id, nickname, rating) VALUES (1, 'alice', 4.5)")
	mustExec(t, e, "INSERT INTO users (id, nickname, rating) VALUES (2, 'bob', 3.0)")
	mustExec(t, e, "INSERT INTO users (id, nickname, rating) VALUES (3, 'carol', 5.0)")
	return e
}

func TestCreateInsertSelect(t *testing.T) {
	e := newUsers(t)
	r := mustExec(t, e, "SELECT * FROM users WHERE id = 2")
	if len(r.Rows) != 1 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	if r.Rows[0][1] != "bob" {
		t.Fatalf("nickname = %v", r.Rows[0][1])
	}
	if len(r.Columns) != 3 || r.Columns[0] != "id" {
		t.Fatalf("columns = %v", r.Columns)
	}
}

func TestSelectProjection(t *testing.T) {
	e := newUsers(t)
	r := mustExec(t, e, "SELECT nickname, id FROM users WHERE rating >= 4.0 ORDER BY id DESC")
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %v", r.Rows)
	}
	if r.Rows[0][0] != "carol" || r.Rows[0][1] != int64(3) {
		t.Fatalf("first row = %v", r.Rows[0])
	}
	if r.Columns[0] != "nickname" {
		t.Fatalf("columns = %v", r.Columns)
	}
}

func TestSelectCountAndLimit(t *testing.T) {
	e := newUsers(t)
	r := mustExec(t, e, "SELECT COUNT(*) FROM users")
	if r.Rows[0][0] != int64(3) {
		t.Fatalf("count = %v", r.Rows[0][0])
	}
	r = mustExec(t, e, "SELECT * FROM users ORDER BY rating DESC LIMIT 1")
	if len(r.Rows) != 1 || r.Rows[0][1] != "carol" {
		t.Fatalf("top-rated = %v", r.Rows)
	}
	r = mustExec(t, e, "SELECT * FROM users LIMIT 0")
	if len(r.Rows) != 0 {
		t.Fatalf("LIMIT 0 returned rows: %v", r.Rows)
	}
}

func TestWhereOperatorsAndAnd(t *testing.T) {
	e := newUsers(t)
	cases := []struct {
		sql  string
		want int
	}{
		{"SELECT * FROM users WHERE id != 2", 2},
		{"SELECT * FROM users WHERE id <> 2", 2},
		{"SELECT * FROM users WHERE id < 3 AND rating > 3.5", 1},
		{"SELECT * FROM users WHERE nickname = 'alice'", 1},
		{"SELECT * FROM users WHERE nickname >= 'bob'", 2},
		{"SELECT * FROM users WHERE rating <= 3.0", 1},
		{"SELECT * FROM users WHERE id >= 1 AND id <= 3 AND nickname != 'bob'", 2},
	}
	for _, c := range cases {
		r := mustExec(t, e, c.sql)
		if len(r.Rows) != c.want {
			t.Errorf("%s → %d rows, want %d", c.sql, len(r.Rows), c.want)
		}
	}
}

func TestUpdate(t *testing.T) {
	e := newUsers(t)
	r := mustExec(t, e, "UPDATE users SET rating = 1.0, nickname = 'bobby' WHERE id = 2")
	if r.Affected != 1 {
		t.Fatalf("affected = %d", r.Affected)
	}
	got := mustExec(t, e, "SELECT nickname, rating FROM users WHERE id = 2")
	if got.Rows[0][0] != "bobby" || got.Rows[0][1] != 1.0 {
		t.Fatalf("row after update = %v", got.Rows[0])
	}
	// Update with no match affects zero rows.
	r = mustExec(t, e, "UPDATE users SET rating = 0.0 WHERE id = 99")
	if r.Affected != 0 {
		t.Fatalf("phantom update affected %d", r.Affected)
	}
}

// The engine runs what RUBiS and the recovery log send: CREATE, INSERT,
// SELECT and UPDATE. DELETE and DROP TABLE are not among them, so they do
// not parse, IsWrite does not classify them, and the table is untouched.
func TestDelete(t *testing.T) {
	requireRefused(t, "DELETE FROM users WHERE rating < 4.0", "DELETE FROM users")
}

func TestDropTable(t *testing.T) {
	requireRefused(t, "DROP TABLE users")
}

func requireRefused(t *testing.T, stmts ...string) {
	t.Helper()
	e := newUsers(t)
	fp := e.Fingerprint()
	for _, sql := range stmts {
		if _, err := e.Exec(sql); err == nil {
			t.Errorf("Exec(%q) accepted", sql)
		}
		if IsWrite(sql) {
			t.Errorf("IsWrite(%q) = true", sql)
		}
	}
	if e.Fingerprint() != fp || e.RowCount("users") != 3 {
		t.Fatalf("a refused statement changed the database (%d rows)", e.RowCount("users"))
	}
}

func TestErrors(t *testing.T) {
	e := newUsers(t)
	cases := []struct {
		sql  string
		want error
	}{
		{"SELECT * FROM ghosts", ErrNoSuchTable},
		{"SELECT ghost FROM users", ErrNoSuchColumn},
		{"INSERT INTO users (ghost) VALUES (1)", ErrNoSuchColumn},
		{"INSERT INTO users (id) VALUES ('str')", ErrTypeMismatch},
		{"CREATE TABLE users (id INT)", ErrTableExists},
		{"UPDATE users SET ghost = 1", ErrNoSuchColumn},
		{"SELECT * FROM users WHERE id = 'x'", ErrTypeMismatch},
	}
	for _, c := range cases {
		if _, err := e.Exec(c.sql); !errors.Is(err, c.want) {
			t.Errorf("%s → %v, want %v", c.sql, err, c.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"FROB users",
		"SELECT FROM users",
		"SELECT * users",
		"INSERT INTO users (id) VALUES (1, 2)",
		"SELECT * FROM users WHERE id LIKE 3",
		"SELECT * FROM users LIMIT -1",
		"SELECT * FROM users WHERE id = 'unterminated",
		"SELECT * FROM users trailing garbage ~",
		"CREATE TABLE t (id BLOB)",
		"SELECT * FROM users; SELECT 1 FROM users",
	}
	e := newUsers(t)
	for _, sql := range bad {
		if _, err := e.Exec(sql); err == nil {
			t.Errorf("Exec(%q) accepted invalid SQL", sql)
		}
	}
}

func TestStringEscaping(t *testing.T) {
	e := New()
	mustExec(t, e, "CREATE TABLE c (msg TEXT)")
	quoted := QuoteString("it's a 'test'")
	mustExec(t, e, fmt.Sprintf("INSERT INTO c (msg) VALUES (%s)", quoted))
	r := mustExec(t, e, "SELECT * FROM c")
	if r.Rows[0][0] != "it's a 'test'" {
		t.Fatalf("round-tripped string = %q", r.Rows[0][0])
	}
}

func TestNullSemantics(t *testing.T) {
	e := New()
	mustExec(t, e, "CREATE TABLE t (id INT, v TEXT)")
	mustExec(t, e, "INSERT INTO t (id, v) VALUES (1, NULL)")
	mustExec(t, e, "INSERT INTO t (id) VALUES (2)") // unassigned → NULL
	r := mustExec(t, e, "SELECT * FROM t WHERE v = NULL")
	if len(r.Rows) != 2 {
		t.Fatalf("NULL = NULL matched %d rows", len(r.Rows))
	}
	r = mustExec(t, e, "SELECT * FROM t WHERE v != NULL")
	if len(r.Rows) != 0 {
		t.Fatalf("v != NULL matched %d rows", len(r.Rows))
	}
	r = mustExec(t, e, "SELECT * FROM t WHERE v < 'z'")
	if len(r.Rows) != 0 {
		t.Fatalf("ordered NULL comparison matched %d rows", len(r.Rows))
	}
	// NULLs sort first.
	mustExec(t, e, "UPDATE t SET v = 'a' WHERE id = 1")
	r = mustExec(t, e, "SELECT id FROM t ORDER BY v")
	if r.Rows[0][0] != int64(2) {
		t.Fatalf("NULL did not sort first: %v", r.Rows)
	}
}

func TestIntFloatCoercion(t *testing.T) {
	e := New()
	mustExec(t, e, "CREATE TABLE t (f FLOAT)")
	mustExec(t, e, "INSERT INTO t (f) VALUES (3)") // int literal into float col
	r := mustExec(t, e, "SELECT * FROM t WHERE f = 3")
	if len(r.Rows) != 1 || r.Rows[0][0] != 3.0 {
		t.Fatalf("coerced value = %v", r.Rows)
	}
	// Mixed comparison: int column vs float literal.
	mustExec(t, e, "CREATE TABLE u (i INT)")
	mustExec(t, e, "INSERT INTO u (i) VALUES (2)")
	r = mustExec(t, e, "SELECT * FROM u WHERE i < 2.5")
	if len(r.Rows) != 1 {
		t.Fatalf("int vs float comparison rows = %d", len(r.Rows))
	}
}

func TestVarcharSizeSuffix(t *testing.T) {
	e := New()
	mustExec(t, e, "CREATE TABLE t (name VARCHAR(255), n INT)")
	mustExec(t, e, "INSERT INTO t (name, n) VALUES ('x', 1)")
	if e.RowCount("t") != 1 {
		t.Fatal("insert failed")
	}
}

func TestIsWrite(t *testing.T) {
	cases := []struct {
		sql  string
		want bool
	}{
		{"SELECT * FROM t", false},
		{"select * from t", false},
		{"INSERT INTO t (a) VALUES (1)", true},
		{"update t set a = 1", true},
		{"CREATE TABLE t (a INT)", true},
		{"", false},
	}
	for _, c := range cases {
		if got := IsWrite(c.sql); got != c.want {
			t.Errorf("IsWrite(%q) = %v", c.sql, got)
		}
	}
}

func TestWritesCounterOnlyCountsSuccesses(t *testing.T) {
	e := New()
	mustExec(t, e, "CREATE TABLE t (a INT)")
	before := e.Writes()
	if _, err := e.Exec("INSERT INTO ghost (a) VALUES (1)"); err == nil {
		t.Fatal("insert into missing table accepted")
	}
	if e.Writes() != before {
		t.Fatal("failed write incremented counter")
	}
	mustExec(t, e, "INSERT INTO t (a) VALUES (1)")
	if e.Writes() != before+1 {
		t.Fatalf("Writes = %d, want %d", e.Writes(), before+1)
	}
}

func TestSnapshotIsolation(t *testing.T) {
	e := newUsers(t)
	snap := e.Snapshot()
	mustExec(t, e, "INSERT INTO users (id, nickname, rating) VALUES (4, 'dave', 2.0)")
	mustExec(t, e, "UPDATE users SET nickname = 'ALICE' WHERE id = 1")
	if snap.RowCount("users") != 3 {
		t.Fatalf("snapshot saw later insert: %d rows", snap.RowCount("users"))
	}
	r, _ := snap.Exec("SELECT nickname FROM users WHERE id = 1")
	if r.Rows[0][0] != "alice" {
		t.Fatalf("snapshot saw later update: %v", r.Rows[0][0])
	}
}

func TestFingerprintDetectsDivergence(t *testing.T) {
	a := newUsers(t)
	b := a.Snapshot()
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("identical databases have different fingerprints")
	}
	mustExec(t, b, "UPDATE users SET rating = 0.1 WHERE id = 1")
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("diverged databases share a fingerprint")
	}
}

func TestFingerprintEmptyEngines(t *testing.T) {
	if New().Fingerprint() != New().Fingerprint() {
		t.Fatal("two empty engines differ")
	}
}

// Property: replaying the same write sequence on two fresh engines yields
// identical fingerprints — the invariant C-JDBC's recovery log rests on.
func TestPropertyReplayDeterminism(t *testing.T) {
	f := func(ops []uint8) bool {
		build := func() *Engine {
			e := New()
			if _, err := e.Exec("CREATE TABLE t (id INT, v INT)"); err != nil {
				return nil
			}
			for i, op := range ops {
				var sql string
				switch op % 2 {
				case 0:
					sql = fmt.Sprintf("INSERT INTO t (id, v) VALUES (%d, %d)", i, op)
				case 1:
					sql = fmt.Sprintf("UPDATE t SET v = %d WHERE id < %d", op, op%10)
				}
				if _, err := e.Exec(sql); err != nil {
					return nil
				}
			}
			return e
		}
		a, b := build(), build()
		if a == nil || b == nil {
			return false
		}
		return a.Fingerprint() == b.Fingerprint()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: INSERT then COUNT round trip — count always equals inserts.
func TestPropertyInsertCount(t *testing.T) {
	f := func(vals []int16) bool {
		e := New()
		if _, err := e.Exec("CREATE TABLE t (v INT)"); err != nil {
			return false
		}
		for _, v := range vals {
			if _, err := e.Exec(fmt.Sprintf("INSERT INTO t (v) VALUES (%d)", v)); err != nil {
				return false
			}
		}
		r, err := e.Exec("SELECT COUNT(*) FROM t")
		if err != nil {
			return false
		}
		return r.Rows[0][0] == int64(len(vals))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: strings with arbitrary content survive quoting and a SELECT
// round trip.
func TestPropertyStringRoundTrip(t *testing.T) {
	f := func(s string) bool {
		if strings.ContainsAny(s, "\x00") {
			return true // NUL not representable in our literal grammar
		}
		e := New()
		if _, err := e.Exec("CREATE TABLE t (v TEXT)"); err != nil {
			return false
		}
		if _, err := e.Exec("INSERT INTO t (v) VALUES (" + QuoteString(s) + ")"); err != nil {
			return false
		}
		r, err := e.Exec("SELECT v FROM t")
		if err != nil || len(r.Rows) != 1 {
			return false
		}
		return r.Rows[0][0] == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestOrderByStable(t *testing.T) {
	e := New()
	mustExec(t, e, "CREATE TABLE t (k INT, seq INT)")
	for i := 0; i < 5; i++ {
		mustExec(t, e, fmt.Sprintf("INSERT INTO t (k, seq) VALUES (1, %d)", i))
	}
	r := mustExec(t, e, "SELECT seq FROM t ORDER BY k")
	for i, row := range r.Rows {
		if row[0] != int64(i) {
			t.Fatalf("sort not stable: %v", r.Rows)
		}
	}
}

func TestTablesListing(t *testing.T) {
	e := New()
	mustExec(t, e, "CREATE TABLE zebra (a INT)")
	mustExec(t, e, "CREATE TABLE apple (a INT)")
	got := e.Tables()
	if len(got) != 2 || got[0] != "apple" || got[1] != "zebra" {
		t.Fatalf("Tables = %v", got)
	}
	if _, ok := e.Table("apple"); !ok {
		t.Fatal("Table lookup failed")
	}
}

func BenchmarkExecSelectWhere(b *testing.B) {
	e := New()
	if _, err := e.Exec("CREATE TABLE t (id INT, v TEXT)"); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if _, err := e.Exec(fmt.Sprintf("INSERT INTO t (id, v) VALUES (%d, 'row')", i)); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := e.Exec("SELECT * FROM t WHERE id = 500"); err != nil {
			b.Fatal(err)
		}
	}
}

// Identifiers are ASCII. The lexer used to class single bytes with
// unicode.IsLetter, which accepts the Latin-1 letters 0xAA, 0xB5, 0xBA and
// 0xC0-0xFF: the halves of UTF-8 sequences went into identifiers, ToLower
// folded each to U+FFFD, and "tÃ" and "tÄ" became one table name.
func TestIdentifiersAreASCII(t *testing.T) {
	e := New()
	for _, sql := range []string{
		"CREATE TABLE t\xc3 (id INT)",
		"CREATE TABLE t\xc4 (id INT)",
		"CREATE TABLE caf\xc3\xa9 (id INT)",
		"CREATE TABLE t (\xb5 INT)",
		"SELECT * FROM t WHERE id = \xaa",
	} {
		_, err := e.Exec(sql)
		if err == nil || !strings.Contains(err.Error(), "unexpected character") || !strings.Contains(err.Error(), " at ") {
			t.Errorf("Exec(%q) = %v, want a positioned unexpected-character error", sql, err)
		}
	}
	if got := e.Tables(); len(got) != 0 {
		t.Fatalf("tables created from non-ASCII names: %q", got)
	}
	// Inside a string literal any byte is data.
	mustExec(t, e, "CREATE TABLE t (s TEXT)")
	mustExec(t, e, "INSERT INTO t (s) VALUES ('caf\xc3\xa9 \xff')")
	if r := mustExec(t, e, "SELECT s FROM t"); r.Rows[0][0] != "caf\xc3\xa9 \xff" {
		t.Fatalf("string literal = %q", r.Rows[0][0])
	}
}

// IsWrite reads the first token as Parse does, so for every statement that
// parses it is true exactly when the statement is not a SELECT.
func TestIsWriteAgreesWithParse(t *testing.T) {
	for _, sql := range []string{
		"  \t\nINSERT INTO t (a) VALUES (1)",
		";INSERT INTO t (a) VALUES (1)",
		"insert;into t (a) values (1)",
		"Create Table u (a INT)",
		"SELECT*FROM t",
		"select a from t where a = 1",
		"UPDATE t SET a = 2 WHERE a = 1;",
	} {
		stmt, err := Parse(sql)
		if err != nil {
			t.Fatalf("Parse(%q): %v", sql, err)
		}
		if _, read := stmt.(SelectStmt); IsWrite(sql) == read {
			t.Errorf("IsWrite(%q) = %v for a %T", sql, IsWrite(sql), stmt)
		}
	}
	for _, sql := range []string{"", "   ", "INSERTED", "'INSERT'", "\xc3INSERT", "42"} {
		if IsWrite(sql) {
			t.Errorf("IsWrite(%q) = true", sql)
		}
	}
	if n := testing.AllocsPerRun(100, func() { IsWrite("  UPDATE items SET end_date = 0 WHERE id = 7") }); n != 0 {
		t.Errorf("IsWrite allocates %v times", n)
	}
}

// The fingerprint is compared between replicas of one run and printed in a
// violation's message; no committed artifact holds one, so the constant
// below pins the definition against accidental change, not a file format.
// A commit that redefines the hash recomputes it.
func TestFingerprintGolden(t *testing.T) {
	e := newUsers(t)
	mustExec(t, e, "CREATE TABLE empty (a INT, b TEXT)")
	mustExec(t, e, "INSERT INTO users (id) VALUES (-4)")
	mustExec(t, e, "INSERT INTO users (id, nickname, rating) VALUES (9007199254740993, 'd''e', 0.1)")
	mustExec(t, e, "UPDATE users SET rating = 12345678.9 WHERE id = 2")
	const want uint64 = 0x3ae226635907e608
	if got := e.Fingerprint(); got != want {
		t.Fatalf("Fingerprint = %#x, want %#x", got, want)
	}
	if got := New().Fingerprint(); got != 0 {
		t.Fatalf("empty Fingerprint = %#x, want 0 (a sum over no tables)", got)
	}
}

// Different states must not share a fingerprint because their cells run
// together: a TEXT value may hold any byte, so no terminator byte can mark
// where a cell ends.
func TestFingerprintCellBoundaries(t *testing.T) {
	build := func(schema string, rows ...[]Value) uint64 {
		t.Helper()
		e := New()
		mustExec(t, e, "CREATE TABLE t ("+schema+")")
		tab, _ := e.Table("t")
		for _, vals := range rows {
			if _, err := e.ExecStmt(InsertStmt{Table: "t", Columns: tab.names[:len(vals)], Values: vals}); err != nil {
				t.Fatal(err)
			}
		}
		return e.Fingerprint()
	}
	seen := map[uint64]string{}
	distinct := func(what string, fp uint64) {
		t.Helper()
		if prev, ok := seen[fp]; ok {
			t.Errorf("%s and %s share fingerprint %#x", prev, what, fp)
		}
		seen[fp] = what
	}
	// Under the old tag + text + 0x00 encoding both rows were "sa\0sb\0sc\0".
	distinct(`('a\x00sb', 'c')`, build("x TEXT, y TEXT", []Value{"a\x00sb", "c"}))
	distinct(`('a', 'b\x00sc')`, build("x TEXT, y TEXT", []Value{"a", "b\x00sc"}))
	distinct("('ab', '')", build("x TEXT, y TEXT", []Value{"ab", ""}))
	distinct("('a', 'b')", build("x TEXT, y TEXT", []Value{"a", "b"}))
	distinct("('', 'ab')", build("x TEXT, y TEXT", []Value{"", "ab"}))
	distinct("INT 1", build("v INT", []Value{int64(1)}))
	distinct("INT NULL", build("v INT", []Value{nil}))
	distinct("FLOAT 1.0", build("v FLOAT", []Value{1.0}))
	distinct("FLOAT NULL", build("v FLOAT", []Value{nil}))
	distinct("TEXT '1'", build("v TEXT", []Value{"1"}))
	distinct("TEXT NULL", build("v TEXT", []Value{nil}))
	distinct("rows 1, 2", build("v INT", []Value{int64(1)}, []Value{int64(2)}))
	distinct("rows 2, 1", build("v INT", []Value{int64(2)}, []Value{int64(1)}))
	distinct("rows 1, 2, NULL", build("v INT", []Value{int64(1)}, []Value{int64(2)}, []Value{nil}))
	// The cell's own tag tells the types apart, not only the schema's.
	cells := map[uint64]Value{}
	for _, v := range []Value{nil, int64(1), 1.0, "1", int64(math.Float64bits(1.0)), ""} {
		d := rowDigest(0, Row{v})
		if prev, ok := cells[d]; ok {
			t.Errorf("cells %#v and %#v share a row digest", prev, v)
		}
		cells[d] = v
	}
}

// Fingerprint allocates nothing, and hashing the rows a write touches adds
// no allocation to the write: an INSERT allocates its row, an UPDATE the
// replacement row (3 while SET was a map, whose keys the UPDATE copied and
// sorted into a slice of its own before it built its assignments).
func TestFingerprintDoesNotAllocate(t *testing.T) {
	e := New()
	mustExec(t, e, "CREATE TABLE t (id INT, f FLOAT, s TEXT, n INT)")
	for i := 0; i < 750; i++ {
		mustExec(t, e, fmt.Sprintf("INSERT INTO t (id, f, s) VALUES (%d, %d.25, 'row-%d')", i*1000003, i, i))
	}
	if n := testing.AllocsPerRun(10, func() { e.Fingerprint() }); n != 0 {
		t.Fatalf("Fingerprint of 3000 cells allocates %v times", n)
	}
	ins, err := Parse("INSERT INTO t (id, f, s) VALUES (7, 0.5, 'a string longer than one word')")
	if err != nil {
		t.Fatal(err)
	}
	upd, err := Parse("UPDATE t SET s = 'another string, also long', n = 3 WHERE id = 1000003")
	if err != nil {
		t.Fatal(err)
	}
	tab, _ := e.Table("t")
	tab.Rows = slices.Grow(tab.Rows, 200) // no append below reallocates
	if n := testing.AllocsPerRun(100, func() { e.ExecStmt(ins) }); n != 1 {
		t.Errorf("INSERT allocates %v times, want 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { e.ExecStmt(upd) }); n != 1 {
		t.Errorf("UPDATE of one row allocates %v times, want 1", n)
	}
}

func BenchmarkFingerprint(b *testing.B) {
	for _, rows := range []int{1000, 100000} {
		b.Run(fmt.Sprint(rows, "rows"), func(b *testing.B) {
			e := New()
			if _, err := e.Exec("CREATE TABLE t (id INT, f FLOAT, s TEXT)"); err != nil {
				b.Fatal(err)
			}
			ins := InsertStmt{Table: "t", Columns: []string{"id", "f", "s"}}
			for i := 0; i < rows; i++ {
				ins.Values = []Value{int64(i), float64(i) / 4, "row"}
				if _, err := e.ExecStmt(ins); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fingerprintSink = e.Fingerprint()
			}
		})
	}
}

var fingerprintSink uint64
