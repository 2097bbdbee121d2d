package sqlengine

import (
	"fmt"
	"math/rand"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

var whereInt = regexp.MustCompile(`( (?:=|!=|<>|<|>|<=|>=) )(-?\d+)( |$)`)

// templateOf rewrites sql with every integer literal of its WHERE clause as
// a placeholder, and returns the literals as the arguments.
func templateOf(t *testing.T, sql string) (string, []int64) {
	t.Helper()
	head, where, ok := strings.Cut(sql, " WHERE ")
	if !ok {
		return sql, nil
	}
	var args []int64
	where = whereInt.ReplaceAllStringFunc(where, func(m string) string {
		sub := whereInt.FindStringSubmatch(m)
		n, err := strconv.ParseInt(sub[2], 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		args = append(args, n)
		return sub[1] + "?" + sub[3]
	})
	return head + " WHERE " + where, args
}

// applyBoth runs sql on r three ways, each against the reference scan of
// the parsed text: parsed, counted, and as a template prepared from it with
// the integer literals of its WHERE clause as arguments.
func (r replica) applyBoth(t *testing.T, what, sql string) {
	t.Helper()
	stmt, err := Parse(sql)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	tmpl, args := templateOf(t, sql)
	p, err := Prepare(tmpl)
	if err != nil {
		t.Fatalf("%s: Prepare(%q): %v", what, tmpl, err)
	}
	if text, err := p.Text(args...); err != nil || text != sql {
		t.Fatalf("%s: %q with %v renders %q, %v", what, tmpl, args, text, err)
	}
	if p.IsWrite() != IsWrite(sql) || p.NumArgs() != len(args) {
		t.Fatalf("%s: prepared IsWrite %v, NumArgs %d", what, p.IsWrite(), p.NumArgs())
	}
	if _, read := stmt.(SelectStmt); read {
		r.apply(t, what, stmt) // a read may run twice
	}
	r.check(t, what+" [prepared "+tmpl+"]", stmt, func(rows bool) (Result, error) {
		if !rows {
			n, err := r.eng.CountPrepared(p, args...)
			return Result{Affected: n}, err
		}
		return r.eng.ExecPrepared(p, args...)
	})
}

// The generated statements of the differential test, each executed as a
// prepared statement: same rows, same class of error, same fingerprint as
// the reference scan of the text the template renders.
func TestPreparedAgainstReferenceScan(t *testing.T) {
	prepared := 0
	for seed := int64(1); seed <= 8; seed++ {
		g := &stmtGen{rng: rand.New(rand.NewSource(100 + seed))}
		db := replica{New(), newRef()}
		for _, table := range []string{"bids", "t"} {
			db.applyBoth(t, "create", createSQL(table))
		}
		for step := 0; step < 600; step++ {
			sql := g.next()
			if tmpl, _ := templateOf(t, sql); tmpl != sql {
				prepared++
			}
			db.applyBoth(t, fmt.Sprintf("seed %d step %d: %s", seed, step, sql), sql)
		}
	}
	if prepared < 1000 {
		t.Fatalf("only %d statements had a placeholder", prepared)
	}
}

// The cases a count-only execution could get wrong by not building the
// result: an error that only a later stage or a later row reports, and a
// LIMIT that clips.
func TestCountOnlyCases(t *testing.T) {
	db := replica{New(), newRef()}
	for _, sql := range []string{
		"CREATE TABLE t (id INT, k INT, f FLOAT, s TEXT)",
		"CREATE TABLE empty (id INT)",
		"INSERT INTO t (id, k, f) VALUES (1, 5, 1.5)",
		"INSERT INTO t (id, k, f) VALUES (2, 5, 2.5)",
		"INSERT INTO t (id, k, f) VALUES (3, 5, 0.5)",
		"INSERT INTO t (id, k, f, s) VALUES (4, 6, 0.5, 'late')",
	} {
		db.applyBoth(t, sql, sql)
	}
	for _, sql := range []string{
		"SELECT * FROM nope",
		"SELECT * FROM nope WHERE id = 1 ORDER BY ghost LIMIT 0",
		"SELECT * FROM t ORDER BY ghost",
		"SELECT * FROM t WHERE k = 5 ORDER BY ghost LIMIT 1",
		"SELECT * FROM t WHERE k = 7 ORDER BY ghost",      // no match: the column is still checked
		"SELECT * FROM empty WHERE ghost = 1 ORDER BY id", // no row meets the condition
		"SELECT * FROM empty WHERE id = 1 ORDER BY ghost",
		"SELECT ghost FROM t WHERE k = 5",
		"SELECT id, ghost FROM t WHERE k = 7 LIMIT 0",
		"SELECT ghost FROM t ORDER BY phantom", // ORDER BY is checked before the projection
		"SELECT ghost FROM t WHERE s = 1",      // and the late row's mismatch before both
		"SELECT * FROM t WHERE s = 1 LIMIT 1",  // the mismatch is on the fourth row
		"SELECT * FROM t WHERE k = 5 AND s = 1 LIMIT 1",
		"SELECT * FROM t WHERE k = 6 AND s = 1",
		"SELECT COUNT(*) FROM t WHERE s = 1",
		"SELECT * FROM t WHERE s != 1 LIMIT 2", // NULL != 1 holds on three rows, then the fourth mismatches
		"SELECT * FROM t WHERE id < 4 AND s != 1 LIMIT 2",
		"SELECT * FROM t WHERE k = 5 LIMIT 0",
		"SELECT * FROM t LIMIT 0",
		"SELECT * FROM t WHERE k = 5 LIMIT 2",
		"SELECT * FROM t WHERE k = 5 LIMIT 7",
		"SELECT id FROM t WHERE k = 5 ORDER BY f DESC LIMIT 2",
		"SELECT * FROM t WHERE f > 0 ORDER BY f LIMIT 3",
		"SELECT COUNT(*) FROM t",
		"SELECT COUNT(*) FROM t WHERE k = 5",
		"SELECT COUNT(*) FROM t WHERE k = 5 LIMIT 2",
		"SELECT COUNT(*) FROM t WHERE k = 9",
		"SELECT COUNT(*) FROM t WHERE ghost = 9",
		"SELECT COUNT(*) FROM empty WHERE ghost = 9",
		"SELECT COUNT(*) FROM t ORDER BY ghost",
	} {
		db.applyBoth(t, sql, sql)
	}
}

func TestPrepareTemplates(t *testing.T) {
	for _, bad := range []string{
		"",
		"SELECT * FROM t WHERE a = ? ?",
		"SELECT * FROM t WHERE a = ?5",
		"SELECT * FROM t WHERE ? = 5",
		"SELECT * FROM t WHERE a ? 5",
		"SELECT * FROM t LIMIT ?",
		"SELECT ? FROM t",
		"CREATE TABLE t (a VARCHAR(?))",
		"INSERT INTO t (a) VALUES (? ?)",
		"SELECT * FROM t WHERE a = -?",
	} {
		if p, err := Prepare(bad); err == nil {
			t.Errorf("Prepare(%q) accepted: %+v", bad, p)
		}
	}
	// Outside a template a placeholder is what it always was.
	if _, err := Parse("SELECT * FROM t WHERE a = ?"); err == nil || !strings.Contains(err.Error(), "unexpected character") {
		t.Errorf("Parse accepted a placeholder: %v", err)
	}
	p, err := Prepare("SELECT * FROM t WHERE s = 'what?' AND a >= ? AND b<>?;")
	if err != nil {
		t.Fatal(err)
	}
	if p.NumArgs() != 2 || p.IsWrite() {
		t.Fatalf("NumArgs %d, IsWrite %v", p.NumArgs(), p.IsWrite())
	}
	if text, err := p.Text(-3, 1<<40); err != nil || text != "SELECT * FROM t WHERE s = 'what?' AND a >= -3 AND b<>1099511627776;" {
		t.Fatalf("Text = %q, %v", text, err)
	}
	for _, w := range []string{"INSERT INTO t (a) VALUES (1)", "UPDATE t SET a = 1 WHERE a = ?", "CREATE TABLE u (a INT)",
		"INSERT INTO t (a, b) VALUES (?, 'x')", "UPDATE t SET b = ?, a = ? WHERE a = ?"} {
		if p, err := Prepare(w); err != nil || !p.IsWrite() {
			t.Errorf("Prepare(%q): %v, IsWrite %v", w, err, p != nil && p.IsWrite())
		}
	}
}

// A wrong number of arguments is an error at every entry, and the engine
// is not touched.
func TestPreparedArgumentCount(t *testing.T) {
	e := New()
	if _, err := e.Exec("CREATE TABLE t (a INT)"); err != nil {
		t.Fatal(err)
	}
	one, err := Prepare("UPDATE t SET a = 2 WHERE a = ?")
	if err != nil {
		t.Fatal(err)
	}
	none, err := Prepare("SELECT * FROM t")
	if err != nil {
		t.Fatal(err)
	}
	writes := e.Writes()
	for _, c := range []struct {
		p    *Prepared
		args []int64
	}{{one, nil}, {one, []int64{1, 2}}, {none, []int64{1}}} {
		if _, err := c.p.Text(c.args...); err == nil {
			t.Errorf("Text(%v) of %d placeholders: no error", c.args, c.p.NumArgs())
		}
		if _, err := e.ExecPrepared(c.p, c.args...); err == nil {
			t.Errorf("ExecPrepared(%v) of %d placeholders: no error", c.args, c.p.NumArgs())
		}
		if _, err := e.CountPrepared(c.p, c.args...); err == nil {
			t.Errorf("CountPrepared(%v) of %d placeholders: no error", c.args, c.p.NumArgs())
		}
	}
	if e.Writes() != writes {
		t.Fatal("a refused statement wrote")
	}
}

// Executing a prepared read allocates nothing when only counted, and what
// ExecStmt allocates for the result when materialised; Parse is not run.
func TestPreparedReadAllocs(t *testing.T) {
	e := New()
	mustExec(t, e, "CREATE TABLE bids (id INT, item_id INT, bid FLOAT)")
	for i := 0; i < 300; i++ {
		mustExec(t, e, fmt.Sprintf("INSERT INTO bids (id, item_id, bid) VALUES (%d, %d, %d.5)", i, i%3, i))
	}
	p, err := Prepare("SELECT * FROM bids WHERE item_id = ? ORDER BY bid DESC LIMIT 20")
	if err != nil {
		t.Fatal(err)
	}
	if n, err := e.CountPrepared(p, 1); n != 20 || err != nil { // builds the index
		t.Fatalf("CountPrepared = %d, %v", n, err)
	}
	if got := testing.AllocsPerRun(100, func() {
		if n, err := e.CountPrepared(p, 1000); n != 0 || err != nil {
			t.Fatalf("CountPrepared = %d, %v", n, err)
		}
		if n, err := e.CountPrepared(p, 2); n != 20 || err != nil {
			t.Fatalf("CountPrepared = %d, %v", n, err)
		}
	}); got != 0 {
		t.Errorf("counting a prepared read allocates %v objects, want 0", got)
	}
}

// Bind builds the statement the template's text parses to, for arguments
// of every literal type, sharing what no placeholder touches and leaving
// the template as it was.
func TestBind(t *testing.T) {
	for _, c := range []struct {
		template string
		args     []Value
		text     string
	}{
		{"INSERT INTO t (a, b, c, d) VALUES (?, 'x', ?, ?)", []Value{int64(-3), 2.5, nil}, "INSERT INTO t (a, b, c, d) VALUES (-3, 'x', 2.5, NULL)"},
		{"UPDATE t SET b = ?, a = ? WHERE c = 7 AND a = ?", []Value{"it's", int64(1), int64(2)}, "UPDATE t SET b = 'it''s', a = 1 WHERE c = 7 AND a = 2"},
		{"UPDATE t SET a = 0 WHERE a = ?", []Value{int64(9)}, "UPDATE t SET a = 0 WHERE a = 9"},
		{"SELECT * FROM t WHERE a = ? AND b < ?", []Value{int64(1), 0.25}, "SELECT * FROM t WHERE a = 1 AND b < 0.25"},
		{"CREATE TABLE t (a INT)", nil, "CREATE TABLE t (a INT)"},
	} {
		p, err := Prepare(c.template)
		if err != nil {
			t.Fatal(err)
		}
		before := fmt.Sprintf("%#v", p.stmt)
		got, err := p.Bind(c.args...)
		if err != nil {
			t.Fatalf("%q: %v", c.template, err)
		}
		want, err := Parse(c.text)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%q bound to %v:\n got %#v\nwant %#v", c.template, c.args, got, want)
		}
		if after := fmt.Sprintf("%#v", p.stmt); after != before {
			t.Errorf("%q: Bind changed the template: %s", c.template, after)
		}
		if _, err := p.Bind(append(c.args, int64(0))...); err == nil {
			t.Errorf("%q: Bind took one argument too many", c.template)
		}
	}
	p, err := Prepare("UPDATE t SET a = 0 WHERE a = ?")
	if err != nil {
		t.Fatal(err)
	}
	s1, _ := p.Bind(int64(1))
	s2, _ := p.Bind(int64(2))
	u1, u2 := s1.(UpdateStmt), s2.(UpdateStmt)
	if &u1.Set[0] != &u2.Set[0] || &u1.Where[0] == &u2.Where[0] {
		t.Error("Bind copied the SET list without a placeholder, or shared the WHERE list with one")
	}
}
