package sqlengine

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// replica is one database held twice: by the engine and by the oracle.
type replica struct {
	eng *Engine
	ref *refEngine
}

func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrNoSuchTable):
		return "no-such-table"
	case errors.Is(err, ErrNoSuchColumn):
		return "no-such-column"
	case errors.Is(err, ErrTableExists):
		return "table-exists"
	case errors.Is(err, ErrTypeMismatch):
		return "type-mismatch"
	}
	return "other"
}

// apply runs stmt on both halves of r and fails the test unless they agree
// on the result, the class of error and the fingerprint afterwards. A SELECT
// also goes through the count-only entry, which owes the reference's error
// and the length of its result.
func (r replica) apply(t *testing.T, what string, stmt Statement) {
	t.Helper()
	r.check(t, what, stmt, func(rows bool) (Result, error) {
		if !rows {
			n, err := r.eng.Count(stmt)
			return Result{Affected: n}, err
		}
		return r.eng.ExecStmt(stmt)
	})
}

// check is apply with the engine's side given as a function: exec(true)
// executes the statement the reference is given, exec(false) counts it.
func (r replica) check(t *testing.T, what string, stmt Statement, exec func(rows bool) (Result, error)) {
	t.Helper()
	if _, ok := stmt.(SelectStmt); ok {
		n, cerr := exec(false)
		want, werr := r.ref.exec(stmt)
		if errClass(cerr) != errClass(werr) {
			t.Fatalf("%s: count-only error %v, reference error %v", what, cerr, werr)
		}
		if cerr == nil && n.Affected != len(want.Rows) {
			t.Fatalf("%s: count-only says %d rows, reference has %d", what, n.Affected, len(want.Rows))
		}
	}
	got, gerr := exec(true)
	want, werr := r.ref.exec(stmt)
	if errClass(gerr) != errClass(werr) {
		t.Fatalf("%s: engine error %v, reference error %v", what, gerr, werr)
	}
	if gerr == nil {
		if got.Affected != want.Affected || !reflect.DeepEqual(got.Columns, want.Columns) || len(got.Rows) != len(want.Rows) {
			t.Fatalf("%s:\nengine    %+v\nreference %+v", what, got, want)
		}
		for i := range got.Rows {
			if !reflect.DeepEqual(got.Rows[i], want.Rows[i]) {
				t.Fatalf("%s: row %d: engine %v, reference %v", what, i, got.Rows[i], want.Rows[i])
			}
		}
	}
	if g, w := r.eng.Fingerprint(), r.ref.fingerprint(); g != w {
		t.Fatalf("%s: fingerprint %x, reference %x", what, g, w)
	}
}

// stmtGen writes random statements over two tables: "bids", RUBiS-shaped,
// and "t", with a column of each type and NULLs. A good part of what it
// writes is wrong on purpose: unknown names, literals of the wrong family.
type stmtGen struct {
	rng    *rand.Rand
	nextID int
}

var genTables = map[string][]Column{
	"bids": {{"id", TInt}, {"user_id", TInt}, {"item_id", TInt}, {"bid", TFloat}, {"date", TInt}},
	"t":    {{"id", TInt}, {"k", TInt}, {"f", TFloat}, {"s", TText}},
}

func (g *stmtGen) table() string {
	switch n := g.rng.Intn(20); {
	case n == 0:
		return "ghosts"
	case n < 10:
		return "bids"
	}
	return "t"
}

func (g *stmtGen) column(table string) Column {
	cols := genTables[table]
	if cols == nil || g.rng.Intn(40) == 0 {
		return Column{"ghost", TInt}
	}
	return cols[g.rng.Intn(len(cols))]
}

// literal returns a literal for a column of type ct: mostly of its family
// and from a small domain, so that conditions match several rows;
// sometimes NULL, a float against an INT column, or the wrong family.
func (g *stmtGen) literal(ct ColType) string {
	n := g.rng.Intn(20)
	switch {
	case n == 0:
		return "NULL"
	case n == 1:
		ct = ColType(g.rng.Intn(3))
	}
	switch ct {
	case TInt:
		return fmt.Sprint(g.rng.Intn(8) - 1)
	case TFloat:
		return fmt.Sprintf("%d.%d", g.rng.Intn(8)-1, g.rng.Intn(2)*5)
	}
	return QuoteString(strings.Repeat("x'", g.rng.Intn(3)) + fmt.Sprint(g.rng.Intn(4)))
}

func (g *stmtGen) where(table string) string {
	n := g.rng.Intn(4)
	if n == 0 {
		return ""
	}
	conds := make([]string, n)
	for i := range conds {
		c := g.column(table)
		op := "="
		if i > 0 || g.rng.Intn(3) == 0 {
			op = []string{"=", "!=", "<>", "<", ">", "<=", ">="}[g.rng.Intn(7)]
		}
		conds[i] = fmt.Sprintf("%s %s %s", c.Name, op, g.literal(c.Type))
	}
	return " WHERE " + strings.Join(conds, " AND ")
}

func (g *stmtGen) next() string {
	table := g.table()
	switch n := g.rng.Intn(100); {
	case n < 35:
		g.nextID++
		var cols, vals []string
		for _, c := range genTables[table] {
			if c.Name == "id" {
				cols, vals = append(cols, "id"), append(vals, fmt.Sprint(g.nextID))
			} else if g.rng.Intn(8) > 0 {
				cols, vals = append(cols, c.Name), append(vals, g.literal(c.Type))
			}
		}
		if cols == nil {
			cols, vals = []string{"id"}, []string{"1"}
		}
		return fmt.Sprintf("INSERT INTO %s (%s) VALUES (%s)", table, strings.Join(cols, ", "), strings.Join(vals, ", "))
	case n < 75:
		what := "*"
		switch g.rng.Intn(4) {
		case 0:
			what = "COUNT(*)"
		case 1:
			what = g.column(table).Name + ", " + g.column(table).Name
		}
		sql := fmt.Sprintf("SELECT %s FROM %s%s", what, table, g.where(table))
		if g.rng.Intn(3) == 0 {
			sql += " ORDER BY " + g.column(table).Name + []string{"", " ASC", " DESC"}[g.rng.Intn(3)]
		}
		if g.rng.Intn(2) == 0 {
			sql += fmt.Sprint(" LIMIT ", g.rng.Intn(4))
		}
		return sql
	case n < 94:
		c := g.column(table)
		sql := fmt.Sprintf("UPDATE %s SET %s = %s", table, c.Name, g.literal(c.Type))
		if g.rng.Intn(3) == 0 {
			c = g.column(table)
			sql += fmt.Sprintf(", %s = %s", c.Name, g.literal(c.Type))
		}
		return sql + g.where(table)
	}
	if genTables[table] == nil {
		table = "t"
	}
	return createSQL(table)
}

func createSQL(table string) string {
	var cols []string
	for _, c := range genTables[table] {
		cols = append(cols, c.Name+" "+c.Type.String())
	}
	return fmt.Sprintf("CREATE TABLE %s (%s)", table, strings.Join(cols, ", "))
}

// TestDifferentialAgainstReferenceScan drives the engine and the reference
// scan with the same generated statements, over a set of databases that
// grows by snapshotting: every statement goes to one of them, and after it
// all of them must still match their oracle, so a write that leaks through
// storage shared between a snapshot and its source is caught.
func TestDifferentialAgainstReferenceScan(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		g := &stmtGen{rng: rand.New(rand.NewSource(seed))}
		dbs := []replica{{New(), newRef()}}
		for _, table := range []string{"bids", "t"} {
			stmt, err := Parse(createSQL(table))
			if err != nil {
				t.Fatal(err)
			}
			dbs[0].apply(t, createSQL(table), stmt)
		}
		for step := 0; step < 600; step++ {
			if step%150 == 100 {
				src := dbs[g.rng.Intn(len(dbs))]
				dbs = append(dbs, replica{src.eng.Snapshot(), src.ref.snapshot()})
			}
			sql := g.next()
			stmt, err := Parse(sql)
			if err != nil {
				t.Fatalf("seed %d: generated %q: %v", seed, sql, err)
			}
			which := g.rng.Intn(len(dbs))
			dbs[which].apply(t, fmt.Sprintf("seed %d step %d db %d: %s", seed, step, which, sql), stmt)
			for i, db := range dbs {
				if g, w := db.eng.Fingerprint(), db.ref.fingerprint(); g != w {
					t.Fatalf("seed %d step %d: %s on db %d changed db %d", seed, step, sql, which, i)
				}
			}
		}
	}
}

// Statements no parser produces: operators the engine does not know. They
// fail only on a row whose earlier conditions pass and whose cell and
// literal are both non-NULL and of one family.
func TestDifferentialUnknownOperator(t *testing.T) {
	db := replica{New(), newRef()}
	for _, sql := range []string{
		"CREATE TABLE t (id INT, k INT, s TEXT)",
		"INSERT INTO t (id, k, s) VALUES (1, NULL, 'a')",
		"INSERT INTO t (id, k, s) VALUES (2, 5, NULL)",
	} {
		stmt, err := Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		db.apply(t, sql, stmt)
	}
	for _, where := range [][]Cond{
		{{"k", "~", int64(5)}},
		{{"k", "~", nil}},
		{{"id", "=", int64(1)}, {"k", "~", int64(5)}}, // the only candidate's k is NULL
		{{"id", "=", int64(2)}, {"k", "~", int64(5)}},
		{{"id", "=", int64(2)}, {"s", "~", "a"}},
		{{"k", "~", "text"}}, // the type mismatch is met first
	} {
		what := fmt.Sprintf("WHERE %v", where)
		db.apply(t, "SELECT "+what, SelectStmt{Table: "t", Where: where, Limit: -1})
		db.apply(t, "SELECT LIMIT 0 "+what, SelectStmt{Table: "t", Where: where, Limit: 0})
		db.apply(t, "UPDATE "+what, UpdateStmt{Table: "t", Set: []Assignment{{"k", int64(7)}}, Where: where})
	}
}

// A SELECT * returns the stored rows themselves, not copies: writing to a
// returned row would write into the table and into every snapshot sharing
// the row, which is why Result is documented read-only. Projections and
// COUNT build their own rows.
func TestSelectStarRowsAreTheStoredRows(t *testing.T) {
	e := newUsers(t)
	snap := e.Snapshot()
	r := mustExec(t, e, "SELECT * FROM users WHERE id = 2")
	stored, _ := e.Table("users")
	copied, _ := snap.Table("users")
	if &r.Rows[0][0] != &stored.Rows[1][0] || &r.Rows[0][0] != &copied.Rows[1][0] {
		t.Fatal("SELECT * copied the row, or Snapshot did")
	}
	// UPDATE replaces the row in the table it runs on and leaves the
	// result and the snapshot holding the old one.
	mustExec(t, e, "UPDATE users SET nickname = 'robert' WHERE id = 2")
	if r.Rows[0][1] != "bob" || copied.Rows[1][1] != "bob" || stored.Rows[1][1] != "robert" {
		t.Fatalf("after UPDATE: result %v, snapshot %v, table %v", r.Rows[0], copied.Rows[1], stored.Rows[1])
	}
}
