package sqlengine

import (
	"math"
	"reflect"
	"testing"
)

// Format renders what Parse reads back as the same statement; FuzzParse
// checks the round trip on every statement the parser accepts.
func TestFormat(t *testing.T) {
	for _, c := range []struct{ sql, text string }{
		{"create table T (A int, b VARCHAR(20), c double)", "CREATE TABLE t (a INT, b TEXT, c FLOAT)"},
		{"INSERT INTO t (a, b, c) VALUES (-1, 'it''s', 2.50)", "INSERT INTO t (a, b, c) VALUES (-1, 'it''s', 2.5)"},
		{"INSERT INTO t (a, b) VALUES (NULL, 3.)", "INSERT INTO t (a, b) VALUES (NULL, 3.0)"},
		{"SELECT * FROM t WHERE a <> 1 AND b >= -0.0 ORDER BY c ASC LIMIT 0", "SELECT * FROM t WHERE a != 1 AND b >= -0.0 ORDER BY c LIMIT 0"},
		{"SELECT COUNT(*) FROM t ORDER BY c DESC", "SELECT COUNT(*) FROM t ORDER BY c DESC"},
		{"SELECT a, b FROM t", "SELECT a, b FROM t"},
		{"UPDATE t SET b = 2, a = 1, b = 3 WHERE a < 5", "UPDATE t SET a = 1, b = 3 WHERE a < 5"},
	} {
		stmt, err := Parse(c.sql)
		if err != nil {
			t.Fatal(err)
		}
		text, err := Format(stmt)
		if err != nil || text != c.text {
			t.Errorf("Format(Parse(%q)) = %q, %v; want %q", c.sql, text, err, c.text)
			continue
		}
		if back, err := Parse(text); err != nil || !reflect.DeepEqual(back, stmt) {
			t.Errorf("%q reads back as %#v, %v; want %#v", text, back, err, stmt)
		}
	}
	for _, bad := range []Statement{
		InsertStmt{Table: "t", Columns: []string{"a"}, Values: []Value{math.Inf(1)}},
		InsertStmt{Table: "t", Columns: []string{"a"}, Values: []Value{1}}, // an int, not an int64
		UpdateStmt{Table: "T", Set: []Assignment{{"a", int64(1)}}},
		SelectStmt{Table: "t", Where: []Cond{{"a", "~", int64(1)}}, Limit: -1},
		CreateStmt{Table: "t", Columns: []Column{{"a", ColType(7)}}},
		nil,
	} {
		if text, err := Format(bad); err == nil {
			t.Errorf("Format(%#v) = %q, want an error", bad, text)
		}
	}
}
