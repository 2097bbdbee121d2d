package sqlengine

import (
	"fmt"
	"math"
	"slices"
	"strconv"
)

// Format renders stmt as SQL text that Parse reads back as stmt: for every
// statement Parse returns, Parse(Format(s)) deep-equals s. It is the text
// of a statement that was built rather than parsed, rendered when someone
// asks for it (a logged write). Keywords are upper case; a FLOAT literal is
// the shortest decimal that reads back to its bits, always with a point.
// A name that is not a lower-case identifier, a literal of no SQL type and
// a non-finite float have no such text, and are an error.
func Format(stmt Statement) (string, error) {
	f := formatter{}
	switch s := stmt.(type) {
	case CreateStmt:
		f.str("CREATE TABLE ").name(s.Table).str(" (")
		for i, c := range s.Columns {
			if c.Type != TInt && c.Type != TFloat && c.Type != TText {
				f.fail("sql: unsupported column type %d", c.Type)
			}
			f.sep(i, ", ").name(c.Name).str(" ").str(c.Type.String())
		}
		f.str(")")
	case InsertStmt:
		f.str("INSERT INTO ").name(s.Table).str(" (")
		for i, c := range s.Columns {
			f.sep(i, ", ").name(c)
		}
		f.str(") VALUES (")
		for i, v := range s.Values {
			f.sep(i, ", ").literal(v)
		}
		f.str(")")
	case SelectStmt:
		f.str("SELECT ")
		switch {
		case s.Count:
			f.str("COUNT(*)")
		case s.Columns == nil:
			f.str("*")
		}
		for i, c := range s.Columns {
			f.sep(i, ", ").name(c)
		}
		f.str(" FROM ").name(s.Table).where(s.Where)
		if s.OrderBy != "" {
			f.str(" ORDER BY ").name(s.OrderBy)
			if s.Desc {
				f.str(" DESC")
			}
		}
		if s.Limit >= 0 {
			f.str(" LIMIT ").literal(int64(s.Limit))
		}
	case UpdateStmt:
		f.str("UPDATE ").name(s.Table).str(" SET ")
		for i, a := range s.Set {
			f.sep(i, ", ").name(a.Column).str(" = ").literal(a.Val)
		}
		f.where(s.Where)
	default:
		return "", fmt.Errorf("sql: cannot format a %T", stmt)
	}
	if f.err != nil {
		return "", f.err
	}
	return string(f.b), nil
}

// formatter appends a statement's text; err is the first part it could not
// render.
type formatter struct {
	b   []byte
	err error
}

// fail records an error unless one is recorded already.
func (f *formatter) fail(format string, args ...any) {
	if f.err == nil {
		f.err = fmt.Errorf(format, args...)
	}
}

func (f *formatter) str(s string) *formatter {
	f.b = append(f.b, s...)
	return f
}

func (f *formatter) sep(i int, s string) *formatter {
	if i > 0 {
		f.str(s)
	}
	return f
}

// name writes an identifier as Parse returns it: [a-z_][a-z0-9_]*.
func (f *formatter) name(s string) *formatter {
	ok := s != "" && byteClass[s[0]] == clsLetter
	for i := 0; i < len(s); i++ {
		ok = ok && byteClass[s[i]]&(clsLetter|clsDigit) != 0 && (s[i] < 'A' || s[i] > 'Z')
	}
	if !ok {
		f.fail("sql: %q is not a lower-case identifier", s)
	}
	return f.str(s)
}

func (f *formatter) literal(v Value) *formatter {
	switch x := v.(type) {
	case nil:
		f.str("NULL")
	case int64:
		f.b = strconv.AppendInt(f.b, x, 10)
	case float64:
		if math.IsInf(x, 0) || math.IsNaN(x) {
			f.fail("sql: %v has no literal", x)
			break
		}
		n := len(f.b)
		f.b = strconv.AppendFloat(f.b, x, 'f', -1, 64)
		if !slices.Contains(f.b[n:], '.') {
			f.str(".0")
		}
	case string:
		f.str(QuoteString(x))
	default:
		f.fail("sql: %v (%T) is not a SQL literal", v, v)
	}
	return f
}

func (f *formatter) where(conds []Cond) *formatter {
	for i, c := range conds {
		if i == 0 {
			f.str(" WHERE ")
		}
		switch c.Op {
		case "=", "!=", "<", ">", "<=", ">=":
		default:
			f.fail("sql: unsupported operator %q", c.Op)
		}
		f.sep(i, " AND ").name(c.Column).str(" ").str(c.Op).str(" ").literal(c.Val)
	}
	return f
}
