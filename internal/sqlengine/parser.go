package sqlengine

import (
	"fmt"
	"strconv"
	"strings"
)

// ColType is a column's data type.
type ColType int

// Supported column types.
const (
	TInt ColType = iota
	TFloat
	TText
)

func (t ColType) String() string {
	switch t {
	case TInt:
		return "INT"
	case TFloat:
		return "FLOAT"
	case TText:
		return "TEXT"
	}
	return "?"
}

// Column is one table column.
type Column struct {
	Name string
	Type ColType
}

// Statement is a parsed SQL statement.
type Statement interface{ isStmt() }

// CreateStmt is CREATE TABLE.
type CreateStmt struct {
	Table   string
	Columns []Column
}

// InsertStmt is INSERT INTO t (cols) VALUES (vals).
type InsertStmt struct {
	Table   string
	Columns []string
	Values  []Value
}

// SelectStmt is SELECT cols FROM t [WHERE] [ORDER BY] [LIMIT].
type SelectStmt struct {
	Table   string
	Columns []string // nil means *
	Count   bool     // SELECT COUNT(*)
	Where   []Cond
	OrderBy string
	Desc    bool
	Limit   int // -1 means no limit
}

// UpdateStmt is UPDATE t SET c=v,... [WHERE].
type UpdateStmt struct {
	Table string
	Set   map[string]Value
	Where []Cond
}

func (CreateStmt) isStmt() {}
func (InsertStmt) isStmt() {}
func (SelectStmt) isStmt() {}
func (UpdateStmt) isStmt() {}

// Cond is one "column op literal" predicate; conditions combine with AND.
type Cond struct {
	Column string
	Op     string // = != < > <= >=
	Val    Value
}

// Value is a SQL literal: int64, float64 or string.
type Value any

// parser is a recursive-descent parser over one token of lookahead,
// pulled from the lexer as it goes.
type parser struct {
	lex    lexer
	tok    token // the current token
	err    error // the first lexical error; the token stream ends there
	params []int // byte offsets of the template's placeholders, in order
}

// Parse parses one SQL statement.
func Parse(src string) (Statement, error) {
	p := parser{lex: lexer{src: src}}
	return p.parse()
}

func (p *parser) parse() (Statement, error) {
	src := p.lex.src
	p.advance()
	stmt, err := p.statement()
	if p.err != nil {
		return nil, p.err
	}
	if err != nil {
		return nil, fmt.Errorf("sql: %w (in %q)", err, truncate(src))
	}
	if !p.atEOF() {
		return nil, fmt.Errorf("sql: trailing input after statement (in %q)", truncate(src))
	}
	return stmt, nil
}

func truncate(s string) string {
	if len(s) > 80 {
		return s[:77] + "..."
	}
	return s
}

func (p *parser) cur() token  { return p.tok }
func (p *parser) atEOF() bool { return p.tok.kind == tokEOF }

// advance consumes the current token and returns it.
func (p *parser) advance() token {
	t := p.tok
	if p.err == nil {
		p.tok, p.err = p.lex.next()
	}
	return t
}

// keyword consumes an identifier equal (case-insensitively) to kw.
func (p *parser) keyword(kw string) error {
	t := p.cur()
	if t.kind != tokIdent || !strings.EqualFold(t.text, kw) {
		return fmt.Errorf("expected %s, got %q", kw, t.text)
	}
	p.advance()
	return nil
}

func (p *parser) peekKeyword(kw string) bool {
	t := p.cur()
	return t.kind == tokIdent && strings.EqualFold(t.text, kw)
}

func (p *parser) symbol(sym string) error {
	t := p.cur()
	if t.kind != tokSymbol || t.text != sym {
		return fmt.Errorf("expected %q, got %q", sym, t.text)
	}
	p.advance()
	return nil
}

func (p *parser) ident() (string, error) {
	t := p.cur()
	if t.kind != tokIdent {
		return "", fmt.Errorf("expected identifier, got %q", t.text)
	}
	p.advance()
	return strings.ToLower(t.text), nil
}

func (p *parser) literal() (Value, error) {
	t := p.cur()
	switch t.kind {
	case tokNumber:
		p.advance()
		if strings.ContainsRune(t.text, '.') {
			f, err := strconv.ParseFloat(t.text, 64)
			return f, err
		}
		n, err := strconv.ParseInt(t.text, 10, 64)
		return n, err
	case tokString:
		p.advance()
		return t.text, nil
	case tokIdent:
		if strings.EqualFold(t.text, "NULL") {
			p.advance()
			return nil, nil
		}
	}
	return nil, fmt.Errorf("expected literal, got %q", t.text)
}

func (p *parser) statement() (Statement, error) {
	t := p.cur()
	if t.kind != tokIdent {
		return nil, fmt.Errorf("expected statement keyword, got %q", t.text)
	}
	switch {
	case p.peekKeyword("SELECT"):
		return p.selectStmt()
	case p.peekKeyword("INSERT"):
		return p.insertStmt()
	case p.peekKeyword("UPDATE"):
		return p.updateStmt()
	case p.peekKeyword("CREATE"):
		return p.createStmt()
	}
	return nil, fmt.Errorf("unsupported statement %q", t.text)
}

func (p *parser) createStmt() (Statement, error) {
	p.advance() // CREATE
	if err := p.keyword("TABLE"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.symbol("("); err != nil {
		return nil, err
	}
	var cols []Column
	for {
		cn, err := p.ident()
		if err != nil {
			return nil, err
		}
		tn, err := p.ident()
		if err != nil {
			return nil, err
		}
		var ct ColType
		switch tn { // ident lower-cases
		case "int", "integer", "bigint":
			ct = TInt
		case "float", "double", "real":
			ct = TFloat
		case "text", "varchar", "char":
			ct = TText
		default:
			return nil, fmt.Errorf("unsupported column type %q", tn)
		}
		// Tolerate a size suffix like VARCHAR(255).
		if p.cur().kind == tokSymbol && p.cur().text == "(" {
			p.advance()
			if _, err := p.literal(); err != nil {
				return nil, err
			}
			if err := p.symbol(")"); err != nil {
				return nil, err
			}
		}
		cols = append(cols, Column{Name: cn, Type: ct})
		if p.cur().kind == tokSymbol && p.cur().text == "," {
			p.advance()
			continue
		}
		break
	}
	if err := p.symbol(")"); err != nil {
		return nil, err
	}
	return CreateStmt{Table: name, Columns: cols}, nil
}

func (p *parser) insertStmt() (Statement, error) {
	p.advance() // INSERT
	if err := p.keyword("INTO"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.symbol("("); err != nil {
		return nil, err
	}
	cols := make([]string, 0, 8)
	for {
		c, err := p.ident()
		if err != nil {
			return nil, err
		}
		cols = append(cols, c)
		if p.cur().text == "," {
			p.advance()
			continue
		}
		break
	}
	if err := p.symbol(")"); err != nil {
		return nil, err
	}
	if err := p.keyword("VALUES"); err != nil {
		return nil, err
	}
	if err := p.symbol("("); err != nil {
		return nil, err
	}
	vals := make([]Value, 0, len(cols))
	for {
		v, err := p.literal()
		if err != nil {
			return nil, err
		}
		vals = append(vals, v)
		if p.cur().text == "," {
			p.advance()
			continue
		}
		break
	}
	if err := p.symbol(")"); err != nil {
		return nil, err
	}
	if len(cols) != len(vals) {
		return nil, fmt.Errorf("INSERT has %d columns but %d values", len(cols), len(vals))
	}
	return InsertStmt{Table: name, Columns: cols, Values: vals}, nil
}

func (p *parser) selectStmt() (Statement, error) {
	p.advance() // SELECT
	s := SelectStmt{Limit: -1}
	if p.cur().kind == tokSymbol && p.cur().text == "*" {
		p.advance()
	} else if p.peekKeyword("COUNT") {
		p.advance()
		if err := p.symbol("("); err != nil {
			return nil, err
		}
		if err := p.symbol("*"); err != nil {
			return nil, err
		}
		if err := p.symbol(")"); err != nil {
			return nil, err
		}
		s.Count = true
	} else {
		for {
			c, err := p.ident()
			if err != nil {
				return nil, err
			}
			s.Columns = append(s.Columns, c)
			if p.cur().text == "," {
				p.advance()
				continue
			}
			break
		}
	}
	if err := p.keyword("FROM"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	s.Table = name
	if s.Where, err = p.optionalWhere(); err != nil {
		return nil, err
	}
	if p.peekKeyword("ORDER") {
		p.advance()
		if err := p.keyword("BY"); err != nil {
			return nil, err
		}
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		s.OrderBy = col
		if p.peekKeyword("DESC") {
			p.advance()
			s.Desc = true
		} else if p.peekKeyword("ASC") {
			p.advance()
		}
	}
	if p.peekKeyword("LIMIT") {
		p.advance()
		v, err := p.literal()
		if err != nil {
			return nil, err
		}
		n, ok := v.(int64)
		if !ok || n < 0 {
			return nil, fmt.Errorf("LIMIT must be a non-negative integer")
		}
		s.Limit = int(n)
	}
	return s, nil
}

func (p *parser) updateStmt() (Statement, error) {
	p.advance() // UPDATE
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.keyword("SET"); err != nil {
		return nil, err
	}
	set := map[string]Value{}
	for {
		c, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.symbol("="); err != nil {
			return nil, err
		}
		v, err := p.literal()
		if err != nil {
			return nil, err
		}
		set[c] = v
		if p.cur().text == "," {
			p.advance()
			continue
		}
		break
	}
	where, err := p.optionalWhere()
	if err != nil {
		return nil, err
	}
	return UpdateStmt{Table: name, Set: set, Where: where}, nil
}

func (p *parser) optionalWhere() ([]Cond, error) {
	if !p.peekKeyword("WHERE") {
		return nil, nil
	}
	p.advance()
	var conds []Cond
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		t := p.cur()
		if t.kind != tokSymbol {
			return nil, fmt.Errorf("expected comparison operator, got %q", t.text)
		}
		op := t.text
		switch op {
		case "=", "<", ">", "<=", ">=", "!=":
		case "<>":
			op = "!="
		default:
			return nil, fmt.Errorf("unsupported operator %q", op)
		}
		p.advance()
		var v Value
		if p.cur().kind == tokParam {
			v = param(len(p.params))
			p.params = append(p.params, p.advance().pos)
		} else if v, err = p.literal(); err != nil {
			return nil, err
		}
		conds = append(conds, Cond{Column: col, Op: op, Val: v})
		if p.peekKeyword("AND") {
			p.advance()
			continue
		}
		break
	}
	return conds, nil
}

// IsWrite reports whether a statement mutates database state. It is the
// classification C-JDBC's recovery log applies to decide what to record.
// It looks at the first token exactly as Parse does, so the two agree on
// every statement that parses.
func IsWrite(sql string) bool {
	l := lexer{src: sql}
	t, err := l.next()
	if err != nil || t.kind != tokIdent {
		return false
	}
	for _, kw := range [...]string{"INSERT", "UPDATE", "CREATE"} {
		if strings.EqualFold(t.text, kw) {
			return true
		}
	}
	return false
}
