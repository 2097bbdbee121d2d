package sqlengine

import (
	"fmt"
	"strconv"
)

// Prepared is a statement parsed once from a template and executed many
// times with its arguments, as a JDBC prepared statement is: each "?" in
// the template stands for one literal of the VALUES list, of a SET
// assignment or of a WHERE condition. It is immutable. Executing it with
// integer arguments neither lexes nor parses nor builds a statement: the
// arguments are substituted where the engine reads the literals (Table.bind
// for a condition, argument for a value). Bind builds the statement for
// arguments of any type, for a caller that keeps it; Text renders the SQL
// the template stands for, for whatever reads statements as strings.
type Prepared struct {
	stmt  Statement // the template's statement; a placeholder is a param literal
	parts []string  // the template cut at its placeholders: parts[0] ? parts[1] ? ...
}

// param is a literal written "?": the ordinal of the argument that takes
// its place.
type param int

// Prepare parses a template: any statement Parse accepts, in which a
// literal of the VALUES list, of a SET assignment or of a WHERE condition
// may be written "?".
func Prepare(template string) (*Prepared, error) {
	p := parser{lex: lexer{src: template, params: true}}
	stmt, err := p.parse()
	if err != nil {
		return nil, err
	}
	pr := &Prepared{stmt: stmt, parts: make([]string, 0, len(p.params)+1)}
	from := 0
	for _, at := range p.params {
		pr.parts = append(pr.parts, template[from:at])
		from = at + 1
	}
	pr.parts = append(pr.parts, template[from:])
	return pr, nil
}

// NumArgs returns the number of placeholders.
func (p *Prepared) NumArgs() int { return len(p.parts) - 1 }

// IsWrite reports whether the statement mutates database state; it agrees
// with IsWrite on every text the template renders.
func (p *Prepared) IsWrite() bool {
	_, read := p.stmt.(SelectStmt)
	return !read
}

func (p *Prepared) check(args []int64) error {
	if len(args) != p.NumArgs() {
		return fmt.Errorf("sql: %d arguments for %d placeholders (in %q)", len(args), p.NumArgs(), truncate(p.parts[0]))
	}
	return nil
}

// Text renders the statement with args in place of the placeholders, each
// as fmt's %d writes it. Parsing the text gives the statement that
// executing p with args executes.
func (p *Prepared) Text(args ...int64) (string, error) {
	if err := p.check(args); err != nil {
		return "", err
	}
	if len(args) == 0 {
		return p.parts[0], nil
	}
	var buf [128]byte
	b := append(buf[:0], p.parts[0]...)
	for i, a := range args {
		b = append(strconv.AppendInt(b, a, 10), p.parts[i+1]...)
	}
	return string(b), nil
}

// Bind returns the statement p stands for with args in place of its
// placeholders, as Parse returns it for the text the arguments render to
// (an int64 argument for an INT literal, a float64 for a FLOAT one, a
// string for a quoted one, nil for NULL). The statement shares p's table
// name, its column lists and every list without a placeholder; a list that
// holds one is a fresh copy, so the statement is the caller's to keep.
func (p *Prepared) Bind(args ...Value) (Statement, error) {
	if len(args) != p.NumArgs() {
		return nil, fmt.Errorf("sql: %d arguments for %d placeholders (in %q)", len(args), p.NumArgs(), truncate(p.parts[0]))
	}
	if len(args) == 0 {
		return p.stmt, nil
	}
	switch s := p.stmt.(type) {
	case InsertStmt:
		s.Values = bindList(s.Values, args, func(v *Value) *Value { return v })
		return s, nil
	case UpdateStmt:
		s.Set = bindList(s.Set, args, func(a *Assignment) *Value { return &a.Val })
		s.Where = bindList(s.Where, args, func(c *Cond) *Value { return &c.Val })
		return s, nil
	case SelectStmt:
		s.Where = bindList(s.Where, args, func(c *Cond) *Value { return &c.Val })
		return s, nil
	}
	return p.stmt, nil
}

// bindList returns list, or a copy of it with each placeholder literal
// (lit picks an element's literal) replaced by its argument.
func bindList[E any](list []E, args []Value, lit func(*E) *Value) []E {
	var out []E
	for i := range list {
		if k, ok := (*lit(&list[i])).(param); ok {
			if out == nil {
				out = append([]E(nil), list...)
			}
			*lit(&out[i]) = args[k]
		}
	}
	if out == nil {
		return list
	}
	return out
}

// ExecPrepared executes p with args and returns the result, as ExecStmt
// does for the statement p.Text(args...) parses to.
func (e *Engine) ExecPrepared(p *Prepared, args ...int64) (Result, error) {
	if err := p.check(args); err != nil {
		return Result{}, err
	}
	return e.exec(p.stmt, args, true)
}

// CountPrepared is Count for a prepared statement.
func (e *Engine) CountPrepared(p *Prepared, args ...int64) (int, error) {
	if err := p.check(args); err != nil {
		return 0, err
	}
	r, err := e.exec(p.stmt, args, false)
	return r.Affected, err
}
