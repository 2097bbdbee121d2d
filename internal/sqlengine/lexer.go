// Package sqlengine implements the in-memory relational engine that stands
// in for MySQL 4.0 in this reproduction. It executes the SQL subset that
// RUBiS and the recovery log send (CREATE TABLE / INSERT / SELECT / UPDATE
// with WHERE, ORDER BY and LIMIT) over typed tables. No statement removes
// a row or a table, so a row's position in its table never changes.
//
// The engine exists because the paper's C-JDBC layer keeps database
// replicas consistent by *logging write requests* and replaying them on a
// stale replica before activation (§4.1). Testing that protocol honestly
// requires real statement execution and state comparison, which Snapshot
// and Fingerprint provide. A statement arrives as text (Parse), as a
// template with its arguments (Prepare, Bind) or built by its caller, and
// Format renders any of them as text that parses back to it.
package sqlengine

import (
	"fmt"
	"strings"
)

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokSymbol // ( ) , = < > <= >= != <> * .
	tokParam  // ? in a template (Prepare); a stray character anywhere else
)

type token struct {
	kind tokenKind
	text string
	pos  int
}

// Byte classes. SQL here is ASCII: identifiers are [A-Za-z_][A-Za-z0-9_]*,
// and a byte outside the table (any byte >= 0x80 included) is an error
// wherever it appears outside a string literal.
const (
	clsSpace  uint8 = 1 << iota // blank, or the tolerated statement separator ';'
	clsLetter                   // A-Z a-z _
	clsDigit                    // 0-9
	clsSymbol                   // one-byte symbols ( ) , = * .
)

var byteClass = func() (t [256]uint8) {
	for _, c := range " \t\n\r;" {
		t[c] = clsSpace
	}
	for c := 'a'; c <= 'z'; c++ {
		t[c], t[c-'a'+'A'] = clsLetter, clsLetter
	}
	t['_'] = clsLetter
	for c := '0'; c <= '9'; c++ {
		t[c] = clsDigit
	}
	for _, c := range "(),=*." {
		t[c] = clsSymbol
	}
	return t
}()

// lexer yields the tokens of src one at a time; token texts other than
// string literals are substrings of src, so lexing allocates nothing.
type lexer struct {
	src    string
	pos    int
	params bool // src is a template: '?' is a placeholder token
}

// next returns the next token, or tokEOF at the end of the input.
func (l *lexer) next() (token, error) {
	for l.pos < len(l.src) && byteClass[l.src[l.pos]] == clsSpace {
		l.pos++
	}
	start := l.pos
	if start == len(l.src) {
		return token{kind: tokEOF, pos: start}, nil
	}
	c := l.src[start]
	switch cls := byteClass[c]; {
	case cls == clsLetter:
		l.skip(clsLetter | clsDigit)
		return token{tokIdent, l.src[start:l.pos], start}, nil
	case cls == clsDigit || (c == '-' && start+1 < len(l.src) && byteClass[l.src[start+1]] == clsDigit):
		l.pos++
		l.skip(clsDigit)
		if l.pos < len(l.src) && l.src[l.pos] == '.' {
			l.pos++
			l.skip(clsDigit)
		}
		return token{tokNumber, l.src[start:l.pos], start}, nil
	case c == '\'':
		return l.lexString()
	case cls == clsSymbol:
		l.pos++
		return token{tokSymbol, l.src[start:l.pos], start}, nil
	case c == '?' && l.params:
		l.pos++
		return token{tokParam, l.src[start:l.pos], start}, nil
	case c == '<' || c == '>' || c == '!':
		l.pos++
		if l.pos < len(l.src) && (l.src[l.pos] == '=' || (c == '<' && l.src[l.pos] == '>')) {
			l.pos++
		} else if c == '!' {
			return token{}, fmt.Errorf("sql: stray '!' at %d", start)
		}
		return token{tokSymbol, l.src[start:l.pos], start}, nil
	}
	return token{}, fmt.Errorf("sql: unexpected character %q at %d", c, start)
}

// skip advances past every byte whose class is in set.
func (l *lexer) skip(set uint8) {
	for l.pos < len(l.src) && byteClass[l.src[l.pos]]&set != 0 {
		l.pos++
	}
}

// lexString reads a quoted literal; a doubled quote inside it is one
// quote, as in standard SQL. The text is copied out of src so that a stored TEXT cell
// does not keep its whole INSERT statement alive.
func (l *lexer) lexString() (token, error) {
	start := l.pos
	escaped := false
	for l.pos++; l.pos < len(l.src); l.pos++ {
		if l.src[l.pos] != '\'' {
			continue
		}
		if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
			escaped = true
			l.pos++
			continue
		}
		text := l.src[start+1 : l.pos]
		if escaped {
			text = strings.ReplaceAll(text, "''", "'")
		} else {
			text = strings.Clone(text)
		}
		l.pos++
		return token{tokString, text, start}, nil
	}
	return token{}, fmt.Errorf("sql: unterminated string starting at %d", start)
}

// QuoteString renders a Go string as a SQL string literal.
func QuoteString(s string) string {
	return "'" + strings.ReplaceAll(s, "'", "''") + "'"
}
