package sqlengine

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// Errors returned by the engine.
var (
	ErrNoSuchTable  = errors.New("sql: no such table")
	ErrNoSuchColumn = errors.New("sql: no such column")
	ErrTableExists  = errors.New("sql: table already exists")
	ErrTypeMismatch = errors.New("sql: type mismatch")
)

// Row is one table row; indices align with the table's columns. A stored
// row is immutable: UPDATE replaces it instead of writing its cells, so
// snapshots share rows and results return them without copying.
type Row []Value

// Table is one in-memory table. Callers may read it but must not modify
// Rows or any row in it.
type Table struct {
	Name    string
	Columns []Column
	Rows    []Row

	names  []string   // column names, the Columns of every SELECT * result
	index  []*eqIndex // by column ordinal; nil until a statement uses it
	schema uint64     // hash of the name and the columns, fixed at CREATE
	digest uint64     // Σ rowDigest(i, Rows[i]), wrapping; every write path keeps it
}

func newTable(name string, cols []Column) *Table {
	t := &Table{Name: name, Columns: cols, names: make([]string, len(cols))}
	h := hash64(0).text(name)
	for i, c := range cols {
		t.names[i] = c.Name
		h = h.text(c.Name).word(uint64(c.Type))
	}
	t.schema = uint64(h)
	return t
}

func (t *Table) colIndex(name string) (int, error) {
	for i, c := range t.Columns {
		if c.Name == name {
			return i, nil
		}
	}
	return -1, fmt.Errorf("%w: %s.%s", ErrNoSuchColumn, t.Name, name)
}

// eqIndex answers "which rows hold v in this INT column": for every value
// a chain through the positions of the rows holding it, in ascending
// order. The engine builds one the first time a statement's leading
// condition is "column = integer literal", extends it on INSERT, and
// drops it when an UPDATE sets the column; the next such statement
// rebuilds it. Positions only ever grow: no statement removes a row.
type eqIndex struct {
	ends map[int64][2]int32 // value → first and last position holding it
	next []int32            // position → next position with the same value, -1 at the end
}

// add indexes the cell of the row at position len(ix.next).
func (ix *eqIndex) add(cell Value) {
	pos := int32(len(ix.next))
	ix.next = append(ix.next, -1)
	v, ok := cell.(int64)
	if !ok {
		return // NULL equals no literal
	}
	e, ok := ix.ends[v]
	if ok {
		ix.next[e[1]] = pos
	} else {
		e[0] = pos
	}
	e[1] = pos
	ix.ends[v] = e
}

// first returns the lowest position holding v, or -1.
func (ix *eqIndex) first(v int64) int32 {
	if e, ok := ix.ends[v]; ok {
		return e[0]
	}
	return -1
}

// Engine is one database instance (one MySQL replica's state).
type Engine struct {
	tables map[string]*Table
	writes uint64 // count of successfully executed write statements
}

// New returns an empty database.
func New() *Engine { return &Engine{tables: make(map[string]*Table)} }

// Result is the outcome of executing a statement. It is read-only: Rows of
// a SELECT * are the table's stored rows, and Columns may be the table's or
// the statement's own slice.
type Result struct {
	Columns  []string
	Rows     []Row
	Affected int
}

// Writes returns the number of write statements executed successfully.
func (e *Engine) Writes() uint64 { return e.writes }

// Tables returns table names sorted.
func (e *Engine) Tables() []string {
	names := make([]string, 0, len(e.tables))
	for n := range e.tables {
		names = append(names, n)
	}
	slices.Sort(names)
	return names
}

// Table returns the named table.
func (e *Engine) Table(name string) (*Table, bool) {
	t, ok := e.tables[name]
	return t, ok
}

// Exec parses and executes one SQL statement.
func (e *Engine) Exec(sql string) (Result, error) {
	stmt, err := Parse(sql)
	if err != nil {
		return Result{}, err
	}
	return e.ExecStmt(stmt)
}

// ExecStmt executes a parsed statement.
func (e *Engine) ExecStmt(stmt Statement) (Result, error) { return e.exec(stmt, nil, true) }

// Count executes stmt as ExecStmt does, with the same effect and the same
// error, and returns the number of rows instead of the rows: Affected for
// a write, and for a SELECT the length of the result, which it counts
// without sorting the matches, building a row or allocating. It is for
// the caller that needs to know whether the statement runs, not what it
// returns.
func (e *Engine) Count(stmt Statement) (int, error) {
	r, err := e.exec(stmt, nil, false)
	return r.Affected, err
}

// exec is every entry's one path: stmt, the arguments of its placeholders
// (none unless it comes from a Prepared), and whether a SELECT builds its
// rows or reports their number in Affected.
func (e *Engine) exec(stmt Statement, args []int64, rows bool) (Result, error) {
	switch s := stmt.(type) {
	case CreateStmt:
		return e.execCreate(s)
	case InsertStmt:
		return e.execInsert(s)
	case SelectStmt:
		return e.execSelect(s, args, rows)
	case UpdateStmt:
		return e.execUpdate(s, args)
	}
	return Result{}, fmt.Errorf("sql: unknown statement type %T", stmt)
}

func (e *Engine) execCreate(s CreateStmt) (Result, error) {
	if _, ok := e.tables[s.Table]; ok {
		return Result{}, fmt.Errorf("%w: %s", ErrTableExists, s.Table)
	}
	seen := map[string]bool{}
	for _, c := range s.Columns {
		if seen[c.Name] {
			return Result{}, fmt.Errorf("sql: duplicate column %q in CREATE TABLE %s", c.Name, s.Table)
		}
		seen[c.Name] = true
	}
	e.tables[s.Table] = newTable(s.Table, slices.Clone(s.Columns))
	e.writes++
	return Result{}, nil
}

// coerce converts a literal to the column type, allowing int→float.
func coerce(v Value, t ColType) (Value, error) {
	if v == nil {
		return nil, nil
	}
	switch t {
	case TInt:
		if _, ok := v.(int64); ok {
			return v, nil
		}
	case TFloat:
		switch n := v.(type) {
		case float64:
			return v, nil
		case int64:
			return float64(n), nil
		}
	case TText:
		if _, ok := v.(string); ok {
			return v, nil
		}
	}
	return nil, fmt.Errorf("%w: %v (%T) is not %s", ErrTypeMismatch, v, v, t)
}

func (e *Engine) execInsert(s InsertStmt) (Result, error) {
	t, ok := e.tables[s.Table]
	if !ok {
		return Result{}, fmt.Errorf("%w: %s", ErrNoSuchTable, s.Table)
	}
	row := make(Row, len(t.Columns)) // unassigned columns stay NULL
	for i, cn := range s.Columns {
		ci, err := t.colIndex(cn)
		if err != nil {
			return Result{}, err
		}
		v, err := coerce(s.Values[i], t.Columns[ci].Type)
		if err != nil {
			return Result{}, fmt.Errorf("column %s: %w", cn, err)
		}
		row[ci] = v
	}
	t.digest += rowDigest(len(t.Rows), row)
	t.Rows = append(t.Rows, row)
	for ci, ix := range t.index {
		if ix != nil {
			ix.add(row[ci])
		}
	}
	e.writes++
	return Result{Affected: 1}, nil
}

// How a cell stands to a literal. An operator is the set of relations it
// accepts, so evaluating a bound condition is one mask test.
const (
	relLT uint8 = 1 << iota
	relEQ       // both non-NULL and equal
	relGT
	relNone // unordered: NULL against a value, or a NaN
	relNull // NULL against NULL: equal under "=", and nothing else
)

func relation[T int64 | float64 | string](a, b T) uint8 {
	switch {
	case a < b:
		return relLT
	case a == b:
		return relEQ
	case a > b:
		return relGT
	}
	return relNone
}

// What the literal of a bound condition is.
const (
	litNull  uint8 = iota
	litInt         // n, and f = float64(n) for a FLOAT cell
	litFloat       // f
	litText        // s
	litBad         // a Go value that is no SQL literal; it fails on the row that meets it
)

// pred is one WHERE condition bound to a table: the column's ordinal, the
// operator's accepted relations and the literal's value are resolved once
// per statement, not once per row. The literal is held unboxed, so that a
// placeholder's argument takes its place without an allocation.
type pred struct {
	c      *Cond
	ci     int   // column ordinal; -1 if the table has no such column
	accept uint8 // 0 for an operator the engine does not know
	kind   uint8 // litNull ... litBad
	n      int64
	f      float64
	s      string
}

// lit returns the literal as a Value, for error texts.
func (p *pred) lit() Value {
	if _, ok := p.c.Val.(param); ok {
		return p.n
	}
	return p.c.Val
}

// bind resolves conds against t, a placeholder taking its argument from
// args. total reports that no condition can fail on any row: every column
// exists, every operator is known and every literal is NULL or of the
// column's family. (Failures are reported by the row that meets them, so
// an empty table accepts any WHERE clause.)
func (t *Table) bind(dst []pred, conds []Cond, args []int64) (preds []pred, total bool) {
	total = true
	for i := range conds {
		c := &conds[i]
		p := pred{c: c}
		p.ci, _ = t.colIndex(c.Column)
		switch c.Op {
		case "=":
			p.accept = relEQ | relNull
		case "!=":
			p.accept = relLT | relGT | relNone
		case "<":
			p.accept = relLT
		case ">":
			p.accept = relGT
		case "<=":
			p.accept = relLT | relEQ
		case ">=":
			p.accept = relGT | relEQ
		}
		switch v := c.Val.(type) {
		case nil:
		case param:
			p.kind, p.n, p.f = litInt, args[v], float64(args[v])
		case int64:
			p.kind, p.n, p.f = litInt, v, float64(v)
		case float64:
			p.kind, p.f = litFloat, v
		case string:
			p.kind, p.s = litText, v
		default:
			p.kind = litBad
		}
		switch {
		case p.ci < 0 || p.accept == 0 || p.kind == litBad:
			total = false
		case p.kind == litInt || p.kind == litFloat:
			total = total && t.Columns[p.ci].Type != TText
		case p.kind == litText:
			total = total && t.Columns[p.ci].Type == TText
		}
		dst = append(dst, p)
	}
	return dst, total
}

// holds evaluates "cell op literal" for each condition in order. NULL
// compares equal only to NULL under "=" and unequal under "!="; ordered
// comparisons with NULL are false.
func (t *Table) holds(preds []pred, row Row) (bool, error) {
	for i := range preds {
		p := &preds[i]
		if p.ci < 0 {
			_, err := t.colIndex(p.c.Column)
			return false, err
		}
		cell, rel := row[p.ci], relNone
		if cell == nil || p.kind == litNull {
			if cell == nil && p.kind == litNull {
				rel = relNull
			}
		} else {
			var err error
			if rel, err = p.relate(cell); err != nil {
				return false, err
			}
			if p.accept == 0 {
				return false, fmt.Errorf("sql: bad operator %q", p.c.Op)
			}
		}
		if p.accept&rel == 0 {
			return false, nil
		}
	}
	return true, nil
}

// relate compares a non-NULL cell with the condition's non-NULL literal;
// INT and FLOAT compare with each other, as floats.
func (p *pred) relate(cell Value) (uint8, error) {
	switch a := cell.(type) {
	case int64:
		switch p.kind {
		case litInt:
			return relation(a, p.n), nil
		case litFloat:
			return relation(float64(a), p.f), nil
		}
		return 0, fmt.Errorf("%w: comparing INT with %T", ErrTypeMismatch, p.lit())
	case float64:
		if p.kind == litInt || p.kind == litFloat {
			return relation(a, p.f), nil
		}
		return 0, fmt.Errorf("%w: comparing FLOAT with %T", ErrTypeMismatch, p.lit())
	case string:
		if p.kind == litText {
			return relation(a, p.s), nil
		}
		return 0, fmt.Errorf("%w: comparing TEXT with %T", ErrTypeMismatch, p.lit())
	}
	return 0, fmt.Errorf("%w: unsupported cell type %T", ErrTypeMismatch, cell)
}

// indexFor returns the equality index that serves the leading condition,
// building it on first use, or nil when that condition is not "INT
// column = integer literal". Only the leading condition qualifies: the
// rows it rejects are rejected by a scan too, before a later condition
// could fail on them, so skipping them changes neither results nor errors.
func (t *Table) indexFor(preds []pred) *eqIndex {
	if len(preds) == 0 {
		return nil
	}
	p := &preds[0]
	if p.kind != litInt || p.c.Op != "=" || p.ci < 0 || t.Columns[p.ci].Type != TInt {
		return nil
	}
	if t.index == nil {
		t.index = make([]*eqIndex, len(t.Columns))
	}
	ix := t.index[p.ci]
	if ix == nil {
		ix = &eqIndex{ends: make(map[int64][2]int32), next: make([]int32, 0, len(t.Rows))}
		for _, row := range t.Rows {
			ix.add(row[p.ci])
		}
		t.index[p.ci] = ix
	}
	return ix
}

// match is the one matcher every statement with a WHERE clause runs: it
// counts the rows that satisfy every condition, in ascending order of
// position, and with collect appends their positions to dst. With
// limit >= 0 it stops after that many, unless a condition could fail on a
// row not yet seen.
func (t *Table) match(dst []int32, collect bool, conds []Cond, args []int64, limit int) ([]int32, int, error) {
	var buf [4]pred
	preds, total := t.bind(buf[:0], conds, args)
	if !total {
		limit = -1
	}
	n := 0
	if ix := t.indexFor(preds); ix != nil {
		// The chain holds exactly the rows that pass the leading condition.
		for pos := ix.first(preds[0].n); pos >= 0 && n != limit; pos = ix.next[pos] {
			ok, err := t.holds(preds[1:], t.Rows[pos])
			if err != nil {
				return nil, 0, err
			}
			if ok {
				n++
				if collect {
					dst = append(dst, pos)
				}
			}
		}
		return dst, n, nil
	}
	for pos := 0; pos < len(t.Rows) && n != limit; pos++ {
		ok, err := t.holds(preds, t.Rows[pos])
		if err != nil {
			return nil, 0, err
		}
		if ok {
			n++
			if collect {
				dst = append(dst, int32(pos))
			}
		}
	}
	return dst, n, nil
}

// execSelect is the matcher, then the checks of the names the statement
// mentions, then - only when the rows are wanted - sort and projection.
// Without them the answer is the number of rows the result would hold, in
// Affected: as many matches as LIMIT lets through, whatever their order,
// and one row for COUNT(*), however many it counts.
func (e *Engine) execSelect(s SelectStmt, args []int64, rows bool) (Result, error) {
	t, ok := e.tables[s.Table]
	if !ok {
		return Result{}, fmt.Errorf("%w: %s", ErrNoSuchTable, s.Table)
	}
	limit := s.Limit
	switch {
	case !rows && s.Count:
		limit = 0 // no match changes the answer; the scan is for a condition that fails
	case rows && s.OrderBy != "":
		limit = -1 // the first rows in sort order may be the last in the table
	}
	var buf [64]int32
	pos, n, err := t.match(buf[:0], rows, s.Where, args, limit)
	if err != nil {
		return Result{}, err
	}
	if s.OrderBy != "" {
		ci, err := t.colIndex(s.OrderBy)
		if err != nil {
			return Result{}, err
		}
		if rows {
			slices.SortStableFunc(pos, func(a, b int32) int {
				if s.Desc {
					a, b = b, a
				}
				return cmpValue(t.Rows[a][ci], t.Rows[b][ci])
			})
		}
	}
	if s.Limit >= 0 && n > s.Limit {
		n = s.Limit
	}
	if s.Count {
		if !rows {
			return Result{Affected: 1}, nil
		}
		return Result{Columns: []string{"count"}, Rows: []Row{{int64(n)}}}, nil
	}
	var ibuf [8]int
	idx := ibuf[:0]
	for _, cn := range s.Columns {
		ci, err := t.colIndex(cn)
		if err != nil {
			return Result{}, err
		}
		idx = append(idx, ci)
	}
	if !rows {
		return Result{Affected: n}, nil
	}
	pos = pos[:n]
	out := make([]Row, n)
	if s.Columns == nil {
		for i, p := range pos {
			out[i] = t.Rows[p]
		}
		return Result{Columns: t.names, Rows: out}, nil
	}
	cells := make([]Value, n*len(idx)) // one array for every projected row
	for i, p := range pos {
		out[i], cells = cells[:len(idx):len(idx)], cells[len(idx):]
		for j, ci := range idx {
			out[i][j] = t.Rows[p][ci]
		}
	}
	return Result{Columns: s.Columns, Rows: out}, nil
}

// cmpValue orders values of the same family for ORDER BY; NULL sorts
// first. Values it cannot order compare equal and keep their row order.
func cmpValue(a, b Value) int {
	switch x := a.(type) {
	case nil:
		if b != nil {
			return -1
		}
	case int64:
		switch y := b.(type) {
		case nil:
			return 1
		case int64:
			return threeWay(x, y)
		case float64:
			return threeWay(float64(x), y)
		}
	case float64:
		switch y := b.(type) {
		case nil:
			return 1
		case float64:
			return threeWay(x, y)
		case int64:
			return threeWay(x, float64(y))
		}
	case string:
		switch y := b.(type) {
		case nil:
			return 1
		case string:
			return threeWay(x, y)
		}
	}
	return 0
}

func threeWay[T int64 | float64 | string](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func (e *Engine) execUpdate(s UpdateStmt, args []int64) (Result, error) {
	t, ok := e.tables[s.Table]
	if !ok {
		return Result{}, fmt.Errorf("%w: %s", ErrNoSuchTable, s.Table)
	}
	// Validate assignments before mutating anything.
	type setOp struct {
		ci int
		v  Value
	}
	cols := make([]string, 0, len(s.Set))
	for cn := range s.Set {
		cols = append(cols, cn)
	}
	slices.Sort(cols)
	ops := make([]setOp, 0, len(cols))
	for _, cn := range cols {
		ci, err := t.colIndex(cn)
		if err != nil {
			return Result{}, err
		}
		v, err := coerce(s.Set[cn], t.Columns[ci].Type)
		if err != nil {
			return Result{}, fmt.Errorf("column %s: %w", cn, err)
		}
		ops = append(ops, setOp{ci: ci, v: v})
	}
	var buf [64]int32
	pos, _, err := t.match(buf[:0], true, s.Where, args, -1)
	if err != nil {
		return Result{}, err
	}
	for _, p := range pos {
		old := t.Rows[p]
		row := slices.Clone(old) // the old row may be shared
		for _, op := range ops {
			row[op.ci] = op.v
		}
		t.digest += rowDigest(int(p), row) - rowDigest(int(p), old)
		t.Rows[p] = row
	}
	if len(pos) > 0 && t.index != nil {
		for _, op := range ops {
			t.index[op.ci] = nil
		}
	}
	e.writes++
	return Result{Affected: len(pos)}, nil
}

// Snapshot returns a copy of the database — the "initial known state"
// installed on a fresh replica before the recovery log replays the delta.
// The copy shares the (immutable) rows and schema with the original and
// owns only its row lists; it has no indexes until its statements ask
// for them.
func (e *Engine) Snapshot() *Engine {
	cp := New()
	cp.writes = e.writes
	for name, t := range e.tables {
		cp.tables[name] = &Table{Name: t.Name, Columns: t.Columns, Rows: slices.Clone(t.Rows),
			names: t.names, schema: t.schema, digest: t.digest}
	}
	return cp
}

// hash64 is a running 64-bit hash over a sequence of words. Each word goes
// through the splitmix64 finalizer, a bijection of the state that spreads
// every input bit over the whole word.
type hash64 uint64

func (h hash64) word(w uint64) hash64 {
	x := uint64(h) + w + 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return hash64(x ^ x>>31)
}

// text feeds the length of s, then its bytes eight to a word, little-endian,
// the last word zero-padded: the length says where the text ends.
func (h hash64) text(s string) hash64 {
	h = h.word(uint64(len(s)))
	for ; len(s) >= 8; s = s[8:] {
		h = h.word(uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
			uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56)
	}
	if len(s) > 0 {
		var w uint64
		for i := len(s) - 1; i >= 0; i-- {
			w = w<<8 | uint64(s[i])
		}
		h = h.word(w)
	}
	return h
}

// rowDigest hashes the row standing at position pos of its table: the
// position, then for every cell a type tag and the value's raw bits (none
// for NULL, the length-prefixed bytes for TEXT), so that the words of one
// cell cannot be read as another's.
func rowDigest(pos int, row Row) uint64 {
	h := hash64(0).word(uint64(pos))
	for _, v := range row {
		switch x := v.(type) {
		case nil:
			h = h.word('N')
		case int64:
			h = h.word('i').word(uint64(x))
		case float64:
			h = h.word('f').word(math.Float64bits(x))
		case string:
			h = h.word('s').text(x)
		}
	}
	return uint64(h)
}

// Fingerprint returns a content hash of the full database state (schema +
// rows, order-independent across tables, order-dependent within a table as
// row order is part of engine state). Two replicas are consistent iff their
// fingerprints are equal. It is a pure function of that state, whatever
// statements led to it, and costs one step per table: the rows are hashed
// when they are written (INSERT and UPDATE hash the rows they touch),
// never here. The value is
// compared, not recorded: it may differ from one commit to the next.
func (e *Engine) Fingerprint() uint64 {
	var fp uint64
	for _, t := range e.tables {
		fp += uint64(hash64(t.schema).word(t.digest).word(uint64(len(t.Rows))))
	}
	return fp
}

// RowCount returns the number of rows in a table (0 if absent).
func (e *Engine) RowCount(table string) int {
	if t, ok := e.tables[table]; ok {
		return len(t.Rows)
	}
	return 0
}
