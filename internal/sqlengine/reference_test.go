package sqlengine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
)

// refEngine is the executor the engine used before it had indexes, kept as
// the differential oracle: every statement is a full scan in row order,
// every WHERE column is looked up by name for every row, operators are
// compared as strings, SELECT copies what it returns and a snapshot is a
// deep copy. It shares nothing with the engine but the statement types
// and the error values.
type refEngine struct{ tables map[string]*refTable }

type refTable struct {
	name string
	cols []Column
	rows []Row
}

func newRef() *refEngine { return &refEngine{tables: map[string]*refTable{}} }

func (t *refTable) col(name string) (int, error) {
	for i, c := range t.cols {
		if c.Name == name {
			return i, nil
		}
	}
	return -1, fmt.Errorf("%w: %s.%s", ErrNoSuchColumn, t.name, name)
}

func (r *refEngine) table(name string) (*refTable, error) {
	if t, ok := r.tables[name]; ok {
		return t, nil
	}
	return nil, fmt.Errorf("%w: %s", ErrNoSuchTable, name)
}

func (r *refEngine) exec(stmt Statement) (Result, error) {
	switch s := stmt.(type) {
	case CreateStmt:
		if _, ok := r.tables[s.Table]; ok {
			return Result{}, ErrTableExists
		}
		seen := map[string]bool{}
		for _, c := range s.Columns {
			if seen[c.Name] {
				return Result{}, errors.New("duplicate column")
			}
			seen[c.Name] = true
		}
		r.tables[s.Table] = &refTable{name: s.Table, cols: append([]Column(nil), s.Columns...)}
		return Result{}, nil
	case InsertStmt:
		return r.insert(s)
	case SelectStmt:
		return r.sel(s)
	case UpdateStmt:
		return r.update(s)
	}
	return Result{}, fmt.Errorf("unknown statement %T", stmt)
}

func refCoerce(v Value, ct ColType) (Value, error) {
	switch x := v.(type) {
	case nil:
		return nil, nil
	case int64:
		if ct == TInt {
			return x, nil
		}
		if ct == TFloat {
			return float64(x), nil
		}
	case float64:
		if ct == TFloat {
			return x, nil
		}
	case string:
		if ct == TText {
			return x, nil
		}
	}
	return nil, ErrTypeMismatch
}

func (r *refEngine) insert(s InsertStmt) (Result, error) {
	t, err := r.table(s.Table)
	if err != nil {
		return Result{}, err
	}
	row := make(Row, len(t.cols))
	for i, cn := range s.Columns {
		ci, err := t.col(cn)
		if err != nil {
			return Result{}, err
		}
		if row[ci], err = refCoerce(s.Values[i], t.cols[ci].Type); err != nil {
			return Result{}, err
		}
	}
	t.rows = append(t.rows, row)
	return Result{Affected: 1}, nil
}

// scan evaluates conds on every row, in order, and fails on the first row
// that fails.
func (t *refTable) scan(conds []Cond) (hit []bool, n int, err error) {
	hit = make([]bool, len(t.rows))
rows:
	for i, row := range t.rows {
		for _, c := range conds {
			ci, err := t.col(c.Column)
			if err != nil {
				return nil, 0, err
			}
			ok, err := refCompare(row[ci], c.Op, c.Val)
			if err != nil {
				return nil, 0, err
			}
			if !ok {
				continue rows
			}
		}
		hit[i] = true
		n++
	}
	return hit, n, nil
}

// refCompare evaluates "cell op literal". NULL compares equal only to NULL
// under "=" and unequal under "!="; ordered comparisons with NULL are
// false.
func refCompare(cell Value, op string, lit Value) (bool, error) {
	if cell == nil || lit == nil {
		switch op {
		case "=":
			return cell == nil && lit == nil, nil
		case "!=":
			return (cell == nil) != (lit == nil), nil
		}
		return false, nil
	}
	switch a := cell.(type) {
	case int64:
		switch l := lit.(type) {
		case int64:
			return refOp(a, op, l)
		case float64:
			return refOp(float64(a), op, l)
		}
	case float64:
		switch l := lit.(type) {
		case float64:
			return refOp(a, op, l)
		case int64:
			return refOp(a, op, float64(l))
		}
	case string:
		if l, ok := lit.(string); ok {
			return refOp(a, op, l)
		}
	}
	return false, ErrTypeMismatch
}

func refOp[T int64 | float64 | string](a T, op string, b T) (bool, error) {
	switch op {
	case "=":
		return a == b, nil
	case "!=":
		return a != b, nil
	case "<":
		return a < b, nil
	case ">":
		return a > b, nil
	case "<=":
		return a <= b, nil
	case ">=":
		return a >= b, nil
	}
	return false, fmt.Errorf("sql: bad operator %q", op)
}

func (r *refEngine) sel(s SelectStmt) (Result, error) {
	t, err := r.table(s.Table)
	if err != nil {
		return Result{}, err
	}
	hit, _, err := t.scan(s.Where)
	if err != nil {
		return Result{}, err
	}
	var matched []Row
	for i, row := range t.rows {
		if hit[i] {
			matched = append(matched, row)
		}
	}
	if s.OrderBy != "" {
		ci, err := t.col(s.OrderBy)
		if err != nil {
			return Result{}, err
		}
		sort.SliceStable(matched, func(i, j int) bool {
			if s.Desc {
				i, j = j, i
			}
			return refLess(matched[i][ci], matched[j][ci])
		})
	}
	if s.Limit >= 0 && len(matched) > s.Limit {
		matched = matched[:s.Limit]
	}
	if s.Count {
		return Result{Columns: []string{"count"}, Rows: []Row{{int64(len(matched))}}}, nil
	}
	var idx []int
	var names []string
	if s.Columns == nil {
		for i, c := range t.cols {
			idx, names = append(idx, i), append(names, c.Name)
		}
	}
	for _, cn := range s.Columns {
		ci, err := t.col(cn)
		if err != nil {
			return Result{}, err
		}
		idx, names = append(idx, ci), append(names, cn)
	}
	out := make([]Row, len(matched))
	for i, row := range matched {
		for _, ci := range idx {
			out[i] = append(out[i], row[ci])
		}
	}
	return Result{Columns: names, Rows: out}, nil
}

// refLess orders values of the same family; NULL sorts first.
func refLess(a, b Value) bool {
	if a == nil || b == nil {
		return a == nil && b != nil
	}
	switch x := a.(type) {
	case int64:
		switch y := b.(type) {
		case int64:
			return x < y
		case float64:
			return float64(x) < y
		}
	case float64:
		switch y := b.(type) {
		case float64:
			return x < y
		case int64:
			return x < float64(y)
		}
	case string:
		if y, ok := b.(string); ok {
			return x < y
		}
	}
	return false
}

func (r *refEngine) update(s UpdateStmt) (Result, error) {
	t, err := r.table(s.Table)
	if err != nil {
		return Result{}, err
	}
	assigned := map[string]Value{} // a column assigned twice keeps its last value
	for _, a := range s.Set {
		assigned[a.Column] = a.Val
	}
	names := make([]string, 0, len(assigned))
	for cn := range assigned {
		names = append(names, cn)
	}
	sort.Strings(names) // the first bad assignment, in name order, is the error
	set := map[int]Value{}
	for _, cn := range names {
		ci, err := t.col(cn)
		if err != nil {
			return Result{}, err
		}
		if set[ci], err = refCoerce(assigned[cn], t.cols[ci].Type); err != nil {
			return Result{}, err
		}
	}
	hit, n, err := t.scan(s.Where)
	if err != nil {
		return Result{}, err
	}
	for i, row := range t.rows {
		if hit[i] {
			for ci, v := range set {
				row[ci] = v // in place: the oracle shares no rows
			}
		}
	}
	return Result{Affected: n}, nil
}

func (r *refEngine) snapshot() *refEngine {
	cp := newRef()
	for name, t := range r.tables {
		nt := &refTable{name: t.name, cols: t.cols}
		for _, row := range t.rows {
			nt.rows = append(nt.rows, append(Row(nil), row...))
		}
		cp.tables[name] = nt
	}
	return cp
}

// fingerprint is the definition of Engine.Fingerprint, computed from
// scratch over the oracle's own rows with nothing maintained: the sum over
// tables of hash(hash(name, columns), digest, row count), where digest is the
// sum over rows of the hash of (position, cells) and a cell is a type tag
// followed by its raw bits.
func (r *refEngine) fingerprint() uint64 {
	var fp uint64
	for _, t := range r.tables {
		fp += refTableHash(t.name, t.cols, t.rows)
	}
	return fp
}

// RebuiltFingerprint applies the same definition to the engine's tables as
// they stand; FuzzParse compares it with the value the engine maintained.
func RebuiltFingerprint(e *Engine) uint64 {
	var fp uint64
	for _, t := range e.tables {
		fp += refTableHash(t.Name, t.Columns, t.Rows)
	}
	return fp
}

func refTableHash(name string, cols []Column, rows []Row) uint64 {
	schema := refText(nil, name)
	for _, c := range cols {
		schema = append(refText(schema, c.Name), uint64(c.Type))
	}
	var digest uint64
	for pos, row := range rows {
		words := []uint64{uint64(pos)}
		for _, v := range row {
			switch x := v.(type) {
			case nil:
				words = append(words, 'N')
			case int64:
				words = append(words, 'i', uint64(x))
			case float64:
				words = append(words, 'f', math.Float64bits(x))
			case string:
				words = refText(append(words, 's'), x)
			}
		}
		digest += refHash(0, words)
	}
	return refHash(refHash(0, schema), []uint64{digest, uint64(len(rows))})
}

// refText appends the length of s and its bytes, zero-padded to whole
// little-endian words.
func refText(words []uint64, s string) []uint64 {
	words = append(words, uint64(len(s)))
	b := append([]byte(s), make([]byte, (8-len(s)%8)%8)...)
	for ; len(b) > 0; b = b[8:] {
		words = append(words, binary.LittleEndian.Uint64(b))
	}
	return words
}

// refHash runs every word through splitmix64's finalizer, chained.
func refHash(h uint64, words []uint64) uint64 {
	for _, w := range words {
		h += w + 0x9e3779b97f4a7c15
		h ^= h >> 30
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
		h *= 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}
