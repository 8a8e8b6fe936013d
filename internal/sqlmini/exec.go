package sqlmini

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// execStmt executes a parsed statement; the caller holds db.mu — the
// read lock suffices for SELECT (which never mutates table state), all
// other statements require the write lock.
func (db *DB) execStmt(s Stmt) (*Result, error) {
	switch x := s.(type) {
	case *CreateTable:
		return db.execCreate(x)
	case *Insert:
		return db.execInsert(x)
	case *Select:
		return db.execSelect(x)
	case *Update:
		return db.execUpdate(x)
	case *Delete:
		return db.execDelete(x)
	default:
		return nil, fmt.Errorf("sqlmini: unknown statement %T", s)
	}
}

func (db *DB) table(name string) (*Table, error) {
	t, ok := db.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("sqlmini: no such table %q", name)
	}
	return t, nil
}

func (db *DB) execCreate(c *CreateTable) (*Result, error) {
	lname := strings.ToLower(c.Table)
	if _, exists := db.tables[lname]; exists {
		return nil, fmt.Errorf("sqlmini: table %q already exists", c.Table)
	}
	t, err := newTable(c.Table, c.Cols)
	if err != nil {
		return nil, err
	}
	db.tables[lname] = t
	db.journal = append(db.journal, undoEntry{kind: undoCreate, t: t})
	return &Result{}, nil
}

func (db *DB) execInsert(ins *Insert) (*Result, error) {
	t, err := db.table(ins.Table)
	if err != nil {
		return nil, err
	}
	colIdxs := make([]int, len(ins.Cols))
	explicitID := false
	for i, c := range ins.Cols {
		idx := t.ColIndex(c)
		if idx < 0 {
			return nil, fmt.Errorf("sqlmini: no column %q in %q", c, ins.Table)
		}
		colIdxs[i] = idx
		explicitID = explicitID || idx == t.autoCol
	}
	db.journal = append(db.journal, undoEntry{kind: undoInsert, t: t, n: len(t.Rows), nextAuto: t.NextAuto})
	res := &Result{}
	for _, vals := range ins.Rows {
		row := make([]Val, len(t.Cols))
		for i, v := range vals {
			cv, err := coerceCol(t.Cols[colIdxs[i]], v)
			if err != nil {
				return nil, err
			}
			row[colIdxs[i]] = cv
		}
		if t.autoCol >= 0 && !explicitID {
			row[t.autoCol] = t.NextAuto
			res.InsertID = t.NextAuto
			t.NextAuto++
		} else if t.autoCol >= 0 {
			// Explicit id: advance the counter past it (MySQL behaviour).
			if id, ok := row[t.autoCol].(int64); ok {
				res.InsertID = id
				if id >= t.NextAuto {
					t.NextAuto = id + 1
				}
			}
		}
		for ci, ix := range t.idx {
			if ix != nil {
				ix.Add(row[ci], len(t.Rows))
			}
		}
		t.Rows = append(t.Rows, row)
		res.Affected++
	}
	return res, nil
}

func (db *DB) execSelect(sel *Select) (*Result, error) {
	t, err := db.table(sel.Table)
	if err != nil {
		return nil, err
	}
	pos, err := t.matching(sel.Where)
	if err != nil {
		return nil, err
	}
	matched := make([][]Val, len(pos))
	for i, ri := range pos {
		matched[i] = t.Rows[ri]
	}
	return SelectMatched(t, sel, matched)
}

// SelectMatched finishes a SELECT given the rows that satisfied its WHERE
// clause, in scan order: COUNT(*), stable ORDER BY, LIMIT/OFFSET, then
// projection into fresh result rows. t supplies the schema only; matched
// is reordered in place. The versioned store shares it, passing the
// version-visible rows that matched.
func SelectMatched(t *Table, sel *Select, matched [][]Val) (*Result, error) {
	if sel.Count {
		return &Result{Cols: []string{"count"}, Rows: [][]Val{{int64(len(matched))}}}, nil
	}
	if len(sel.OrderBy) > 0 {
		keys := make([]int, len(sel.OrderBy))
		for i, ok := range sel.OrderBy {
			ci := t.ColIndex(ok.Col)
			if ci < 0 {
				return nil, fmt.Errorf("sqlmini: no column %q in ORDER BY", ok.Col)
			}
			keys[i] = ci
		}
		sort.SliceStable(matched, func(a, b int) bool {
			ra, rb := matched[a], matched[b]
			for i, ci := range keys {
				c := compareVals(ra[ci], rb[ci])
				if c == 0 {
					continue
				}
				if sel.OrderBy[i].Desc {
					return c > 0
				}
				return c < 0
			}
			return false
		})
	}
	// LIMIT / OFFSET.
	start := sel.Offset
	if start > int64(len(matched)) {
		start = int64(len(matched))
	}
	end := int64(len(matched))
	if sel.Limit >= 0 && start+sel.Limit < end {
		end = start + sel.Limit
	}
	matched = matched[start:end]
	// Projection.
	var outCols []string
	var proj []int
	if sel.Cols == nil {
		outCols = make([]string, len(t.Cols))
		proj = make([]int, len(t.Cols))
		for i, c := range t.Cols {
			outCols[i] = c.Name
			proj[i] = i
		}
	} else {
		outCols = sel.Cols
		proj = make([]int, len(sel.Cols))
		for i, c := range sel.Cols {
			ci := t.ColIndex(c)
			if ci < 0 {
				return nil, fmt.Errorf("sqlmini: no column %q in %q", c, sel.Table)
			}
			proj[i] = ci
		}
	}
	rows := make([][]Val, len(matched))
	for i, src := range matched {
		row := make([]Val, len(proj))
		for j, ci := range proj {
			row[j] = src[ci]
		}
		rows[i] = row
	}
	return &Result{Cols: outCols, Rows: rows}, nil
}

func (db *DB) execUpdate(up *Update) (*Result, error) {
	t, err := db.table(up.Table)
	if err != nil {
		return nil, err
	}
	matched, err := t.matching(up.Where)
	if err != nil {
		return nil, err
	}
	type setOp struct {
		col  int
		val  Val // the coerced literal, or the self-op's delta
		err  error
		self bool
		base int
	}
	sets := make([]setOp, len(up.Sets))
	for i, sc := range up.Sets {
		ci := t.ColIndex(sc.Col)
		if ci < 0 {
			return nil, fmt.Errorf("sqlmini: no column %q in %q", sc.Col, up.Table)
		}
		op := setOp{col: ci, self: sc.SelfOp != ""}
		if op.self {
			if op.base = t.ColIndex(sc.SelfBase); op.base < 0 {
				return nil, fmt.Errorf("sqlmini: no column %q in SET expression", sc.SelfBase)
			}
			delta := toInt64(sc.Val)
			if sc.SelfOp == "-" {
				delta = -delta
			}
			op.val = delta
		} else {
			// A literal that does not fit the column fails the statement
			// only if some row is actually updated.
			op.val, op.err = coerceCol(t.Cols[ci], sc.Val)
		}
		sets[i] = op
	}
	for _, ri := range matched {
		old := t.Rows[ri]
		row := append([]Val(nil), old...)
		for _, s := range sets {
			switch {
			case s.err != nil:
				return nil, s.err
			case s.self:
				row[s.col] = toInt64(row[s.base]) + s.val.(int64)
			default:
				row[s.col] = s.val
			}
		}
		db.journal = append(db.journal, undoEntry{kind: undoUpdate, t: t, n: ri, row: old})
		t.Rows[ri] = row
		for ci, ix := range t.idx {
			if ix != nil && old[ci] != row[ci] {
				ix.Remove(old[ci], ri)
				ix.Add(row[ci], ri)
			}
		}
	}
	return &Result{Affected: int64(len(matched))}, nil
}

func (db *DB) execDelete(del *Delete) (*Result, error) {
	t, err := db.table(del.Table)
	if err != nil {
		return nil, err
	}
	matched, err := t.matching(del.Where)
	if err != nil {
		return nil, err
	}
	if len(matched) == 0 {
		return &Result{}, nil
	}
	// Compact into a fresh slice: the journal keeps the old one, whole, as
	// the pre-image, and row positions shift, so the indexes start over.
	kept := make([][]Val, 0, len(t.Rows)-len(matched))
	next := 0
	for _, ri := range matched {
		kept = append(kept, t.Rows[next:ri]...)
		next = ri + 1
	}
	kept = append(kept, t.Rows[next:]...)
	db.journal = append(db.journal, undoEntry{kind: undoDelete, t: t, rows: t.Rows})
	t.Rows, t.idx = kept, nil
	return &Result{Affected: int64(len(matched))}, nil
}

// CoerceCol converts a literal to the column's storage type (exported for
// the versioned store's redo pass).
func CoerceCol(c Column, v Val) (Val, error) {
	return coerceCol(c, v)
}

// matching returns the positions of the rows satisfying cond, ascending
// (insertion order), through an equality index where cond allows one.
func (t *Table) matching(cond Cond) ([]int, error) {
	return Bind(t, cond).Filter(len(t.Rows), t.index, func(pos int) []Val { return t.Rows[pos] })
}

// likeMatch implements SQL LIKE with % (any run) and _ (any char).
func likeMatch(s, pattern string) bool {
	// Dynamic programming over the pattern.
	return likeRec(s, pattern)
}

func likeRec(s, p string) bool {
	for len(p) > 0 {
		switch p[0] {
		case '%':
			// Collapse consecutive %.
			for len(p) > 0 && p[0] == '%' {
				p = p[1:]
			}
			if len(p) == 0 {
				return true
			}
			for i := 0; i <= len(s); i++ {
				if likeRec(s[i:], p) {
					return true
				}
			}
			return false
		case '_':
			if len(s) == 0 {
				return false
			}
			s, p = s[1:], p[1:]
		default:
			if len(s) == 0 || s[0] != p[0] {
				return false
			}
			s, p = s[1:], p[1:]
		}
	}
	return len(s) == 0
}

// compareVals orders two non-nil SQL values: numbers numerically,
// otherwise as strings. nil sorts before everything (for ORDER BY).
func compareVals(a, b Val) int {
	if a == nil || b == nil {
		switch {
		case a == nil && b == nil:
			return 0
		case a == nil:
			return -1
		default:
			return 1
		}
	}
	af, aNum := numeric(a)
	bf, bNum := numeric(b)
	if aNum && bNum {
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		default:
			return 0
		}
	}
	as, bs := valToString(a), valToString(b)
	switch {
	case as < bs:
		return -1
	case as > bs:
		return 1
	default:
		return 0
	}
}

func numeric(v Val) (float64, bool) {
	switch x := v.(type) {
	case int64:
		return float64(x), true
	case float64:
		return x, true
	default:
		return 0, false
	}
}

func valToString(v Val) string {
	switch x := v.(type) {
	case nil:
		return ""
	case string:
		return x
	case int64:
		return strconv.FormatInt(x, 10)
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	default:
		return fmt.Sprintf("%v", v)
	}
}

func toInt64(v Val) int64 {
	switch x := v.(type) {
	case int64:
		return x
	case float64:
		return int64(x)
	case string:
		var n int64
		fmt.Sscanf(x, "%d", &n)
		return n
	default:
		return 0
	}
}

// coerceCol converts a literal to the column's storage type.
func coerceCol(c Column, v Val) (Val, error) {
	if v == nil {
		return nil, nil
	}
	switch c.Type {
	case IntCol:
		switch x := v.(type) {
		case int64:
			return x, nil
		case float64:
			return int64(x), nil
		case string:
			return toInt64(x), nil
		}
	case FloatCol:
		switch x := v.(type) {
		case int64:
			return float64(x), nil
		case float64:
			return x, nil
		}
	case TextCol:
		return valToString(v), nil
	}
	return nil, fmt.Errorf("sqlmini: cannot store %T in %s column %q", v, c.Type, c.Name)
}
