package sqlmini

import (
	"fmt"
	"slices"
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
	n, nextAuto := len(t.Rows), t.NextAuto
	rows, res, err := t.InsertRows(ins)
	if err != nil {
		return nil, err
	}
	db.journal = append(db.journal, undoEntry{kind: undoInsert, t: t, n: n, nextAuto: nextAuto})
	for _, row := range rows {
		for ci, ix := range t.idx {
			if ix != nil {
				ix.Add(row[ci], len(t.Rows))
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return res, nil
}

// InsertRows applies an INSERT's row rules to t and returns the rows the
// statement adds, in statement order, with its result: each named column
// is looked up, each literal coerced to its column's type, and the
// auto-increment column filled from NextAuto — or, when the statement
// names that column, taken as given, with NextAuto advanced past it
// (MySQL behaviour). On success NextAuto has advanced; on error t is
// unchanged. The rows are not added to t: the live engine appends them
// to Rows and the versioned store opens a slot for each, so both store
// the rows these rules build.
func (t *Table) InsertRows(ins *Insert) ([][]Val, *Result, error) {
	colIdxs := make([]int, len(ins.Cols))
	explicitID := false
	for i, c := range ins.Cols {
		idx := t.ColIndex(c)
		if idx < 0 {
			return nil, nil, fmt.Errorf("sqlmini: no column %q in %q", c, ins.Table)
		}
		colIdxs[i] = idx
		explicitID = explicitID || idx == t.autoCol
	}
	next := t.NextAuto
	rows := make([][]Val, len(ins.Rows))
	res := &Result{Affected: int64(len(ins.Rows))}
	for r, vals := range ins.Rows {
		row := make([]Val, len(t.Cols))
		for i, v := range vals {
			cv, err := coerceCol(t.Cols[colIdxs[i]], v)
			if err != nil {
				return nil, nil, err
			}
			row[colIdxs[i]] = cv
		}
		if t.autoCol >= 0 && !explicitID {
			row[t.autoCol] = next
			res.InsertID = next
			next++
		} else if t.autoCol >= 0 {
			// Explicit id: advance the counter past it.
			if id, ok := row[t.autoCol].(int64); ok {
				res.InsertID = id
				if id >= next {
					next = id + 1
				}
			}
		}
		rows[r] = row
	}
	t.NextAuto = next
	return rows, res, nil
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
// is reordered and overwritten in place. The versioned store shares it,
// passing the version-visible rows that matched.
func SelectMatched(t *Table, sel *Select, matched [][]Val) (*Result, error) {
	if sel.Count {
		return &Result{Cols: []string{"count"}, Rows: [][]Val{{int64(len(matched))}}}, nil
	}
	// LIMIT / OFFSET, clamped to the matched rows without forming
	// Offset+Limit, which may overflow.
	n := int64(len(matched))
	start := min(sel.Offset, n)
	end := n
	if sel.Limit >= 0 && sel.Limit < n-start {
		end = start + sel.Limit
	}
	if len(sel.OrderBy) > 0 {
		cmp, err := orderCmp(t, sel.OrderBy)
		if err != nil {
			return nil, err
		}
		matched = topK(matched, int(end), cmp)
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

// orderCmp resolves an ORDER BY clause against t's schema into a row
// comparator: keys compared left to right by compareVals, DESC keys
// reversed.
func orderCmp(t *Table, keys []OrderKey) (func(a, b []Val) int, error) {
	cols := make([]int, len(keys))
	for i, k := range keys {
		if cols[i] = t.ColIndex(k.Col); cols[i] < 0 {
			return nil, fmt.Errorf("sqlmini: no column %q in ORDER BY", k.Col)
		}
	}
	return func(a, b []Val) int {
		for i, ci := range cols {
			if c := compareVals(a[ci], b[ci]); c != 0 {
				if keys[i].Desc {
					return -c
				}
				return c
			}
		}
		return 0
	}, nil
}

// topK returns the first k rows of matched's stable order under cmp,
// sorted, in matched's backing array (k <= len(matched)). Rows are keyed
// by (cmp, scan position), a total order, so sorting the keys is the
// stable sort. When k < len(matched) a bounded max-heap first keeps the
// k smallest rows seen: a later row displaces the heap's largest only if
// it compares strictly less, so ties keep the earlier row. That equality
// with the stable sort needs cmp to be a strict weak order, which
// compareVals is on values of one type, float NaN aside; where it is
// not, the result is still one deterministic function of the rows in
// scan order, shared by the server and the versioned store.
func topK(matched [][]Val, k int, cmp func(a, b []Val) int) [][]Val {
	if k <= 0 {
		return matched[:0]
	}
	type ranked struct {
		row []Val
		pos int
	}
	order := func(a, b ranked) int {
		if c := cmp(a.row, b.row); c != 0 {
			return c
		}
		return a.pos - b.pos
	}
	h := make([]ranked, k)
	for i := range h {
		h[i] = ranked{matched[i], i}
	}
	down := func(i int) {
		for {
			big := i
			if l := 2*i + 1; l < k && order(h[l], h[big]) > 0 {
				big = l
			}
			if r := 2*i + 2; r < k && order(h[r], h[big]) > 0 {
				big = r
			}
			if big == i {
				return
			}
			h[i], h[big] = h[big], h[i]
			i = big
		}
	}
	if k < len(matched) {
		for i := k/2 - 1; i >= 0; i-- {
			down(i)
		}
		for i := k; i < len(matched); i++ {
			if cmp(matched[i], h[0].row) < 0 {
				h[0] = ranked{matched[i], i}
				down(0)
			}
		}
	}
	slices.SortFunc(h, order)
	for i, r := range h {
		matched[i] = r.row
	}
	return matched[:k]
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
	plan, err := t.PlanSets(up)
	if err != nil {
		return nil, err
	}
	for _, ri := range matched {
		old := t.Rows[ri]
		row, err := plan.Apply(old)
		if err != nil {
			return nil, err
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

// SetPlan is an UPDATE's SET list resolved against a table's schema: the
// one place the row rules of UPDATE live, shared by the live engine and
// the versioned store.
type SetPlan struct {
	sets []setOp
}

type setOp struct {
	col  int
	base int   // the column a self-op (col = base ± n) reads; -1 for a literal
	val  Val   // the coerced literal, or the self-op's signed delta
	err  error // the literal does not fit the column
}

// PlanSets resolves up's SET list against t: every column it names must
// exist, whether or not a row matches. A literal that does not fit its
// column is not an error here; it fails the statement only when Apply
// updates a row.
func (t *Table) PlanSets(up *Update) (SetPlan, error) {
	sets := make([]setOp, len(up.Sets))
	for i, sc := range up.Sets {
		op := setOp{col: t.ColIndex(sc.Col), base: -1}
		if op.col < 0 {
			return SetPlan{}, fmt.Errorf("sqlmini: no column %q in %q", sc.Col, up.Table)
		}
		if sc.SelfOp == "" {
			op.val, op.err = coerceCol(t.Cols[op.col], sc.Val)
		} else {
			if op.base = t.ColIndex(sc.SelfBase); op.base < 0 {
				return SetPlan{}, fmt.Errorf("sqlmini: no column %q in SET expression", sc.SelfBase)
			}
			delta := toInt64(sc.Val)
			if sc.SelfOp == "-" {
				delta = -delta
			}
			op.val = delta
		}
		sets[i] = op
	}
	return SetPlan{sets: sets}, nil
}

// Apply returns the row that updating old yields: a fresh copy, so old
// stays valid for snapshots, undo journals and older versions. Each SET
// reads the row as the clauses before it left it.
func (p SetPlan) Apply(old []Val) ([]Val, error) {
	row := append([]Val(nil), old...)
	for _, s := range p.sets {
		switch {
		case s.err != nil:
			return nil, s.err
		case s.base >= 0:
			row[s.col] = toInt64(row[s.base]) + s.val.(int64)
		default:
			row[s.col] = s.val
		}
	}
	return row, nil
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

// toInt64 reads a value as an integer: a literal stored in an INT column,
// or the operand of a self-op (col = col ± n).
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
