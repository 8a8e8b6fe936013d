package sqlmini

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// The row-at-a-time evaluator the engine used before conditions were
// bound and indexed, kept as the reference the bound/indexed path is
// compared against: it resolves every column name per row and always
// scans the whole table.

func filterRows(t *Table, cond Cond) ([]int, error) {
	out := make([]int, 0, len(t.Rows))
	for i, row := range t.Rows {
		ok, err := evalCond(t, row, cond)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, i)
		}
	}
	return out, nil
}

func evalCond(t *Table, row []Val, cond Cond) (bool, error) {
	if cond == nil {
		return true, nil
	}
	switch c := cond.(type) {
	case *AndCond:
		l, err := evalCond(t, row, c.L)
		if err != nil || !l {
			return false, err
		}
		return evalCond(t, row, c.R)
	case *OrCond:
		l, err := evalCond(t, row, c.L)
		if err != nil {
			return false, err
		}
		if l {
			return true, nil
		}
		return evalCond(t, row, c.R)
	case *NotCond:
		v, err := evalCond(t, row, c.C)
		if err != nil {
			return false, err
		}
		return !v, nil
	case *CmpCond:
		ci := t.ColIndex(c.Col)
		if ci < 0 {
			return false, fmt.Errorf("sqlmini: no column %q", c.Col)
		}
		cell := row[ci]
		if cell == nil || c.Val == nil {
			// SQL three-valued logic, restricted: NULL matches only "= NULL"/"!= NULL".
			switch c.Op {
			case "=":
				return cell == nil && c.Val == nil, nil
			case "!=", "<>":
				return (cell == nil) != (c.Val == nil), nil
			default:
				return false, nil
			}
		}
		cmp := compareVals(cell, c.Val)
		switch c.Op {
		case "=":
			return cmp == 0, nil
		case "!=", "<>":
			return cmp != 0, nil
		case "<":
			return cmp < 0, nil
		case "<=":
			return cmp <= 0, nil
		case ">":
			return cmp > 0, nil
		case ">=":
			return cmp >= 0, nil
		default:
			return false, fmt.Errorf("sqlmini: bad operator %q", c.Op)
		}
	case *LikeCond:
		ci := t.ColIndex(c.Col)
		if ci < 0 {
			return false, fmt.Errorf("sqlmini: no column %q", c.Col)
		}
		s, ok := row[ci].(string)
		if !ok {
			s = valToString(row[ci])
		}
		return likeMatch(s, c.Pattern), nil
	case *InCond:
		ci := t.ColIndex(c.Col)
		if ci < 0 {
			return false, fmt.Errorf("sqlmini: no column %q", c.Col)
		}
		for _, v := range c.Vals {
			if v == nil || row[ci] == nil {
				if v == nil && row[ci] == nil {
					return true, nil
				}
				continue
			}
			if compareVals(row[ci], v) == 0 {
				return true, nil
			}
		}
		return false, nil
	default:
		return false, fmt.Errorf("sqlmini: unknown condition %T", cond)
	}
}

// scanSelect answers sel the old way: oracle filter over the whole table,
// then the oracle's own ORDER BY/LIMIT/projection tail.
func scanSelect(t *Table, sel *Select) (*Result, error) {
	pos, err := filterRows(t, sel.Where)
	if err != nil {
		return nil, err
	}
	rows := make([][]Val, len(pos))
	for i, ri := range pos {
		rows[i] = t.Rows[ri]
	}
	return scanTail(t, sel, rows)
}

// scanTail is the tail SelectMatched had before LIMIT became a top-k
// selection: a stable sort of every matched row, then the OFFSET/LIMIT
// slice (computed in uint64, so a sum past MaxInt64 does not wrap), then
// projection.
func scanTail(t *Table, sel *Select, matched [][]Val) (*Result, error) {
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
	start := uint64(sel.Offset)
	end := uint64(len(matched))
	if start > end {
		start = end
	}
	if sel.Limit >= 0 && start+uint64(sel.Limit) < end {
		end = start + uint64(sel.Limit)
	}
	matched = matched[start:end]
	proj := make([]int, 0, len(t.Cols))
	outCols := sel.Cols
	if outCols == nil {
		for i, c := range t.Cols {
			outCols = append(outCols, c.Name)
			proj = append(proj, i)
		}
	} else {
		for _, c := range sel.Cols {
			ci := t.ColIndex(c)
			if ci < 0 {
				return nil, fmt.Errorf("sqlmini: no column %q in %q", c, sel.Table)
			}
			proj = append(proj, ci)
		}
	}
	rows := make([][]Val, len(matched))
	for i, src := range matched {
		rows[i] = make([]Val, len(proj))
		for j, ci := range proj {
			rows[i][j] = src[ci]
		}
	}
	return &Result{Cols: outCols, Rows: rows}, nil
}

// fuzzGen drives one differential run from a seed.
type fuzzGen struct {
	rng  *rand.Rand
	cols []Column
}

func (g *fuzzGen) literal(ct ColType) string {
	if g.rng.Intn(8) == 0 {
		return "NULL"
	}
	// Small domains, so equality predicates hit; cross-type literals, so
	// the index's number/text rules are exercised.
	switch ct {
	case IntCol:
		return strconv.Itoa(g.rng.Intn(5) - 1)
	case FloatCol:
		return []string{"0.5", "1", "2.0", "-1.5", "3"}[g.rng.Intn(5)]
	default:
		return []string{"'a'", "'b'", "'1'", "'2.0'", "''", "'0.5'"}[g.rng.Intn(6)]
	}
}

func (g *fuzzGen) anyLiteral() string {
	return g.literal([]ColType{IntCol, FloatCol, TextCol}[g.rng.Intn(3)])
}

func (g *fuzzGen) colName() string {
	if g.rng.Intn(25) == 0 {
		return "nosuch" // errors must surface exactly when a scan would raise them
	}
	return g.cols[g.rng.Intn(len(g.cols))].Name
}

func (g *fuzzGen) cond(depth int) string {
	if depth > 0 && g.rng.Intn(2) == 0 {
		switch g.rng.Intn(3) {
		case 0:
			return "(" + g.cond(depth-1) + " AND " + g.cond(depth-1) + ")"
		case 1:
			return "(" + g.cond(depth-1) + " OR " + g.cond(depth-1) + ")"
		default:
			return "NOT " + "(" + g.cond(depth-1) + ")"
		}
	}
	col := g.colName()
	switch g.rng.Intn(6) {
	case 0, 1, 2:
		return col + " = " + g.anyLiteral()
	case 3:
		n := 1 + g.rng.Intn(3)
		vals := make([]string, n)
		for i := range vals {
			vals[i] = g.anyLiteral()
		}
		return col + " IN (" + strings.Join(vals, ", ") + ")"
	case 4:
		return col + " " + []string{"!=", "<", "<=", ">", ">=", "<>"}[g.rng.Intn(6)] + " " + g.anyLiteral()
	default:
		return col + " LIKE " + []string{"'a%'", "'%1'", "'_'", "'%'"}[g.rng.Intn(4)]
	}
}

func (g *fuzzGen) where() string {
	if g.rng.Intn(6) == 0 {
		return ""
	}
	return " WHERE " + g.cond(2)
}

func (g *fuzzGen) selectStmt() string {
	s := "SELECT "
	switch g.rng.Intn(3) {
	case 0:
		s += "*"
	case 1:
		s += "COUNT(*)"
	default:
		s += g.cols[g.rng.Intn(len(g.cols))].Name + ", " + g.cols[g.rng.Intn(len(g.cols))].Name
	}
	s += " FROM t" + g.where()
	if g.rng.Intn(3) != 0 {
		keys := make([]string, 1+g.rng.Intn(3))
		for i := range keys {
			keys[i] = g.colName() + []string{"", " ASC", " DESC"}[g.rng.Intn(3)]
		}
		s += " ORDER BY " + strings.Join(keys, ", ")
	}
	// LIMIT from 0 to past the ~20 rows a history typically grows, so
	// both the top-k and the full-sort branch run; OFFSET, and the shape
	// whose Offset+Limit overflows int64.
	switch g.rng.Intn(8) {
	case 0, 1, 2:
	case 3:
		s += " LIMIT 9223372036854775807 OFFSET " + strconv.Itoa(1+g.rng.Intn(3))
	default:
		s += " LIMIT " + strconv.Itoa(g.rng.Intn(48))
		if g.rng.Intn(2) == 0 {
			s += " OFFSET " + strconv.Itoa(g.rng.Intn(6))
		}
	}
	return s
}

func (g *fuzzGen) writeStmt() string {
	switch g.rng.Intn(6) {
	case 0, 1, 2:
		var names, vals []string
		for _, c := range g.cols {
			if c.AutoInc && g.rng.Intn(4) != 0 {
				continue
			}
			names = append(names, c.Name)
			vals = append(vals, g.literal(c.Type))
		}
		return "INSERT INTO t (" + strings.Join(names, ", ") + ") VALUES (" + strings.Join(vals, ", ") + ")"
	case 3, 4:
		c := g.cols[g.rng.Intn(len(g.cols))]
		set := c.Name + " = " + g.literal(c.Type)
		if c.Type == IntCol && g.rng.Intn(2) == 0 {
			set = c.Name + " = " + c.Name + " + 1"
		}
		return "UPDATE t SET " + set + g.where()
	default:
		return "DELETE FROM t WHERE " + g.cond(1)
	}
}

// FuzzSelectIndexedVsScan checks the bound, index-assisted path against
// the row-at-a-time scan on random schemas, data and statement
// interleavings: every SELECT returns the same rows in the same order
// (or the same error), and every UPDATE/DELETE touches exactly the rows
// the scan selects. Indexes come into being at arbitrary points of the
// history (a probe builds one) and are then maintained by the writes,
// dropped by deletes and rollbacks, and rebuilt.
func FuzzSelectIndexedVsScan(f *testing.F) {
	for seed := int64(0); seed < 40; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		g := &fuzzGen{rng: rand.New(rand.NewSource(seed))}
		types := []ColType{IntCol, FloatCol, TextCol}
		defs := []string{}
		for i := 0; i < 2+g.rng.Intn(3); i++ {
			c := Column{Name: fmt.Sprintf("c%d", i), Type: types[g.rng.Intn(3)]}
			if i == 0 && g.rng.Intn(2) == 0 {
				c.Type, c.AutoInc = IntCol, true
			}
			def := c.Name + " " + c.Type.String()
			if c.AutoInc {
				def += " AUTOINCREMENT"
			}
			g.cols, defs = append(g.cols, c), append(defs, def)
		}
		db := NewDB()
		if _, err := db.Exec("CREATE TABLE t (" + strings.Join(defs, ", ") + ")"); err != nil {
			t.Fatal(err)
		}
		tbl := db.tables["t"]
		for step := 0; step < 60; step++ {
			if g.rng.Intn(3) == 0 {
				sql := g.selectStmt()
				st, err := Parse(sql)
				if err != nil {
					t.Fatalf("%s: %v", sql, err)
				}
				want, werr := scanSelect(tbl, st.(*Select))
				got, gerr := db.Exec(sql)
				if fmt.Sprint(werr) != fmt.Sprint(gerr) {
					t.Fatalf("seed %d step %d %s: scan error %v, indexed error %v", seed, step, sql, werr, gerr)
				}
				if werr == nil && fmt.Sprint(want.Cols, want.Rows) != fmt.Sprint(got.Cols, got.Rows) {
					t.Fatalf("seed %d step %d %s:\nscan    %v\nindexed %v", seed, step, sql, want.Rows, got.Rows)
				}
				continue
			}
			// A write transaction; one in five carries a poison statement
			// after the write, so the journal has real work to undo.
			sql := g.writeStmt()
			st, err := Parse(sql)
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			before := append([][]Val(nil), tbl.Rows...)
			beforeAuto := tbl.NextAuto
			var hit []int
			var herr error
			switch w := st.(type) {
			case *Update:
				hit, herr = filterRows(tbl, w.Where)
			case *Delete:
				hit, herr = filterRows(tbl, w.Where)
			}
			txn := []string{sql}
			poisoned := g.rng.Intn(5) == 0
			if poisoned {
				txn = append(txn, "INSERT INTO missing (x) VALUES (1)")
			}
			rs, err := db.ExecTxn(txn)
			if poisoned || err != nil {
				if !poisoned && herr == nil {
					t.Fatalf("seed %d step %d %s: %v", seed, step, sql, err)
				}
				if !sameRowSlices(before, tbl.Rows) || tbl.NextAuto != beforeAuto {
					t.Fatalf("seed %d step %d %s: aborted transaction left a trace", seed, step, sql)
				}
				continue
			}
			if herr != nil {
				t.Fatalf("seed %d step %d %s: scan raises %v, engine does not", seed, step, sql, herr)
			}
			isHit := make(map[int]bool, len(hit))
			for _, ri := range hit {
				isHit[ri] = true
			}
			switch st.(type) {
			case *Update:
				if rs[0].Affected != int64(len(hit)) || len(tbl.Rows) != len(before) {
					t.Fatalf("seed %d step %d %s: affected %d, scan selects %d", seed, step, sql, rs[0].Affected, len(hit))
				}
				for ri := range before {
					// Rows are replaced, never edited: identity tells which moved.
					if replaced := &before[ri][0] != &tbl.Rows[ri][0]; replaced != isHit[ri] {
						t.Fatalf("seed %d step %d %s: row %d replaced=%v, scan selects=%v", seed, step, sql, ri, replaced, isHit[ri])
					}
				}
			case *Delete:
				var kept [][]Val
				for ri, row := range before {
					if !isHit[ri] {
						kept = append(kept, row)
					}
				}
				if rs[0].Affected != int64(len(hit)) || !sameRowSlices(kept, tbl.Rows) {
					t.Fatalf("seed %d step %d %s: deleted the wrong rows", seed, step, sql)
				}
			}
		}
	})
}

// sameRowSlices reports whether a and b hold the very same rows (by
// identity) in the same order.
func sameRowSlices(a, b [][]Val) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if &a[i][0] != &b[i][0] {
			return false
		}
	}
	return true
}
