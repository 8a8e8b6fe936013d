package sqlmini

import "fmt"

// Bound is a WHERE condition resolved against one table's schema: column
// names become indices and operators become functions once, when the
// statement is bound, so evaluating a row does no string work. The zero
// Bound (no WHERE clause) matches every row.
type Bound struct {
	match rowPred
	// The first top-level equality conjunct, col = const or col IN
	// (consts), usable as an index probe; probeVals is nil when there is
	// none.
	probeCol  int
	probeVals []Val
}

type rowPred func(row []Val) (bool, error)

// Bind resolves cond against t's schema. A condition naming an unknown
// column still binds: the error surfaces when a row reaches that node,
// exactly as the row-at-a-time evaluator reported it (so an empty table,
// or a short-circuited branch, never raises it).
func Bind(t *Table, cond Cond) Bound {
	if cond == nil {
		return Bound{}
	}
	clean := true
	b := Bound{match: bindCond(t, cond, &clean)}
	if clean {
		// Only an error-free tree may skip rows through an index: skipping
		// a row must not skip an error that evaluating it would raise.
		b.probeCol, b.probeVals = eqProbe(t, cond)
	}
	return b
}

// Filter returns, ascending, the positions in [0, n) whose row satisfies
// the condition; row(pos) supplies a position's row, or nil for a
// position holding none (a versioned slot with no version visible).
//
// When the condition has a top-level conjunct col = const or col IN
// (consts), every match holds one of those values in col, so only the
// positions index(col) lists for them are visited. The lists ascend, as
// a scan does, and every candidate is still checked against the whole
// condition — the index needs to be no more than a superset, and the
// result is the scan's, order included.
func (b Bound) Filter(n int, index func(col int) *EqIndex, row func(pos int) []Val) ([]int, error) {
	var cands []int
	probed := b.probeVals != nil
	if probed {
		cands = index(b.probeCol).Lookup(b.probeVals)
		n = len(cands)
	}
	out := make([]int, 0, n)
	for i := 0; i < n; i++ {
		pos := i
		if probed {
			pos = cands[i]
		}
		r := row(pos)
		if r == nil {
			continue
		}
		if b.match != nil {
			if ok, err := b.match(r); err != nil {
				return nil, err
			} else if !ok {
				continue
			}
		}
		out = append(out, pos)
	}
	return out, nil
}

func eqProbe(t *Table, cond Cond) (int, []Val) {
	switch c := cond.(type) {
	case *AndCond:
		if col, vals := eqProbe(t, c.L); vals != nil {
			return col, vals
		}
		return eqProbe(t, c.R)
	case *CmpCond:
		if c.Op == "=" {
			return t.ColIndex(c.Col), []Val{c.Val}
		}
	case *InCond:
		return t.ColIndex(c.Col), c.Vals
	}
	return 0, nil
}

func bindCond(t *Table, cond Cond, clean *bool) rowPred {
	fail := func(err error) rowPred {
		*clean = false
		return func([]Val) (bool, error) { return false, err }
	}
	column := func(name string) (int, rowPred) {
		if ci := t.ColIndex(name); ci >= 0 {
			return ci, nil
		}
		return -1, fail(fmt.Errorf("sqlmini: no column %q", name))
	}
	switch c := cond.(type) {
	case *AndCond:
		l, r := bindCond(t, c.L, clean), bindCond(t, c.R, clean)
		return func(row []Val) (bool, error) {
			if ok, err := l(row); err != nil || !ok {
				return false, err
			}
			return r(row)
		}
	case *OrCond:
		l, r := bindCond(t, c.L, clean), bindCond(t, c.R, clean)
		return func(row []Val) (bool, error) {
			if ok, err := l(row); err != nil || ok {
				return ok, err
			}
			return r(row)
		}
	case *NotCond:
		inner := bindCond(t, c.C, clean)
		return func(row []Val) (bool, error) {
			ok, err := inner(row)
			return !ok && err == nil, err
		}
	case *CmpCond:
		ci, bad := column(c.Col)
		if bad != nil {
			return bad
		}
		test, known := cmpTests[c.Op]
		if !known {
			return fail(fmt.Errorf("sqlmini: bad operator %q", c.Op))
		}
		val, eq, ne := c.Val, c.Op == "=", c.Op == "!=" || c.Op == "<>"
		return func(row []Val) (bool, error) {
			cell := row[ci]
			if cell == nil || val == nil {
				// SQL three-valued logic, restricted: NULL matches only "= NULL"/"!= NULL".
				switch {
				case eq:
					return cell == nil && val == nil, nil
				case ne:
					return (cell == nil) != (val == nil), nil
				default:
					return false, nil
				}
			}
			return test(compareVals(cell, val)), nil
		}
	case *LikeCond:
		ci, bad := column(c.Col)
		if bad != nil {
			return bad
		}
		return func(row []Val) (bool, error) {
			s, ok := row[ci].(string)
			if !ok {
				s = valToString(row[ci])
			}
			return likeMatch(s, c.Pattern), nil
		}
	case *InCond:
		ci, bad := column(c.Col)
		if bad != nil {
			return bad
		}
		return func(row []Val) (bool, error) {
			cell := row[ci]
			for _, v := range c.Vals {
				if v == nil || cell == nil {
					if v == nil && cell == nil {
						return true, nil
					}
					continue
				}
				if compareVals(cell, v) == 0 {
					return true, nil
				}
			}
			return false, nil
		}
	default:
		return fail(fmt.Errorf("sqlmini: unknown condition %T", cond))
	}
}

var cmpTests = map[string]func(cmp int) bool{
	"=":  func(c int) bool { return c == 0 },
	"!=": func(c int) bool { return c != 0 },
	"<>": func(c int) bool { return c != 0 },
	"<":  func(c int) bool { return c < 0 },
	"<=": func(c int) bool { return c <= 0 },
	">":  func(c int) bool { return c > 0 },
	">=": func(c int) bool { return c >= 0 },
}
