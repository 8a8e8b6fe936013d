package sqlmini

import (
	"slices"
	"sort"
	"strconv"
)

// EqIndex is an equality index over one column: for each distinct value,
// the ascending positions of the rows holding it. Positions ascend in
// insertion order, so walking a posting list visits rows in exactly the
// order a full scan would — scan order, ORDER BY stability and LIMIT
// cut-offs are unchanged by going through the index.
//
// Lookup may return positions whose row does not satisfy the predicate
// (it never misses one that does); callers re-evaluate the bound
// condition on every candidate. That keeps the comparison rules in one
// place (compareVals) and lets the versioned store use the same type as
// an append-only index over slots whose value changed across versions.
//
// An EqIndex is not safe for concurrent mutation; concurrent Lookups are.
type EqIndex struct {
	null []int
	num  map[float64][]int // int64 and float64 cells, by their float64 value
	str  map[string][]int
}

// NewEqIndex returns an empty index.
func NewEqIndex() *EqIndex {
	return &EqIndex{num: make(map[float64][]int), str: make(map[string][]int)}
}

// Add records that the row at pos holds v. Adding a position twice under
// the same value is a no-op.
func (ix *EqIndex) Add(v Val, pos int) { ix.edit(v, pos, insertPos) }

// Remove undoes Add(v, pos).
func (ix *EqIndex) Remove(v Val, pos int) { ix.edit(v, pos, removePos) }

func (ix *EqIndex) edit(v Val, pos int, f func(list []int, pos int) []int) {
	switch x := v.(type) {
	case nil:
		ix.null = f(ix.null, pos)
	case int64:
		ix.num[float64(x)] = f(ix.num[float64(x)], pos)
	case float64:
		ix.num[x] = f(ix.num[x], pos)
	default:
		s := valToString(v)
		ix.str[s] = f(ix.str[s], pos)
	}
}

func insertPos(list []int, pos int) []int {
	n := len(list)
	if n == 0 || list[n-1] < pos {
		return append(list, pos) // the common case: rows arrive in order
	}
	i := sort.SearchInts(list, pos)
	if list[i] == pos {
		return list
	}
	list = append(list, 0)
	copy(list[i+1:], list[i:])
	list[i] = pos
	return list
}

func removePos(list []int, pos int) []int {
	i := sort.SearchInts(list, pos)
	if i == len(list) || list[i] != pos {
		return list
	}
	return append(list[:i], list[i+1:]...)
}

// Lookup returns, ascending and without duplicates, every position whose
// value may equal one of vals under compareVals' rules (numbers compare
// numerically, a number and a string by their text, NULL only to NULL).
// The result may alias the index; callers must not modify it.
func (ix *EqIndex) Lookup(vals []Val) []int {
	var one, merged []int // the only non-empty list so far; all of them once there are two
	add := func(l []int) {
		switch {
		case len(l) == 0:
		case one == nil:
			one = l
		default:
			if merged == nil {
				merged = append(merged, one...)
			}
			merged = append(merged, l...)
		}
	}
	for _, v := range vals {
		switch x := v.(type) {
		case nil:
			add(ix.null)
		case string:
			add(ix.str[x])
			if len(ix.num) > 0 {
				// A numeric cell equals a string by its text; every number
				// whose text is x parses back to its own float64 value.
				if f, err := strconv.ParseFloat(x, 64); err == nil {
					add(ix.num[f])
				}
			}
		default:
			if f, ok := numeric(v); ok {
				add(ix.num[f])
			}
			if len(ix.str) > 0 {
				add(ix.str[valToString(v)]) // a text cell equals a number by the number's text
			}
		}
	}
	if merged == nil {
		return one
	}
	slices.Sort(merged)
	return slices.Compact(merged)
}
