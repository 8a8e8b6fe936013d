package lang

// Multi is a multivalue (§3.1, §4.3): a vector holding one concrete value
// per re-executed request ("lane") in a control-flow group. The
// invariants are:
//
//  1. len(V) always equals the group size ("a collapse is all or
//     nothing: every multivalue has cardinality equal to the number of
//     requests being re-executed").
//  2. Lanes hold univalues only — a *Multi never nests inside a *Multi.
//     (An *Array lane may itself contain *Multi cells; see below.)
//  3. A Multi whose lanes are all equal must not exist: NewMulti
//     collapses it to the shared univalue, which is what produces the
//     deduplication the paper measures (§5.2).
//
// Arrays are the one subtlety: a univalue *Array may hold *Multi cells
// ("a container's cells can hold multivalues"), and a *Multi may hold
// per-lane *Array values ("a container can itself be a multivalue").
type Multi struct {
	V []Value
}

// NewMulti builds a multivalue from per-lane values, collapsing to a
// univalue when all lanes are equal. Lane values must not be *Multi.
func NewMulti(vals []Value) Value {
	if len(vals) == 0 {
		return nil
	}
	first := vals[0]
	same := true
	for _, v := range vals[1:] {
		if !Equal(first, v) {
			same = false
			break
		}
	}
	if same {
		return first
	}
	return &Multi{V: vals}
}

// IsMulti reports whether v is a multivalue.
func IsMulti(v Value) bool {
	_, ok := v.(*Multi)
	return ok
}

// Lane extracts lane i of v. For a univalue it returns v itself, which
// may be shared with other lanes: callers write it only through
// Array.Own, like any other array.
func Lane(v Value, i int) Value {
	if m, ok := v.(*Multi); ok {
		return m.V[i]
	}
	return v
}

// Collapse re-checks a possibly-multivalue and collapses it if its lanes
// became equal (used after in-place lane mutations).
func Collapse(v Value) Value {
	m, ok := v.(*Multi)
	if !ok {
		return v
	}
	return NewMulti(m.V)
}

// DeepContainsMulti reports whether v is a multivalue or an array
// containing one (at any depth). The interpreter uses it to decide
// whether a builtin call must be split per-lane (§4.3 "Built-in
// functions") and whether an instruction executes univalently for the
// Fig. 11 accounting.
func DeepContainsMulti(v Value) bool {
	switch x := v.(type) {
	case *Multi, *segStr:
		return true
	case *Array:
		if !x.nested {
			return false
		}
		for _, e := range x.ents {
			if DeepContainsMulti(e.v) {
				return true
			}
		}
		return false
	default:
		return false
	}
}

// MaterializeLane resolves v for lane i, recursing into arrays so the
// result contains no *Multi anywhere. Used when splitting builtin calls
// and when emitting per-lane output.
func MaterializeLane(v Value, i int) Value {
	switch x := v.(type) {
	case *Multi:
		return MaterializeLane(x.V[i], i)
	case *Array:
		if !DeepContainsMulti(x) {
			return x
		}
		out := NewArrayCap(x.Len())
		out.nextIdx = x.nextIdx
		for _, e := range x.ents {
			out.Set(e.k, CloneValue(MaterializeLane(e.v, i)))
		}
		return out
	default:
		return v
	}
}
