package lang

import (
	"slices"
	"unsafe"
)

// Builtin calls on multivalues are deduplicated the way the paper
// deduplicates instructions (§3.1, §4.3): a pure builtin runs once per
// distinct lane argument tuple, and a lane whose tuple equals an
// earlier lane's takes that lane's outcome. Tuples compare by identity,
// never by content:
//
//   - a string by its data pointer and length (bytes below a string's
//     length are never written again, str.go), an *Array by its pointer,
//     an int64, bool or nil by its value;
//   - a call with more than memoArgs arguments, or a lane holding
//     anything else (a float, an array with multivalue cells), runs the
//     builtin for that lane as the per-lane split always did.
//
// Every lane value stays alive through the call, because the argument
// multivalue holds it, so an address cannot be reused inside one call.
// A reused result is handed out through CloneValue, so copy-on-write
// keeps one lane's later write out of the others, and a reused fault is
// the same *RuntimeError, so forLanes sees the sequence the per-lane
// calls would have produced.

// memoArgs is the most arguments a builtin call may take for its lanes
// to share outcomes.
const memoArgs = 4

// argID is one argument of one lane by identity: a string's data
// pointer and length, an *Array's pointer and -1, or one of the tags
// below, which no Go pointer equals, and a scalar's value. An argument
// every lane shares stays the zero argID.
type argID struct {
	p uintptr
	n int64
}

const (
	tagInt uintptr = 1 + iota
	tagBool
	tagNil
)

// laneOut is the outcome of a lane that ran the builtin.
type laneOut struct {
	v   Value
	err error
}

// memoSlot is one cell of laneMemo's open-addressed table: the lane
// that first ran a tuple, valid while gen is the table's generation.
type memoSlot struct {
	gen  uint32
	lane int32
}

// laneMemo finds the earlier lane of a builtin call with the same
// argument tuple. It lives on the exec and serves every call of the run:
// a call empties it by moving to the next generation. Builtins never
// call back into the interpreter, so calls cannot nest.
type laneMemo struct {
	gen   uint32
	n     int        // the call's argument count
	slots []memoSlot // a power of two, at least twice the lanes
	ids   []argID    // lane i's tuple at ids[i*n : i*n+n]
	outs  []laneOut  // by lane, for the lanes that ran the builtin
}

// memo returns the run's table, emptied for a call of n arguments.
func (ex *exec) memo(n int) *laneMemo {
	m := ex.lmemo
	if m == nil {
		size := 2
		for size < 2*ex.lanes {
			size *= 2
		}
		m = &laneMemo{slots: make([]memoSlot, size), ids: make([]argID, memoArgs*ex.lanes), outs: make([]laneOut, ex.lanes)}
		ex.lmemo = m
	}
	m.n = n
	m.gen++
	if m.gen == 0 {
		clear(m.slots)
		m.gen = 1
	}
	return m
}

// memoEligible reports whether a call's lanes may share outcomes: few
// enough arguments, and none that is the same value in every lane yet
// materializes per lane.
func memoEligible(args []Value) bool {
	if len(args) > memoArgs {
		return false
	}
	for _, a := range args {
		if _, ok := a.(*Multi); !ok && DeepContainsMulti(a) {
			return false
		}
	}
	return true
}

// find returns the lane that first ran lane i's argument tuple in this
// call, or records lane i as its first. ok is false when lane i must
// run the builtin without recording an outcome: some argument of it
// has no identity. Arguments that are not multivalues are the same in
// every lane (memoEligible ruled out arrays with multivalue cells) and
// stay zero in the tuple.
func (m *laneMemo) find(args []Value, i int) (first int, ok bool) {
	t := m.ids[i*m.n : i*m.n+m.n]
	for j, a := range args {
		mv, isMulti := a.(*Multi)
		if !isMulti {
			t[j] = argID{}
			continue
		}
		switch x := mv.V[i].(type) {
		case string:
			t[j] = argID{uintptr(unsafe.Pointer(unsafe.StringData(x))), int64(len(x))}
		case int64:
			t[j] = argID{tagInt, x}
		case bool:
			t[j] = argID{tagBool, 0}
			if x {
				t[j].n = 1
			}
		case nil:
			t[j] = argID{tagNil, 0}
		case *Array:
			if DeepContainsMulti(x) {
				return 0, false
			}
			t[j] = argID{uintptr(unsafe.Pointer(x)), -1}
		default:
			return 0, false
		}
	}
	var h uint64
	for _, a := range t {
		h = (h ^ uint64(a.p) ^ uint64(a.n)<<32 ^ uint64(a.n)>>32) * 0x9e3779b97f4a7c15
	}
	h ^= h >> 32
	mask := uint64(len(m.slots) - 1)
	for s := h & mask; ; s = (s + 1) & mask {
		sl := &m.slots[s]
		if sl.gen != m.gen {
			*sl = memoSlot{gen: m.gen, lane: int32(i)}
			return i, true
		}
		f := int(sl.lane)
		if slices.Equal(m.ids[f*m.n:f*m.n+m.n], t) {
			return f, true
		}
	}
}
