package lang

import (
	"strings"
	"unsafe"
)

// Strings grow in place (compiled engine only; the reference engine
// concatenates by copying, so the engine differential checks both).
//
//   - Univalue strings. A concatenation whose left operand is a view
//     ending exactly where a buffer this run grew ends appends into the
//     buffer's spare capacity and returns a longer view of it; any other
//     left operand is copied into a fresh buffer with headroom. Bytes
//     below a view's length are never written again, so every view taken
//     earlier — in a variable, an array key, a store — keeps its bytes
//     without any ownership mark: `.=` in a loop is amortised O(1) per
//     byte instead of a copy of the whole string per append.
//   - Multivalue strings (grouped re-execution). A string multivalue
//     built by `.` with a univalue operand is a segStr: a shared head
//     and tail around one per-lane part, so appending the same chrome to
//     every lane's page is one append to the shared tail, not one copy
//     per lane. A segStr lives only in variables, parameters, return
//     values and the operands of `.` and echo; every other consumer sees
//     the plain *Multi that flatValue makes of it.

const (
	// growMin is the shortest concatenation given a buffer with
	// headroom; shorter ones are copied exactly.
	growMin = 64
	// growSlots is how many buffers one run appends into at once; the
	// least recently grown one is forgotten (its views stay valid) when a
	// new one needs a slot.
	growSlots = 8
)

// growBuf is a buffer this run grew. Its views are the strings of its
// first n bytes for n <= Len(); a strings.Builder only ever writes past
// its length.
type growBuf struct {
	b    strings.Builder
	used uint64 // the table's append clock at the last append
}

// growBufs is a table of buffers that may grow in place. It dies with
// the exec, after which nothing writes any of the buffers again.
type growBufs struct {
	slots [growSlots]growBuf
	clock uint64
}

// bufs returns the table for univalue strings (lane -1) or for lane
// i's strings: lanes build their own strings side by side, so each has
// its own table.
func (ex *exec) bufs(lane int) *growBufs {
	if ex.grow == nil {
		n := 1
		if ex.lanes > 1 {
			n += ex.lanes
		}
		ex.grow = make([]growBufs, n)
	}
	return &ex.grow[lane+1]
}

// appendString returns the concatenation of parts. When the first
// non-empty part is a view ending where a buffer of the table ends and
// the buffer has room, the rest is written in place; otherwise a result
// of growMin bytes or more goes into a fresh buffer with headroom. The
// caller has held the total to the string budget.
func (g *growBufs) appendString(parts ...string) string {
	for len(parts) > 1 && parts[0] == "" {
		parts = parts[1:]
	}
	l := parts[0]
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	if n == len(l) {
		return l
	}
	g.clock++
	if len(l) > 0 {
		base := unsafe.StringData(l)
		for i := range g.slots {
			s := &g.slots[i]
			if s.b.Len() != len(l) || unsafe.StringData(s.b.String()) != base {
				continue
			}
			if s.b.Cap() < n {
				s.fill(n, parts)
			} else {
				for _, p := range parts[1:] {
					s.b.WriteString(p)
				}
			}
			s.used = g.clock
			return s.b.String()
		}
	}
	if n < growMin {
		if len(parts) == 2 {
			return l + parts[1]
		}
		return strings.Join(parts, "")
	}
	victim := &g.slots[0]
	for i := range g.slots {
		if g.slots[i].used < victim.used {
			victim = &g.slots[i]
		}
	}
	victim.fill(n, parts)
	victim.used = g.clock
	return victim.b.String()
}

// fill starts s over with the n bytes of parts in a fresh buffer twice
// as long, or as long as the string budget if that is shorter: no
// string outgrows the budget, so no buffer need.
func (s *growBuf) fill(n int, parts []string) {
	s.b = strings.Builder{}
	s.b.Grow(max(n, min(2*n, maxStringBytes)))
	for _, p := range parts {
		s.b.WriteString(p)
	}
}

// segStr is a string multivalue held as shared + per-lane segments:
// lane i is head + mid[i] + tail. The mid parts are not all equal, so
// neither are the lanes (the collapse invariant of NewMulti). It is
// immutable: appending returns a new segStr sharing the parts.
type segStr struct {
	head, tail string
	mid        []string
}

// multivalued reports whether v is a multivalue in either form.
func multivalued(v Value) bool {
	switch v.(type) {
	case *Multi, *segStr:
		return true
	}
	return false
}

// flatValue is the one way a segmented string reaches a consumer other
// than `.` and echo: as the plain *Multi of its lanes.
func flatValue(v Value) Value {
	s, ok := v.(*segStr)
	if !ok {
		return v
	}
	vals := make([]Value, len(s.mid))
	for i, m := range s.mid {
		vals[i] = s.head + m + s.tail
	}
	return &Multi{V: vals}
}

// segOf returns a multivalue's lanes as strings in segmented form; a
// *Multi whose lanes all render as the same string c returns (nil, c).
func (ex *exec) segOf(v Value, line int) (*segStr, string, error) {
	if s, ok := v.(*segStr); ok {
		return s, "", nil
	}
	m := v.(*Multi)
	if len(m.V) != ex.lanes {
		return nil, "", &RuntimeError{Msg: "multivalue cardinality mismatch", Line: line}
	}
	s := &segStr{mid: make([]string, len(m.V))}
	uniform := true
	for i, x := range m.V {
		s.mid[i] = ToString(x)
		uniform = uniform && s.mid[i] == s.mid[0]
	}
	if uniform {
		return nil, s.mid[0], nil
	}
	return s, "", nil
}

// laneFault is the string budget's verdict on an operation that takes
// over of its lanes past the budget: every lane over it is the shared
// fault, some lanes over it divergence (the error-group rule of
// forLanes).
func laneFault(over, lanes, line int) error {
	switch over {
	case 0:
		return nil
	case lanes:
		return stringBudget(maxStringBytes+1, line)
	}
	return ErrDivergence
}

// concat is `.` in the compiled engine: binaryOp's semantics and
// instruction count, with univalue strings grown in place and a
// multivalue concatenated with a univalue kept segmented. Multi·Multi
// stays per-lane, so NewMulti decides the collapse.
func (ex *exec) concat(l, r Value, line int) (Value, error) {
	lm, rm := multivalued(l), multivalued(r)
	if !lm && !rm {
		ex.countInstr(false)
		return ex.concatUni(ToString(l), ToString(r), line)
	}
	ex.countInstr(true)
	if lm && rm {
		return ex.concatLanes(l, r, line)
	}
	multi, uni := l, r
	if rm {
		multi, uni = r, l
	}
	s, c, err := ex.segOf(multi, line)
	if err != nil {
		return nil, err
	}
	u := ToString(uni)
	switch {
	case s == nil && lm: // every lane renders as c
		return ex.concatUni(c, u, line)
	case s == nil:
		return ex.concatUni(u, c, line)
	}
	fixed, over := len(s.head)+len(s.tail)+len(u), 0
	for _, m := range s.mid {
		if fixed+len(m) > maxStringBytes {
			over++
		}
	}
	if err := laneFault(over, len(s.mid), line); err != nil {
		return nil, err
	}
	out := *s
	if lm {
		out.tail = ex.bufs(-1).appendString(s.tail, u)
	} else {
		out.head = ex.bufs(-1).appendString(u, s.head)
	}
	return &out, nil
}

// concatUni is `.` over two univalue strings.
func (ex *exec) concatUni(l, r string, line int) (Value, error) {
	if err := stringBudget(len(l)+len(r), line); err != nil {
		return nil, err
	}
	return ex.bufs(-1).appendString(l, r), nil
}

// concatLanes is `.` over two multivalues: lane by lane, each lane's
// result written once from the operands' segments into that lane's
// buffer, and forLanes' NewMulti deciding the collapse.
func (ex *exec) concatLanes(l, r Value, line int) (Value, error) {
	for _, v := range [2]Value{l, r} {
		if m, ok := v.(*Multi); ok && len(m.V) != ex.lanes {
			return nil, &RuntimeError{Msg: "multivalue cardinality mismatch", Line: line}
		}
	}
	return ex.forLanes(func(i int) (Value, error) {
		var buf [6]string
		parts := laneParts(laneParts(buf[:0], l, i), r, i)
		n := 0
		for _, p := range parts {
			n += len(p)
		}
		if err := stringBudget(n, line); err != nil {
			return nil, err
		}
		return ex.bufs(i).appendString(parts...), nil
	})
}

// laneParts appends lane i of a multivalue string to dst, as segments.
func laneParts(dst []string, v Value, i int) []string {
	if s, ok := v.(*segStr); ok {
		return append(dst, s.head, s.mid[i], s.tail)
	}
	return append(dst, ToString(Lane(v, i)))
}
