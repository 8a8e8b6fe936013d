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
//     built by `.` is a segStr: a list of parts, each one string every
//     lane shares or one string per lane. `.` joins its operands' part
//     lists and writes no lane's bytes, so a page built up through
//     nested calls is never copied per lane until something reads it
//     whole; shared parts that meet at a join merge into one univalue
//     that grows in place, so page chrome appended to every lane's page
//     is one append. A segStr lives only in variables, parameters,
//     return values and the operands of `.` and echo: echo writes its
//     parts into the segmented output, shared parts once, and every
//     other consumer sees the plain *Multi that flatValue makes of it,
//     once per value.

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

// bufs returns the run's table of buffers.
func (ex *exec) bufs() *growBufs {
	if ex.grow == nil {
		ex.grow = new(growBufs)
	}
	return ex.grow
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

// strPart is one part of a string multivalue: one string every lane
// shares (lanes nil) or one string per lane.
type strPart struct {
	shared string
	lanes  []string
}

// lane returns lane i's string of p.
func (p strPart) lane(i int) string {
	if p.lanes == nil {
		return p.shared
	}
	return p.lanes[i]
}

// partList is the array part lists are views of. A view of its first n
// parts appends in place only if n is all of them and there is room;
// otherwise it copies itself into a new array twice as long. Parts
// below a view's length are never written again (growBuf's rule, for
// lists).
type partList struct{ ps []strPart }

// segStr is a string multivalue held as a list of parts: lane i is lane
// i of each of list.ps[:n] and then of last. The last part stays out of
// the list so that a shared one can grow in place. The lanes are not
// all equal (the collapse invariant of NewMulti), and a segStr is
// immutable: `.` returns a new one sharing the parts.
type segStr struct {
	list *partList
	n    int
	last strPart
	// Lane i is lens[i] + pad bytes long: joining a univalue adds to pad
	// and shares lens, so it allocates nothing per lane.
	lens []int
	pad  int
	flat *Multi // the lanes flatValue built, once
}

// len returns lane i's length.
func (s *segStr) len(i int) int { return s.lens[i] + s.pad }

// part returns part k of s, for k <= s.n; part s.n is last.
func (s *segStr) part(k int) strPart {
	if k == s.n {
		return s.last
	}
	return s.list.ps[k]
}

// pieces returns lane i's strings, one per part.
func (s *segStr) pieces(i int) []string {
	out := make([]string, s.n+1)
	for k := range out {
		out[k] = s.part(k).lane(i)
	}
	return out
}

// push appends p to s, which the caller is building: a shared p meeting
// a shared last part grows it in place, any other non-empty p closes the
// last part into the list and takes its place.
func (ex *exec) push(s *segStr, p strPart) {
	switch {
	case p.lanes == nil && p.shared == "":
		return
	case p.lanes == nil && s.last.lanes == nil:
		s.last.shared = ex.bufs().appendString(s.last.shared, p.shared)
		return
	case s.last.lanes != nil || s.last.shared != "":
		if s.list == nil || s.n != len(s.list.ps) || s.n == cap(s.list.ps) {
			ps := make([]strPart, s.n, 2*s.n+2)
			if s.list != nil {
				copy(ps, s.list.ps)
			}
			s.list = &partList{ps: ps}
		}
		s.list.ps = append(s.list.ps, s.last)
		s.n++
	}
	s.last = p
}

// lanesEqual reports whether lanes i and j of s, of equal length, hold
// the same bytes, walking both across part boundaries.
func (s *segStr) lanesEqual(i, j int) bool {
	var a, b string
	for ka, kb := 0, 0; ; {
		for ; a == "" && ka <= s.n; ka++ {
			a = s.part(ka).lane(i)
		}
		for ; b == "" && kb <= s.n; kb++ {
			b = s.part(kb).lane(j)
		}
		if a == "" || b == "" {
			return a == b
		}
		m := min(len(a), len(b))
		if a[:m] != b[:m] {
			return false
		}
		a, b = a[m:], b[m:]
	}
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
// than `.` and echo: as the plain *Multi of its lanes, built on the
// first such read and kept in the value for every later one.
func flatValue(v Value) Value {
	s, ok := v.(*segStr)
	if !ok {
		return v
	}
	if s.flat == nil {
		vals := make([]Value, len(s.lens))
		for i := range vals {
			var b strings.Builder
			b.Grow(s.len(i))
			for k := 0; k <= s.n; k++ {
				b.WriteString(s.part(k).lane(i))
			}
			vals[i] = b.String()
		}
		s.flat = &Multi{V: vals}
	}
	return s.flat
}

// segOf returns an operand of `.` in segmented form, or as the string c
// every lane renders it as: a univalue, or a *Multi whose lanes all
// render as c.
func (ex *exec) segOf(v Value, line int) (s *segStr, c string, err error) {
	switch x := v.(type) {
	case *segStr:
		return x, "", nil
	case *Multi:
		if len(x.V) != ex.lanes {
			return nil, "", &RuntimeError{Msg: "multivalue cardinality mismatch", Line: line}
		}
		p := strPart{lanes: make([]string, len(x.V))}
		uniform := true
		for i, l := range x.V {
			p.lanes[i] = ToString(l)
			uniform = uniform && p.lanes[i] == p.lanes[0]
		}
		if uniform {
			return nil, p.lanes[0], nil
		}
		s := &segStr{last: p, lens: make([]int, len(x.V))}
		for i, l := range p.lanes {
			s.lens[i] = len(l)
		}
		return s, "", nil
	}
	return nil, ToString(v), nil
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
// multivalue operand making a segStr. Joining two part lists writes no
// lane's bytes; the lanes are compared, for NewMulti's collapse, only
// when they have come to the same length and neither operand's lengths
// already tell them apart.
func (ex *exec) concat(l, r Value, line int) (Value, error) {
	if !multivalued(l) && !multivalued(r) {
		ex.countInstr(false)
		return ex.concatUni(ToString(l), ToString(r), line)
	}
	ex.countInstr(true)
	ls, lc, err := ex.segOf(l, line)
	if err != nil {
		return nil, err
	}
	rs, rc, err := ex.segOf(r, line)
	if err != nil {
		return nil, err
	}
	if ls == nil && rs == nil { // every lane renders as lc . rc
		return ex.concatUni(lc, rc, line)
	}
	out := &segStr{}
	switch {
	case rs == nil:
		out.lens, out.pad = ls.lens, ls.pad+len(rc)
	case ls == nil:
		out.lens, out.pad = rs.lens, rs.pad+len(lc)
	default:
		out.lens = make([]int, ex.lanes)
		for i := range out.lens {
			out.lens[i] = ls.len(i) + rs.len(i)
		}
	}
	over := 0
	for i := range out.lens {
		if out.len(i) > maxStringBytes {
			over++
		}
	}
	if err := laneFault(over, ex.lanes, line); err != nil {
		return nil, err
	}
	if ls != nil {
		out.list, out.n, out.last = ls.list, ls.n, ls.last
	} else {
		out.last.shared = lc
	}
	if rs == nil {
		ex.push(out, strPart{shared: rc})
		return out, nil
	}
	for k := 0; k <= rs.n; k++ {
		ex.push(out, rs.part(k))
	}
	// Lanes of one operand that differ at equal lengths keep the result's
	// lanes apart; only when both operands' lengths vary can the lanes of
	// the join meet.
	if ls == nil || sameLens(ls.lens) || !sameLens(out.lens) {
		return out, nil
	}
	for i := 1; i < ex.lanes; i++ {
		if !out.lanesEqual(0, i) {
			return out, nil
		}
	}
	return ex.bufs().appendString(out.pieces(0)...), nil
}

// sameLens reports whether every lane has the same length.
func sameLens(lens []int) bool {
	for _, n := range lens[1:] {
		if n != lens[0] {
			return false
		}
	}
	return true
}

// concatUni is `.` over two univalue strings.
func (ex *exec) concatUni(l, r string, line int) (Value, error) {
	if err := stringBudget(len(l)+len(r), line); err != nil {
		return nil, err
	}
	return ex.bufs().appendString(l, r), nil
}
