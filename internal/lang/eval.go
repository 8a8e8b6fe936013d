package lang

import "math"

const maxCallDepth = 200

// maxStringBytes bounds every string a script builds. Without it the
// other two budgets arrive too late: a value that doubles per call
// (f($n . $n)) or per iteration needs 2^depth bytes long before depth
// reaches maxCallDepth or the step counter its limit. It is a constant
// of the language, like maxCallDepth, so the server and every verifier
// fault on the same operation with the same message.
const maxStringBytes = 4 << 20

// stringBudget faults when a string of n bytes is over the budget. The
// cores that can grow a string by more than a constant factor call it
// with the length they are about to allocate; everything else is
// checked on the value it returns.
func stringBudget(n int, line int) error {
	if n > maxStringBytes {
		return &RuntimeError{Msg: "string length limit exceeded", Line: line}
	}
	return nil
}

// indexReadForIsset is indexRead that never errors on scalar targets
// (isset just reports false).
func (ex *exec) indexReadForIsset(container, idx Value) (Value, error) {
	switch c := container.(type) {
	case *Multi:
		vals := make([]Value, len(c.V))
		for i := range c.V {
			v, err := ex.indexReadForIsset(c.V[i], Lane(idx, i))
			if err != nil {
				return nil, err
			}
			vals[i] = MaterializeLane(v, i)
		}
		return NewMulti(vals), nil
	case *Array:
		if IsMulti(idx) {
			vals := make([]Value, ex.lanes)
			for i := 0; i < ex.lanes; i++ {
				v, err := ex.indexReadForIsset(c, Lane(idx, i))
				if err != nil {
					return nil, err
				}
				vals[i] = MaterializeLane(v, i)
			}
			return NewMulti(vals), nil
		}
		k, err := NormalizeKey(idx)
		if err != nil {
			return nil, nil //nolint:nilerr // illegal key: treat as unset
		}
		v, ok := c.Get(k)
		if !ok {
			return nil, nil
		}
		return v, nil
	case string:
		i := ToInt(idx)
		if i >= 0 && i < int64(len(c)) {
			return string(c[i]), nil
		}
		return nil, nil
	default:
		return nil, nil
	}
}

// indexRead implements reading container[idx] with full multivalue
// semantics (§4.3 Containers, "gets").
func (ex *exec) indexRead(container, idx Value, line int) (Value, error) {
	switch c := container.(type) {
	case *Multi:
		vals := make([]Value, len(c.V))
		for i := range c.V {
			v, err := ex.indexRead(c.V[i], Lane(idx, i), line)
			if err != nil {
				return nil, err
			}
			vals[i] = MaterializeLane(v, i)
		}
		return NewMulti(vals), nil
	case *Array:
		if IsMulti(idx) {
			vals := make([]Value, ex.lanes)
			for i := 0; i < ex.lanes; i++ {
				v, err := ex.indexRead(c, Lane(idx, i), line)
				if err != nil {
					return nil, err
				}
				vals[i] = MaterializeLane(v, i)
			}
			return NewMulti(vals), nil
		}
		k, err := NormalizeKey(idx)
		if err != nil {
			return nil, &RuntimeError{Msg: err.Error(), Line: line}
		}
		v, ok := c.Get(k)
		if !ok {
			return nil, nil // PHP: undefined index yields null
		}
		return v, nil
	case string:
		if IsMulti(idx) {
			vals := make([]Value, ex.lanes)
			for i := 0; i < ex.lanes; i++ {
				j := ToInt(Lane(idx, i))
				if j >= 0 && j < int64(len(c)) {
					vals[i] = string(c[j])
				} else {
					vals[i] = ""
				}
			}
			return NewMulti(vals), nil
		}
		i := ToInt(idx)
		if i >= 0 && i < int64(len(c)) {
			return string(c[i]), nil
		}
		return "", nil
	case nil:
		return nil, nil
	default:
		return nil, &RuntimeError{Msg: "cannot index " + TypeName(container), Line: line}
	}
}

// logicalResult coerces the decisive operand of a short-circuit operator
// to bool(s). Shared by both engines.
func logicalResult(r Value) Value {
	if m, ok := r.(*Multi); ok {
		vals := make([]Value, len(m.V))
		for i, v := range m.V {
			vals[i] = ToBool(v)
		}
		return NewMulti(vals)
	}
	return ToBool(r)
}

// binaryOp applies a non-short-circuit binary operator with SIMD
// semantics: multivalue operands execute componentwise (with scalar
// expansion), univalue operands execute once.
func (ex *exec) binaryOp(op string, l, r Value, line int) (Value, error) {
	lm, lIsM := l.(*Multi)
	rm, rIsM := r.(*Multi)
	if !lIsM && !rIsM {
		ex.countInstr(false)
		return scalarBinary(op, l, r, line)
	}
	ex.countInstr(true)
	lanes := ex.lanes
	if lIsM && len(lm.V) != lanes || rIsM && len(rm.V) != lanes {
		return nil, &RuntimeError{Msg: "multivalue cardinality mismatch", Line: line}
	}
	// Per-lane faults (division by zero, bad operand types in one lane)
	// merge under the error-group rule: all lanes faulting identically
	// is a shared group fault, anything mixed is divergence.
	return ex.forLanes(func(i int) (Value, error) {
		return scalarBinary(op, Lane(l, i), Lane(r, i), line)
	})
}

func scalarBinary(op string, l, r Value, line int) (Value, error) {
	switch op {
	case "+", "-", "*":
		return arith(op, l, r, line)
	case "/":
		rf := ToFloat(r)
		if rf == 0 {
			return nil, &RuntimeError{Msg: "division by zero", Line: line}
		}
		lf := ToFloat(l)
		q := lf / rf
		// PHP yields an int when both operands are ints and divide evenly.
		li, lok := l.(int64)
		ri, rok := r.(int64)
		if lok && rok && ri != 0 && li%ri == 0 {
			return li / ri, nil
		}
		return q, nil
	case "%":
		ri := ToInt(r)
		if ri == 0 {
			return nil, &RuntimeError{Msg: "modulo by zero", Line: line}
		}
		return ToInt(l) % ri, nil
	case ".":
		ls, rs := ToString(l), ToString(r)
		if err := stringBudget(len(ls)+len(rs), line); err != nil {
			return nil, err
		}
		return ls + rs, nil
	case "==":
		return LooseEqual(l, r), nil
	case "!=":
		return !LooseEqual(l, r), nil
	case "===":
		return Equal(l, r), nil
	case "!==":
		return !Equal(l, r), nil
	case "<":
		return Compare(l, r) < 0, nil
	case "<=":
		return Compare(l, r) <= 0, nil
	case ">":
		return Compare(l, r) > 0, nil
	case ">=":
		return Compare(l, r) >= 0, nil
	default:
		return nil, &RuntimeError{Msg: "unknown operator " + op, Line: line}
	}
}

// arith implements + - * with PHP numeric semantics: int arithmetic
// unless either operand is a float (or a float-ish string), with int
// overflow promoting to float.
func arith(op string, l, r Value, line int) (Value, error) {
	if _, ok := l.(*Array); ok {
		if op == "+" {
			// PHP array union.
			ra, ok2 := r.(*Array)
			if !ok2 {
				return nil, &RuntimeError{Msg: "unsupported operand types", Line: line}
			}
			// The union is a new array: l's cells, shared, plus r's.
			la := CloneValue(l).(*Array).Own()
			for _, e := range ra.ents {
				if _, exists := la.Get(e.k); !exists {
					la.Set(e.k, CloneValue(e.v))
				}
			}
			return la, nil
		}
		return nil, &RuntimeError{Msg: "unsupported operand types", Line: line}
	}
	if _, ok := r.(*Array); ok {
		return nil, &RuntimeError{Msg: "unsupported operand types", Line: line}
	}
	li, lIsInt := asIntOperand(l)
	ri, rIsInt := asIntOperand(r)
	if lIsInt && rIsInt {
		switch op {
		case "+":
			s := li + ri
			if (li > 0 && ri > 0 && s < 0) || (li < 0 && ri < 0 && s >= 0) {
				return float64(li) + float64(ri), nil
			}
			return s, nil
		case "-":
			return li - ri, nil
		case "*":
			p := li * ri
			if li != 0 && (p/li != ri) {
				return float64(li) * float64(ri), nil
			}
			return p, nil
		}
	}
	lf, rf := ToFloat(l), ToFloat(r)
	switch op {
	case "+":
		return lf + rf, nil
	case "-":
		return lf - rf, nil
	case "*":
		return lf * rf, nil
	}
	return nil, &RuntimeError{Msg: "unknown arithmetic op " + op, Line: line}
}

// asIntOperand reports whether v behaves as an int in arithmetic.
func asIntOperand(v Value) (int64, bool) {
	switch x := v.(type) {
	case int64:
		return x, true
	case bool:
		return ToInt(x), true
	case nil:
		return 0, true
	case string:
		if n, ok := canonicalIntString(x); ok {
			return n, true
		}
		return 0, false
	default:
		return 0, false
	}
}

func (ex *exec) unaryOp(op string, v Value, line int) (Value, error) {
	if m, ok := v.(*Multi); ok {
		ex.countInstr(true)
		return ex.forLanes(func(i int) (Value, error) {
			return scalarUnary(op, m.V[i], line)
		})
	}
	ex.countInstr(false)
	return scalarUnary(op, v, line)
}

func scalarUnary(op string, v Value, line int) (Value, error) {
	switch op {
	case "!":
		return !ToBool(v), nil
	case "-":
		switch x := v.(type) {
		case int64:
			if x == math.MinInt64 {
				return -float64(x), nil
			}
			return -x, nil
		case float64:
			return -x, nil
		default:
			if i, ok := asIntOperand(v); ok {
				return -i, nil
			}
			return -ToFloat(v), nil
		}
	default:
		return nil, &RuntimeError{Msg: "unknown unary op " + op, Line: line}
	}
}

// pathIsMulti is the Fig. 11 accounting of an indexed assignment: it
// executes multivalently if the container, the stored value or a key
// holds a multivalue. Callers compute it only when collecting stats.
func pathIsMulti(root Value, idxs []Value, val Value) bool {
	if DeepContainsMulti(root) || DeepContainsMulti(val) {
		return true
	}
	for _, iv := range idxs {
		if IsMulti(iv) {
			return true
		}
	}
	return false
}

// appendMarker marks the $a[] append step in an index path.
type appendMarker struct{}

// setPath writes val at the index path idxs under cur and returns the
// container to store back: cur itself, or the copy of it the write went
// to when cur is shared.
func (ex *exec) setPath(cur Value, idxs []Value, val Value, line int) (Value, error) {
	if len(idxs) == 0 {
		return ex.copyValue(val), nil
	}
	idx := idxs[0]
	switch c := cur.(type) {
	case nil:
		// Autovivification.
		return ex.setPath(NewArray(), idxs, val, line)
	case *Array:
		if _, isApp := idx.(appendMarker); isApp {
			c = c.Own()
			c.Append(ex.copyValue(val))
			return c, nil
		}
		if IsMulti(idx) {
			// Univalue container + multivalue key: expand the container
			// into a multivalue of per-lane arrays (§4.3). Materialize
			// first so multivalue cells inside c resolve per lane — a
			// Multi must never nest inside another Multi's lanes.
			lanes := ex.lanes
			perLane := make([]Value, lanes)
			for i := 0; i < lanes; i++ {
				laneCur := ex.copyValue(MaterializeLane(c, i))
				nv, err := ex.setPath(laneCur, laneIdxPath(idxs, i), MaterializeLane(val, i), line)
				if err != nil {
					return nil, err
				}
				perLane[i] = nv
			}
			return NewMulti(perLane), nil
		}
		k, err := NormalizeKey(idx)
		if err != nil {
			return nil, &RuntimeError{Msg: err.Error(), Line: line}
		}
		c = c.Own()
		child, _ := c.Get(k) // from the copy: Own copied multivalue cells
		nv, err := ex.setPath(child, idxs[1:], val, line)
		if err != nil {
			return nil, err
		}
		c.Set(k, nv)
		return c, nil
	case *Multi:
		// The container itself is a multivalue: write per lane. Its
		// holder owns the lane vector (CloneValue and Own copy it).
		for i := range c.V {
			nv, err := ex.setPath(c.V[i], laneIdxPath(idxs, i), MaterializeLane(val, i), line)
			if err != nil {
				return nil, err
			}
			c.V[i] = nv
		}
		return Collapse(c), nil
	case string:
		return nil, &FallbackError{Reason: "string offset assignment"}
	default:
		return nil, &RuntimeError{Msg: "cannot index " + TypeName(cur), Line: line}
	}
}

// laneIdxPath projects an index path onto lane i.
func laneIdxPath(idxs []Value, i int) []Value {
	out := make([]Value, len(idxs))
	for j, v := range idxs {
		if _, isApp := v.(appendMarker); isApp {
			out[j] = v
			continue
		}
		out[j] = Lane(v, i)
	}
	return out
}

// unsetAppendError is the fault of an append step $a[] in an unset path.
func unsetAppendError(last bool, line int) error {
	if last {
		return &RuntimeError{Msg: "unset on append-index", Line: line}
	}
	return &RuntimeError{Msg: "cannot read append-index", Line: line}
}

// unsetPath deletes the element the index path idxs names under cur and
// returns the container to store back: cur itself, or the copy of it the
// deletion went to when cur (or an array on the path) is shared. A
// missing element is not an error, and copies nothing. Shared by both
// engines so the multivalue and non-array fault rules cannot drift.
func (ex *exec) unsetPath(cur Value, idxs []Value, line int) (Value, error) {
	idx, last := idxs[0], len(idxs) == 1
	switch c := cur.(type) {
	case nil:
		return nil, nil
	case *Array:
		if IsMulti(idx) {
			return nil, &FallbackError{Reason: "unset with multivalue key"}
		}
		k, err := NormalizeKey(idx)
		if err != nil {
			return nil, &RuntimeError{Msg: err.Error(), Line: line}
		}
		if _, ok := c.Get(k); !ok {
			return c, nil
		}
		c = c.Own()
		if last {
			c.Delete(k)
			return c, nil
		}
		child, _ := c.Get(k) // from the copy: Own copied multivalue cells
		nv, err := ex.unsetPath(child, idxs[1:], line)
		if err != nil {
			return nil, err
		}
		c.Set(k, nv)
		return c, nil
	case *Multi:
		// The container itself is a multivalue: delete per lane.
		for i := range c.V {
			if _, isArr := c.V[i].(*Array); last && !isArr {
				return nil, &RuntimeError{Msg: "unset on non-array", Line: line}
			}
			nv, err := ex.unsetPath(c.V[i], laneIdxPath(idxs, i), line)
			if err != nil {
				return nil, err
			}
			c.V[i] = nv
		}
		return c, nil
	case string:
		// Reading through a string yields strings, never an array.
		return nil, &RuntimeError{Msg: "unset on non-array", Line: line}
	default:
		if last {
			return nil, &RuntimeError{Msg: "unset on non-array", Line: line}
		}
		return nil, &RuntimeError{Msg: "cannot index " + TypeName(cur), Line: line}
	}
}
