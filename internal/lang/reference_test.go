package lang

import (
	"fmt"
	"strings"
)

// The tree-walking reference interpreter: the executable semantics the
// production engine (compiled.go) is checked against. It walks the AST
// directly, keeps variables in maps, and copies arrays eagerly where
// the production engine shares them copy-on-write, so the differential
// tests and FuzzEngineEquivalence check the sharing too. It shares the
// production engine's cores — newExec/finishRun, binaryOp, setPath,
// copyValue, the builtin and state-op cores, and output — so the two
// differ only in how they walk the program. Outputs, control-flow
// digests, op counts, step counts, instruction counts and fault
// renderings must be equal for every program and input.

// engine names one way to run a program, so the differential tests can
// range over the reference and the production engine.
type engine struct {
	name string
	run  func(*Program, Config) (*Result, error)
}

var (
	engineInterp   = engine{"interp", runReference}
	engineCompiled = engine{"compiled", Run}
)

// runReference executes a script under cfg with the reference
// interpreter; it has Run's contract.
func runReference(prog *Program, cfg Config) (*Result, error) {
	ex, err := newExec(prog, cfg)
	if err != nil {
		return nil, err
	}
	ex.eager = true
	script, ok := prog.Scripts[cfg.Script]
	if !ok {
		return unknownScriptResult(cfg, ex.lanes)
	}
	globals := make(map[string]Value)
	sc := &scope{vars: globals, isGlobal: true, globals: globals, ex: ex}
	_, _, rerr := ex.execStmts(sc, script.Body)
	return finishRun(ex, rerr)
}

// scope is a variable namespace (function frame or the global frame).
type scope struct {
	vars       map[string]Value
	globalRefs map[string]bool
	isGlobal   bool
	// globals backs both the script's top-level scope and `global`
	// imports inside functions, as in PHP.
	globals map[string]Value
	ex      *exec
}

func (sc *scope) get(name string) Value {
	if sg, ok := sc.ex.super[name]; ok {
		return sg
	}
	if !sc.isGlobal && sc.globalRefs[name] {
		return sc.globals[name]
	}
	return sc.vars[name]
}

func (sc *scope) exists(name string) bool {
	if _, ok := sc.ex.super[name]; ok {
		return true
	}
	if !sc.isGlobal && sc.globalRefs[name] {
		_, ok := sc.globals[name]
		return ok
	}
	_, ok := sc.vars[name]
	return ok
}

func (sc *scope) set(name string, v Value) {
	if _, ok := sc.ex.super[name]; ok {
		if arr, isArr := v.(*Array); isArr {
			sc.ex.super[name] = arr
		}
		return
	}
	if !sc.isGlobal && sc.globalRefs[name] {
		sc.globals[name] = v
		return
	}
	sc.vars[name] = v
}

func (sc *scope) unset(name string) {
	if !sc.isGlobal && sc.globalRefs[name] {
		delete(sc.globals, name)
		return
	}
	delete(sc.vars, name)
}

func (ex *exec) execStmts(sc *scope, stmts []Stmt) (ctrl, Value, error) {
	for _, s := range stmts {
		c, v, err := ex.execStmt(sc, s)
		if err != nil {
			return ctrlNone, nil, err
		}
		if c != ctrlNone {
			return c, v, nil
		}
	}
	return ctrlNone, nil, nil
}

func (ex *exec) execStmt(sc *scope, s Stmt) (ctrl, Value, error) {
	ex.steps++
	if ex.steps > ex.maxSteps {
		return ctrlNone, nil, &RuntimeError{Msg: "step limit exceeded"}
	}
	switch st := s.(type) {
	case *ExprStmt:
		_, err := ex.evalExpr(sc, st.E)
		return ctrlNone, nil, err
	case *Assign:
		return ctrlNone, nil, ex.execAssign(sc, st)
	case *If:
		return ex.execIf(sc, st)
	case *While:
		return ex.execWhile(sc, st)
	case *For:
		return ex.execFor(sc, st)
	case *Foreach:
		return ex.execForeach(sc, st)
	case *Switch:
		return ex.execSwitch(sc, st)
	case *Return:
		var v Value
		if st.E != nil {
			var err error
			v, err = ex.evalExpr(sc, st.E)
			if err != nil {
				return ctrlNone, nil, err
			}
		}
		return ctrlReturn, v, nil
	case *Break:
		return ctrlBreak, nil, nil
	case *Continue:
		return ctrlContinue, nil, nil
	case *Echo:
		for _, a := range st.Args {
			v, err := ex.evalExpr(sc, a)
			if err != nil {
				return ctrlNone, nil, err
			}
			if err := ex.echo(v, st.Line); err != nil {
				return ctrlNone, nil, err
			}
		}
		return ctrlNone, nil, nil
	case *Global:
		if sc.globalRefs == nil {
			sc.globalRefs = make(map[string]bool)
		}
		for _, n := range st.Names {
			sc.globalRefs[n] = true
		}
		return ctrlNone, nil, nil
	case *Unset:
		for _, lv := range st.Targets {
			if err := ex.execUnset(sc, lv); err != nil {
				return ctrlNone, nil, err
			}
		}
		return ctrlNone, nil, nil
	default:
		return ctrlNone, nil, &RuntimeError{Msg: fmt.Sprintf("unknown statement %T", s)}
	}
}

func (ex *exec) execIf(sc *scope, st *If) (ctrl, Value, error) {
	for i, cond := range st.Conds {
		v, err := ex.evalExpr(sc, cond)
		if err != nil {
			return ctrlNone, nil, err
		}
		taken, err := ex.condDirection(v)
		if err != nil {
			return ctrlNone, nil, err
		}
		if taken {
			ex.branch(st.Site, i)
			return ex.execStmts(sc, st.Bodies[i])
		}
	}
	ex.branch(st.Site, len(st.Conds))
	if st.Else != nil {
		return ex.execStmts(sc, st.Else)
	}
	return ctrlNone, nil, nil
}

func (ex *exec) execWhile(sc *scope, st *While) (ctrl, Value, error) {
	for {
		v, err := ex.evalExpr(sc, st.Cond)
		if err != nil {
			return ctrlNone, nil, err
		}
		taken, err := ex.condDirection(v)
		if err != nil {
			return ctrlNone, nil, err
		}
		if !taken {
			ex.branch(st.Site, 0)
			return ctrlNone, nil, nil
		}
		ex.branch(st.Site, 1)
		c, rv, err := ex.execStmts(sc, st.Body)
		if err != nil {
			return ctrlNone, nil, err
		}
		switch c {
		case ctrlBreak:
			return ctrlNone, nil, nil
		case ctrlReturn:
			return ctrlReturn, rv, nil
		}
		ex.steps++
		if ex.steps > ex.maxSteps {
			return ctrlNone, nil, &RuntimeError{Msg: "step limit exceeded"}
		}
	}
}

func (ex *exec) execFor(sc *scope, st *For) (ctrl, Value, error) {
	if st.Init != nil {
		if _, _, err := ex.execStmt(sc, st.Init); err != nil {
			return ctrlNone, nil, err
		}
	}
	for {
		if st.Cond != nil {
			v, err := ex.evalExpr(sc, st.Cond)
			if err != nil {
				return ctrlNone, nil, err
			}
			taken, err := ex.condDirection(v)
			if err != nil {
				return ctrlNone, nil, err
			}
			if !taken {
				ex.branch(st.Site, 0)
				return ctrlNone, nil, nil
			}
		}
		ex.branch(st.Site, 1)
		c, rv, err := ex.execStmts(sc, st.Body)
		if err != nil {
			return ctrlNone, nil, err
		}
		switch c {
		case ctrlBreak:
			return ctrlNone, nil, nil
		case ctrlReturn:
			return ctrlReturn, rv, nil
		}
		if st.Post != nil {
			if _, _, err := ex.execStmt(sc, st.Post); err != nil {
				return ctrlNone, nil, err
			}
		} else if err := ex.step(); err != nil {
			// The post statement's entry is the per-iteration step;
			// without one, `for(;;){}` would never reach the step limit.
			return ctrlNone, nil, err
		}
	}
}

func (ex *exec) execForeach(sc *scope, st *Foreach) (ctrl, Value, error) {
	subject, err := ex.evalExpr(sc, st.Subject)
	if err != nil {
		return ctrlNone, nil, err
	}
	// PHP iterates over a copy of the subject: writes to the subject
	// variable in the body, at any depth, do not reach the loop.
	switch subj := ex.copyValue(subject).(type) {
	case *Array:
		for _, e := range subj.ents {
			ex.branch(st.Site, 1)
			if st.KeyVar != "" {
				sc.set(st.KeyVar, e.k.Value())
			}
			sc.set(st.ValVar, ex.copyValue(e.v))
			c, rv, err := ex.execStmts(sc, st.Body)
			if err != nil {
				return ctrlNone, nil, err
			}
			switch c {
			case ctrlBreak:
				ex.branch(st.Site, 0)
				return ctrlNone, nil, nil
			case ctrlReturn:
				return ctrlReturn, rv, nil
			}
		}
		ex.branch(st.Site, 0)
		return ctrlNone, nil, nil
	case *Multi:
		// The container itself is a multivalue: lock-step iteration over
		// per-lane materialized arrays.
		arrs, n, err := ex.foreachLanes(subj, st.Line)
		if err != nil {
			return ctrlNone, nil, err
		}
		for it := 0; it < n; it++ {
			ex.branch(st.Site, 1)
			keys, vals := ex.foreachLaneElems(arrs, it)
			if st.KeyVar != "" {
				sc.set(st.KeyVar, NewMulti(keys))
			}
			sc.set(st.ValVar, NewMulti(vals))
			c, rv, err := ex.execStmts(sc, st.Body)
			if err != nil {
				return ctrlNone, nil, err
			}
			switch c {
			case ctrlBreak:
				ex.branch(st.Site, 0)
				return ctrlNone, nil, nil
			case ctrlReturn:
				return ctrlReturn, rv, nil
			}
		}
		ex.branch(st.Site, 0)
		return ctrlNone, nil, nil
	case nil:
		ex.branch(st.Site, 0)
		return ctrlNone, nil, nil
	default:
		return ctrlNone, nil, &RuntimeError{Msg: "foreach over non-array", Line: st.Line}
	}
}

func (ex *exec) execSwitch(sc *scope, st *Switch) (ctrl, Value, error) {
	subject, err := ex.evalExpr(sc, st.Subject)
	if err != nil {
		return ctrlNone, nil, err
	}
	// Determine the arm per lane; divergence if lanes disagree.
	arm := -2 // -2 unset, -1 default
	for i, cs := range st.Cases {
		mv, err := ex.evalExpr(sc, cs.Match)
		if err != nil {
			return ctrlNone, nil, err
		}
		matched, err := ex.looseEqDirection(subject, mv)
		if err != nil {
			return ctrlNone, nil, err
		}
		if matched {
			arm = i
			break
		}
	}
	if arm == -2 {
		arm = -1
	}
	ex.branch(st.Site, arm+1)
	var body []Stmt
	if arm >= 0 {
		body = st.Cases[arm].Body
	} else {
		body = st.Default
	}
	c, rv, err := ex.execStmts(sc, body)
	if err != nil {
		return ctrlNone, nil, err
	}
	switch c {
	case ctrlBreak:
		return ctrlNone, nil, nil // break binds to switch, as in PHP
	case ctrlReturn:
		return ctrlReturn, rv, nil
	case ctrlContinue:
		return ctrlContinue, nil, nil
	}
	return ctrlNone, nil, nil
}

func (ex *exec) evalExpr(sc *scope, e Expr) (Value, error) {
	switch x := e.(type) {
	case *Lit:
		return x.Val, nil
	case *Var:
		return sc.get(x.Name), nil
	case *Index:
		if x.Idx == nil {
			return nil, &RuntimeError{Msg: "cannot read append-index $a[]", Line: x.Line}
		}
		target, err := ex.evalExpr(sc, x.Target)
		if err != nil {
			return nil, err
		}
		idx, err := ex.evalExpr(sc, x.Idx)
		if err != nil {
			return nil, err
		}
		ex.countInstr(IsMulti(target) || IsMulti(idx))
		return ex.indexRead(target, idx, x.Line)
	case *Binary:
		l, err := ex.evalExpr(sc, x.L)
		if err != nil {
			return nil, err
		}
		r, err := ex.evalExpr(sc, x.R)
		if err != nil {
			return nil, err
		}
		return ex.binaryOp(x.Op, l, r, x.Line)
	case *Logical:
		return ex.evalLogical(sc, x)
	case *Unary:
		v, err := ex.evalExpr(sc, x.E)
		if err != nil {
			return nil, err
		}
		return ex.unaryOp(x.Op, v, x.Line)
	case *Ternary:
		cond, err := ex.evalExpr(sc, x.Cond)
		if err != nil {
			return nil, err
		}
		taken, err := ex.condDirection(cond)
		if err != nil {
			return nil, err
		}
		if taken {
			ex.branch(x.Site, 1)
			return ex.evalExpr(sc, x.Then)
		}
		ex.branch(x.Site, 0)
		return ex.evalExpr(sc, x.Else)
	case *Call:
		return ex.evalCall(sc, x)
	case *ArrayLit:
		arr := NewArrayCap(len(x.Entries))
		for _, ent := range x.Entries {
			v, err := ex.evalExpr(sc, ent.Val)
			if err != nil {
				return nil, err
			}
			if ent.Key == nil {
				arr.Append(ex.copyValue(v))
				continue
			}
			kv, err := ex.evalExpr(sc, ent.Key)
			if err != nil {
				return nil, err
			}
			if IsMulti(kv) {
				return nil, &FallbackError{Reason: "multivalue key in array literal"}
			}
			k, err := NormalizeKey(kv)
			if err != nil {
				return nil, &RuntimeError{Msg: err.Error(), Line: x.Line}
			}
			arr.Set(k, ex.copyValue(v))
		}
		return arr, nil
	case *IssetExpr:
		res := true
		for _, lv := range x.Targets {
			v, err := ex.evalIsset(sc, lv)
			if err != nil {
				return nil, err
			}
			one, err := ex.condDirection(v)
			if err != nil {
				return nil, err
			}
			if !one {
				res = false
				break
			}
		}
		return res, nil
	case *EmptyExpr:
		v, err := ex.evalIsset(sc, x.Target)
		if err != nil {
			return nil, err
		}
		set, err := ex.condDirection(v)
		if err != nil {
			return nil, err
		}
		if !set {
			return true, nil
		}
		cur, err := ex.readLValue(sc, x.Target)
		if err != nil {
			return nil, err
		}
		truthy, err := ex.condDirection(cur)
		if err != nil {
			return nil, err
		}
		return !truthy, nil
	case *IncDec:
		return ex.evalIncDec(sc, x)
	default:
		return nil, &RuntimeError{Msg: fmt.Sprintf("unknown expression %T", e)}
	}
}

// evalIsset resolves an lvalue path to a (possibly multivalue) bool:
// does the target exist and is it non-null?
func (ex *exec) evalIsset(sc *scope, lv *LValue) (Value, error) {
	if !sc.exists(lv.Name) {
		return false, nil
	}
	cur := sc.get(lv.Name)
	for _, step := range lv.Steps {
		if step.Idx == nil {
			return nil, &RuntimeError{Msg: "isset on append-index", Line: lv.Line}
		}
		idx, err := ex.evalExpr(sc, step.Idx)
		if err != nil {
			return nil, err
		}
		v, err := ex.indexReadForIsset(cur, idx)
		if err != nil {
			return nil, err
		}
		cur = v
	}
	if m, ok := cur.(*Multi); ok {
		vals := make([]Value, len(m.V))
		for i, lvv := range m.V {
			vals[i] = lvv != nil
		}
		return NewMulti(vals), nil
	}
	return cur != nil, nil
}

// readLValue reads the current value of an lvalue path (nil if unset).
func (ex *exec) readLValue(sc *scope, lv *LValue) (Value, error) {
	cur := sc.get(lv.Name)
	for _, step := range lv.Steps {
		if step.Idx == nil {
			return nil, &RuntimeError{Msg: "cannot read append-index", Line: lv.Line}
		}
		idx, err := ex.evalExpr(sc, step.Idx)
		if err != nil {
			return nil, err
		}
		v, err := ex.indexRead(cur, idx, lv.Line)
		if err != nil {
			return nil, err
		}
		cur = v
	}
	return cur, nil
}

func (ex *exec) evalLogical(sc *scope, x *Logical) (Value, error) {
	l, err := ex.evalExpr(sc, x.L)
	if err != nil {
		return nil, err
	}
	lb, err := ex.condDirection(l)
	if err != nil {
		return nil, err
	}
	if x.Op == "&&" {
		if !lb {
			ex.branch(x.Site, 0)
			return false, nil
		}
		ex.branch(x.Site, 1)
	} else { // "||"
		if lb {
			ex.branch(x.Site, 1)
			return true, nil
		}
		ex.branch(x.Site, 0)
	}
	r, err := ex.evalExpr(sc, x.R)
	if err != nil {
		return nil, err
	}
	return logicalResult(r), nil
}

func (ex *exec) evalIncDec(sc *scope, x *IncDec) (Value, error) {
	old, err := ex.readLValue(sc, x.Target)
	if err != nil {
		return nil, err
	}
	delta := Value(int64(1))
	op := "+"
	if x.Op == "--" {
		op = "-"
	}
	nv, err := ex.binaryOp(op, old, delta, x.Line)
	if err != nil {
		return nil, err
	}
	if err := ex.assignTo(sc, x.Target, nv); err != nil {
		return nil, err
	}
	if x.Pre {
		return nv, nil
	}
	if old == nil {
		return int64(0), nil
	}
	return old, nil
}

func (ex *exec) execAssign(sc *scope, st *Assign) error {
	rhs, err := ex.evalExpr(sc, st.RHS)
	if err != nil {
		return err
	}
	if st.Op == "=" {
		return ex.assignTo(sc, st.Target, rhs)
	}
	old, err := ex.readLValue(sc, st.Target)
	if err != nil {
		return err
	}
	binOp := strings.TrimSuffix(st.Op, "=")
	nv, err := ex.binaryOp(binOp, old, rhs, st.Line)
	if err != nil {
		return err
	}
	return ex.assignTo(sc, st.Target, nv)
}

// assignTo stores val at the lvalue path, implementing the container
// rules of §4.3: multivalue keys expand univalue containers; multivalue
// containers are written per-lane; univalue key + multivalue val stores
// the multivalue into the cell.
func (ex *exec) assignTo(sc *scope, lv *LValue, val Value) error {
	if len(lv.Steps) == 0 {
		sc.set(lv.Name, ex.copyValue(val))
		if ex.stats {
			ex.countInstr(DeepContainsMulti(val))
		}
		return nil
	}
	// Evaluate the index expressions once, in order.
	idxs := make([]Value, len(lv.Steps))
	for i, step := range lv.Steps {
		if step.Idx == nil {
			if i != len(lv.Steps)-1 {
				return &RuntimeError{Msg: "append-index must be final", Line: lv.Line}
			}
			idxs[i] = appendMarker{}
			continue
		}
		v, err := ex.evalExpr(sc, step.Idx)
		if err != nil {
			return err
		}
		idxs[i] = v
	}
	root := sc.get(lv.Name)
	if ex.stats {
		ex.countInstr(pathIsMulti(root, idxs, val))
	}
	// val is copied before setPath takes the root for writing, so that
	// $a[0] = $a stores the array $a held before the write.
	newRoot, err := ex.setPath(root, idxs, ex.copyValue(val), lv.Line)
	if err != nil {
		return err
	}
	sc.set(lv.Name, newRoot)
	return nil
}

func (ex *exec) execUnset(sc *scope, lv *LValue) error {
	if len(lv.Steps) == 0 {
		sc.unset(lv.Name)
		return nil
	}
	idxs := make([]Value, len(lv.Steps))
	for i, step := range lv.Steps {
		if step.Idx == nil {
			return unsetAppendError(i == len(lv.Steps)-1, lv.Line)
		}
		v, err := ex.evalExpr(sc, step.Idx)
		if err != nil {
			return err
		}
		idxs[i] = v
	}
	root := sc.get(lv.Name)
	newRoot, err := ex.unsetPath(root, idxs, lv.Line)
	if err != nil {
		return err
	}
	if newRoot != root {
		sc.set(lv.Name, newRoot)
	}
	return nil
}

// evalCall dispatches a call expression: user functions first (as in
// PHP, user functions and builtins live in separate namespaces but user
// code cannot redefine builtins; we give user functions priority so
// applications can shim), then reference builtins, state operations,
// non-deterministic builtins, and finally pure builtins.
func (ex *exec) evalCall(sc *scope, call *Call) (Value, error) {
	if fn, ok := ex.prog.Funcs[call.Name]; ok {
		return ex.callUser(sc, fn, call)
	}
	if _, ok := refBuiltins[call.Name]; ok {
		return ex.callRefBuiltin(sc, call)
	}
	if stateOps[call.Name] {
		return ex.callStateOp(sc, call)
	}
	if nondetBuiltins[call.Name] {
		return ex.callNonDet(sc, call)
	}
	if b, ok := builtins[call.Name]; ok {
		args := make([]Value, len(call.Args))
		for i, a := range call.Args {
			v, err := ex.evalExpr(sc, a)
			if err != nil {
				return nil, err
			}
			args[i] = v
		}
		return ex.invokeBuiltin(call.Name, b, args, call.Line)
	}
	return nil, &RuntimeError{Msg: fmt.Sprintf("call to undefined function %s()", call.Name), Line: call.Line}
}

// callUser invokes a user-defined function with PHP value semantics
// (arguments and the returned value are copies).
func (ex *exec) callUser(sc *scope, fn *FuncDecl, call *Call) (Value, error) {
	if ex.callDepth >= maxCallDepth {
		return nil, &RuntimeError{Msg: "maximum call depth exceeded", Line: call.Line}
	}
	frame := &scope{vars: make(map[string]Value, len(fn.Params)), globals: sc.globals, ex: ex}
	for i, p := range fn.Params {
		if i < len(call.Args) {
			v, err := ex.evalExpr(sc, call.Args[i])
			if err != nil {
				return nil, err
			}
			frame.vars[p.Name] = ex.copyValue(v)
			continue
		}
		if p.Default != nil {
			v, err := ex.evalExpr(frame, p.Default)
			if err != nil {
				return nil, err
			}
			frame.vars[p.Name] = v
			continue
		}
		frame.vars[p.Name] = nil
	}
	// Extra arguments beyond the parameter list are evaluated for their
	// effects and discarded.
	for i := len(fn.Params); i < len(call.Args); i++ {
		if _, err := ex.evalExpr(sc, call.Args[i]); err != nil {
			return nil, err
		}
	}
	ex.callDepth++
	c, rv, err := ex.execStmts(frame, fn.Body)
	ex.callDepth--
	if err != nil {
		return nil, err
	}
	if c == ctrlReturn {
		return ex.copyValue(rv), nil
	}
	return nil, nil
}

// callRefBuiltin handles builtins whose first argument is by-reference
// (sort, array_push, ...). The first argument must be an lvalue; it is
// read, transformed per-lane if needed, and written back.
func (ex *exec) callRefBuiltin(sc *scope, call *Call) (Value, error) {
	fn := refBuiltins[call.Name]
	if len(call.Args) == 0 {
		return nil, &RuntimeError{Msg: call.Name + "() expects an argument", Line: call.Line}
	}
	lv, err := exprToLValue(call.Args[0])
	if err != nil {
		return nil, &RuntimeError{Msg: call.Name + "(): first argument must be a variable", Line: call.Line}
	}
	cur, err := ex.readLValue(sc, lv)
	if err != nil {
		return nil, err
	}
	rest := make([]Value, 0, len(call.Args)-1)
	for _, a := range call.Args[1:] {
		v, err := ex.evalExpr(sc, a)
		if err != nil {
			return nil, err
		}
		rest = append(rest, v)
	}
	result, newTarget, err := ex.refBuiltinApply(call.Name, fn, cur, rest, call.Line)
	if err != nil {
		return nil, err
	}
	if err := ex.assignTo(sc, lv, newTarget); err != nil {
		return nil, err
	}
	return result, nil
}

// callStateOp issues a shared-object operation through the bridge. In
// ModeSIMD the operation is issued once per lane under the shared group
// opnum (Fig. 3 lines 36-43); results merge into a multivalue.
func (ex *exec) callStateOp(sc *scope, call *Call) (Value, error) {
	args := make([]Value, len(call.Args))
	for i, a := range call.Args {
		v, err := ex.evalExpr(sc, a)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}
	return ex.stateOpCore(call.Name, args, call.Line)
}

// callNonDet obtains a non-deterministic value per lane (§4.6).
func (ex *exec) callNonDet(sc *scope, call *Call) (Value, error) {
	args := make([]Value, len(call.Args))
	for i, a := range call.Args {
		v, err := ex.evalExpr(sc, a)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}
	return ex.nonDetCore(call.Name, args)
}
