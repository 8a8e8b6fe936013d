package lang

import (
	"fmt"
	"strings"
)

// The compiled engine lowers the AST once per Program into a tree of
// pre-bound Go closures. The lowering removes the two per-node costs
// the tree-walking reference (reference_test.go, the semantics the
// differential tests hold this engine to) pays on every statement:
//
//   - dispatch: the type switch over AST nodes becomes a direct closure
//     call, with call targets (user function, ref builtin, state op,
//     nondet, pure builtin, undefined) resolved at compile time — the
//     function table is immutable after Compile;
//   - scoping: scope-map lookups become integer slot indexing into a
//     per-frame slice (see resolve.go for the slot model).
//
// All *semantic* helpers — binaryOp, indexRead, setPath, condDirection,
// forLanes, the state-op and builtin cores — are shared with the
// interpreter, so the two engines cannot drift on value semantics; the
// lowering only changes how the AST is traversed and variables are
// addressed. Every runtime error the interpreter raises lazily (bad
// call shapes, undefined functions) is likewise deferred to execution
// time here: a compile-time-detectable fault on a branch that never
// executes must not fault the request.

// cstmt and cexpr are the lowered forms of Stmt and Expr.
type cstmt func(fr *cframe) (ctrl, Value, error)
type cexpr func(fr *cframe) (Value, error)

// cframe is one activation record: the script's frame addresses the
// exec's global slots directly (locals unused); function frames carry
// local slots, a presence bitmap, and — only for functions containing
// `global` statements — per-slot redirect flags.
type cframe struct {
	ex     *exec
	locals []Value
	set    []bool
	gflags []bool
}

// cprog is a Program lowered for the compiled engine.
type cprog struct {
	res     *resolution
	scripts map[string]*cscript
	funcs   map[string]*cfunc
}

type cscript struct{ body []cstmt }

type cfunc struct {
	name      string
	params    []cparam
	body      []cstmt
	info      *funcInfo
	hasGlobal bool
}

// cparam is a compiled parameter. slot is -1 for a superglobal-named
// parameter (the binding is unobservable — reads resolve to the
// superglobal — so the argument is evaluated for effect and discarded,
// exactly what the interpreter's dead map entry amounts to).
type cparam struct {
	slot int
	def  cexpr // compiled in the function's own context; nil if required
}

// compiled returns prog's lowered form, computing it once. Programs are
// shared between the server and concurrent verifier workers, so the
// lowering is guarded by a sync.Once.
func (p *Program) compiled() (*cprog, error) {
	p.lowerOnce.Do(func() {
		p.lowered = lower(p)
	})
	return p.lowered, nil
}

func lower(prog *Program) *cprog {
	res := resolve(prog)
	cp := &cprog{
		res:     res,
		scripts: make(map[string]*cscript, len(prog.Scripts)),
		funcs:   make(map[string]*cfunc, len(prog.Funcs)),
	}
	// Two passes over the function table so mutually recursive calls
	// bind their *cfunc before bodies are lowered.
	for name, fn := range prog.Funcs {
		hasGlobal := false
		walkStmts(fn.Body, func(string) {}, func(n string) {
			if !isSuperglobal(n) {
				hasGlobal = true
			}
		})
		cp.funcs[name] = &cfunc{name: name, info: res.funcs[name], hasGlobal: hasGlobal}
	}
	for name, fn := range prog.Funcs {
		cf := cp.funcs[name]
		cc := &compiler{prog: prog, res: res, funcs: cp.funcs, fn: cf.info}
		cf.params = make([]cparam, len(fn.Params))
		for i, pm := range fn.Params {
			slot := -1
			if !isSuperglobal(pm.Name) {
				slot = cf.info.locals[pm.Name]
			}
			cf.params[i] = cparam{slot: slot}
			if pm.Default != nil {
				cf.params[i].def = cc.compileExpr(pm.Default)
			}
		}
		cf.body = cc.compileStmts(fn.Body)
	}
	for name, s := range prog.Scripts {
		cc := &compiler{prog: prog, res: res, funcs: cp.funcs}
		cp.scripts[name] = &cscript{body: cc.compileStmts(s.Body)}
	}
	return cp
}

// compiler lowers one scope's AST; fn is nil when lowering a script
// body (which addresses the global frame directly).
type compiler struct {
	prog  *Program
	res   *resolution
	funcs map[string]*cfunc
	fn    *funcInfo
}

// caccess is a variable's compiled accessor quadruple, mirroring
// scope.get/set/exists/unset for the name's resolved storage class.
// load returns what the variable holds, a segmented string included;
// get is the read every consumer but `.`, echo and a call makes.
type caccess struct {
	load   func(fr *cframe) Value
	set    func(fr *cframe, v Value)
	exists func(fr *cframe) bool
	unset  func(fr *cframe)
}

func (a caccess) get(fr *cframe) Value { return flatValue(a.load(fr)) }

func globalAccess(g int) caccess {
	return caccess{
		load: func(fr *cframe) Value { return fr.ex.gslots[g] },
		set: func(fr *cframe, v Value) {
			fr.ex.gslots[g] = v
			fr.ex.gset[g] = true
		},
		exists: func(fr *cframe) bool { return fr.ex.gset[g] },
		unset: func(fr *cframe) {
			fr.ex.gslots[g] = nil
			fr.ex.gset[g] = false
		},
	}
}

func (cc *compiler) access(name string) caccess {
	if isSuperglobal(name) {
		return caccess{
			load: func(fr *cframe) Value { return fr.ex.super[name] },
			set: func(fr *cframe, v Value) {
				if arr, ok := v.(*Array); ok {
					fr.ex.super[name] = arr
				}
			},
			exists: func(fr *cframe) bool { return true },
			unset:  func(fr *cframe) {},
		}
	}
	if cc.fn == nil {
		g, ok := cc.res.globals[name]
		if !ok {
			panic(fmt.Sprintf("lang: unresolved global %q", name))
		}
		return globalAccess(g)
	}
	l, ok := cc.fn.locals[name]
	if !ok {
		panic(fmt.Sprintf("lang: unresolved local %q", name))
	}
	if !cc.fn.globalDecl[name] {
		return caccess{
			load: func(fr *cframe) Value { return fr.locals[l] },
			set: func(fr *cframe, v Value) {
				fr.locals[l] = v
				fr.set[l] = true
			},
			exists: func(fr *cframe) bool { return fr.set[l] },
			unset: func(fr *cframe) {
				fr.locals[l] = nil
				fr.set[l] = false
			},
		}
	}
	// `global $name` appears somewhere in this function: the statement
	// executes (or not) at runtime, so every access checks the frame's
	// redirect flag.
	g := cc.fn.gslot[name]
	return caccess{
		load: func(fr *cframe) Value {
			if fr.gflags[l] {
				return fr.ex.gslots[g]
			}
			return fr.locals[l]
		},
		set: func(fr *cframe, v Value) {
			if fr.gflags[l] {
				fr.ex.gslots[g] = v
				fr.ex.gset[g] = true
				return
			}
			fr.locals[l] = v
			fr.set[l] = true
		},
		exists: func(fr *cframe) bool {
			if fr.gflags[l] {
				return fr.ex.gset[g]
			}
			return fr.set[l]
		},
		unset: func(fr *cframe) {
			if fr.gflags[l] {
				fr.ex.gslots[g] = nil
				fr.ex.gset[g] = false
				return
			}
			fr.locals[l] = nil
			fr.set[l] = false
		},
	}
}

// runCStmts mirrors exec.execStmts.
func runCStmts(fr *cframe, stmts []cstmt) (ctrl, Value, error) {
	for _, s := range stmts {
		c, v, err := s(fr)
		if err != nil {
			return ctrlNone, nil, err
		}
		if c != ctrlNone {
			return c, v, nil
		}
	}
	return ctrlNone, nil, nil
}

// step mirrors the statement-entry accounting of exec.execStmt.
func (ex *exec) step() error {
	ex.steps++
	if ex.steps > ex.maxSteps {
		return &RuntimeError{Msg: "step limit exceeded"}
	}
	return nil
}

func (cc *compiler) compileStmts(stmts []Stmt) []cstmt {
	out := make([]cstmt, len(stmts))
	for i, s := range stmts {
		out[i] = cc.compileStmt(s)
	}
	return out
}

func (cc *compiler) compileStmt(s Stmt) cstmt {
	switch st := s.(type) {
	case *ExprStmt:
		e := cc.compileSegExpr(st.E)
		return func(fr *cframe) (ctrl, Value, error) {
			if err := fr.ex.step(); err != nil {
				return ctrlNone, nil, err
			}
			_, err := e(fr)
			return ctrlNone, nil, err
		}
	case *Assign:
		return cc.compileAssign(st)
	case *If:
		conds := make([]cexpr, len(st.Conds))
		for i, c := range st.Conds {
			conds[i] = cc.compileExpr(c)
		}
		bodies := make([][]cstmt, len(st.Bodies))
		for i, b := range st.Bodies {
			bodies[i] = cc.compileStmts(b)
		}
		var els []cstmt
		if st.Else != nil {
			els = cc.compileStmts(st.Else)
		}
		site := st.Site
		return func(fr *cframe) (ctrl, Value, error) {
			ex := fr.ex
			if err := ex.step(); err != nil {
				return ctrlNone, nil, err
			}
			for i, cond := range conds {
				v, err := cond(fr)
				if err != nil {
					return ctrlNone, nil, err
				}
				taken, err := ex.condDirection(v)
				if err != nil {
					return ctrlNone, nil, err
				}
				if taken {
					ex.branch(site, i)
					return runCStmts(fr, bodies[i])
				}
			}
			ex.branch(site, len(conds))
			if els != nil {
				return runCStmts(fr, els)
			}
			return ctrlNone, nil, nil
		}
	case *While:
		cond := cc.compileExpr(st.Cond)
		body := cc.compileStmts(st.Body)
		site := st.Site
		return func(fr *cframe) (ctrl, Value, error) {
			ex := fr.ex
			if err := ex.step(); err != nil {
				return ctrlNone, nil, err
			}
			for {
				v, err := cond(fr)
				if err != nil {
					return ctrlNone, nil, err
				}
				taken, err := ex.condDirection(v)
				if err != nil {
					return ctrlNone, nil, err
				}
				if !taken {
					ex.branch(site, 0)
					return ctrlNone, nil, nil
				}
				ex.branch(site, 1)
				c, rv, err := runCStmts(fr, body)
				if err != nil {
					return ctrlNone, nil, err
				}
				switch c {
				case ctrlBreak:
					return ctrlNone, nil, nil
				case ctrlReturn:
					return ctrlReturn, rv, nil
				}
				if err := ex.step(); err != nil {
					return ctrlNone, nil, err
				}
			}
		}
	case *For:
		var initS, postS cstmt
		if st.Init != nil {
			initS = cc.compileStmt(st.Init)
		}
		if st.Post != nil {
			postS = cc.compileStmt(st.Post)
		}
		var cond cexpr
		if st.Cond != nil {
			cond = cc.compileExpr(st.Cond)
		}
		body := cc.compileStmts(st.Body)
		site := st.Site
		return func(fr *cframe) (ctrl, Value, error) {
			ex := fr.ex
			if err := ex.step(); err != nil {
				return ctrlNone, nil, err
			}
			if initS != nil {
				if _, _, err := initS(fr); err != nil {
					return ctrlNone, nil, err
				}
			}
			for {
				if cond != nil {
					v, err := cond(fr)
					if err != nil {
						return ctrlNone, nil, err
					}
					taken, err := ex.condDirection(v)
					if err != nil {
						return ctrlNone, nil, err
					}
					if !taken {
						ex.branch(site, 0)
						return ctrlNone, nil, nil
					}
				}
				ex.branch(site, 1)
				c, rv, err := runCStmts(fr, body)
				if err != nil {
					return ctrlNone, nil, err
				}
				switch c {
				case ctrlBreak:
					return ctrlNone, nil, nil
				case ctrlReturn:
					return ctrlReturn, rv, nil
				}
				if postS != nil {
					if _, _, err := postS(fr); err != nil {
						return ctrlNone, nil, err
					}
				} else if err := ex.step(); err != nil {
					// Mirrors execFor: a post-less loop still counts a step.
					return ctrlNone, nil, err
				}
			}
		}
	case *Foreach:
		return cc.compileForeach(st)
	case *Switch:
		subj := cc.compileExpr(st.Subject)
		type carm struct {
			match cexpr
			body  []cstmt
		}
		arms := make([]carm, len(st.Cases))
		for i, cs := range st.Cases {
			arms[i] = carm{match: cc.compileExpr(cs.Match), body: cc.compileStmts(cs.Body)}
		}
		def := cc.compileStmts(st.Default)
		site := st.Site
		return func(fr *cframe) (ctrl, Value, error) {
			ex := fr.ex
			if err := ex.step(); err != nil {
				return ctrlNone, nil, err
			}
			subject, err := subj(fr)
			if err != nil {
				return ctrlNone, nil, err
			}
			arm := -2
			for i := range arms {
				mv, err := arms[i].match(fr)
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
			ex.branch(site, arm+1)
			var body []cstmt
			if arm >= 0 {
				body = arms[arm].body
			} else {
				body = def
			}
			c, rv, err := runCStmts(fr, body)
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
	case *Return:
		var e cexpr
		if st.E != nil {
			e = cc.compileSegExpr(st.E)
		}
		return func(fr *cframe) (ctrl, Value, error) {
			if err := fr.ex.step(); err != nil {
				return ctrlNone, nil, err
			}
			var v Value
			if e != nil {
				var err error
				v, err = e(fr)
				if err != nil {
					return ctrlNone, nil, err
				}
			}
			return ctrlReturn, v, nil
		}
	case *Break:
		return func(fr *cframe) (ctrl, Value, error) {
			if err := fr.ex.step(); err != nil {
				return ctrlNone, nil, err
			}
			return ctrlBreak, nil, nil
		}
	case *Continue:
		return func(fr *cframe) (ctrl, Value, error) {
			if err := fr.ex.step(); err != nil {
				return ctrlNone, nil, err
			}
			return ctrlContinue, nil, nil
		}
	case *Echo:
		args := make([]cexpr, len(st.Args))
		for i, a := range st.Args {
			args[i] = cc.compileSegExpr(a)
		}
		line := st.Line
		return func(fr *cframe) (ctrl, Value, error) {
			if err := fr.ex.step(); err != nil {
				return ctrlNone, nil, err
			}
			for _, a := range args {
				v, err := a(fr)
				if err != nil {
					return ctrlNone, nil, err
				}
				if err := fr.ex.echo(v, line); err != nil {
					return ctrlNone, nil, err
				}
			}
			return ctrlNone, nil, nil
		}
	case *Global:
		// At top level the declaration is inert (the script frame IS the
		// global frame). In a function it flips the redirect flag for
		// each named local slot — at runtime, because the statement may
		// sit behind a branch.
		var lslots []int
		if cc.fn != nil {
			for _, n := range st.Names {
				if !isSuperglobal(n) {
					lslots = append(lslots, cc.fn.locals[n])
				}
			}
		}
		return func(fr *cframe) (ctrl, Value, error) {
			if err := fr.ex.step(); err != nil {
				return ctrlNone, nil, err
			}
			for _, l := range lslots {
				fr.gflags[l] = true
			}
			return ctrlNone, nil, nil
		}
	case *Unset:
		tgts := make([]*clval, len(st.Targets))
		for i, lv := range st.Targets {
			tgts[i] = cc.compileLValue(lv)
		}
		return func(fr *cframe) (ctrl, Value, error) {
			if err := fr.ex.step(); err != nil {
				return ctrlNone, nil, err
			}
			for _, t := range tgts {
				if err := unsetCLV(fr, t); err != nil {
					return ctrlNone, nil, err
				}
			}
			return ctrlNone, nil, nil
		}
	default:
		rt := &RuntimeError{Msg: fmt.Sprintf("unknown statement %T", s)}
		return func(fr *cframe) (ctrl, Value, error) {
			if err := fr.ex.step(); err != nil {
				return ctrlNone, nil, err
			}
			return ctrlNone, nil, rt
		}
	}
}

func (cc *compiler) compileAssign(st *Assign) cstmt {
	tgt := cc.compileLValue(st.Target)
	// A plain variable may hold a segmented string; an array cell may not.
	plain := len(tgt.steps) == 0
	var rhs cexpr
	if plain {
		rhs = cc.compileSegExpr(st.RHS)
	} else {
		rhs = cc.compileExpr(st.RHS)
	}
	if st.Op == "=" {
		return func(fr *cframe) (ctrl, Value, error) {
			if err := fr.ex.step(); err != nil {
				return ctrlNone, nil, err
			}
			v, err := rhs(fr)
			if err != nil {
				return ctrlNone, nil, err
			}
			return ctrlNone, nil, assignCLV(fr, tgt, v)
		}
	}
	binOp := strings.TrimSuffix(st.Op, "=")
	line := st.Line
	return func(fr *cframe) (ctrl, Value, error) {
		if err := fr.ex.step(); err != nil {
			return ctrlNone, nil, err
		}
		// RHS first, then the old value — the interpreter's order.
		v, err := rhs(fr)
		if err != nil {
			return ctrlNone, nil, err
		}
		var old, nv Value
		if binOp == "." && plain {
			old = tgt.acc.load(fr)
		} else if old, err = readCLV(fr, tgt); err != nil {
			return ctrlNone, nil, err
		}
		if binOp == "." {
			nv, err = fr.ex.concat(old, v, line)
			if !plain {
				nv = flatValue(nv)
			}
		} else {
			nv, err = fr.ex.binaryOp(binOp, old, flatValue(v), line)
		}
		if err != nil {
			return ctrlNone, nil, err
		}
		return ctrlNone, nil, assignCLV(fr, tgt, nv)
	}
}

func (cc *compiler) compileForeach(st *Foreach) cstmt {
	subjE := cc.compileExpr(st.Subject)
	var keyAcc caccess
	hasKey := st.KeyVar != ""
	if hasKey {
		keyAcc = cc.access(st.KeyVar)
	}
	valAcc := cc.access(st.ValVar)
	body := cc.compileStmts(st.Body)
	site, line := st.Site, st.Line
	return func(fr *cframe) (ctrl, Value, error) {
		ex := fr.ex
		if err := ex.step(); err != nil {
			return ctrlNone, nil, err
		}
		subject, err := subjE(fr)
		if err != nil {
			return ctrlNone, nil, err
		}
		// Iterate a copy of the subject, as exec.execForeach does.
		switch subj := ex.copyValue(subject).(type) {
		case *Array:
			for _, e := range subj.ents {
				ex.branch(site, 1)
				if hasKey {
					keyAcc.set(fr, e.k.Value())
				}
				valAcc.set(fr, ex.copyValue(e.v))
				c, rv, err := runCStmts(fr, body)
				if err != nil {
					return ctrlNone, nil, err
				}
				switch c {
				case ctrlBreak:
					ex.branch(site, 0)
					return ctrlNone, nil, nil
				case ctrlReturn:
					return ctrlReturn, rv, nil
				}
			}
			ex.branch(site, 0)
			return ctrlNone, nil, nil
		case *Multi:
			arrs, n, err := ex.foreachLanes(subj, line)
			if err != nil {
				return ctrlNone, nil, err
			}
			for it := 0; it < n; it++ {
				ex.branch(site, 1)
				keys, vals := ex.foreachLaneElems(arrs, it)
				if hasKey {
					keyAcc.set(fr, NewMulti(keys))
				}
				valAcc.set(fr, NewMulti(vals))
				c, rv, err := runCStmts(fr, body)
				if err != nil {
					return ctrlNone, nil, err
				}
				switch c {
				case ctrlBreak:
					ex.branch(site, 0)
					return ctrlNone, nil, nil
				case ctrlReturn:
					return ctrlReturn, rv, nil
				}
			}
			ex.branch(site, 0)
			return ctrlNone, nil, nil
		case nil:
			ex.branch(site, 0)
			return ctrlNone, nil, nil
		default:
			return ctrlNone, nil, &RuntimeError{Msg: "foreach over non-array", Line: line}
		}
	}
}

// errExpr defers a compile-time-detectable fault to execution time, so
// a faulty call on a never-taken branch stays silent exactly as it does
// under the interpreter.
func errExpr(rt *RuntimeError) cexpr {
	return func(fr *cframe) (Value, error) { return nil, rt }
}

func (cc *compiler) compileExprs(exprs []Expr) []cexpr {
	out := make([]cexpr, len(exprs))
	for i, e := range exprs {
		out[i] = cc.compileExpr(e)
	}
	return out
}

func (cc *compiler) compileExpr(e Expr) cexpr {
	switch x := e.(type) {
	case *Lit:
		v := x.Val
		return func(fr *cframe) (Value, error) { return v, nil }
	case *Var:
		acc := cc.access(x.Name)
		return func(fr *cframe) (Value, error) { return acc.get(fr), nil }
	case *Index:
		if x.Idx == nil {
			return errExpr(&RuntimeError{Msg: "cannot read append-index $a[]", Line: x.Line})
		}
		tgt := cc.compileExpr(x.Target)
		idx := cc.compileExpr(x.Idx)
		line := x.Line
		return func(fr *cframe) (Value, error) {
			t, err := tgt(fr)
			if err != nil {
				return nil, err
			}
			i, err := idx(fr)
			if err != nil {
				return nil, err
			}
			ex := fr.ex
			ex.countInstr(IsMulti(t) || IsMulti(i))
			return ex.indexRead(t, i, line)
		}
	case *Binary:
		if x.Op == "." {
			return flatExpr(cc.compileSegExpr(x))
		}
		l := cc.compileExpr(x.L)
		r := cc.compileExpr(x.R)
		op, line := x.Op, x.Line
		return func(fr *cframe) (Value, error) {
			lv, err := l(fr)
			if err != nil {
				return nil, err
			}
			rv, err := r(fr)
			if err != nil {
				return nil, err
			}
			return fr.ex.binaryOp(op, lv, rv, line)
		}
	case *Logical:
		l := cc.compileExpr(x.L)
		r := cc.compileExpr(x.R)
		and := x.Op == "&&"
		site := x.Site
		return func(fr *cframe) (Value, error) {
			ex := fr.ex
			lv, err := l(fr)
			if err != nil {
				return nil, err
			}
			lb, err := ex.condDirection(lv)
			if err != nil {
				return nil, err
			}
			if and {
				if !lb {
					ex.branch(site, 0)
					return false, nil
				}
				ex.branch(site, 1)
			} else {
				if lb {
					ex.branch(site, 1)
					return true, nil
				}
				ex.branch(site, 0)
			}
			rv, err := r(fr)
			if err != nil {
				return nil, err
			}
			return logicalResult(rv), nil
		}
	case *Unary:
		sub := cc.compileExpr(x.E)
		op, line := x.Op, x.Line
		return func(fr *cframe) (Value, error) {
			v, err := sub(fr)
			if err != nil {
				return nil, err
			}
			return fr.ex.unaryOp(op, v, line)
		}
	case *Ternary:
		cond := cc.compileExpr(x.Cond)
		then := cc.compileExpr(x.Then)
		els := cc.compileExpr(x.Else)
		site := x.Site
		return func(fr *cframe) (Value, error) {
			v, err := cond(fr)
			if err != nil {
				return nil, err
			}
			taken, err := fr.ex.condDirection(v)
			if err != nil {
				return nil, err
			}
			if taken {
				fr.ex.branch(site, 1)
				return then(fr)
			}
			fr.ex.branch(site, 0)
			return els(fr)
		}
	case *Call:
		if _, ok := cc.prog.Funcs[x.Name]; ok {
			return flatExpr(cc.compileSegExpr(x))
		}
		return cc.compileCall(x)
	case *ArrayLit:
		if arr := constArray(x); arr != nil {
			// Built once, shared before the program is published, and so
			// never written: a writer copies it (Array.Own).
			share(arr)
			return func(fr *cframe) (Value, error) { return arr, nil }
		}
		type centry struct {
			key cexpr // nil for append entries
			val cexpr
		}
		entries := make([]centry, len(x.Entries))
		for i, ent := range x.Entries {
			entries[i].val = cc.compileExpr(ent.Val)
			if ent.Key != nil {
				entries[i].key = cc.compileExpr(ent.Key)
			}
		}
		line := x.Line
		return func(fr *cframe) (Value, error) {
			arr := NewArrayCap(len(entries))
			for _, ent := range entries {
				v, err := ent.val(fr)
				if err != nil {
					return nil, err
				}
				if ent.key == nil {
					arr.Append(fr.ex.copyValue(v))
					continue
				}
				kv, err := ent.key(fr)
				if err != nil {
					return nil, err
				}
				if IsMulti(kv) {
					return nil, &FallbackError{Reason: "multivalue key in array literal"}
				}
				k, err := NormalizeKey(kv)
				if err != nil {
					return nil, &RuntimeError{Msg: err.Error(), Line: line}
				}
				arr.Set(k, fr.ex.copyValue(v))
			}
			return arr, nil
		}
	case *IssetExpr:
		tgts := make([]*clval, len(x.Targets))
		for i, lv := range x.Targets {
			tgts[i] = cc.compileLValue(lv)
		}
		return func(fr *cframe) (Value, error) {
			res := true
			for _, t := range tgts {
				v, err := issetCLV(fr, t)
				if err != nil {
					return nil, err
				}
				one, err := fr.ex.condDirection(v)
				if err != nil {
					return nil, err
				}
				if !one {
					res = false
					break
				}
			}
			return res, nil
		}
	case *EmptyExpr:
		t := cc.compileLValue(x.Target)
		return func(fr *cframe) (Value, error) {
			v, err := issetCLV(fr, t)
			if err != nil {
				return nil, err
			}
			set, err := fr.ex.condDirection(v)
			if err != nil {
				return nil, err
			}
			if !set {
				return true, nil
			}
			cur, err := readCLV(fr, t)
			if err != nil {
				return nil, err
			}
			truthy, err := fr.ex.condDirection(cur)
			if err != nil {
				return nil, err
			}
			return !truthy, nil
		}
	case *IncDec:
		t := cc.compileLValue(x.Target)
		op := "+"
		if x.Op == "--" {
			op = "-"
		}
		pre, line := x.Pre, x.Line
		return func(fr *cframe) (Value, error) {
			old, err := readCLV(fr, t)
			if err != nil {
				return nil, err
			}
			nv, err := fr.ex.binaryOp(op, old, int64(1), line)
			if err != nil {
				return nil, err
			}
			if err := assignCLV(fr, t, nv); err != nil {
				return nil, err
			}
			if pre {
				return nv, nil
			}
			if old == nil {
				return int64(0), nil
			}
			return old, nil
		}
	default:
		return errExpr(&RuntimeError{Msg: fmt.Sprintf("unknown expression %T", e)})
	}
}

// constArray builds an array literal whose keys are literals or absent
// and whose values are literals or such literals in turn, with the
// calls the run-time path makes, so keys normalise and duplicate keys
// and the next index come out the same. It returns nil for any other
// literal.
func constArray(x *ArrayLit) *Array {
	arr := NewArrayCap(len(x.Entries))
	for _, ent := range x.Entries {
		var v Value
		switch e := ent.Val.(type) {
		case *Lit:
			v = e.Val
		case *ArrayLit:
			sub := constArray(e)
			if sub == nil {
				return nil
			}
			v = sub
		default:
			return nil
		}
		if ent.Key == nil {
			arr.Append(v)
			continue
		}
		kl, ok := ent.Key.(*Lit)
		if !ok {
			return nil
		}
		k, err := NormalizeKey(kl.Val)
		if err != nil {
			return nil
		}
		arr.Set(k, v)
	}
	return arr
}

// compileSegExpr lowers e for a consumer that takes a segmented string
// as it is: the operands of `.`, echo, return, a user function's
// arguments and a plain variable's assignment. Only a variable, `.` and
// a user function call can yield one; `.` yields one whenever an
// operand is a multivalue, so a page that nested calls build stays a
// part list until echo writes it.
func (cc *compiler) compileSegExpr(e Expr) cexpr {
	switch x := e.(type) {
	case *Var:
		acc := cc.access(x.Name)
		return func(fr *cframe) (Value, error) { return acc.load(fr), nil }
	case *Binary:
		if x.Op != "." {
			break
		}
		l := cc.compileSegExpr(x.L)
		r := cc.compileSegExpr(x.R)
		line := x.Line
		return func(fr *cframe) (Value, error) {
			lv, err := l(fr)
			if err != nil {
				return nil, err
			}
			rv, err := r(fr)
			if err != nil {
				return nil, err
			}
			return fr.ex.concat(lv, rv, line)
		}
	case *Call:
		return cc.compileCall(x)
	}
	return cc.compileExpr(e)
}

// flatExpr wraps a segmented-string producer for every other consumer.
func flatExpr(e cexpr) cexpr {
	return func(fr *cframe) (Value, error) {
		v, err := e(fr)
		return flatValue(v), err
	}
}

// compileCall resolves the dispatch order of exec.evalCall — user
// functions, reference builtins, state ops, nondet builtins, pure
// builtins — at compile time. The tables are immutable after Compile,
// so the resolution cannot differ from the interpreter's per-call
// lookup.
func (cc *compiler) compileCall(x *Call) cexpr {
	name, line := x.Name, x.Line
	if _, ok := cc.prog.Funcs[name]; ok {
		cf := cc.funcs[name]
		args := make([]cexpr, len(x.Args))
		for i, a := range x.Args {
			args[i] = cc.compileSegExpr(a)
		}
		return func(fr *cframe) (Value, error) {
			return callCFunc(fr, cf, args, line)
		}
	}
	if fn, ok := refBuiltins[name]; ok {
		if len(x.Args) == 0 {
			return errExpr(&RuntimeError{Msg: name + "() expects an argument", Line: line})
		}
		lv, err := exprToLValue(x.Args[0])
		if err != nil {
			return errExpr(&RuntimeError{Msg: name + "(): first argument must be a variable", Line: line})
		}
		clv := cc.compileLValue(lv)
		rest := cc.compileExprs(x.Args[1:])
		return func(fr *cframe) (Value, error) {
			cur, err := readCLV(fr, clv)
			if err != nil {
				return nil, err
			}
			var newTarget Value
			result, err := withArgs(fr, rest, func(vals []Value) (result Value, err error) {
				result, newTarget, err = fr.ex.refBuiltinApply(name, fn, cur, vals, line)
				return result, err
			})
			if err != nil {
				return nil, err
			}
			if err := assignCLV(fr, clv, newTarget); err != nil {
				return nil, err
			}
			return result, nil
		}
	}
	if stateOps[name] {
		args := cc.compileExprs(x.Args)
		return func(fr *cframe) (Value, error) {
			return withArgs(fr, args, func(vals []Value) (Value, error) {
				return fr.ex.stateOpCore(name, vals, line)
			})
		}
	}
	if nondetBuiltins[name] {
		args := cc.compileExprs(x.Args)
		return func(fr *cframe) (Value, error) {
			return withArgs(fr, args, func(vals []Value) (Value, error) {
				return fr.ex.nonDetCore(name, vals)
			})
		}
	}
	if b, ok := builtins[name]; ok {
		args := cc.compileExprs(x.Args)
		return func(fr *cframe) (Value, error) {
			return withArgs(fr, args, func(vals []Value) (Value, error) {
				return fr.ex.invokeBuiltin(name, b, vals, line)
			})
		}
	}
	return errExpr(&RuntimeError{Msg: fmt.Sprintf("call to undefined function %s()", name), Line: line})
}

// withArgs evaluates a builtin call's arguments onto the run's
// argument stack, above those of the calls still evaluating theirs,
// hands them to call as a slice whose capacity ends at the last one (so
// a callee's append cannot write into the stack), and releases them
// however the call ends. No callee keeps the slice past its return.
func withArgs(fr *cframe, args []cexpr, call func(vals []Value) (Value, error)) (Value, error) {
	ex := fr.ex
	base := len(ex.args)
	defer func() {
		clear(ex.args[base:])
		ex.args = ex.args[:base]
	}()
	for _, a := range args {
		v, err := a(fr)
		if err != nil {
			return nil, err
		}
		ex.args = append(ex.args, v)
	}
	top := len(ex.args)
	return call(ex.args[base:top:top])
}

// callCFunc mirrors exec.callUser: arguments are copies (shared, like
// every copy the production engine makes), defaults are
// evaluated in the new frame, extra arguments are evaluated in the
// caller's frame for their effects and discarded.
func callCFunc(fr *cframe, cf *cfunc, args []cexpr, line int) (Value, error) {
	ex := fr.ex
	if ex.callDepth >= maxCallDepth {
		return nil, &RuntimeError{Msg: "maximum call depth exceeded", Line: line}
	}
	fr2 := ex.getFrame(cf)
	for i, p := range cf.params {
		if i < len(args) {
			v, err := args[i](fr)
			if err != nil {
				ex.putFrame(fr2)
				return nil, err
			}
			if p.slot >= 0 {
				fr2.locals[p.slot] = ex.copyValue(v)
				fr2.set[p.slot] = true
			}
			continue
		}
		if p.def != nil {
			v, err := p.def(fr2)
			if err != nil {
				ex.putFrame(fr2)
				return nil, err
			}
			if p.slot >= 0 {
				fr2.locals[p.slot] = v
				fr2.set[p.slot] = true
			}
			continue
		}
		if p.slot >= 0 {
			fr2.locals[p.slot] = nil
			fr2.set[p.slot] = true
		}
	}
	for i := len(cf.params); i < len(args); i++ {
		if _, err := args[i](fr); err != nil {
			ex.putFrame(fr2)
			return nil, err
		}
	}
	ex.callDepth++
	c, rv, err := runCStmts(fr2, cf.body)
	ex.callDepth--
	ex.putFrame(fr2)
	if err != nil {
		return nil, err
	}
	if c == ctrlReturn {
		return ex.copyValue(rv), nil
	}
	return nil, nil
}

// clval is a compiled lvalue path. A nil element of steps is the
// append form $a[].
type clval struct {
	acc   caccess
	steps []cexpr
	line  int
}

func (cc *compiler) compileLValue(lv *LValue) *clval {
	steps := make([]cexpr, len(lv.Steps))
	for i, s := range lv.Steps {
		if s.Idx != nil {
			steps[i] = cc.compileExpr(s.Idx)
		}
	}
	return &clval{acc: cc.access(lv.Name), steps: steps, line: lv.Line}
}

// readCLV mirrors exec.readLValue.
func readCLV(fr *cframe, t *clval) (Value, error) {
	cur := t.acc.get(fr)
	for _, stepE := range t.steps {
		if stepE == nil {
			return nil, &RuntimeError{Msg: "cannot read append-index", Line: t.line}
		}
		idx, err := stepE(fr)
		if err != nil {
			return nil, err
		}
		v, err := fr.ex.indexRead(cur, idx, t.line)
		if err != nil {
			return nil, err
		}
		cur = v
	}
	return cur, nil
}

// pathInline is the longest index path whose keys an indexed write or
// unset holds in an array on the Go stack instead of the heap.
const pathInline = 4

// pathBuf returns room for an index path of n keys: buf when they fit.
func pathBuf(buf *[pathInline]Value, n int) []Value {
	if n <= pathInline {
		return buf[:n]
	}
	return make([]Value, n)
}

// assignCLV mirrors exec.assignTo.
func assignCLV(fr *cframe, t *clval, val Value) error {
	ex := fr.ex
	if len(t.steps) == 0 {
		t.acc.set(fr, ex.copyValue(val))
		if ex.stats {
			ex.countInstr(DeepContainsMulti(val))
		}
		return nil
	}
	var buf [pathInline]Value
	idxs := pathBuf(&buf, len(t.steps))
	for i, stepE := range t.steps {
		if stepE == nil {
			if i != len(t.steps)-1 {
				return &RuntimeError{Msg: "append-index must be final", Line: t.line}
			}
			idxs[i] = appendMarker{}
			continue
		}
		v, err := stepE(fr)
		if err != nil {
			return err
		}
		idxs[i] = v
	}
	root := t.acc.get(fr)
	if ex.stats {
		ex.countInstr(pathIsMulti(root, idxs, val))
	}
	newRoot, err := ex.setPath(root, idxs, ex.copyValue(val), t.line)
	if err != nil {
		return err
	}
	t.acc.set(fr, newRoot)
	return nil
}

// issetCLV mirrors exec.evalIsset.
func issetCLV(fr *cframe, t *clval) (Value, error) {
	if !t.acc.exists(fr) {
		return false, nil
	}
	cur := t.acc.get(fr)
	for _, stepE := range t.steps {
		if stepE == nil {
			return nil, &RuntimeError{Msg: "isset on append-index", Line: t.line}
		}
		idx, err := stepE(fr)
		if err != nil {
			return nil, err
		}
		v, err := fr.ex.indexReadForIsset(cur, idx)
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

// unsetCLV mirrors exec.execUnset.
func unsetCLV(fr *cframe, t *clval) error {
	if len(t.steps) == 0 {
		t.acc.unset(fr)
		return nil
	}
	var buf [pathInline]Value
	idxs := pathBuf(&buf, len(t.steps))
	for i, stepE := range t.steps {
		if stepE == nil {
			return unsetAppendError(i == len(t.steps)-1, t.line)
		}
		v, err := stepE(fr)
		if err != nil {
			return err
		}
		idxs[i] = v
	}
	root := t.acc.get(fr)
	newRoot, err := fr.ex.unsetPath(root, idxs, t.line)
	if err != nil {
		return err
	}
	if newRoot != root {
		t.acc.set(fr, newRoot)
	}
	return nil
}
