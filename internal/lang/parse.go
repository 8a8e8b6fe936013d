package lang

import (
	"fmt"
	"sort"
)

// Compile parses a set of named source files into a Program. Function
// declarations from every file are hoisted into a single global function
// table (as in PHP); each file's remaining top-level statements form the
// script body invoked when a request names that file.
func Compile(files map[string]string) (*Program, error) {
	prog := &Program{
		Scripts: make(map[string]*Script),
		Funcs:   make(map[string]*FuncDecl),
	}
	siteCounter := Site(0)
	// Deterministic compile order so Site IDs are stable across runs:
	// the server and verifier must agree on digests.
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		p := &parser{lex: newLexer(name, files[name]), sites: &siteCounter}
		if err := p.advance(); err != nil {
			return nil, err
		}
		body, funcs, err := p.parseFile()
		if err != nil {
			return nil, err
		}
		for _, f := range funcs {
			if _, dup := prog.Funcs[f.Name]; dup {
				return nil, fmt.Errorf("%s: function %q redeclared", name, f.Name)
			}
			prog.Funcs[f.Name] = f
		}
		prog.Scripts[name] = &Script{Name: name, Body: body}
	}
	prog.NumSites = int(siteCounter)
	return prog, nil
}

// MustCompile is Compile that panics on error; for tests and embedded
// application sources that are compile-time constants.
func MustCompile(files map[string]string) *Program {
	p, err := Compile(files)
	if err != nil {
		panic(err)
	}
	return p
}

type parser struct {
	lex   *lexer
	tok   token
	sites *Site
}

func (p *parser) advance() error {
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *parser) newSite() Site {
	s := *p.sites
	*p.sites = s + 1
	return s
}

func (p *parser) errorf(format string, args ...interface{}) error {
	return fmt.Errorf("%s:%d: %s (at %q)", p.lex.file, p.tok.line, fmt.Sprintf(format, args...), p.tok.String())
}

func (p *parser) isOp(text string) bool {
	return p.tok.kind == tokOp && p.tok.text == text
}

func (p *parser) isKw(kw string) bool {
	return p.tok.kind == tokIdent && p.tok.text == kw
}

func (p *parser) expectOp(text string) error {
	if !p.isOp(text) {
		return p.errorf("expected %q", text)
	}
	return p.advance()
}

func (p *parser) parseFile() (body []Stmt, funcs []*FuncDecl, err error) {
	for p.tok.kind != tokEOF {
		if p.isKw("function") {
			f, err := p.parseFuncDecl()
			if err != nil {
				return nil, nil, err
			}
			funcs = append(funcs, f)
			continue
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, nil, err
		}
		body = append(body, s)
	}
	return body, funcs, nil
}

func (p *parser) parseFuncDecl() (*FuncDecl, error) {
	line := p.tok.line
	if err := p.advance(); err != nil { // consume 'function'
		return nil, err
	}
	if p.tok.kind != tokIdent {
		return nil, p.errorf("expected function name")
	}
	name := p.tok.text
	if err := p.advance(); err != nil {
		return nil, err
	}
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	var params []Param
	for !p.isOp(")") {
		if len(params) > 0 {
			if err := p.expectOp(","); err != nil {
				return nil, err
			}
		}
		if p.tok.kind != tokVar {
			return nil, p.errorf("expected parameter")
		}
		prm := Param{Name: p.tok.text}
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.isOp("=") {
			if err := p.advance(); err != nil {
				return nil, err
			}
			def, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			prm.Default = def
		}
		params = append(params, prm)
	}
	if err := p.advance(); err != nil { // consume ')'
		return nil, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	return &FuncDecl{Name: name, Params: params, Body: body, Line: line}, nil
}

func (p *parser) parseBlock() ([]Stmt, error) {
	if err := p.expectOp("{"); err != nil {
		return nil, err
	}
	var out []Stmt
	for !p.isOp("}") {
		if p.tok.kind == tokEOF {
			return nil, p.errorf("unterminated block")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, p.advance()
}

// parseBlockOrStmt accepts either { ... } or a single statement.
func (p *parser) parseBlockOrStmt() ([]Stmt, error) {
	if p.isOp("{") {
		return p.parseBlock()
	}
	s, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	return []Stmt{s}, nil
}

func (p *parser) parseStmt() (Stmt, error) {
	line := p.tok.line
	switch {
	case p.isKw("if"):
		return p.parseIf()
	case p.isKw("while"):
		return p.parseWhile()
	case p.isKw("for"):
		return p.parseFor()
	case p.isKw("foreach"):
		return p.parseForeach()
	case p.isKw("switch"):
		return p.parseSwitch()
	case p.isKw("return"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.isOp(";") {
			return &Return{Line: line}, p.advance()
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return &Return{E: e, Line: line}, p.expectOp(";")
	case p.isKw("break"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		return &Break{Line: line}, p.expectOp(";")
	case p.isKw("continue"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		return &Continue{Line: line}, p.expectOp(";")
	case p.isKw("echo"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		var args []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			args = append(args, e)
			if !p.isOp(",") {
				break
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
		return &Echo{Args: args, Line: line}, p.expectOp(";")
	case p.isKw("global"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		var names []string
		for {
			if p.tok.kind != tokVar {
				return nil, p.errorf("expected variable after global")
			}
			names = append(names, p.tok.text)
			if err := p.advance(); err != nil {
				return nil, err
			}
			if !p.isOp(",") {
				break
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
		return &Global{Names: names, Line: line}, p.expectOp(";")
	case p.isKw("unset"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		var targets []*LValue
		for {
			lv, err := p.parseLValue()
			if err != nil {
				return nil, err
			}
			targets = append(targets, lv)
			if !p.isOp(",") {
				break
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return &Unset{Targets: targets, Line: line}, p.expectOp(";")
	default:
		s, err := p.parseSimpleStmt()
		if err != nil {
			return nil, err
		}
		return s, p.expectOp(";")
	}
}

// parseSimpleStmt parses an assignment or expression statement without
// the trailing semicolon (shared with for-loop clauses).
func (p *parser) parseSimpleStmt() (Stmt, error) {
	line := p.tok.line
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	for _, op := range []string{"=", "+=", "-=", "*=", "/=", ".=", "%="} {
		if p.isOp(op) {
			lv, err := exprToLValue(e)
			if err != nil {
				return nil, p.errorf("%v", err)
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
			rhs, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			return &Assign{Target: lv, Op: op, RHS: rhs, Line: line}, nil
		}
	}
	return &ExprStmt{E: e, Line: line}, nil
}

// exprToLValue reinterprets a parsed expression as an assignment target.
func exprToLValue(e Expr) (*LValue, error) {
	var steps []IndexStep
	for {
		switch x := e.(type) {
		case *Var:
			// reverse steps
			for i, j := 0, len(steps)-1; i < j; i, j = i+1, j-1 {
				steps[i], steps[j] = steps[j], steps[i]
			}
			return &LValue{Name: x.Name, Steps: steps, Line: x.Line}, nil
		case *Index:
			steps = append(steps, IndexStep{Idx: x.Idx})
			e = x.Target
		default:
			return nil, fmt.Errorf("invalid assignment target")
		}
	}
}

func (p *parser) parseLValue() (*LValue, error) {
	e, err := p.parsePostfix()
	if err != nil {
		return nil, err
	}
	lv, err := exprToLValue(e)
	if err != nil {
		return nil, p.errorf("%v", err)
	}
	return lv, nil
}

func (p *parser) parseIf() (Stmt, error) {
	line := p.tok.line
	st := &If{Site: p.newSite(), Line: line}
	for {
		if err := p.advance(); err != nil { // consume 'if'/'elseif'
			return nil, err
		}
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		body, err := p.parseBlockOrStmt()
		if err != nil {
			return nil, err
		}
		st.Conds = append(st.Conds, cond)
		st.Bodies = append(st.Bodies, body)
		if p.isKw("elseif") {
			continue
		}
		if p.isKw("else") {
			if err := p.advance(); err != nil {
				return nil, err
			}
			if p.isKw("if") {
				continue
			}
			els, err := p.parseBlockOrStmt()
			if err != nil {
				return nil, err
			}
			st.Else = els
		}
		return st, nil
	}
}

func (p *parser) parseWhile() (Stmt, error) {
	line := p.tok.line
	site := p.newSite()
	if err := p.advance(); err != nil {
		return nil, err
	}
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	body, err := p.parseBlockOrStmt()
	if err != nil {
		return nil, err
	}
	return &While{Cond: cond, Body: body, Site: site, Line: line}, nil
}

func (p *parser) parseFor() (Stmt, error) {
	line := p.tok.line
	site := p.newSite()
	if err := p.advance(); err != nil {
		return nil, err
	}
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	st := &For{Site: site, Line: line}
	if !p.isOp(";") {
		init, err := p.parseSimpleStmt()
		if err != nil {
			return nil, err
		}
		st.Init = init
	}
	if err := p.expectOp(";"); err != nil {
		return nil, err
	}
	if !p.isOp(";") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Cond = cond
	}
	if err := p.expectOp(";"); err != nil {
		return nil, err
	}
	if !p.isOp(")") {
		post, err := p.parseSimpleStmt()
		if err != nil {
			return nil, err
		}
		st.Post = post
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	body, err := p.parseBlockOrStmt()
	if err != nil {
		return nil, err
	}
	st.Body = body
	return st, nil
}

func (p *parser) parseForeach() (Stmt, error) {
	line := p.tok.line
	site := p.newSite()
	if err := p.advance(); err != nil {
		return nil, err
	}
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	subject, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if !p.isKw("as") {
		return nil, p.errorf("expected 'as' in foreach")
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	if p.tok.kind != tokVar {
		return nil, p.errorf("expected variable in foreach")
	}
	first := p.tok.text
	if err := p.advance(); err != nil {
		return nil, err
	}
	st := &Foreach{Subject: subject, Site: site, Line: line}
	if p.isOp("=>") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.tok.kind != tokVar {
			return nil, p.errorf("expected value variable in foreach")
		}
		st.KeyVar = first
		st.ValVar = p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
	} else {
		st.ValVar = first
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	body, err := p.parseBlockOrStmt()
	if err != nil {
		return nil, err
	}
	st.Body = body
	return st, nil
}

func (p *parser) parseSwitch() (Stmt, error) {
	line := p.tok.line
	site := p.newSite()
	if err := p.advance(); err != nil {
		return nil, err
	}
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	subject, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	if err := p.expectOp("{"); err != nil {
		return nil, err
	}
	st := &Switch{Subject: subject, Site: site, Line: line}
	for !p.isOp("}") {
		switch {
		case p.isKw("case"):
			if err := p.advance(); err != nil {
				return nil, err
			}
			match, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(":"); err != nil {
				return nil, err
			}
			body, err := p.parseCaseBody()
			if err != nil {
				return nil, err
			}
			st.Cases = append(st.Cases, SwitchCase{Match: match, Body: body})
		case p.isKw("default"):
			if err := p.advance(); err != nil {
				return nil, err
			}
			if err := p.expectOp(":"); err != nil {
				return nil, err
			}
			body, err := p.parseCaseBody()
			if err != nil {
				return nil, err
			}
			st.Default = body
		default:
			return nil, p.errorf("expected case or default in switch")
		}
	}
	return st, p.advance()
}

func (p *parser) parseCaseBody() ([]Stmt, error) {
	var out []Stmt
	for !p.isKw("case") && !p.isKw("default") && !p.isOp("}") {
		if p.tok.kind == tokEOF {
			return nil, p.errorf("unterminated switch")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// --- Expression parsing, by precedence ---

func (p *parser) parseExpr() (Expr, error) {
	return p.parseTernary()
}

func (p *parser) parseTernary() (Expr, error) {
	cond, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if !p.isOp("?") {
		return cond, nil
	}
	line := p.tok.line
	site := p.newSite()
	if err := p.advance(); err != nil {
		return nil, err
	}
	then, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectOp(":"); err != nil {
		return nil, err
	}
	els, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return &Ternary{Cond: cond, Then: then, Else: els, Site: site, Line: line}, nil
}

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.isOp("||") || p.isKw("or") {
		line := p.tok.line
		site := p.newSite()
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &Logical{Op: "||", L: l, R: r, Site: site, Line: line}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseEquality()
	if err != nil {
		return nil, err
	}
	for p.isOp("&&") || p.isKw("and") {
		line := p.tok.line
		site := p.newSite()
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.parseEquality()
		if err != nil {
			return nil, err
		}
		l = &Logical{Op: "&&", L: l, R: r, Site: site, Line: line}
	}
	return l, nil
}

func (p *parser) parseEquality() (Expr, error) {
	l, err := p.parseComparison()
	if err != nil {
		return nil, err
	}
	for p.isOp("==") || p.isOp("!=") || p.isOp("===") || p.isOp("!==") {
		op := p.tok.text
		line := p.tok.line
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.parseComparison()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: op, L: l, R: r, Line: line}
	}
	return l, nil
}

func (p *parser) parseComparison() (Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	for p.isOp("<") || p.isOp("<=") || p.isOp(">") || p.isOp(">=") {
		op := p.tok.text
		line := p.tok.line
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: op, L: l, R: r, Line: line}
	}
	return l, nil
}

func (p *parser) parseAdditive() (Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for p.isOp("+") || p.isOp("-") || p.isOp(".") {
		op := p.tok.text
		line := p.tok.line
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: op, L: l, R: r, Line: line}
	}
	return l, nil
}

func (p *parser) parseMultiplicative() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.isOp("*") || p.isOp("/") || p.isOp("%") {
		op := p.tok.text
		line := p.tok.line
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: op, L: l, R: r, Line: line}
	}
	return l, nil
}

func (p *parser) parseUnary() (Expr, error) {
	line := p.tok.line
	switch {
	case p.isOp("!"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: "!", E: e, Line: line}, nil
	case p.isOp("-"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: "-", E: e, Line: line}, nil
	case p.isOp("+"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		return p.parseUnary()
	case p.isOp("++") || p.isOp("--"):
		op := p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		lv, err := p.parseLValue()
		if err != nil {
			return nil, err
		}
		return &IncDec{Target: lv, Op: op, Pre: true, Line: line}, nil
	}
	return p.parsePostfix()
}

func (p *parser) parsePostfix() (Expr, error) {
	e, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.isOp("["):
			line := p.tok.line
			if err := p.advance(); err != nil {
				return nil, err
			}
			if p.isOp("]") { // append form $a[]
				if err := p.advance(); err != nil {
					return nil, err
				}
				e = &Index{Target: e, Idx: nil, Line: line}
				continue
			}
			idx, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp("]"); err != nil {
				return nil, err
			}
			e = &Index{Target: e, Idx: idx, Line: line}
		case p.isOp("++") || p.isOp("--"):
			op := p.tok.text
			line := p.tok.line
			lv, lvErr := exprToLValue(e)
			if lvErr != nil {
				return nil, p.errorf("%v", lvErr)
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
			e = &IncDec{Target: lv, Op: op, Pre: false, Line: line}
		default:
			return e, nil
		}
	}
}

func (p *parser) parsePrimary() (Expr, error) {
	line := p.tok.line
	switch p.tok.kind {
	case tokVar:
		name := p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		return &Var{Name: name, Line: line}, nil
	case tokInt:
		v := p.tok.ival
		if err := p.advance(); err != nil {
			return nil, err
		}
		return &Lit{Val: v, Line: line}, nil
	case tokFloat:
		v := p.tok.fval
		if err := p.advance(); err != nil {
			return nil, err
		}
		return &Lit{Val: v, Line: line}, nil
	case tokString:
		v := p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		return &Lit{Val: v, Line: line}, nil
	case tokIdent:
		name := p.tok.text
		switch name {
		case "true", "TRUE", "True":
			if err := p.advance(); err != nil {
				return nil, err
			}
			return &Lit{Val: true, Line: line}, nil
		case "false", "FALSE", "False":
			if err := p.advance(); err != nil {
				return nil, err
			}
			return &Lit{Val: false, Line: line}, nil
		case "null", "NULL", "Null":
			if err := p.advance(); err != nil {
				return nil, err
			}
			return &Lit{Val: nil, Line: line}, nil
		case "isset":
			return p.parseIsset()
		case "empty":
			return p.parseEmpty()
		case "array":
			if err := p.advance(); err != nil {
				return nil, err
			}
			return p.parseArrayLit("(", ")")
		default:
			if err := p.advance(); err != nil {
				return nil, err
			}
			if !p.isOp("(") {
				return nil, p.errorf("unexpected identifier %q", name)
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
			var args []Expr
			for !p.isOp(")") {
				if len(args) > 0 {
					if err := p.expectOp(","); err != nil {
						return nil, err
					}
				}
				a, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				args = append(args, a)
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
			return &Call{Name: name, Args: args, Line: line}, nil
		}
	case tokOp:
		switch p.tok.text {
		case "(":
			if err := p.advance(); err != nil {
				return nil, err
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			return e, p.expectOp(")")
		case "[":
			if err := p.advance(); err != nil {
				return nil, err
			}
			return p.parseArrayLitBody("]")
		}
	}
	return nil, p.errorf("unexpected token")
}

func (p *parser) parseIsset() (Expr, error) {
	line := p.tok.line
	if err := p.advance(); err != nil {
		return nil, err
	}
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	var targets []*LValue
	for {
		lv, err := p.parseLValue()
		if err != nil {
			return nil, err
		}
		targets = append(targets, lv)
		if !p.isOp(",") {
			break
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return &IssetExpr{Targets: targets, Line: line}, nil
}

func (p *parser) parseEmpty() (Expr, error) {
	line := p.tok.line
	if err := p.advance(); err != nil {
		return nil, err
	}
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	lv, err := p.parseLValue()
	if err != nil {
		return nil, err
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return &EmptyExpr{Target: lv, Line: line}, nil
}

func (p *parser) parseArrayLit(open, close string) (Expr, error) {
	if err := p.expectOp(open); err != nil {
		return nil, err
	}
	return p.parseArrayLitBody(close)
}

func (p *parser) parseArrayLitBody(close string) (Expr, error) {
	line := p.tok.line
	lit := &ArrayLit{Line: line}
	for !p.isOp(close) {
		if len(lit.Entries) > 0 {
			if err := p.expectOp(","); err != nil {
				return nil, err
			}
			// trailing comma
			if p.isOp(close) {
				break
			}
		}
		first, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		entry := ArrayEntry{Val: first}
		if p.isOp("=>") {
			if err := p.advance(); err != nil {
				return nil, err
			}
			val, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			entry = ArrayEntry{Key: first, Val: val}
		}
		lit.Entries = append(lit.Entries, entry)
	}
	return lit, p.advance()
}
