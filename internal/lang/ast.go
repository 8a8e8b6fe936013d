package lang

import "sync"

// Site identifies a branch point in the program. The recording runtime
// folds (site, direction) pairs into the control-flow digest (§4.3), so
// two requests receive the same opaque tag iff they took the same path.
type Site int32

// --- Expressions ---

// Expr is an expression node.
type Expr interface{ exprNode() }

// Lit is a literal value (int64, float64, string, bool or nil).
type Lit struct {
	Val  Value
	Line int
}

// Var references a variable ($x) or superglobal (_GET, _POST, _COOKIE).
type Var struct {
	Name string
	Line int
}

// Index is subscripting: target[index].
type Index struct {
	Target Expr
	Idx    Expr
	Line   int
}

// Binary is a non-short-circuit binary operation:
// + - * / % . == === != !== < <= > >=
type Binary struct {
	Op   string
	L, R Expr
	Line int
}

// Logical is short-circuit && or ||. It has a Site because the
// short-circuit decision is control flow.
type Logical struct {
	Op   string // "&&" or "||"
	L, R Expr
	Site Site
	Line int
}

// Unary is !x or -x or +x.
type Unary struct {
	Op   string
	E    Expr
	Line int
}

// Ternary is cond ? then : else (a branch; has a Site).
type Ternary struct {
	Cond, Then, Else Expr
	Site             Site
	Line             int
}

// Call invokes a user function or builtin.
type Call struct {
	Name string
	Args []Expr
	Line int
}

// ArrayEntry is one element of an array literal; Key may be nil.
type ArrayEntry struct {
	Key Expr
	Val Expr
}

// ArrayLit is array(...) or [...].
type ArrayLit struct {
	Entries []ArrayEntry
	Line    int
}

// IssetExpr is isset($x), isset($a[k]), ... — true iff every operand
// exists and is non-null.
type IssetExpr struct {
	Targets []*LValue
	Line    int
}

// EmptyExpr is empty($x) — true iff the operand is unset or falsy.
type EmptyExpr struct {
	Target *LValue
	Line   int
}

// IncDec is $x++ / $x-- / ++$x / --$x used as an expression.
type IncDec struct {
	Target *LValue
	Op     string // "++" or "--"
	Pre    bool
	Line   int
}

func (*Lit) exprNode()       {}
func (*Var) exprNode()       {}
func (*Index) exprNode()     {}
func (*Binary) exprNode()    {}
func (*Logical) exprNode()   {}
func (*Unary) exprNode()     {}
func (*Ternary) exprNode()   {}
func (*Call) exprNode()      {}
func (*ArrayLit) exprNode()  {}
func (*IssetExpr) exprNode() {}
func (*EmptyExpr) exprNode() {}
func (*IncDec) exprNode()    {}

// LValue is an assignable location: a variable plus a chain of index
// steps. A nil Idx in a step means the append form $a[] (valid only as
// the final step of an assignment target).
type LValue struct {
	Name  string
	Steps []IndexStep
	Line  int
}

// IndexStep is one subscript in an lvalue path.
type IndexStep struct {
	Idx Expr // nil means append ($a[] = ...)
}

// --- Statements ---

// Stmt is a statement node.
type Stmt interface{ stmtNode() }

// ExprStmt evaluates an expression for its side effects.
type ExprStmt struct {
	E    Expr
	Line int
}

// Assign is lv op rhs where op ∈ {=, +=, -=, *=, /=, .=, %=}.
type Assign struct {
	Target *LValue
	Op     string
	RHS    Expr
	Line   int
}

// If is a chain of conditions with an optional else.
type If struct {
	Conds  []Expr   // condition per branch arm
	Bodies [][]Stmt // same length as Conds
	Else   []Stmt   // may be nil
	Site   Site
	Line   int
}

// While loops while the condition holds.
type While struct {
	Cond Expr
	Body []Stmt
	Site Site
	Line int
}

// For is the C-style loop.
type For struct {
	Init Stmt // may be nil
	Cond Expr // may be nil (infinite)
	Post Stmt // may be nil
	Body []Stmt
	Site Site
	Line int
}

// Foreach iterates an array: foreach (subject as [$k =>] $v) body.
type Foreach struct {
	Subject Expr
	KeyVar  string // "" if absent
	ValVar  string
	Body    []Stmt
	Site    Site
	Line    int
}

// Switch with strict case matching (PHP uses loose; we use loose too).
type Switch struct {
	Subject Expr
	Cases   []SwitchCase
	Default []Stmt // may be nil
	Site    Site
	Line    int
}

// SwitchCase is one case arm (no fallthrough: each arm is independent,
// which is how our applications use switch).
type SwitchCase struct {
	Match Expr
	Body  []Stmt
}

// Return exits the enclosing function (or script) with an optional value.
type Return struct {
	E    Expr // may be nil
	Line int
}

// Break exits the innermost loop or switch.
type Break struct{ Line int }

// Continue re-tests the innermost loop.
type Continue struct{ Line int }

// Echo writes the string coercion of each argument to the output.
type Echo struct {
	Args []Expr
	Line int
}

// Global imports names from the global scope (PHP `global $x;`).
type Global struct {
	Names []string
	Line  int
}

// Unset removes variables or array elements.
type Unset struct {
	Targets []*LValue
	Line    int
}

func (*ExprStmt) stmtNode() {}
func (*Assign) stmtNode()   {}
func (*If) stmtNode()       {}
func (*While) stmtNode()    {}
func (*For) stmtNode()      {}
func (*Foreach) stmtNode()  {}
func (*Switch) stmtNode()   {}
func (*Return) stmtNode()   {}
func (*Break) stmtNode()    {}
func (*Continue) stmtNode() {}
func (*Echo) stmtNode()     {}
func (*Global) stmtNode()   {}
func (*Unset) stmtNode()    {}

// Param is a function parameter with an optional default literal.
type Param struct {
	Name    string
	Default Expr // nil if required
}

// FuncDecl is a user-defined function. Functions are global across all
// scripts of a Program, as in PHP.
type FuncDecl struct {
	Name   string
	Params []Param
	Body   []Stmt
	Line   int
}

// Script is one entry point ("a PHP file"): the statements executed when
// a request names it.
type Script struct {
	Name string
	Body []Stmt
}

// Program is a compiled application: entry-point scripts plus the global
// function table.
type Program struct {
	Scripts map[string]*Script
	Funcs   map[string]*FuncDecl
	// NumSites is the number of branch sites assigned at parse time.
	NumSites int

	// The compiled engine's lowered form, computed lazily on first use
	// (see compiled.go). Programs are shared between the server and
	// concurrent verifier workers, hence the Once.
	lowerOnce sync.Once
	lowered   *cprog
}
