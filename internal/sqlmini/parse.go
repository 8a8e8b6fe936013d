package sqlmini

import (
	"fmt"
	"strconv"
	"strings"
)

// Stmt is a parsed SQL statement.
type Stmt interface{ stmt() }

// CreateTable is CREATE TABLE name (col TYPE [AUTOINCREMENT], ...).
type CreateTable struct {
	Table string
	Cols  []Column
}

// Insert is INSERT INTO t (cols) VALUES (...), (...).
type Insert struct {
	Table string
	Cols  []string
	Rows  [][]Val
}

// Select is SELECT cols FROM t [WHERE] [ORDER BY] [LIMIT [OFFSET]].
type Select struct {
	Table   string
	Cols    []string // nil means *
	Count   bool     // SELECT COUNT(*)
	Where   Cond
	OrderBy []OrderKey
	Limit   int64 // -1 = none
	Offset  int64
}

// Update is UPDATE t SET col = val, ... [WHERE].
type Update struct {
	Table string
	Sets  []SetClause
	Where Cond
}

// Delete is DELETE FROM t [WHERE].
type Delete struct {
	Table string
	Where Cond
}

// SetClause assigns a literal (or col+literal increment) to a column.
type SetClause struct {
	Col string
	// Expr is the value: either a literal, or an increment of the same
	// column (col = col + n), which UPDATE supports for counters.
	Val      Val
	SelfOp   string // "" for plain literal; "+" or "-" for col = col ± Val
	SelfBase string // the column read in a self-op
}

// OrderKey is one ORDER BY key.
type OrderKey struct {
	Col  string
	Desc bool
}

// Cond is a WHERE condition tree.
type Cond interface{ cond() }

// CmpCond compares a column to a literal: = != <> < <= > >=.
type CmpCond struct {
	Col string
	Op  string
	Val Val
}

// LikeCond matches a column against a pattern with % wildcards.
type LikeCond struct {
	Col     string
	Pattern string
}

// InCond tests column membership in a literal list.
type InCond struct {
	Col  string
	Vals []Val
}

// AndCond and OrCond combine conditions.
type AndCond struct{ L, R Cond }

// OrCond is the disjunction of two conditions.
type OrCond struct{ L, R Cond }

// NotCond negates a condition.
type NotCond struct{ C Cond }

func (*CreateTable) stmt() {}
func (*Insert) stmt()      {}
func (*Select) stmt()      {}
func (*Update) stmt()      {}
func (*Delete) stmt()      {}

func (*CmpCond) cond()  {}
func (*LikeCond) cond() {}
func (*InCond) cond()   {}
func (*AndCond) cond()  {}
func (*OrCond) cond()   {}
func (*NotCond) cond()  {}

// TablesOf returns the tables a statement touches (lower-cased).
func TablesOf(s Stmt) []string {
	switch x := s.(type) {
	case *CreateTable:
		return []string{strings.ToLower(x.Table)}
	case *Insert:
		return []string{strings.ToLower(x.Table)}
	case *Select:
		return []string{strings.ToLower(x.Table)}
	case *Update:
		return []string{strings.ToLower(x.Table)}
	case *Delete:
		return []string{strings.ToLower(x.Table)}
	default:
		return nil
	}
}

// IsWrite reports whether the statement mutates the database.
func IsWrite(s Stmt) bool {
	switch s.(type) {
	case *Select:
		return false
	default:
		return true
	}
}

// --- lexer ---

type sqlTokKind uint8

const (
	sqlEOF sqlTokKind = iota
	sqlIdent
	sqlNumber
	sqlString
	sqlOp
)

type sqlToken struct {
	kind sqlTokKind
	text string
	val  Val
}

type sqlLexer struct {
	src string
	pos int
}

func (l *sqlLexer) next() (sqlToken, error) {
	for l.pos < len(l.src) && isSQLSpace(l.src[l.pos]) {
		l.pos++
	}
	if l.pos >= len(l.src) {
		return sqlToken{kind: sqlEOF}, nil
	}
	c := l.src[l.pos]
	switch {
	case isSQLIdentStart(c):
		start := l.pos
		for l.pos < len(l.src) && isSQLIdentChar(l.src[l.pos]) {
			l.pos++
		}
		return sqlToken{kind: sqlIdent, text: l.src[start:l.pos]}, nil
	case c >= '0' && c <= '9':
		start := l.pos
		isFloat := false
		for l.pos < len(l.src) {
			ch := l.src[l.pos]
			if ch >= '0' && ch <= '9' {
				l.pos++
			} else if ch == '.' && !isFloat {
				isFloat = true
				l.pos++
			} else {
				break
			}
		}
		text := l.src[start:l.pos]
		if isFloat {
			f, err := strconv.ParseFloat(text, 64)
			if err != nil {
				return sqlToken{}, fmt.Errorf("sqlmini: bad number %q", text)
			}
			return sqlToken{kind: sqlNumber, val: f}, nil
		}
		n, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			return sqlToken{}, fmt.Errorf("sqlmini: bad number %q", text)
		}
		return sqlToken{kind: sqlNumber, val: n}, nil
	case c == '\'':
		v, n, err := scanSQLString(l.src[l.pos:])
		if err != nil {
			return sqlToken{}, err
		}
		l.pos += n
		return sqlToken{kind: sqlString, val: v}, nil
	default:
		for _, op := range []string{"<=", ">=", "<>", "!=", "=", "<", ">", "(", ")", ",", "*", ";", "+", "-"} {
			if strings.HasPrefix(l.src[l.pos:], op) {
				l.pos += len(op)
				return sqlToken{kind: sqlOp, text: op}, nil
			}
		}
		return sqlToken{}, fmt.Errorf("sqlmini: unexpected character %q", c)
	}
}

// scanSQLString scans the string literal src opens with a quote, up to
// the closing quote; inside it a doubled quote stands for one quote.
// It returns the literal's value and the bytes it spans. The value is a
// copy, so a literal never pins the statement text (a whole review body
// logged in an INSERT, say) or the buffer that text was built in.
func scanSQLString(src string) (string, int, error) {
	var b strings.Builder
	i := 1
	for {
		j := strings.IndexByte(src[i:], '\'')
		if j < 0 {
			return "", 0, fmt.Errorf("sqlmini: unterminated string")
		}
		j += i
		if j+1 < len(src) && src[j+1] == '\'' {
			b.WriteString(src[i : j+1]) // the run and one quote
			i = j + 2
			continue
		}
		if b.Len() == 0 {
			return strings.Clone(src[i:j]), j + 1, nil
		}
		b.WriteString(src[i:j])
		return b.String(), j + 1, nil
	}
}

func isSQLSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }
func isSQLIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}
func isSQLIdentChar(c byte) bool { return isSQLIdentStart(c) || (c >= '0' && c <= '9') }

// --- parser ---

type sqlParser struct {
	lex *sqlLexer
	tok sqlToken
}

// Parse parses a single SQL statement.
func Parse(sql string) (Stmt, error) {
	p := &sqlParser{lex: &sqlLexer{src: sql}}
	if err := p.advance(); err != nil {
		return nil, err
	}
	st, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	// Optional trailing semicolon.
	if p.tok.kind == sqlOp && p.tok.text == ";" {
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	if p.tok.kind != sqlEOF {
		return nil, fmt.Errorf("sqlmini: trailing tokens after statement in %q", sql)
	}
	return st, nil
}

func (p *sqlParser) advance() error {
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *sqlParser) isKw(kw string) bool {
	return p.tok.kind == sqlIdent && strings.EqualFold(p.tok.text, kw)
}

func (p *sqlParser) expectKw(kw string) error {
	if !p.isKw(kw) {
		return fmt.Errorf("sqlmini: expected %s", kw)
	}
	return p.advance()
}

func (p *sqlParser) isOp(op string) bool {
	return p.tok.kind == sqlOp && p.tok.text == op
}

func (p *sqlParser) expectOp(op string) error {
	if !p.isOp(op) {
		return fmt.Errorf("sqlmini: expected %q", op)
	}
	return p.advance()
}

func (p *sqlParser) ident() (string, error) {
	if p.tok.kind != sqlIdent {
		return "", fmt.Errorf("sqlmini: expected identifier")
	}
	s := p.tok.text
	return s, p.advance()
}

func (p *sqlParser) parseStmt() (Stmt, error) {
	switch {
	case p.isKw("CREATE"):
		return p.parseCreate()
	case p.isKw("INSERT"):
		return p.parseInsert()
	case p.isKw("SELECT"):
		return p.parseSelect()
	case p.isKw("UPDATE"):
		return p.parseUpdate()
	case p.isKw("DELETE"):
		return p.parseDelete()
	default:
		return nil, fmt.Errorf("sqlmini: unsupported statement (token %q)", p.tok.text)
	}
}

func (p *sqlParser) parseCreate() (Stmt, error) {
	if err := p.advance(); err != nil {
		return nil, err
	}
	if err := p.expectKw("TABLE"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	var cols []Column
	for {
		cname, err := p.ident()
		if err != nil {
			return nil, err
		}
		tname, err := p.ident()
		if err != nil {
			return nil, err
		}
		var ct ColType
		switch strings.ToUpper(tname) {
		case "INT", "INTEGER", "BIGINT":
			ct = IntCol
		case "FLOAT", "DOUBLE", "REAL":
			ct = FloatCol
		case "TEXT", "VARCHAR", "CHAR":
			ct = TextCol
		default:
			return nil, fmt.Errorf("sqlmini: unknown column type %q", tname)
		}
		// Optional length suffix: VARCHAR(255).
		if p.isOp("(") {
			if err := p.advance(); err != nil {
				return nil, err
			}
			if p.tok.kind != sqlNumber {
				return nil, fmt.Errorf("sqlmini: expected length")
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
		}
		col := Column{Name: cname, Type: ct}
		// Optional modifiers: AUTOINCREMENT, PRIMARY KEY, NOT NULL.
		for p.tok.kind == sqlIdent {
			switch strings.ToUpper(p.tok.text) {
			case "AUTOINCREMENT", "AUTO_INCREMENT":
				col.AutoInc = true
				if err := p.advance(); err != nil {
					return nil, err
				}
			case "PRIMARY":
				if err := p.advance(); err != nil {
					return nil, err
				}
				if err := p.expectKw("KEY"); err != nil {
					return nil, err
				}
			case "NOT":
				if err := p.advance(); err != nil {
					return nil, err
				}
				if err := p.expectKw("NULL"); err != nil {
					return nil, err
				}
			default:
				goto colDone
			}
		}
	colDone:
		cols = append(cols, col)
		if p.isOp(",") {
			if err := p.advance(); err != nil {
				return nil, err
			}
			continue
		}
		break
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return &CreateTable{Table: name, Cols: cols}, nil
}

func (p *sqlParser) parseInsert() (Stmt, error) {
	if err := p.advance(); err != nil {
		return nil, err
	}
	if err := p.expectKw("INTO"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	var cols []string
	for {
		c, err := p.ident()
		if err != nil {
			return nil, err
		}
		cols = append(cols, c)
		if p.isOp(",") {
			if err := p.advance(); err != nil {
				return nil, err
			}
			continue
		}
		break
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	if err := p.expectKw("VALUES"); err != nil {
		return nil, err
	}
	var rows [][]Val
	for {
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		var row []Val
		for {
			v, err := p.literal()
			if err != nil {
				return nil, err
			}
			row = append(row, v)
			if p.isOp(",") {
				if err := p.advance(); err != nil {
					return nil, err
				}
				continue
			}
			break
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		if len(row) != len(cols) {
			return nil, fmt.Errorf("sqlmini: %d values for %d columns", len(row), len(cols))
		}
		rows = append(rows, row)
		if p.isOp(",") {
			if err := p.advance(); err != nil {
				return nil, err
			}
			continue
		}
		break
	}
	return &Insert{Table: name, Cols: cols, Rows: rows}, nil
}

func (p *sqlParser) literal() (Val, error) {
	switch {
	case p.isOp("-"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.tok.kind != sqlNumber {
			return nil, fmt.Errorf("sqlmini: expected number after unary minus")
		}
		v := p.tok.val
		if err := p.advance(); err != nil {
			return nil, err
		}
		switch x := v.(type) {
		case int64:
			return -x, nil
		case float64:
			return -x, nil
		}
		return nil, fmt.Errorf("sqlmini: bad numeric literal")
	case p.tok.kind == sqlNumber || p.tok.kind == sqlString:
		v := p.tok.val
		return v, p.advance()
	case p.isKw("NULL"):
		return nil, p.advance()
	case p.isKw("TRUE"):
		return int64(1), p.advance()
	case p.isKw("FALSE"):
		return int64(0), p.advance()
	default:
		return nil, fmt.Errorf("sqlmini: expected literal (got %q)", p.tok.text)
	}
}

func (p *sqlParser) parseSelect() (Stmt, error) {
	if err := p.advance(); err != nil {
		return nil, err
	}
	sel := &Select{Limit: -1}
	switch {
	case p.isOp("*"):
		if err := p.advance(); err != nil {
			return nil, err
		}
	case p.isKw("COUNT"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		if err := p.expectOp("*"); err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		sel.Count = true
	default:
		for {
			c, err := p.ident()
			if err != nil {
				return nil, err
			}
			sel.Cols = append(sel.Cols, c)
			if p.isOp(",") {
				if err := p.advance(); err != nil {
					return nil, err
				}
				continue
			}
			break
		}
	}
	if err := p.expectKw("FROM"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	sel.Table = name
	if p.isKw("WHERE") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		w, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		sel.Where = w
	}
	if p.isKw("ORDER") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		for {
			c, err := p.ident()
			if err != nil {
				return nil, err
			}
			key := OrderKey{Col: c}
			if p.isKw("DESC") {
				key.Desc = true
				if err := p.advance(); err != nil {
					return nil, err
				}
			} else if p.isKw("ASC") {
				if err := p.advance(); err != nil {
					return nil, err
				}
			}
			sel.OrderBy = append(sel.OrderBy, key)
			if p.isOp(",") {
				if err := p.advance(); err != nil {
					return nil, err
				}
				continue
			}
			break
		}
	}
	if p.isKw("LIMIT") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		v, err := p.literal()
		if err != nil {
			return nil, err
		}
		n, ok := v.(int64)
		if !ok || n < 0 {
			return nil, fmt.Errorf("sqlmini: bad LIMIT")
		}
		sel.Limit = n
		if p.isKw("OFFSET") {
			if err := p.advance(); err != nil {
				return nil, err
			}
			v, err := p.literal()
			if err != nil {
				return nil, err
			}
			off, ok := v.(int64)
			if !ok || off < 0 {
				return nil, fmt.Errorf("sqlmini: bad OFFSET")
			}
			sel.Offset = off
		}
	}
	return sel, nil
}

func (p *sqlParser) parseUpdate() (Stmt, error) {
	if err := p.advance(); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("SET"); err != nil {
		return nil, err
	}
	up := &Update{Table: name}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp("="); err != nil {
			return nil, err
		}
		// Either a literal, or col ± literal (counter updates like
		// "views = views + 1").
		if p.tok.kind == sqlIdent && !p.isKw("NULL") && !p.isKw("TRUE") && !p.isKw("FALSE") {
			base, err := p.ident()
			if err != nil {
				return nil, err
			}
			var op string
			switch {
			case p.isOp("+"):
				op = "+"
			case p.isOp("-"):
				op = "-"
			default:
				return nil, fmt.Errorf("sqlmini: expected + or - after column in SET")
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
			v, err := p.literal()
			if err != nil {
				return nil, err
			}
			up.Sets = append(up.Sets, SetClause{Col: col, SelfBase: base, SelfOp: op, Val: v})
		} else {
			v, err := p.literal()
			if err != nil {
				return nil, err
			}
			up.Sets = append(up.Sets, SetClause{Col: col, Val: v})
		}
		if p.isOp(",") {
			if err := p.advance(); err != nil {
				return nil, err
			}
			continue
		}
		break
	}
	if p.isKw("WHERE") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		w, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		up.Where = w
	}
	return up, nil
}

func (p *sqlParser) parseDelete() (Stmt, error) {
	if err := p.advance(); err != nil {
		return nil, err
	}
	if err := p.expectKw("FROM"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	del := &Delete{Table: name}
	if p.isKw("WHERE") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		w, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		del.Where = w
	}
	return del, nil
}

func (p *sqlParser) parseOr() (Cond, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.isKw("OR") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &OrCond{L: l, R: r}
	}
	return l, nil
}

func (p *sqlParser) parseAnd() (Cond, error) {
	l, err := p.parseCondAtom()
	if err != nil {
		return nil, err
	}
	for p.isKw("AND") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.parseCondAtom()
		if err != nil {
			return nil, err
		}
		l = &AndCond{L: l, R: r}
	}
	return l, nil
}

func (p *sqlParser) parseCondAtom() (Cond, error) {
	if p.isOp("(") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		c, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return c, nil
	}
	if p.isKw("NOT") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		c, err := p.parseCondAtom()
		if err != nil {
			return nil, err
		}
		return &NotCond{C: c}, nil
	}
	col, err := p.ident()
	if err != nil {
		return nil, err
	}
	if p.isKw("LIKE") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		v, err := p.literal()
		if err != nil {
			return nil, err
		}
		pat, ok := v.(string)
		if !ok {
			return nil, fmt.Errorf("sqlmini: LIKE requires a string pattern")
		}
		return &LikeCond{Col: col, Pattern: pat}, nil
	}
	if p.isKw("IN") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		var vals []Val
		for {
			v, err := p.literal()
			if err != nil {
				return nil, err
			}
			vals = append(vals, v)
			if p.isOp(",") {
				if err := p.advance(); err != nil {
					return nil, err
				}
				continue
			}
			break
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return &InCond{Col: col, Vals: vals}, nil
	}
	if p.tok.kind != sqlOp {
		return nil, fmt.Errorf("sqlmini: expected comparison operator")
	}
	op := p.tok.text
	switch op {
	case "=", "!=", "<>", "<", "<=", ">", ">=":
	default:
		return nil, fmt.Errorf("sqlmini: bad comparison operator %q", op)
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	v, err := p.literal()
	if err != nil {
		return nil, err
	}
	return &CmpCond{Col: col, Op: op, Val: v}, nil
}

// Quote renders s as a SQL string literal with ” escaping.
func Quote(s string) string {
	return "'" + strings.ReplaceAll(s, "'", "''") + "'"
}
