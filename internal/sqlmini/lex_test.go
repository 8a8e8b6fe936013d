package sqlmini

import (
	"fmt"
	"strings"
	"testing"
	"unsafe"
)

// refLexString is the string-literal lexer scanSQLString replaced: one
// byte at a time from the opening quote at l.pos. It is the oracle of
// FuzzSQLStringLiteral.
func refLexString(l *sqlLexer) (sqlToken, error) {
	l.pos++
	var b strings.Builder
	for l.pos < len(l.src) {
		ch := l.src[l.pos]
		if ch == '\'' {
			// '' is an escaped quote.
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
				b.WriteByte('\'')
				l.pos += 2
				continue
			}
			l.pos++
			return sqlToken{kind: sqlString, val: b.String()}, nil
		}
		b.WriteByte(ch)
		l.pos++
	}
	return sqlToken{}, fmt.Errorf("sqlmini: unterminated string")
}

// refNext is sqlLexer.next with string literals lexed by refLexString.
func refNext(l *sqlLexer) (sqlToken, error) {
	for l.pos < len(l.src) && isSQLSpace(l.src[l.pos]) {
		l.pos++
	}
	if l.pos < len(l.src) && l.src[l.pos] == '\'' {
		return refLexString(l)
	}
	return l.next()
}

// within reports whether s's bytes lie inside src's.
func within(s, src string) bool {
	if len(s) == 0 || len(src) == 0 {
		return false
	}
	p, lo := uintptr(unsafe.Pointer(unsafe.StringData(s))), uintptr(unsafe.Pointer(unsafe.StringData(src)))
	return p >= lo && p < lo+uintptr(len(src))
}

// FuzzSQLStringLiteral: a statement lexes to the byte-at-a-time
// lexer's tokens, errors and positions, and no string literal's value
// shares bytes with the statement text.
func FuzzSQLStringLiteral(f *testing.F) {
	for _, s := range []string{
		"''", "'''x'", "'x'''", "'a''b'", "''''", "'''", "'", "'abc",
		"'unterminated''", "INSERT INTO t VALUES ('', 'it''s', '''q''')",
		"SELECT * FROM t WHERE a = 'héllo wörld ✓' AND b = '\xff\xfe'",
		"UPDATE t SET body = 'tab\there\nnewline;' WHERE id = 1",
		"'a'';' , 'b'", "x = '' OR y = ''''",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		got, ref := &sqlLexer{src: src}, &sqlLexer{src: src}
		for {
			gt, gerr := got.next()
			rt, rerr := refNext(ref)
			if fmt.Sprint(gerr) != fmt.Sprint(rerr) {
				t.Fatalf("%q at %d: error %v, reference %v", src, ref.pos, gerr, rerr)
			}
			if gerr != nil {
				return
			}
			if gt != rt || got.pos != ref.pos {
				t.Fatalf("%q: token %+v ending at %d, reference %+v ending at %d", src, gt, got.pos, rt, ref.pos)
			}
			if v, ok := gt.val.(string); ok && within(v, src) {
				t.Fatalf("%q: literal %q points into the statement text", src, v)
			}
			if gt.kind == sqlEOF {
				return
			}
		}
	})
}
