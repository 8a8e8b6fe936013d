package sqlmini

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func mustExec(t *testing.T, db *DB, sql string) *Result {
	t.Helper()
	r, err := db.Exec(sql)
	if err != nil {
		t.Fatalf("exec %q: %v", sql, err)
	}
	return r
}

func setupPages(t *testing.T) *DB {
	t.Helper()
	db := NewDB()
	mustExec(t, db, `CREATE TABLE pages (id INT PRIMARY KEY AUTOINCREMENT, title TEXT, body TEXT, views INT)`)
	mustExec(t, db, `INSERT INTO pages (title, body, views) VALUES ('home', 'welcome', 10)`)
	mustExec(t, db, `INSERT INTO pages (title, body, views) VALUES ('about', 'info', 5)`)
	mustExec(t, db, `INSERT INTO pages (title, body, views) VALUES ('faq', 'questions', 7)`)
	return db
}

func TestCreateInsertSelect(t *testing.T) {
	db := setupPages(t)
	r := mustExec(t, db, `SELECT id, title FROM pages WHERE title = 'about'`)
	if len(r.Rows) != 1 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	if r.Rows[0][0] != int64(2) || r.Rows[0][1] != "about" {
		t.Fatalf("row = %v", r.Rows[0])
	}
}

func TestAutoIncrement(t *testing.T) {
	db := setupPages(t)
	r := mustExec(t, db, `INSERT INTO pages (title, body, views) VALUES ('new', 'x', 0)`)
	if r.InsertID != 4 {
		t.Fatalf("InsertID = %d", r.InsertID)
	}
	// Explicit id advances the counter.
	mustExec(t, db, `INSERT INTO pages (id, title, body, views) VALUES (100, 'z', 'y', 0)`)
	r = mustExec(t, db, `INSERT INTO pages (title, body, views) VALUES ('w', 'v', 0)`)
	if r.InsertID != 101 {
		t.Fatalf("InsertID after explicit id = %d", r.InsertID)
	}
}

func TestSelectStar(t *testing.T) {
	db := setupPages(t)
	r := mustExec(t, db, `SELECT * FROM pages`)
	if len(r.Cols) != 4 || len(r.Rows) != 3 {
		t.Fatalf("cols=%v rows=%d", r.Cols, len(r.Rows))
	}
}

func TestWhereOperators(t *testing.T) {
	db := setupPages(t)
	cases := []struct {
		where string
		want  int
	}{
		{`views = 10`, 1},
		{`views != 10`, 2},
		{`views <> 10`, 2},
		{`views < 10`, 2},
		{`views <= 7`, 2},
		{`views > 5`, 2},
		{`views >= 5`, 3},
		{`views > 5 AND views < 10`, 1},
		{`views = 10 OR views = 5`, 2},
		{`NOT views = 10`, 2},
		{`(views = 10 OR views = 5) AND title = 'home'`, 1},
		{`title LIKE 'a%'`, 1},
		{`title LIKE '%a%'`, 3}, // about, faq, ... home? h-o-m-e no 'a'. about,faq => 2
		{`title LIKE '_aq'`, 1},
		{`views IN (5, 7)`, 2},
		{`views IN (99)`, 0},
	}
	for _, c := range cases {
		r := mustExec(t, db, `SELECT id FROM pages WHERE `+c.where)
		want := c.want
		if c.where == `title LIKE '%a%'` {
			want = 2
		}
		if len(r.Rows) != want {
			t.Errorf("WHERE %s: got %d rows, want %d", c.where, len(r.Rows), want)
		}
	}
}

func TestOrderByLimit(t *testing.T) {
	db := setupPages(t)
	r := mustExec(t, db, `SELECT title FROM pages ORDER BY views DESC`)
	if r.Rows[0][0] != "home" || r.Rows[2][0] != "about" {
		t.Fatalf("order = %v", r.Rows)
	}
	r = mustExec(t, db, `SELECT title FROM pages ORDER BY views ASC LIMIT 2`)
	if len(r.Rows) != 2 || r.Rows[0][0] != "about" {
		t.Fatalf("limit = %v", r.Rows)
	}
	r = mustExec(t, db, `SELECT title FROM pages ORDER BY views LIMIT 2 OFFSET 1`)
	if len(r.Rows) != 2 || r.Rows[0][0] != "faq" {
		t.Fatalf("offset = %v", r.Rows)
	}
	r = mustExec(t, db, `SELECT title FROM pages ORDER BY views LIMIT 0`)
	if len(r.Rows) != 0 {
		t.Fatalf("limit 0 = %v", r.Rows)
	}
}

func TestOrderByStable(t *testing.T) {
	db := NewDB()
	mustExec(t, db, `CREATE TABLE t (a INT, b INT)`)
	for i := 0; i < 10; i++ {
		mustExec(t, db, fmt.Sprintf(`INSERT INTO t (a, b) VALUES (1, %d)`, i))
	}
	r := mustExec(t, db, `SELECT b FROM t ORDER BY a`)
	for i := 0; i < 10; i++ {
		if r.Rows[i][0] != int64(i) {
			t.Fatalf("stable sort violated at %d: %v", i, r.Rows[i])
		}
	}
}

// TestTopKIsStableSortPrefix: with heavy ties on the ORDER BY keys,
// every LIMIT/OFFSET window, on both sides of the matched count, is the
// window of the stable full sort (the oracle's tail).
func TestTopKIsStableSortPrefix(t *testing.T) {
	db := NewDB()
	mustExec(t, db, `CREATE TABLE t (a INT, b INT, c TEXT)`)
	for i := 0; i < 50; i++ {
		mustExec(t, db, fmt.Sprintf(`INSERT INTO t (a, b, c) VALUES (%d, %d, 'r%d')`, i%3, i%7, i))
	}
	tbl := db.tables["t"]
	for _, order := range []string{"a", "a DESC", "a, b DESC", "b DESC, a", "c"} {
		for limit := 0; limit <= 52; limit++ {
			for _, offset := range []int{0, 1, 7, 60} {
				sql := fmt.Sprintf(`SELECT c FROM t WHERE b != 3 ORDER BY %s LIMIT %d OFFSET %d`, order, limit, offset)
				st, err := Parse(sql)
				if err != nil {
					t.Fatal(err)
				}
				want, err := scanSelect(tbl, st.(*Select))
				if err != nil {
					t.Fatal(err)
				}
				if got := mustExec(t, db, sql); fmt.Sprint(got.Rows) != fmt.Sprint(want.Rows) {
					t.Fatalf("%s:\ngot  %v\nwant %v", sql, got.Rows, want.Rows)
				}
			}
		}
	}
}

// TestLimitOffsetPastMaxInt64: OFFSET+LIMIT past MaxInt64 clamps to the
// rows there are instead of wrapping.
func TestLimitOffsetPastMaxInt64(t *testing.T) {
	db := NewDB()
	mustExec(t, db, `CREATE TABLE t (v INT)`)
	mustExec(t, db, `INSERT INTO t (v) VALUES (2), (1)`)
	for sql, want := range map[string]string{
		`SELECT v FROM t LIMIT 9223372036854775807 OFFSET 1`:            "[[1]]",
		`SELECT v FROM t ORDER BY v LIMIT 9223372036854775807 OFFSET 1`: "[[2]]",
		`SELECT v FROM t LIMIT 1 OFFSET 9223372036854775807`:            "[]",
		`SELECT v FROM t ORDER BY v DESC LIMIT 9223372036854775807`:     "[[2] [1]]",
	} {
		if got := fmt.Sprint(mustExec(t, db, sql).Rows); got != want {
			t.Errorf("%s = %s, want %s", sql, got, want)
		}
	}
}

func TestCount(t *testing.T) {
	db := setupPages(t)
	r := mustExec(t, db, `SELECT COUNT(*) FROM pages WHERE views > 5`)
	if r.Rows[0][0] != int64(2) {
		t.Fatalf("count = %v", r.Rows[0][0])
	}
}

func TestUpdate(t *testing.T) {
	db := setupPages(t)
	r := mustExec(t, db, `UPDATE pages SET body = 'changed' WHERE title = 'home'`)
	if r.Affected != 1 {
		t.Fatalf("affected = %d", r.Affected)
	}
	s := mustExec(t, db, `SELECT body FROM pages WHERE title = 'home'`)
	if s.Rows[0][0] != "changed" {
		t.Fatalf("body = %v", s.Rows[0][0])
	}
}

func TestUpdateSelfIncrement(t *testing.T) {
	db := setupPages(t)
	mustExec(t, db, `UPDATE pages SET views = views + 1 WHERE title = 'home'`)
	mustExec(t, db, `UPDATE pages SET views = views - 3 WHERE title = 'home'`)
	s := mustExec(t, db, `SELECT views FROM pages WHERE title = 'home'`)
	if s.Rows[0][0] != int64(8) {
		t.Fatalf("views = %v", s.Rows[0][0])
	}
}

func TestDelete(t *testing.T) {
	db := setupPages(t)
	r := mustExec(t, db, `DELETE FROM pages WHERE views < 8`)
	if r.Affected != 2 {
		t.Fatalf("affected = %d", r.Affected)
	}
	s := mustExec(t, db, `SELECT COUNT(*) FROM pages`)
	if s.Rows[0][0] != int64(1) {
		t.Fatalf("remaining = %v", s.Rows[0][0])
	}
}

func TestStringEscaping(t *testing.T) {
	db := NewDB()
	mustExec(t, db, `CREATE TABLE t (s TEXT)`)
	mustExec(t, db, `INSERT INTO t (s) VALUES ('it''s')`)
	r := mustExec(t, db, `SELECT s FROM t`)
	if r.Rows[0][0] != "it's" {
		t.Fatalf("s = %q", r.Rows[0][0])
	}
	if Quote("a'b") != "'a''b'" {
		t.Fatalf("Quote = %q", Quote("a'b"))
	}
	// Round trip through Quote.
	mustExec(t, db, `INSERT INTO t (s) VALUES (`+Quote("x'y''z")+`)`)
	r = mustExec(t, db, `SELECT s FROM t WHERE s = `+Quote("x'y''z"))
	if len(r.Rows) != 1 {
		t.Fatal("Quote round trip failed")
	}
}

func TestNulls(t *testing.T) {
	db := NewDB()
	mustExec(t, db, `CREATE TABLE t (a INT, b TEXT)`)
	mustExec(t, db, `INSERT INTO t (a, b) VALUES (1, NULL)`)
	mustExec(t, db, `INSERT INTO t (a, b) VALUES (2, 'x')`)
	r := mustExec(t, db, `SELECT a FROM t WHERE b = NULL`)
	if len(r.Rows) != 1 || r.Rows[0][0] != int64(1) {
		t.Fatalf("null match = %v", r.Rows)
	}
	r = mustExec(t, db, `SELECT a FROM t WHERE b != NULL`)
	if len(r.Rows) != 1 || r.Rows[0][0] != int64(2) {
		t.Fatalf("not-null match = %v", r.Rows)
	}
}

func TestNegativeNumbers(t *testing.T) {
	db := NewDB()
	mustExec(t, db, `CREATE TABLE t (a INT)`)
	mustExec(t, db, `INSERT INTO t (a) VALUES (-5)`)
	r := mustExec(t, db, `SELECT a FROM t WHERE a = -5`)
	if len(r.Rows) != 1 {
		t.Fatalf("rows = %v", r.Rows)
	}
	r = mustExec(t, db, `SELECT a FROM t WHERE a < -1`)
	if len(r.Rows) != 1 {
		t.Fatalf("rows = %v", r.Rows)
	}
}

func TestTxnAtomicityOnError(t *testing.T) {
	db := setupPages(t)
	_, err := db.ExecTxn([]string{
		`UPDATE pages SET views = 999 WHERE title = 'home'`,
		`INSERT INTO nosuchtable (x) VALUES (1)`,
	})
	if err == nil {
		t.Fatal("expected error")
	}
	// First statement must be rolled back.
	r := mustExec(t, db, `SELECT views FROM pages WHERE title = 'home'`)
	if r.Rows[0][0] != int64(10) {
		t.Fatalf("rollback failed: views = %v", r.Rows[0][0])
	}
}

func TestTxnRollbackRestoresAutoInc(t *testing.T) {
	db := setupPages(t)
	_, err := db.ExecTxn([]string{
		`INSERT INTO pages (title, body, views) VALUES ('tmp', 'x', 0)`,
		`SELECT * FROM missing`,
	})
	if err == nil {
		t.Fatal("expected error")
	}
	r := mustExec(t, db, `INSERT INTO pages (title, body, views) VALUES ('real', 'y', 0)`)
	if r.InsertID != 4 {
		t.Fatalf("InsertID after rollback = %d (auto counter leaked)", r.InsertID)
	}
}

func TestTxnMultiStatement(t *testing.T) {
	db := setupPages(t)
	rs, err := db.ExecTxn([]string{
		`INSERT INTO pages (title, body, views) VALUES ('p1', 'b', 0)`,
		`UPDATE pages SET views = views + 1 WHERE title = 'p1'`,
		`SELECT views FROM pages WHERE title = 'p1'`,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rs[2].Rows[0][0] != int64(1) {
		t.Fatalf("txn result = %v", rs[2].Rows)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`SELEC * FROM t`,
		`SELECT FROM t`,
		`SELECT * FROM`,
		`INSERT INTO t VALUES (1)`, // missing column list
		`INSERT INTO t (a) VALUES (1,2)`,
		`CREATE TABLE t (a BLOB)`,
		`UPDATE t SET a = b * 2`,
		`SELECT * FROM t WHERE a ~ 1`,
		`DELETE t WHERE a = 1`,
		`SELECT * FROM t; SELECT * FROM t`,
		`SELECT * FROM t WHERE a LIKE 5`,
	}
	for _, sql := range bad {
		if _, err := Parse(sql); err == nil {
			t.Errorf("Parse(%q): expected error", sql)
		}
	}
}

func TestExecErrors(t *testing.T) {
	db := setupPages(t)
	bad := []string{
		`SELECT * FROM missing`,
		`SELECT nosuchcol FROM pages`,
		`INSERT INTO pages (nosuchcol) VALUES (1)`,
		`UPDATE pages SET nosuchcol = 1`,
		`SELECT * FROM pages WHERE nosuchcol = 1`,
		`SELECT * FROM pages ORDER BY nosuchcol`,
		`CREATE TABLE pages (id INT)`,
	}
	for _, sql := range bad {
		if _, err := db.Exec(sql); err == nil {
			t.Errorf("Exec(%q): expected error", sql)
		}
	}
}

func TestLikePatterns(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"hello", "hello", true},
		{"hello", "h%", true},
		{"hello", "%o", true},
		{"hello", "%ell%", true},
		{"hello", "h_llo", true},
		{"hello", "h__lo", true},
		{"hello", "h_lo", false},
		{"hello", "", false},
		{"", "%", true},
		{"abc", "%%", true},
		{"abc", "a%c", true},
		{"abc", "a%d", false},
	}
	for _, c := range cases {
		if got := likeMatch(c.s, c.p); got != c.want {
			t.Errorf("likeMatch(%q,%q)=%v want %v", c.s, c.p, got, c.want)
		}
	}
}

func TestConcurrentSerializability(t *testing.T) {
	// N goroutines increment a counter in read-modify-write transactions
	// of the "UPDATE ... SET v = v + 1" form; under strict
	// serializability the final count equals the number of increments.
	db := NewDB()
	mustExec(t, db, `CREATE TABLE c (id INT, v INT)`)
	mustExec(t, db, `INSERT INTO c (id, v) VALUES (1, 0)`)
	const workers, iters = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if _, err := db.Exec(`UPDATE c SET v = v + 1 WHERE id = 1`); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	r := mustExec(t, db, `SELECT v FROM c WHERE id = 1`)
	if r.Rows[0][0] != int64(workers*iters) {
		t.Fatalf("count = %v, want %d", r.Rows[0][0], workers*iters)
	}
}

func TestTableCopyIsolation(t *testing.T) {
	db := setupPages(t)
	cp := db.TableCopy("pages")
	mustExec(t, db, `UPDATE pages SET views = 0`)
	if cp.Rows[0][3] != int64(10) {
		t.Fatal("TableCopy must be isolated from later writes")
	}
	if db.TableCopy("missing") != nil {
		t.Fatal("TableCopy of missing table must be nil")
	}
}

func TestTablesAndSize(t *testing.T) {
	db := setupPages(t)
	if got := db.Tables(); len(got) != 1 || got[0] != "pages" {
		t.Fatalf("Tables = %v", got)
	}
	if db.SizeBytes() <= 0 {
		t.Fatal("SizeBytes should be positive")
	}
	if db.RowCount() != 3 {
		t.Fatalf("RowCount = %d", db.RowCount())
	}
}

// TestInsertSelectQuick: property — inserting n random rows and selecting
// them back preserves count and contents.
func TestInsertSelectQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		db := NewDB()
		if _, err := db.Exec(`CREATE TABLE q (id INT AUTOINCREMENT, n INT, s TEXT)`); err != nil {
			return false
		}
		n := rng.Intn(20) + 1
		sum := int64(0)
		for i := 0; i < n; i++ {
			v := rng.Int63n(1000)
			sum += v
			if _, err := db.Exec(fmt.Sprintf(`INSERT INTO q (n, s) VALUES (%d, %s)`, v, Quote(fmt.Sprintf("s%d", v)))); err != nil {
				return false
			}
		}
		r, err := db.Exec(`SELECT COUNT(*) FROM q`)
		if err != nil || r.Rows[0][0] != int64(n) {
			return false
		}
		r, err = db.Exec(`SELECT n FROM q`)
		if err != nil {
			return false
		}
		var got int64
		for _, row := range r.Rows {
			got += row[0].(int64)
		}
		return got == sum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestCoercion(t *testing.T) {
	db := NewDB()
	mustExec(t, db, `CREATE TABLE t (a INT, b FLOAT, c TEXT)`)
	mustExec(t, db, `INSERT INTO t (a, b, c) VALUES ('12', 3, 45)`)
	r := mustExec(t, db, `SELECT a, b, c FROM t`)
	if r.Rows[0][0] != int64(12) {
		t.Fatalf("a = %v (%T)", r.Rows[0][0], r.Rows[0][0])
	}
	if r.Rows[0][1] != float64(3) {
		t.Fatalf("b = %v (%T)", r.Rows[0][1], r.Rows[0][1])
	}
	if r.Rows[0][2] != "45" {
		t.Fatalf("c = %v (%T)", r.Rows[0][2], r.Rows[0][2])
	}
}

func TestVarcharLengthSuffix(t *testing.T) {
	db := NewDB()
	mustExec(t, db, `CREATE TABLE t (name VARCHAR(255) NOT NULL, age INTEGER)`)
	mustExec(t, db, `INSERT INTO t (name, age) VALUES ('x', 3)`)
	r := mustExec(t, db, `SELECT name FROM t WHERE age = 3`)
	if len(r.Rows) != 1 {
		t.Fatal("varchar table roundtrip failed")
	}
}

func TestMultiRowInsert(t *testing.T) {
	db := NewDB()
	mustExec(t, db, `CREATE TABLE t (a INT)`)
	r := mustExec(t, db, `INSERT INTO t (a) VALUES (1), (2), (3)`)
	if r.Affected != 3 {
		t.Fatalf("affected = %d", r.Affected)
	}
}
