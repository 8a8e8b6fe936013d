package vstore

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"orochi/internal/lang"
	"orochi/internal/sqlmini"
)

func applyTxn(t *testing.T, v *VersionedDB, seq int64, stmts ...string) {
	t.Helper()
	if err := v.ApplyTxn(seq, stmts); err != nil {
		t.Fatalf("ApplyTxn(%d): %v", seq, err)
	}
}

func TestVersionedBasicVisibility(t *testing.T) {
	v := NewVersionedDB()
	applyTxn(t, v, 1, `CREATE TABLE t (id INT AUTOINCREMENT, x TEXT)`)
	applyTxn(t, v, 2, `INSERT INTO t (x) VALUES ('a')`)
	applyTxn(t, v, 3, `UPDATE t SET x = 'b' WHERE id = 1`)
	applyTxn(t, v, 4, `DELETE FROM t WHERE id = 1`)

	// At seq 2's timestamp the insert is visible.
	r, err := v.QuerySQL(`SELECT x FROM t`, Ts(2, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 1 || r.Rows[0][0] != "a" {
		t.Fatalf("at ts2: %v", r.Rows)
	}
	// Before the insert: empty.
	r, _ = v.QuerySQL(`SELECT x FROM t`, Ts(1, 0))
	if len(r.Rows) != 0 {
		t.Fatalf("at ts1: %v", r.Rows)
	}
	// After the update: 'b'.
	r, _ = v.QuerySQL(`SELECT x FROM t`, Ts(3, 0))
	if len(r.Rows) != 1 || r.Rows[0][0] != "b" {
		t.Fatalf("at ts3: %v", r.Rows)
	}
	// After the delete: empty.
	r, _ = v.QuerySQL(`SELECT x FROM t`, Ts(4, 0))
	if len(r.Rows) != 0 {
		t.Fatalf("at ts4: %v", r.Rows)
	}
}

func TestVersionedWriteResults(t *testing.T) {
	v := NewVersionedDB()
	applyTxn(t, v, 1, `CREATE TABLE t (id INT AUTOINCREMENT, x TEXT)`)
	applyTxn(t, v, 2, `INSERT INTO t (x) VALUES ('a')`)
	applyTxn(t, v, 3, `INSERT INTO t (x) VALUES ('b')`)
	r, err := v.WriteResult(2, 0)
	if err != nil || r.InsertID != 1 {
		t.Fatalf("seq2 insert id = %v, %v", r, err)
	}
	r, _ = v.WriteResult(3, 0)
	if r.InsertID != 2 {
		t.Fatalf("seq3 insert id = %d", r.InsertID)
	}
	if _, err := v.WriteResult(99, 0); err == nil {
		t.Fatal("expected error for unknown seq")
	}
	if _, err := v.WriteResult(2, 5); err == nil {
		t.Fatal("expected error for out-of-range statement")
	}
}

func TestVersionedIntraTxnVisibility(t *testing.T) {
	// A SELECT later in a transaction must see earlier writes of the
	// same transaction (ts = seq*MaxQ + q + 1 is increasing within the
	// transaction).
	v := NewVersionedDB()
	applyTxn(t, v, 1, `CREATE TABLE t (n INT)`)
	applyTxn(t, v, 2,
		`INSERT INTO t (n) VALUES (1)`,
		`SELECT n FROM t`, // read at q=1 — answered at audit time
		`INSERT INTO t (n) VALUES (2)`,
	)
	// Simulated read at the SELECT's own timestamp.
	r, err := v.QuerySQL(`SELECT COUNT(*) FROM t`, Ts(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows[0][0] != int64(1) {
		t.Fatalf("intra-txn visibility: %v", r.Rows)
	}
	// After the whole transaction: both rows.
	r, _ = v.QuerySQL(`SELECT COUNT(*) FROM t`, Ts(2, 2))
	if r.Rows[0][0] != int64(2) {
		t.Fatalf("post-txn visibility: %v", r.Rows)
	}
}

func TestVersionedRowOrderMatchesLiveEngine(t *testing.T) {
	// Updated rows must keep their scan position, as they do in the live
	// engine (in-place update).
	v := NewVersionedDB()
	live := sqlmini.NewDB()
	stmts := []string{
		`CREATE TABLE t (id INT, x TEXT)`,
		`INSERT INTO t (id, x) VALUES (1, 'a')`,
		`INSERT INTO t (id, x) VALUES (2, 'b')`,
		`INSERT INTO t (id, x) VALUES (3, 'c')`,
		`UPDATE t SET x = 'B' WHERE id = 2`,
		`DELETE FROM t WHERE id = 1`,
		`INSERT INTO t (id, x) VALUES (4, 'd')`,
	}
	for i, s := range stmts {
		applyTxn(t, v, int64(i+1), s)
		if _, err := live.Exec(s); err != nil {
			t.Fatal(err)
		}
	}
	want, _ := live.Exec(`SELECT x FROM t`)
	got, err := v.QuerySQL(`SELECT x FROM t`, Ts(int64(len(stmts)), 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("row count: versioned %d live %d", len(got.Rows), len(want.Rows))
	}
	for i := range got.Rows {
		if got.Rows[i][0] != want.Rows[i][0] {
			t.Fatalf("row %d: versioned %v live %v", i, got.Rows[i], want.Rows[i])
		}
	}
}

func TestLoadInitial(t *testing.T) {
	src := sqlmini.NewDB()
	if _, err := src.Exec(`CREATE TABLE t (id INT AUTOINCREMENT, x TEXT)`); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Exec(`INSERT INTO t (x) VALUES ('pre')`); err != nil {
		t.Fatal(err)
	}
	v := NewVersionedDB()
	if err := v.LoadInitial(src.TableCopy("t")); err != nil {
		t.Fatal(err)
	}
	// Pre-state visible at any ts >= 0.
	r, err := v.QuerySQL(`SELECT x FROM t`, Ts(1, 0))
	if err != nil || len(r.Rows) != 1 || r.Rows[0][0] != "pre" {
		t.Fatalf("pre-state: %v %v", r, err)
	}
	// Auto-increment continues from the pre-state counter.
	applyTxn(t, v, 1, `INSERT INTO t (x) VALUES ('new')`)
	res, _ := v.WriteResult(1, 0)
	if res.InsertID != 2 {
		t.Fatalf("insert id = %d, want 2", res.InsertID)
	}
	if err := v.LoadInitial(src.TableCopy("t")); err == nil {
		t.Fatal("duplicate LoadInitial must fail")
	}
}

func TestMigrateFinal(t *testing.T) {
	v := NewVersionedDB()
	applyTxn(t, v, 1, `CREATE TABLE t (id INT AUTOINCREMENT, x TEXT)`)
	applyTxn(t, v, 2, `INSERT INTO t (x) VALUES ('a')`)
	applyTxn(t, v, 3, `INSERT INTO t (x) VALUES ('b')`)
	applyTxn(t, v, 4, `UPDATE t SET x = 'A' WHERE id = 1`)
	applyTxn(t, v, 5, `DELETE FROM t WHERE id = 2`)
	tables, err := v.MigrateFinal()
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || tables[0].Name != "t" {
		t.Fatalf("migrated tables: %v", tables)
	}
	mt := tables[0]
	if len(mt.Rows) != 1 || mt.Rows[0][0] != int64(1) || mt.Rows[0][1] != "A" {
		t.Fatalf("migrated state: %v", mt.Rows)
	}
	// Deleting the max-id row must not rewind the counter: the live server
	// assigns id 3 next, and so must the next period's redo.
	if mt.NextAuto != 3 {
		t.Fatalf("migrated NextAuto = %d, want 3", mt.NextAuto)
	}
}

// TestIndexedQueryAcrossVersions: the posting-list index lists a slot
// under every value it ever held, so a probe must find the row at the
// timestamps it held the value and only those — whether the index was
// built before the updates (the redo pass maintains it) or after them.
func TestIndexedQueryAcrossVersions(t *testing.T) {
	want := []struct {
		seq    int64
		g1, g2 string // ids with g = 1 / g = 2 after transaction seq
	}{
		{2, "[[1] [3]]", "[[2]]"},
		{3, "[[3]]", "[[1] [2]]"},
		{4, "[[1] [2] [3]]", "[]"},
		{5, "[[1] [2]]", "[]"},
		{6, "[[1] [2]]", "[[4]]"},
	}
	for _, probeEarly := range []bool{false, true} {
		v := NewVersionedDB()
		applyTxn(t, v, 1, `CREATE TABLE t (id INT AUTOINCREMENT, g INT)`)
		applyTxn(t, v, 2, `INSERT INTO t (g) VALUES (1), (2), (1)`)
		if probeEarly {
			if _, err := v.QuerySQL(`SELECT id FROM t WHERE g = 1`, Ts(2, 0)); err != nil {
				t.Fatal(err)
			}
		}
		applyTxn(t, v, 3, `UPDATE t SET g = 2 WHERE id = 1`)
		applyTxn(t, v, 4, `UPDATE t SET g = 1 WHERE g = 2`)
		applyTxn(t, v, 5, `DELETE FROM t WHERE id = 3`)
		applyTxn(t, v, 6, `INSERT INTO t (g) VALUES (2)`)
		for _, w := range want {
			for g, ids := range map[int]string{1: w.g1, 2: w.g2} {
				r, err := v.QuerySQL(fmt.Sprintf(`SELECT id FROM t WHERE g = %d`, g), Ts(w.seq, 0))
				if err != nil {
					t.Fatal(err)
				}
				if got := fmt.Sprint(r.Rows); got != ids {
					t.Errorf("probeEarly=%v: g = %d after txn %d: %s, want %s", probeEarly, g, w.seq, got, ids)
				}
			}
		}
	}
}

func TestApplyTxnErrors(t *testing.T) {
	v := NewVersionedDB()
	applyTxn(t, v, 1, `CREATE TABLE t (n INT)`)
	if err := v.ApplyTxn(1, []string{`INSERT INTO t (n) VALUES (1)`}); err == nil {
		t.Fatal("duplicate seq must fail")
	}
	if err := v.ApplyTxn(2, []string{`INSERT INTO missing (n) VALUES (1)`}); err == nil {
		t.Fatal("bad table must fail")
	}
	if err := v.ApplyTxn(3, []string{`NOT SQL AT ALL`}); err == nil {
		t.Fatal("parse error must fail")
	}
}

// TestVersionedDifferential is the core property test: for random
// statement sequences, a versioned read at the timestamp of position i
// must equal running the statement prefix [0..i] on a live engine and
// querying it.
func TestVersionedDifferential(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		v := NewVersionedDB()
		if err := v.ApplyTxn(0, []string{`CREATE TABLE t (id INT, grp INT, val INT)`}); err != nil {
			return false
		}
		var history []string
		history = append(history, `CREATE TABLE t (id INT, grp INT, val INT)`)
		nextID := 1
		nStmts := 5 + rng.Intn(25)
		for i := 1; i <= nStmts; i++ {
			var stmt string
			switch rng.Intn(4) {
			case 0, 1:
				stmt = fmt.Sprintf(`INSERT INTO t (id, grp, val) VALUES (%d, %d, %d)`, nextID, rng.Intn(3), rng.Intn(100))
				nextID++
			case 2:
				stmt = fmt.Sprintf(`UPDATE t SET val = val + %d WHERE grp = %d`, rng.Intn(10), rng.Intn(3))
			case 3:
				if rng.Intn(3) == 0 {
					stmt = fmt.Sprintf(`DELETE FROM t WHERE id = %d`, rng.Intn(nextID)+1)
				} else {
					stmt = fmt.Sprintf(`UPDATE t SET val = %d WHERE id = %d`, rng.Intn(100), rng.Intn(nextID)+1)
				}
			}
			if err := v.ApplyTxn(int64(i), []string{stmt}); err != nil {
				return false
			}
			history = append(history, stmt)
		}
		// Check three random prefixes plus the full history.
		checkpoints := []int{rng.Intn(nStmts + 1), rng.Intn(nStmts + 1), rng.Intn(nStmts + 1), nStmts}
		queries := []string{
			`SELECT id, grp, val FROM t`,
			`SELECT val FROM t WHERE grp = 1 ORDER BY val DESC`,
			`SELECT COUNT(*) FROM t WHERE val > 50`,
			`SELECT id FROM t ORDER BY id LIMIT 3`,
			`SELECT id, val FROM t WHERE grp IN (0, 2) AND val < 60 ORDER BY val`,
			`SELECT id FROM t WHERE val = 7 OR id = 2`,
			// Top-k windows: heavy ties on grp make the scan position
			// decide which rows a LIMIT keeps.
			`SELECT id, val FROM t ORDER BY val DESC, id LIMIT 2 OFFSET 1`,
			`SELECT grp FROM t ORDER BY grp LIMIT 1`,
			`SELECT id, val FROM t ORDER BY grp DESC LIMIT 4 OFFSET 2`,
			`SELECT id FROM t WHERE val > 20 ORDER BY grp, val DESC LIMIT 3`,
			// OFFSET+LIMIT past MaxInt64 clamps instead of wrapping.
			`SELECT id FROM t LIMIT 9223372036854775807 OFFSET 1`,
			`SELECT id FROM t ORDER BY val LIMIT 9223372036854775807 OFFSET 2`,
		}
		for _, cp := range checkpoints {
			live := sqlmini.NewDB()
			for i := 0; i <= cp; i++ {
				if _, err := live.Exec(history[i]); err != nil {
					return false
				}
			}
			for _, q := range queries {
				want, err := live.Exec(q)
				if err != nil {
					return false
				}
				got, err := v.QuerySQL(q, Ts(int64(cp), 0))
				if err != nil {
					return false
				}
				if !resultsEqual(want, got) {
					t.Logf("seed %d cp %d query %q: live %v versioned %v", seed, cp, q, want.Rows, got.Rows)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestRowRulesMatchServer runs one write statement on the live engine and
// on the versioned redo, each seeded alike, and requires the same
// error-or-nil, the same Affected and InsertID, and — when it succeeds —
// the same rows and auto-increment counter afterwards, checked again by
// a follow-up INSERT that takes its id from the counter.
func TestRowRulesMatchServer(t *testing.T) {
	setup := []string{
		`CREATE TABLE t (id INT AUTOINCREMENT, n INT, f FLOAT)`,
		`INSERT INTO t (n, f) VALUES (1, 0.5), (2, 1.5)`, // NextAuto 3
	}
	for _, tc := range []struct {
		name, stmt string
		fails      bool
	}{
		{"unknown SET column, no match", `UPDATE t SET nocol = 1 WHERE id = 999`, true},
		{"unknown SET column, a match", `UPDATE t SET nocol = 1 WHERE id = 1`, true},
		{"unknown self-op base, no match", `UPDATE t SET n = nocol + 1 WHERE id = 999`, true},
		{"self-op", `UPDATE t SET n = n + 2 WHERE id = 1`, false},
		{"self-op on a float", `UPDATE t SET n = f - 1 WHERE id = 2`, false},
		{"explicit id below NextAuto", `INSERT INTO t (id, n) VALUES (1, 5)`, false},
		{"explicit id above NextAuto", `INSERT INTO t (id, n) VALUES (10, 5)`, false},
		{"multi-row INSERT, second row does not fit", `INSERT INTO t (n, f) VALUES (3, 2.5), (4, 'x')`, true},
		{"non-fitting SET literal, no match", `UPDATE t SET f = 'x' WHERE id = 999`, false},
		{"non-fitting SET literal, a match", `UPDATE t SET f = 'x' WHERE id = 1`, true},
		{"unknown INSERT column", `INSERT INTO t (nocol) VALUES (1)`, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			live := sqlmini.NewDB()
			v := NewVersionedDB()
			for i, s := range setup {
				if _, err := live.Exec(s); err != nil {
					t.Fatal(err)
				}
				applyTxn(t, v, int64(i+1), s)
			}
			want, werr := live.Exec(tc.stmt)
			gerr := v.ApplyTxn(10, []string{tc.stmt})
			if (werr != nil) != tc.fails || (gerr != nil) != tc.fails {
				t.Fatalf("error: server %v, redo %v; want failure %v", werr, gerr, tc.fails)
			}
			if tc.fails {
				return
			}
			next := `INSERT INTO t (n) VALUES (7)`
			wantNext, err := live.Exec(next)
			if err != nil {
				t.Fatal(err)
			}
			applyTxn(t, v, 11, next)
			for _, c := range []struct {
				want *sqlmini.Result
				seq  int64
			}{{want, 10}, {wantNext, 11}} {
				got, err := v.WriteResult(c.seq, 0)
				if err != nil {
					t.Fatal(err)
				}
				if got.Affected != c.want.Affected || got.InsertID != c.want.InsertID {
					t.Fatalf("seq %d: redo Affected %d InsertID %d, server %d %d",
						c.seq, got.Affected, got.InsertID, c.want.Affected, c.want.InsertID)
				}
			}
			tables, err := v.MigrateFinal()
			if err != nil {
				t.Fatal(err)
			}
			wt := live.TableCopy("t")
			if !reflect.DeepEqual(tables[0].Rows, wt.Rows) || tables[0].NextAuto != wt.NextAuto {
				t.Fatalf("redo rows %v NextAuto %d, server rows %v NextAuto %d",
					tables[0].Rows, tables[0].NextAuto, wt.Rows, wt.NextAuto)
			}
		})
	}
}

// TestMixedTypeOrderByPinned pins ORDER BY ... LIMIT on a TEXT column
// that `s = s + 1` has left holding int64s beside strings. Both engines
// must read '8' as 8 in the self-op, and then order alike. compareVals is
// not a strict weak order on such a column (9 < 10 numerically, 10 ties
// '10' as text, yet '10' < 9 as text), so the window a LIMIT keeps
// depends on the selection algorithm: the heap keeps other rows than a
// stable sort of every row would (that answers LIMIT 2 with ids [2 1] and
// DESC LIMIT 1 with [1]). The pinned ids flag any change to the order,
// which would change what sealed chains with such a column replay to.
func TestMixedTypeOrderByPinned(t *testing.T) {
	stmts := []string{
		`CREATE TABLE t (id INT, s TEXT)`,
		`INSERT INTO t (id, s) VALUES (1, '8'), (2, '10'), (3, '9'), (4, '11'), (5, '7')`,
		`UPDATE t SET s = s + 1 WHERE id = 1`,
		`UPDATE t SET s = s + 1 WHERE id = 3`,
	}
	live := sqlmini.NewDB()
	v := NewVersionedDB()
	for i, st := range stmts {
		if _, err := live.Exec(st); err != nil {
			t.Fatal(err)
		}
		if err := v.ApplyTxn(int64(i), []string{st}); err != nil {
			t.Fatal(err)
		}
	}
	for q, want := range map[string]string{
		`SELECT id FROM t ORDER BY s`:              "[[2] [1] [3] [4] [5]]",
		`SELECT id FROM t ORDER BY s LIMIT 2`:      "[[2] [4]]",
		`SELECT id FROM t ORDER BY s LIMIT 4`:      "[[2] [3] [4] [1]]",
		`SELECT id FROM t ORDER BY s DESC LIMIT 1`: "[[5]]",
		`SELECT id FROM t ORDER BY s DESC`:         "[[1] [5] [4] [2] [3]]",
	} {
		l, err := live.Exec(q)
		if err != nil {
			t.Fatal(err)
		}
		vr, err := v.QuerySQL(q, Ts(int64(len(stmts)-1), 0))
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprint(l.Rows); got != want {
			t.Errorf("live %s = %s, want %s", q, got, want)
		}
		if !resultsEqual(l, vr) {
			t.Errorf("%s: live %v, versioned %v", q, l.Rows, vr.Rows)
		}
	}
}

func resultsEqual(a, b *sqlmini.Result) bool {
	if len(a.Rows) != len(b.Rows) {
		return false
	}
	for i := range a.Rows {
		if len(a.Rows[i]) != len(b.Rows[i]) {
			return false
		}
		for j := range a.Rows[i] {
			if a.Rows[i][j] != b.Rows[i][j] {
				return false
			}
		}
	}
	return true
}

func TestVersionedKVBasics(t *testing.T) {
	kv := NewVersionedKV()
	kv.AddSet("k", 5, "v5")
	kv.AddSet("k", 10, "v10")
	kv.AddSet("other", 7, int64(42))
	if got := kv.Get("k", 5); got != nil {
		t.Fatalf("before first set: %v", got)
	}
	if got := kv.Get("k", 6); got != "v5" {
		t.Fatalf("at 6: %v", got)
	}
	if got := kv.Get("k", 10); got != "v5" {
		t.Fatalf("at 10 (strictly before): %v", got)
	}
	if got := kv.Get("k", 11); got != "v10" {
		t.Fatalf("at 11: %v", got)
	}
	if got := kv.Get("missing", 100); got != nil {
		t.Fatalf("missing key: %v", got)
	}
}

func TestVersionedKVInitialAndFinal(t *testing.T) {
	kv := NewVersionedKV()
	kv.LoadInitial("k", "pre")
	kv.AddSet("k", 3, "post")
	if got := kv.Get("k", 1); got != "pre" {
		t.Fatalf("initial: %v", got)
	}
	fin := kv.Final()
	if fin["k"] != "post" {
		t.Fatalf("final: %v", fin)
	}
	if keys := kv.Keys(); len(keys) != 1 || keys[0] != "k" {
		t.Fatalf("keys: %v", keys)
	}
}

func TestVersionedKVClones(t *testing.T) {
	kv := NewVersionedKV()
	arr := lang.NewArray()
	arr.Append("x")
	kv.AddSet("k", 1, arr)
	arr = arr.Own() // the caller's next write takes a copy
	arr.Append("mutated-after-set")
	got := kv.Get("k", 2).(*lang.Array)
	if got.Len() != 1 {
		t.Fatal("a write after AddSet reached the stored value")
	}
}

// TestVersionedKVDifferential: versioned get must equal naive replay of
// the set log prefix.
func TestVersionedKVDifferential(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		kv := NewVersionedKV()
		naive := []struct {
			seq int64
			key string
			val lang.Value
		}{}
		keys := []string{"a", "b", "c"}
		for seq := int64(1); seq <= 40; seq++ {
			if rng.Intn(2) == 0 {
				k := keys[rng.Intn(len(keys))]
				v := lang.Value(rng.Int63n(100))
				kv.AddSet(k, seq, v)
				naive = append(naive, struct {
					seq int64
					key string
					val lang.Value
				}{seq, k, v})
			}
		}
		for trial := 0; trial < 20; trial++ {
			at := rng.Int63n(45)
			k := keys[rng.Intn(len(keys))]
			var want lang.Value
			for _, e := range naive {
				if e.key == k && e.seq < at {
					want = e.val
				}
			}
			if got := kv.Get(k, at); !lang.Equal(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestQueryCacheDedup(t *testing.T) {
	v := NewVersionedDB()
	applyTxn(t, v, 1, `CREATE TABLE t (n INT)`)
	applyTxn(t, v, 2, `INSERT INTO t (n) VALUES (1)`)
	// Reads at different timestamps with no interleaving table mods.
	applyTxn(t, v, 10, `CREATE TABLE other (m INT)`)

	c := NewQueryCache(v)
	r1, err := c.Query(`SELECT n FROM t`, Ts(3, 0))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c.Query(`SELECT n FROM t`, Ts(9, 0))
	if err != nil {
		t.Fatal(err)
	}
	if c.Hits != 1 || c.Misses != 1 {
		t.Fatalf("hits=%d misses=%d (want 1/1)", c.Hits, c.Misses)
	}
	if !resultsEqual(r1, r2) {
		t.Fatal("dedup results differ")
	}
	// Modifying an unrelated table must not break dedup.
	if _, err := c.Query(`SELECT n FROM t`, Ts(11, 0)); err != nil {
		t.Fatal(err)
	}
	if c.Hits != 2 {
		t.Fatalf("unrelated table mod broke dedup: hits=%d", c.Hits)
	}
}

func TestQueryCacheInvalidationOnTableMod(t *testing.T) {
	v := NewVersionedDB()
	applyTxn(t, v, 1, `CREATE TABLE t (n INT)`)
	applyTxn(t, v, 2, `INSERT INTO t (n) VALUES (1)`)
	applyTxn(t, v, 5, `INSERT INTO t (n) VALUES (2)`)
	c := NewQueryCache(v)
	r1, _ := c.Query(`SELECT COUNT(*) FROM t`, Ts(3, 0))
	r2, _ := c.Query(`SELECT COUNT(*) FROM t`, Ts(6, 0))
	if c.Misses != 2 || c.Hits != 0 {
		t.Fatalf("mod between reads must force re-execution: hits=%d misses=%d", c.Hits, c.Misses)
	}
	if r1.Rows[0][0] == r2.Rows[0][0] {
		t.Fatal("results should differ across the modification")
	}
}

func TestQueryCacheDifferentSQLNotDeduped(t *testing.T) {
	v := NewVersionedDB()
	applyTxn(t, v, 1, `CREATE TABLE t (n INT)`)
	applyTxn(t, v, 2, `INSERT INTO t (n) VALUES (7)`)
	c := NewQueryCache(v)
	if _, err := c.Query(`SELECT n FROM t`, Ts(3, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(`SELECT COUNT(*) FROM t`, Ts(3, 0)); err != nil {
		t.Fatal(err)
	}
	if c.Misses != 2 {
		t.Fatalf("lexically different queries must not dedup: misses=%d", c.Misses)
	}
}

func TestQueryCacheRejectsWrites(t *testing.T) {
	v := NewVersionedDB()
	applyTxn(t, v, 1, `CREATE TABLE t (n INT)`)
	c := NewQueryCache(v)
	if _, err := c.Query(`INSERT INTO t (n) VALUES (1)`, Ts(2, 0)); err == nil {
		t.Fatal("cache must reject non-SELECT")
	}
}

func TestSizeAccounting(t *testing.T) {
	v := NewVersionedDB()
	applyTxn(t, v, 1, `CREATE TABLE t (n INT, s TEXT)`)
	applyTxn(t, v, 2, `INSERT INTO t (n, s) VALUES (1, 'hello')`)
	applyTxn(t, v, 3, `UPDATE t SET s = 'world' WHERE n = 1`)
	full := v.SizeBytes()
	live := v.LiveSizeBytes()
	if full <= live {
		t.Fatalf("versioned size (%d) must exceed live size (%d) after updates", full, live)
	}
}

func TestMaxQOverflow(t *testing.T) {
	v := NewVersionedDB()
	stmts := make([]string, MaxQ+1)
	for i := range stmts {
		stmts[i] = `SELECT n FROM t`
	}
	if err := v.ApplyTxn(1, stmts); err == nil {
		t.Fatal("transaction exceeding MaxQ must fail")
	}
}
