package sqlmini

import (
	"fmt"
	"sync"
	"testing"
)

// TestRollbackRestoresEverything: a statement failing late in a write
// transaction must undo every earlier statement exactly — the same rows
// (by identity) in the same order, the same auto-increment counter, the
// same table set — and leave the equality indexes usable: probing them
// afterwards answers as a scan does.
func TestRollbackRestoresEverything(t *testing.T) {
	const fail = `INSERT INTO missing (x) VALUES (1)`
	cases := []struct {
		name string
		txn  []string
	}{
		{"insert-update-delete-create", []string{
			`INSERT INTO t (g, s, f) VALUES (1, 'new', 0.5)`,
			`UPDATE t SET g = 2 WHERE g = 1`,
			`DELETE FROM t WHERE s = 'b'`,
			`CREATE TABLE extra (x INT)`,
			`INSERT INTO extra (x) VALUES (7)`,
			fail,
		}},
		{"multi-row-insert-fails-on-second-row", []string{
			`INSERT INTO t (g, s, f) VALUES (1, 'ok', 1.5), (1, 'bad', 'not a float')`,
		}},
		{"update-fails-after-earlier-updates", []string{
			`UPDATE t SET s = 'touched' WHERE id = 2`,
			`UPDATE t SET g = g + 1`,
			`UPDATE t SET g = 9, f = 'not a float' WHERE g = 2`,
		}},
		{"delete-all-then-reinsert", []string{
			`DELETE FROM t`,
			`INSERT INTO t (g, s, f) VALUES (5, 'phoenix', 5.5)`,
			fail,
		}},
		{"delete-max-id-then-insert", []string{
			`DELETE FROM t WHERE id = 6`,
			`INSERT INTO t (g, s, f) VALUES (0, 'reuse?', 0.5)`,
			fail,
		}},
		{"explicit-id-bumps-counter", []string{
			`INSERT INTO t (id, g, s, f) VALUES (40, 1, 'far', 0.5)`,
			fail,
		}},
		{"unknown-column-in-later-where", []string{
			`UPDATE t SET g = 3 WHERE s = 'a'`,
			`DELETE FROM t WHERE nosuch = 1`,
		}},
		{"created-table-used-then-dropped", []string{
			`CREATE TABLE extra (x INT AUTOINCREMENT, y TEXT)`,
			`INSERT INTO extra (y) VALUES ('p'), ('q')`,
			`UPDATE extra SET y = 'r' WHERE x = 1`,
			`DELETE FROM extra WHERE x = 2`,
			`CREATE TABLE extra (x INT)`,
		}},
	}
	probes := []string{
		`SELECT * FROM t WHERE g = 1`,
		`SELECT id, s FROM t WHERE s IN ('a', 'b', 'touched') ORDER BY g DESC`,
		`SELECT * FROM t WHERE id = 6`,
		`SELECT COUNT(*) FROM t WHERE f = 0.5 AND g = 2`,
		`SELECT * FROM t`,
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			db := NewDB()
			mustExec(t, db, `CREATE TABLE t (id INT AUTOINCREMENT, g INT, s TEXT, f FLOAT)`)
			for i := 0; i < 6; i++ {
				mustExec(t, db, fmt.Sprintf(`INSERT INTO t (g, s, f) VALUES (%d, '%c', %d.5)`, i%3, 'a'+rune(i%2), i%2))
			}
			for _, p := range probes {
				mustExec(t, db, p) // build the indexes the transaction will have to maintain
			}
			tbl := db.tables["t"]
			before, beforeAuto := append([][]Val(nil), tbl.Rows...), tbl.NextAuto
			if _, err := db.ExecTxn(c.txn); err == nil {
				t.Fatal("transaction was meant to fail")
			}
			if !sameRowSlices(before, tbl.Rows) {
				t.Fatalf("rows after rollback: %v, want %v", tbl.Rows, before)
			}
			if tbl.NextAuto != beforeAuto {
				t.Fatalf("NextAuto after rollback = %d, want %d", tbl.NextAuto, beforeAuto)
			}
			if got := db.Tables(); len(got) != 1 || got[0] != "t" {
				t.Fatalf("tables after rollback: %v", got)
			}
			// The aborted transaction must not have poisoned the indexes,
			// nor may the next committed one find them stale.
			for round := 0; round < 2; round++ {
				for _, p := range probes {
					st, err := Parse(p)
					if err != nil {
						t.Fatal(err)
					}
					want, err := scanSelect(tbl, st.(*Select))
					if err != nil {
						t.Fatal(err)
					}
					if got := mustExec(t, db, p); fmt.Sprint(got.Rows) != fmt.Sprint(want.Rows) {
						t.Fatalf("round %d %s: indexed %v, scan %v", round, p, got.Rows, want.Rows)
					}
				}
				mustExec(t, db, `UPDATE t SET g = 1, s = 'a' WHERE id = 6`)
				mustExec(t, db, `INSERT INTO t (g, s, f) VALUES (1, 'b', 0.5)`)
			}
		})
	}
}

// TestRollbackUnderConcurrentReaders runs aborting and committing write
// transactions against read-only transactions that probe (and lazily
// build) several indexes at once. Every reader must see a committed
// state: the two groups always partition the same 40 rows. Run with -race.
func TestRollbackUnderConcurrentReaders(t *testing.T) {
	db := NewDB()
	mustExec(t, db, `CREATE TABLE t (id INT AUTOINCREMENT, g INT, s TEXT)`)
	const rows = 40
	for i := 0; i < rows; i++ {
		mustExec(t, db, fmt.Sprintf(`INSERT INTO t (g, s) VALUES (%d, 's%d')`, i%2, i%5))
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	defer func() {
		close(stop)
		wg.Wait()
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				rs, err := db.ExecTxn([]string{
					`SELECT COUNT(*) FROM t WHERE g = 0`,
					`SELECT COUNT(*) FROM t WHERE g = 1`,
					fmt.Sprintf(`SELECT id FROM t WHERE s = 's%d' AND g IN (0, 1)`, i%5),
					fmt.Sprintf(`SELECT g FROM t WHERE id = %d`, 1+i%rows),
				})
				if err != nil {
					t.Error(err)
					return
				}
				if n := rs[0].Rows[0][0].(int64) + rs[1].Rows[0][0].(int64); n != rows {
					t.Errorf("reader saw %d rows across the two groups, want %d", n, rows)
					return
				}
				if len(rs[2].Rows) != rows/5 || len(rs[3].Rows) != 1 {
					t.Errorf("reader saw %d rows for one s, %d for one id", len(rs[2].Rows), len(rs[3].Rows))
					return
				}
			}
		}()
	}
	for i := 0; i < 300; i++ {
		id := 1 + i%rows
		txn := []string{
			fmt.Sprintf(`UPDATE t SET g = %d WHERE id = %d`, (id+i/rows)%2, id), // moves the row to the other group's posting list
			`INSERT INTO t (g, s) VALUES (7, 'ghost')`,
			`DELETE FROM t WHERE g = 7`,
		}
		if i%3 == 0 {
			// Aborts after the delete has dropped every index.
			txn = append(txn, `UPDATE t SET g = 0 WHERE nosuch = 1`)
		}
		if _, err := db.ExecTxn(txn); (err != nil) != (i%3 == 0) {
			t.Fatalf("txn %d: err = %v", i, err)
		}
	}
}
