package sqlmini

import (
	"fmt"
	"strings"
	"testing"
)

// BenchmarkExecWriteTxn: a one-row UPDATE transaction must cost the same
// on a 100-row table as on a 100 000-row one — the undo journal records
// the replaced row, not the table, and the WHERE id = k probe goes
// through the id index.
func BenchmarkExecWriteTxn(b *testing.B) {
	for _, rows := range []int{100, 10_000, 100_000} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			db := NewDB()
			if _, err := db.Exec(`CREATE TABLE t (id INT AUTOINCREMENT, v INT, s TEXT)`); err != nil {
				b.Fatal(err)
			}
			for lo := 0; lo < rows; lo += 1000 {
				vals := make([]string, min(1000, rows-lo))
				for i := range vals {
					vals[i] = fmt.Sprintf("(0, 'row %d')", lo+i)
				}
				if _, err := db.Exec(`INSERT INTO t (v, s) VALUES ` + strings.Join(vals, ", ")); err != nil {
					b.Fatal(err)
				}
			}
			stmts := make([][]string, 64)
			for i := range stmts {
				stmts[i] = []string{fmt.Sprintf(`UPDATE t SET v = v + 1 WHERE id = %d`, 1+(i*7919)%rows)}
			}
			if _, err := db.ExecTxn(stmts[0]); err != nil { // first probe builds the id index
				b.Fatal(err)
			}
			i := 0
			for b.Loop() {
				if _, err := db.ExecTxn(stmts[i%len(stmts)]); err != nil {
					b.Fatal(err)
				}
				i++
			}
		})
	}
}
