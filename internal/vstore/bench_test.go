package vstore

import (
	"fmt"
	"strings"
	"testing"

	"orochi/internal/sqlmini"
)

// benchDB is a versioned posts table of `rows` live rows spread over
// rows/10 topics, with a tenth of the rows updated once.
func benchDB(b *testing.B, rows int) *VersionedDB {
	b.Helper()
	v := NewVersionedDB()
	if err := v.ApplyTxn(1, []string{`CREATE TABLE posts (id INT AUTOINCREMENT, topic_id INT, body TEXT)`}); err != nil {
		b.Fatal(err)
	}
	seq := int64(2)
	for lo := 0; lo < rows; lo += 1000 {
		vals := make([]string, min(1000, rows-lo))
		for i := range vals {
			vals[i] = fmt.Sprintf("(%d, 'post %d')", (lo+i)%(rows/10), lo+i)
		}
		if err := v.ApplyTxn(seq, []string{`INSERT INTO posts (topic_id, body) VALUES ` + strings.Join(vals, ", ")}); err != nil {
			b.Fatal(err)
		}
		seq++
	}
	for id := 1; id <= rows; id += 10 {
		if err := v.ApplyTxn(seq, []string{fmt.Sprintf(`UPDATE posts SET body = 'edited' WHERE id = %d`, id)}); err != nil {
			b.Fatal(err)
		}
		seq++
	}
	return v
}

// BenchmarkVersionedQueryPoint: one topic's posts as of the latest
// timestamp; the cost follows the rows returned (10), not the table.
func BenchmarkVersionedQueryPoint(b *testing.B) {
	for _, rows := range []int{1_000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			v := benchDB(b, rows)
			sels := make([]*sqlmini.Select, 64)
			for i := range sels {
				st, err := sqlmini.Parse(fmt.Sprintf(`SELECT id, body FROM posts WHERE topic_id = %d ORDER BY id LIMIT 50`, (i*7919)%(rows/10)))
				if err != nil {
					b.Fatal(err)
				}
				sels[i] = st.(*sqlmini.Select)
			}
			if _, err := v.Query(sels[0], tsLive); err != nil { // first probe builds the topic_id index
				b.Fatal(err)
			}
			i := 0
			for b.Loop() {
				r, err := v.Query(sels[i%len(sels)], tsLive)
				if err != nil || len(r.Rows) != 10 {
					b.Fatalf("rows=%d err=%v", len(r.Rows), err)
				}
				i++
			}
		})
	}
}

// BenchmarkMigrateFinal: the hand-off is linear in the live rows (ns/row
// flat across sizes), where the SQL-text round trip was quadratic.
func BenchmarkMigrateFinal(b *testing.B) {
	for _, rows := range []int{1_000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			v := benchDB(b, rows)
			for b.Loop() {
				tables, err := v.MigrateFinal()
				if err != nil || len(tables[0].Rows) != rows {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rows), "ns/row")
		})
	}
}
