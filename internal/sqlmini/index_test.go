package sqlmini

import (
	"fmt"
	"math"
	"reflect"
	"testing"
)

func TestEqIndexLookup(t *testing.T) {
	ix := NewEqIndex()
	for pos, v := range []Val{int64(1), "a", nil, 1.0, "1", int64(2), nil, "a"} {
		ix.Add(v, pos)
	}
	cases := []struct {
		vals []Val
		want []int
	}{
		{[]Val{int64(1)}, []int{0, 3, 4}}, // a number also matches the text "1"
		{[]Val{"1"}, []int{0, 3, 4}},      // and the text "1" matches the numbers
		{[]Val{1.0}, []int{0, 3, 4}},
		{[]Val{"a"}, []int{1, 7}},
		{[]Val{nil}, []int{2, 6}},
		{[]Val{"a", int64(2), nil, "a"}, []int{1, 2, 5, 6, 7}}, // IN list: merged, ascending, no duplicates
		{[]Val{int64(3)}, nil},
		{[]Val{"zzz"}, nil},
	}
	for _, c := range cases {
		if got := ix.Lookup(c.vals); !reflect.DeepEqual(got, c.want) {
			t.Errorf("Lookup(%v) = %v, want %v", c.vals, got, c.want)
		}
	}
	// Out-of-order and repeated adds keep a list ascending and unique (the
	// versioned store re-lists a slot whose value changed back).
	ix.Add("a", 4)
	ix.Add("a", 4)
	ix.Add("a", 0)
	if got := ix.Lookup([]Val{"a"}); !reflect.DeepEqual(got, []int{0, 1, 4, 7}) {
		t.Errorf("after out-of-order adds: %v", got)
	}
	// Remove takes a position out of exactly one list.
	ix.Remove("a", 1)
	ix.Remove("a", 99)
	ix.Remove(int64(1), 0)
	if got := ix.Lookup([]Val{"a"}); !reflect.DeepEqual(got, []int{0, 4, 7}) {
		t.Errorf("after Remove: %v", got)
	}
	if got := ix.Lookup([]Val{int64(1)}); !reflect.DeepEqual(got, []int{3, 4}) {
		t.Errorf("after Remove: %v", got)
	}
}

// TestUpdateMovesIndexEntry: an UPDATE of an indexed column takes the row
// out of its old posting list (a queue-shaped table must not accumulate
// every row it ever held under 'pending').
func TestUpdateMovesIndexEntry(t *testing.T) {
	db := NewDB()
	mustExec(t, db, `CREATE TABLE jobs (id INT AUTOINCREMENT, status TEXT)`)
	for i := 0; i < 5; i++ {
		mustExec(t, db, `INSERT INTO jobs (status) VALUES ('pending')`)
	}
	mustExec(t, db, `SELECT id FROM jobs WHERE status = 'pending'`) // builds the index
	mustExec(t, db, `UPDATE jobs SET status = 'done' WHERE id = 2`)
	mustExec(t, db, `INSERT INTO jobs (status) VALUES ('pending')`)
	ix := db.tables["jobs"].idx[1]
	if got := ix.Lookup([]Val{"pending"}); !reflect.DeepEqual(got, []int{0, 2, 3, 4, 5}) {
		t.Fatalf("pending list = %v", got)
	}
	if got := ix.Lookup([]Val{"done"}); !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("done list = %v", got)
	}
}

// TestValToStringMatchesFmt pins the strconv rendering to the fmt verbs
// it replaced: comparison and TEXT coercion see the same text as before.
func TestValToStringMatchesFmt(t *testing.T) {
	for _, n := range []int64{0, 1, -1, 42, math.MaxInt64, math.MinInt64} {
		if got, want := valToString(n), fmt.Sprintf("%d", n); got != want {
			t.Errorf("valToString(%d) = %q, want %q", n, got, want)
		}
	}
	for _, f := range []float64{0, 1, -1.5, 0.1, 1e21, 1e20, 1e-7, 123456789.125, math.MaxFloat64, math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(0, -1)} {
		if got, want := valToString(f), fmt.Sprintf("%g", f); got != want {
			t.Errorf("valToString(%v) = %q, want %q", f, got, want)
		}
	}
}
