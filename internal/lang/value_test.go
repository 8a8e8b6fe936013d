package lang

import (
	"strconv"
	"testing"
	"testing/quick"
)

func TestToBoolTruthTable(t *testing.T) {
	truthy := []Value{true, int64(1), int64(-1), 3.14, "a", "00", " "}
	falsy := []Value{nil, false, int64(0), 0.0, "", "0"}
	for _, v := range truthy {
		if !ToBool(v) {
			t.Errorf("ToBool(%#v) = false, want true", v)
		}
	}
	for _, v := range falsy {
		if ToBool(v) {
			t.Errorf("ToBool(%#v) = true, want false", v)
		}
	}
	empty := NewArray()
	if ToBool(empty) {
		t.Error("empty array must be falsy")
	}
	empty.Append(int64(0))
	if !ToBool(empty) {
		t.Error("non-empty array must be truthy")
	}
}

func TestToIntCoercions(t *testing.T) {
	cases := []struct {
		in   Value
		want int64
	}{
		{nil, 0}, {true, 1}, {false, 0},
		{int64(42), 42}, {3.99, 3}, {-3.99, -3},
		{"42", 42}, {"42abc", 42}, {"abc", 0}, {"", 0},
		{"3.9", 3}, {"-7", -7}, {" 8", 8}, {"0x10", 0},
		{"1e3", 1000},
	}
	for _, c := range cases {
		if got := ToInt(c.in); got != c.want {
			t.Errorf("ToInt(%#v) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestToStringCoercions(t *testing.T) {
	cases := []struct {
		in   Value
		want string
	}{
		{nil, ""}, {true, "1"}, {false, ""},
		{int64(42), "42"}, {float64(2), "2"}, {2.5, "2.5"},
		{"x", "x"},
	}
	for _, c := range cases {
		if got := ToString(c.in); got != c.want {
			t.Errorf("ToString(%#v) = %q, want %q", c.in, got, c.want)
		}
	}
	if ToString(NewArray()) != "Array" {
		t.Error("arrays stringify to 'Array' (with a notice, in PHP)")
	}
}

func TestKeyNormalization(t *testing.T) {
	cases := []struct {
		in    Value
		isInt bool
		i     int64
		s     string
	}{
		{int64(5), true, 5, ""},
		{"5", true, 5, ""},
		{"05", false, 0, "05"}, // non-canonical int string stays a string
		{"5.0", false, 0, "5.0"},
		{"-3", true, -3, ""},
		{"", false, 0, ""},
		{true, true, 1, ""},
		{false, true, 0, ""},
		{nil, false, 0, ""},
		{2.9, true, 2, ""}, // floats truncate
		{"abc", false, 0, "abc"},
	}
	for _, c := range cases {
		k, err := NormalizeKey(c.in)
		if err != nil {
			t.Fatalf("NormalizeKey(%#v): %v", c.in, err)
		}
		if k.IsInt != c.isInt || (c.isInt && k.I != c.i) || (!c.isInt && k.S != c.s) {
			t.Errorf("NormalizeKey(%#v) = %+v", c.in, k)
		}
	}
	if _, err := NormalizeKey(NewArray()); err == nil {
		t.Error("arrays cannot be keys")
	}
}

// Equal must be an equivalence relation on scalars and arrays.
func TestEqualEquivalenceQuick(t *testing.T) {
	mk := func(i int64, s string, b bool) Value {
		a := NewArray()
		a.Append(i)
		a.Append(s)
		a.Append(b)
		return a
	}
	reflexive := func(i int64, s string, b bool) bool {
		v := mk(i, s, b)
		return Equal(v, v) && Equal(CloneValue(v), v)
	}
	if err := quick.Check(reflexive, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
	symmetric := func(i, j int64) bool {
		return Equal(i, j) == Equal(j, i)
	}
	if err := quick.Check(symmetric, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Compare must be antisymmetric and consistent with LooseEqual on
// numbers.
func TestCompareConsistencyQuick(t *testing.T) {
	f := func(a, b int64) bool {
		c1 := Compare(a, b)
		c2 := Compare(b, a)
		if c1 != -c2 {
			return false
		}
		if (c1 == 0) != LooseEqual(a, b) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// CloneValue must produce values Equal to the original and disjoint in
// mutation: writes through the ownership path (Own, at every level)
// never reach the original.
func TestCloneQuick(t *testing.T) {
	f := func(i int64, s string) bool {
		a := NewArray()
		a.Append(i)
		inner := NewArray()
		inner.Append(s)
		a.Append(inner)
		cl := CloneValue(a).(*Array)
		if !Equal(a, cl) {
			return false
		}
		cl = cl.Own()
		cl.Append("extra")
		innerClone, _ := cl.Get(Key{I: 1, IsInt: true})
		innerOwn := innerClone.(*Array).Own()
		innerOwn.Append("deep")
		cl.Set(Key{I: 1, IsInt: true}, innerOwn)
		return a.Len() == 2 && mustGetArr(a, 1).Len() == 1 &&
			cl.Len() == 3 && mustGetArr(cl, 1).Len() == 2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestCanonicalIntStringQuick: the allocation-free check agrees with
// the definition it replaced, a ParseInt/FormatInt round trip.
func TestCanonicalIntStringQuick(t *testing.T) {
	ref := func(s string) (int64, bool) {
		if s == "" {
			return 0, false
		}
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil || strconv.FormatInt(n, 10) != s {
			return 0, false
		}
		return n, true
	}
	agree := func(s string) bool {
		n, ok := canonicalIntString(s)
		wn, wok := ref(s)
		return n == wn && ok == wok
	}
	for _, s := range []string{"-0", "+1", "01", "0", "", "-", "1e3", " 1",
		"9223372036854775807", "9223372036854775808", "-9223372036854775808"} {
		if !agree(s) {
			t.Errorf("%q: canonicalIntString disagrees with ParseInt+FormatInt", s)
		}
	}
	if err := quick.Check(agree, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	affixes := []string{"", "", "-", "+", "0", "-0", " ", "9", "x", "."}
	nearInt := func(n int64, pre, suf uint8) bool {
		return agree(affixes[int(pre)%len(affixes)] + strconv.FormatInt(n, 10) + affixes[int(suf)%len(affixes)])
	}
	if err := quick.Check(nearInt, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { canonicalIntString("page_title") }); n != 0 {
		t.Fatalf("a non-numeric key allocates %v times", n)
	}
}

func mustGetArr(a *Array, idx int64) *Array {
	v, _ := a.Get(Key{I: idx, IsInt: true})
	return v.(*Array)
}

func TestArrayOrderedSemantics(t *testing.T) {
	a := NewArray()
	ka, _ := NormalizeKey(Value("z"))
	kb, _ := NormalizeKey(Value("a"))
	a.Set(ka, int64(1))
	a.Set(kb, int64(2))
	a.Append(int64(3)) // key 0
	// Insertion order preserved, not key order.
	keys := a.Keys()
	if keys[0].S != "z" || keys[1].S != "a" || keys[2].I != 0 {
		t.Fatalf("keys = %v", keys)
	}
	// Overwrite preserves position.
	a.Set(ka, int64(9))
	if a.Keys()[0].S != "z" || a.Len() != 3 {
		t.Fatal("overwrite must keep position")
	}
	// Delete then re-add moves to the end.
	a.Delete(ka)
	a.Set(ka, int64(10))
	if a.Keys()[2].S != "z" {
		t.Fatal("re-added key must be at the end")
	}
}

func TestArrayAppendIndexing(t *testing.T) {
	a := NewArray()
	a.Append("x") // 0
	k5, _ := NormalizeKey(Value(int64(5)))
	a.Set(k5, "y")
	a.Append("z") // 6
	keys := a.Keys()
	if keys[2].I != 6 {
		t.Fatalf("append after explicit index: key = %v", keys[2])
	}
	// Negative keys do not disturb the append counter.
	kn, _ := NormalizeKey(Value(int64(-10)))
	a.Set(kn, "w")
	a.Append("v") // 7
	if a.Keys()[4].I != 7 {
		t.Fatalf("append after negative index: %v", a.Keys()[4])
	}
}

func TestLooseEqualTable(t *testing.T) {
	cases := []struct {
		a, b Value
		want bool
	}{
		{int64(0), "", false}, // PHP 8 semantics: 0 == "" is false... we follow numeric-string rule
		{int64(0), "0", true},
		{int64(1), "1", true},
		{int64(1), "01", true},
		{"1", "01", true}, // both numeric
		{"abc", "abc", true},
		{"abc", "ABC", false},
		{nil, false, true},
		{nil, int64(0), true},
		{nil, "", true},
		{true, int64(1), true},
		{true, int64(2), true}, // truthiness comparison
		{false, int64(0), true},
		{1.5, "1.5", true},
	}
	for _, c := range cases {
		if got := LooseEqual(c.a, c.b); got != c.want {
			t.Errorf("LooseEqual(%#v, %#v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestLooseEqualArrays(t *testing.T) {
	a1, a2 := NewArray(), NewArray()
	k, _ := NormalizeKey(Value("k"))
	a1.Set(k, int64(1))
	a2.Set(k, "1") // loose-equal cell
	if !LooseEqual(a1, a2) {
		t.Fatal("arrays with loose-equal cells must compare ==")
	}
	if Equal(a1, a2) {
		t.Fatal("but not ===")
	}
	a2.Append("extra")
	if LooseEqual(a1, a2) {
		t.Fatal("different lengths are never ==")
	}
}

func TestNumericStringDetection(t *testing.T) {
	yes := []string{"0", "12", "-5", "3.25", " 42", "1e3", "0.5"}
	no := []string{"", "abc", "12abc", "1.2.3", "--2", "e3"}
	for _, s := range yes {
		if !IsNumericString(s) {
			t.Errorf("IsNumericString(%q) = false", s)
		}
	}
	for _, s := range no {
		if IsNumericString(s) {
			t.Errorf("IsNumericString(%q) = true", s)
		}
	}
}

func TestIntOverflowPromotesToFloat(t *testing.T) {
	src := `echo 9223372036854775807 + 1;`
	got := runPlain(t, src, RequestInput{})
	// Must not wrap silently to a negative int.
	if got == "-9223372036854775808" {
		t.Fatal("int overflow must promote to float, not wrap")
	}
}

func TestSortValuesStability(t *testing.T) {
	a := NewArray()
	for _, v := range []string{"b", "a", "c", "a"} {
		a.Append(v)
	}
	a.SortValues(func(x, y Value) bool { return Compare(x, y) < 0 })
	vals := a.Values()
	if vals[0] != "a" || vals[1] != "a" || vals[2] != "b" || vals[3] != "c" {
		t.Fatalf("sorted = %v", vals)
	}
	// Keys are renumbered 0..n-1.
	for i, k := range a.Keys() {
		if !k.IsInt || k.I != int64(i) {
			t.Fatalf("key %d = %v", i, k)
		}
	}
}
