package lang

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strconv"
	"strings"
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

// TestIsNumericStringTable: the first-byte check changes no answer of
// the definition it guards, a ParseFloat of the trimmed string.
func TestIsNumericStringTable(t *testing.T) {
	ref := func(s string) bool {
		t := strings.TrimSpace(s)
		if t == "" {
			return false
		}
		_, err := strconv.ParseFloat(t, 64)
		return err == nil
	}
	for s, want := range map[string]bool{
		"": false, "  1 ": true, "+.5": true, "-1e3": true, "inf": true,
		"Infinity": true, "NaN": true, "0x1p3": true, "abc": false, "1a": false,
		"\t7": true, "-": false, ".": false, "1e400": false, "_1": false,
		"1_000": true, "\u00a07": true, "iNF": true, "nan(": false, "x1": false,
	} {
		if got := IsNumericString(s); got != want || got != ref(s) {
			t.Errorf("IsNumericString(%q) = %v, want %v (ParseFloat says %v)", s, got, want, ref(s))
		}
	}
	if err := quick.Check(func(s string) bool { return IsNumericString(s) == ref(s) }, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { IsNumericString("page_title") }); n != 0 {
		t.Fatalf("a non-numeric string allocates %v times", n)
	}
}

// keysOf returns a's keys in insertion order.
func keysOf(a *Array) []Key {
	out := make([]Key, len(a.ents))
	for i, e := range a.ents {
		out[i] = e.k
	}
	return out
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
	keys := keysOf(a)
	if keys[0].S != "z" || keys[1].S != "a" || keys[2].I != 0 {
		t.Fatalf("keys = %v", keys)
	}
	// Overwrite preserves position.
	a.Set(ka, int64(9))
	if keysOf(a)[0].S != "z" || a.Len() != 3 {
		t.Fatal("overwrite must keep position")
	}
	// Delete then re-add moves to the end.
	a.Delete(ka)
	a.Set(ka, int64(10))
	if keysOf(a)[2].S != "z" {
		t.Fatal("re-added key must be at the end")
	}
}

func TestArrayAppendIndexing(t *testing.T) {
	a := NewArray()
	a.Append("x") // 0
	k5, _ := NormalizeKey(Value(int64(5)))
	a.Set(k5, "y")
	a.Append("z") // 6
	keys := keysOf(a)
	if keys[2].I != 6 {
		t.Fatalf("append after explicit index: key = %v", keys[2])
	}
	// Negative keys do not disturb the append counter.
	kn, _ := NormalizeKey(Value(int64(-10)))
	a.Set(kn, "w")
	a.Append("v") // 7
	if keysOf(a)[4].I != 7 {
		t.Fatalf("append after negative index: %v", keysOf(a)[4])
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
	for i, k := range keysOf(a) {
		if !k.IsInt || k.I != int64(i) {
			t.Fatalf("key %d = %v", i, k)
		}
	}
}

// refArray is the reference model for Array: the representation Array
// had before its entry slice, a key slice in insertion order beside a map
// keyed by the whole Key. FuzzArrayModel holds Array to it.
type refArray struct {
	keys    []Key
	m       map[Key]Value
	nextIdx int64
}

func newRefArray() *refArray { return &refArray{m: map[Key]Value{}} }

func (r *refArray) set(k Key, v Value) {
	if _, ok := r.m[k]; !ok {
		r.keys = append(r.keys, k)
	}
	r.m[k] = v
	if k.IsInt && k.I >= r.nextIdx {
		r.nextIdx = k.I + 1
	}
}

func (r *refArray) append(v Value) { r.set(Key{I: r.nextIdx, IsInt: true}, v) }

func (r *refArray) delete(k Key) {
	if _, ok := r.m[k]; !ok {
		return
	}
	delete(r.m, k)
	r.keys = slices.DeleteFunc(r.keys, func(x Key) bool { return x == k })
}

func (r *refArray) sortKeys() {
	sort.SliceStable(r.keys, func(i, j int) bool { return keyLess(r.keys[i], r.keys[j]) })
}

func (r *refArray) sortValues(cmp func(x, y Value) bool) {
	vals := make([]Value, len(r.keys))
	for i, k := range r.keys {
		vals[i] = r.m[k]
	}
	sort.SliceStable(vals, func(i, j int) bool { return cmp(vals[i], vals[j]) })
	r.keys, r.m, r.nextIdx = nil, map[Key]Value{}, 0
	for _, v := range vals {
		r.append(v)
	}
}

func (r *refArray) clone() *refArray {
	return &refArray{keys: slices.Clone(r.keys), m: maps.Clone(r.m), nextIdx: r.nextIdx}
}

// modelKeys are the raw keys FuzzArrayModel draws from besides small
// ints: canonical and near-integer strings (which NormalizeKey must keep
// apart), the int64 extremes, and more distinct string keys than an
// array holds before it is indexed.
var modelKeys = []Value{
	"0", "-0", "7", "07", "-7", " 7", "7 ", "1e2", "1.0", "",
	"9223372036854775807", "-9223372036854775808", "9223372036854775808",
	"a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l",
	1.9, true, nil,
}

func modelKey(b byte) Key {
	raw := Value(int64(int8(b) >> 1))
	if b&1 == 1 {
		raw = modelKeys[int(b>>1)%len(modelKeys)]
	}
	k, err := NormalizeKey(raw)
	if err != nil {
		panic(err)
	}
	return k
}

// sameArray reports how a differs from the model r, or "". Besides the
// model's keys it looks up the probe keys, which may be absent.
func sameArray(a *Array, r *refArray, probe ...Key) string {
	if a.Len() != len(r.keys) || a.nextIdx != r.nextIdx {
		return fmt.Sprintf("len %d next %d, model len %d next %d", a.Len(), a.nextIdx, len(r.keys), r.nextIdx)
	}
	if indexed := a.ints != nil || a.strs != nil; indexed != (a.Len() > arrayScanMax) {
		return fmt.Sprintf("len %d but indexed=%v", a.Len(), indexed)
	}
	for i, k := range r.keys {
		if e := a.ents[i]; e.k != k || e.v != r.m[k] {
			return fmt.Sprintf("cell %d is %v=>%v, model %v=>%v", i, e.k, e.v, k, r.m[k])
		}
		if v, ok := a.Get(k); !ok || v != r.m[k] {
			return fmt.Sprintf("Get(%v) = %v, %v; model %v", k, v, ok, r.m[k])
		}
	}
	for _, k := range probe {
		want, wantOK := r.m[k]
		if v, ok := a.Get(k); ok != wantOK || v != want {
			return fmt.Sprintf("Get(%v) = %v, %v; model %v, %v", k, v, ok, want, wantOK)
		}
	}
	return ""
}

// FuzzArrayModel drives random operation sequences through Array and
// through the reference model, and requires the same length, lookups,
// iteration order and next index after every step. The first byte
// picks the initial capacity; then each pair of bytes is an operation
// and its argument. An array shared before a write must keep its cells.
func FuzzArrayModel(f *testing.F) {
	grow := []byte{0}
	for i := 0; i < 12; i++ {
		grow = append(grow, 2, byte(i)) // Append
	}
	shrink := slices.Clone(grow)
	for i := 0; i < 12; i++ {
		shrink = append(shrink, 3, byte(2*i)) // Delete int key i
	}
	strs := []byte{4}
	for i := 0; i < 12; i++ {
		strs = append(strs, 1, byte(2*(13+i)+1)) // Set string keys "a"…"l"
	}
	strs = append(strs, 6, 0, 5, 0) // share+Own, SortKeys
	for i := 11; i >= 0; i-- {
		strs = append(strs, 3, byte(2*(13+i)+1)) // Delete them again
	}
	mixed := []byte{16, 0, 14, 3, 1, 21, 5, 2, 9, 6, 0, 0, 250, 1, 1, 2, 200, 2, 7, 1, 23, 4, 0, 3, 250, 7, 0, 1, 3, 2, 1}
	for _, seed := range [][]byte{grow, shrink, strs, mixed, {}} {
		f.Add(seed)
	}
	cmp := func(x, y Value) bool { return Compare(x, y) < 0 }
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 256 {
			return // 127 operations cross the index boundary often enough
		}
		a, r := NewArrayCap(int(data[0]%16)), newRefArray()
		var frozen []*Array
		var frozenRef []*refArray
		for i := 1; i+1 < len(data); i += 2 {
			op, arg := data[i]%8, data[i+1]
			v := Value(int64(arg % 16))
			k := modelKey(arg)
			switch op {
			case 0, 1:
				if op == 1 {
					k = modelKey(arg | 1)
				}
				a.Set(k, v)
				r.set(k, v)
			case 2:
				a.Append(v)
				r.append(v)
			case 3:
				a.Delete(k)
				r.delete(k)
			case 4:
				a.SortKeys()
				r.sortKeys()
			case 5:
				a.SortValues(cmp)
				r.sortValues(cmp)
			case 6:
				share(a)
				frozen, frozenRef = append(frozen, a), append(frozenRef, r.clone())
				a = a.Own()
			}
			// Op 7 is a lookup alone: of k, which may be absent.
			if d := sameArray(a, r, k); d != "" {
				t.Fatalf("step %d (op %d, arg %d): %s", i/2, op, arg, d)
			}
		}
		every := make([]Key, 256)
		for b := range every {
			every[b] = modelKey(byte(b))
		}
		if d := sameArray(a, r, every...); d != "" {
			t.Fatalf("at the end: %s", d)
		}
		for j, fa := range frozen {
			if d := sameArray(fa, frozenRef[j], every...); d != "" {
				t.Fatalf("shared array %d was written: %s", j, d)
			}
		}
	})
}

// TestArrayLiteralAllocations pins what an array literal costs: a 5-cell
// string-keyed literal allocates the *Array and its entry slice, sized
// once, and nothing else (no map: five cells are found by scanning).
func TestArrayLiteralAllocations(t *testing.T) {
	const iters = 100
	allocs := func(body string) float64 {
		prog, err := Compile(map[string]string{"main": fmt.Sprintf(`for ($i = 0; $i < %d; $i++) { %s }`, iters, body)})
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Mode: ModePlain, Script: "main", RIDs: []string{"r1"}, Inputs: []RequestInput{{}}}
		return testing.AllocsPerRun(20, func() {
			if _, err := Run(prog, cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	lit := allocs(`$a = ["id" => 1, "title" => 2, "body" => 3, "user" => 4, "ts" => 5];`)
	scalar := allocs(`$a = 0;`)
	if per := (lit - scalar) / iters; per > 2 {
		t.Fatalf("a 5-cell literal allocates %.2f times, want at most 2 (the array and its entries)", per)
	}
}
