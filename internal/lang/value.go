// Package lang implements the application language of this OROCHI
// reproduction: a small, PHP-like, dynamically typed scripting language
// with three execution modes — plain, recording (server side, §4.3), and
// SIMD-on-demand (verifier side, §3.1/§4.3). It substitutes for PHP/HHVM
// in the paper; see DESIGN.md for the substitution argument.
package lang

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Value is a runtime value. The concrete types are:
//
//	nil          – PHP null
//	bool         – PHP bool
//	int64        – PHP int
//	float64      – PHP float
//	string       – PHP string
//	*Array       – PHP array (ordered hash)
//	*Multi       – a multivalue (verifier-side SIMD-on-demand only)
//
// Arrays are value types, as in PHP, implemented copy-on-write as PHP
// and HHVM do. Assigning an array, passing it, returning it or storing
// it in another array shares it (CloneValue marks it shared and returns
// the same pointer); a shared array is never written again, and a holder
// that writes one writes a shallow copy of it instead (Array.Own). An array
// that is not marked has one holder, who may write it in place.
type Value interface{}

// Key is an array key: either an int or a string, mirroring PHP's key
// normalization (integer-like strings become int keys).
type Key struct {
	I     int64
	S     string
	IsInt bool
}

// NormalizeKey converts a Value to an array Key using PHP's rules.
func NormalizeKey(v Value) (Key, error) {
	switch x := v.(type) {
	case nil:
		return Key{S: "", IsInt: false}, nil
	case bool:
		if x {
			return Key{I: 1, IsInt: true}, nil
		}
		return Key{I: 0, IsInt: true}, nil
	case int64:
		return Key{I: x, IsInt: true}, nil
	case float64:
		return Key{I: int64(x), IsInt: true}, nil
	case string:
		if n, ok := canonicalIntString(x); ok {
			return Key{I: n, IsInt: true}, nil
		}
		return Key{S: x, IsInt: false}, nil
	default:
		return Key{}, fmt.Errorf("illegal array key of type %s", TypeName(v))
	}
}

// canonicalIntString reports whether s is the canonical decimal form of
// an int64 (as PHP treats "10" but not "010" or "1.0" as int keys). It
// allocates nothing: only -?[1-9][0-9]*|0 reaches ParseInt, which then
// fails only on overflow.
func canonicalIntString(s string) (int64, bool) {
	digits := s
	if len(digits) > 0 && digits[0] == '-' {
		digits = digits[1:]
	}
	if digits == "" || digits[0] == '0' && (len(digits) > 1 || len(s) > 1) {
		return 0, false
	}
	for i := 0; i < len(digits); i++ {
		if digits[i] < '0' || digits[i] > '9' {
			return 0, false
		}
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

func (k Key) String() string {
	if k.IsInt {
		return strconv.FormatInt(k.I, 10)
	}
	return k.S
}

// Value returns the key as a runtime Value.
func (k Key) Value() Value {
	if k.IsInt {
		return k.I
	}
	return k.S
}

// arrayScanMax is the most cells an array holds without an index: up to
// it a lookup scans the entries, past it two position indexes (one per
// key kind) find a key, so the runtime hashes an int64 or a string and
// never the Key struct.
const arrayScanMax = 8

// entry is one cell of an array.
type entry struct {
	k Key
	v Value
}

// Array is a PHP-style ordered hash map: its cells in insertion order,
// indexed by key only once there are more than arrayScanMax of them.
type Array struct {
	ents []entry
	// ints and strs map each int and string key to its position in ents;
	// both are nil while len(ents) <= arrayScanMax.
	ints    map[int64]int
	strs    map[string]int
	nextIdx int64
	// shared is set once the array may have more than one holder, and
	// never cleared: from then on nobody writes it (Set and Delete
	// panic), and a holder that writes takes a copy with Own. Every array
	// below a shared one is shared too. Only the array's one holder sets
	// the mark, so an array reachable from several goroutines must be
	// marked before it is published.
	shared bool
	// nested records that some cell is, or once was, an array or a
	// multivalue: marking and the multivalue walks skip a flat array.
	nested bool
}

// NewArray returns an empty array.
func NewArray() *Array {
	return &Array{}
}

// NewArrayCap returns an empty array with room for n cells.
func NewArrayCap(n int) *Array {
	return &Array{ents: make([]entry, 0, n)}
}

// Len reports the number of elements.
func (a *Array) Len() int { return len(a.ents) }

// find returns the position of key k, or -1.
func (a *Array) find(k Key) int {
	if len(a.ents) > arrayScanMax {
		var i int
		var ok bool
		if k.IsInt {
			i, ok = a.ints[k.I]
		} else {
			i, ok = a.strs[k.S]
		}
		if !ok {
			return -1
		}
		return i
	}
	if k.IsInt {
		for i := range a.ents {
			if e := &a.ents[i].k; e.IsInt && e.I == k.I {
				return i
			}
		}
	} else {
		for i := range a.ents {
			if e := &a.ents[i].k; !e.IsInt && e.S == k.S {
				return i
			}
		}
	}
	return -1
}

// index records that key k is at position i.
func (a *Array) index(k Key, i int) {
	if k.IsInt {
		if a.ints == nil {
			a.ints = make(map[int64]int, cap(a.ents))
		}
		a.ints[k.I] = i
	} else {
		if a.strs == nil {
			a.strs = make(map[string]int, cap(a.ents))
		}
		a.strs[k.S] = i
	}
}

// rebuildIndex rebuilds the position indexes from the entries: none for a
// small array.
func (a *Array) rebuildIndex() {
	a.ints, a.strs = nil, nil
	if len(a.ents) <= arrayScanMax {
		return
	}
	for i := range a.ents {
		a.index(a.ents[i].k, i)
	}
}

// Get returns the value at key k and whether it exists.
func (a *Array) Get(k Key) (Value, bool) {
	if i := a.find(k); i >= 0 {
		return a.ents[i].v, true
	}
	return nil, false
}

// Set inserts or replaces the value at key k, preserving insertion order
// for existing keys.
func (a *Array) Set(k Key, v Value) {
	a.mustOwn()
	switch v.(type) {
	case *Array, *Multi:
		a.nested = true
	}
	if i := a.find(k); i >= 0 {
		a.ents[i].v = v
	} else {
		a.ents = append(a.ents, entry{k, v})
		switch n := len(a.ents); {
		case n == arrayScanMax+1:
			a.rebuildIndex()
		case n > arrayScanMax+1:
			a.index(k, n-1)
		}
	}
	if k.IsInt && k.I >= a.nextIdx {
		a.nextIdx = k.I + 1
	}
}

// Append inserts v at the next integer index (PHP's $a[] = v).
func (a *Array) Append(v Value) {
	a.Set(Key{I: a.nextIdx, IsInt: true}, v)
}

// Delete removes key k if present (PHP unset).
func (a *Array) Delete(k Key) {
	a.mustOwn()
	i := a.find(k)
	if i < 0 {
		return
	}
	a.ents = slices.Delete(a.ents, i, i+1)
	if len(a.ents) <= arrayScanMax {
		a.ints, a.strs = nil, nil
		return
	}
	if k.IsInt {
		delete(a.ints, k.I)
	} else {
		delete(a.strs, k.S)
	}
	for j := i; j < len(a.ents); j++ {
		a.index(a.ents[j].k, j)
	}
}

// Values returns the values in insertion order.
func (a *Array) Values() []Value {
	out := make([]Value, len(a.ents))
	for i := range a.ents {
		out[i] = a.ents[i].v
	}
	return out
}

// mustOwn panics on a write to a shared array: some other holder would
// see it.
func (a *Array) mustOwn() {
	if a.shared {
		panic("lang: write to a shared array")
	}
}

// Own returns an array the caller may write that holds what a holds: a
// itself when a has one holder, else a shallow copy. The copy's child
// arrays stay shared (their writers copy them in turn); its multivalue
// cells are copied, because setPath writes a multivalue's lanes in
// place.
func (a *Array) Own() *Array {
	if !a.shared {
		return a
	}
	out := &Array{ents: slices.Clone(a.ents), ints: maps.Clone(a.ints), strs: maps.Clone(a.strs), nextIdx: a.nextIdx, nested: a.nested}
	if a.nested {
		for i := range out.ents {
			if m, ok := out.ents[i].v.(*Multi); ok {
				out.ents[i].v = &Multi{V: slices.Clone(m.V)}
			}
		}
	}
	return out
}

// share marks every array in v shared, stopping at arrays already
// marked (everything below those is marked already).
func share(v Value) {
	switch x := v.(type) {
	case *Array:
		if x.shared {
			return
		}
		x.shared = true
		if x.nested {
			for i := range x.ents {
				share(x.ents[i].v)
			}
		}
	case *Multi:
		for _, lv := range x.V {
			share(lv)
		}
	}
}

// SortValues re-sorts the array by value with fresh integer keys (PHP
// sort()). cmp orders two values.
func (a *Array) SortValues(cmp func(x, y Value) bool) {
	a.mustOwn()
	sort.SliceStable(a.ents, func(i, j int) bool { return cmp(a.ents[i].v, a.ents[j].v) })
	for i := range a.ents {
		a.ents[i].k = Key{I: int64(i), IsInt: true}
	}
	a.nextIdx = int64(len(a.ents))
	a.rebuildIndex()
}

// SortKeys re-orders the array's cells by key (PHP ksort()).
func (a *Array) SortKeys() {
	a.mustOwn()
	sort.SliceStable(a.ents, func(i, j int) bool { return keyLess(a.ents[i].k, a.ents[j].k) })
	a.rebuildIndex()
}

func keyLess(x, y Key) bool {
	if x.IsInt && y.IsInt {
		return x.I < y.I
	}
	if !x.IsInt && !y.IsInt {
		return x.S < y.S
	}
	return x.IsInt // ints sort before strings
}

// CloneValue is PHP's by-value copy: the value to hand to a new holder.
// An array is marked shared, with everything below it, and returned as
// is; a multivalue gets a fresh lane vector over shared lanes, because
// lane writes replace lanes in place. Scalars are immutable and returned
// as is.
func CloneValue(v Value) Value {
	share(v)
	if m, ok := v.(*Multi); ok {
		return &Multi{V: slices.Clone(m.V)}
	}
	return v
}

// deepCopy is the by-value copy of the reference engine, which keeps
// PHP's semantics the eager way: a fresh, unshared copy of every array
// in v.
func deepCopy(v Value) Value {
	switch x := v.(type) {
	case *Array:
		out := &Array{ents: make([]entry, len(x.ents)), ints: maps.Clone(x.ints), strs: maps.Clone(x.strs), nextIdx: x.nextIdx, nested: x.nested}
		for i, e := range x.ents {
			out.ents[i] = entry{e.k, deepCopy(e.v)}
		}
		return out
	case *Multi:
		out := make([]Value, len(x.V))
		for i, lv := range x.V {
			out[i] = deepCopy(lv)
		}
		return &Multi{V: out}
	default:
		return v
	}
}

// TypeName returns the PHP-style type name of v.
func TypeName(v Value) string {
	switch v.(type) {
	case nil:
		return "null"
	case bool:
		return "bool"
	case int64:
		return "int"
	case float64:
		return "float"
	case string:
		return "string"
	case *Array:
		return "array"
	case *Multi:
		return "multi"
	default:
		return fmt.Sprintf("%T", v)
	}
}

// ToBool applies PHP truthiness.
func ToBool(v Value) bool {
	switch x := v.(type) {
	case nil:
		return false
	case bool:
		return x
	case int64:
		return x != 0
	case float64:
		return x != 0
	case string:
		return x != "" && x != "0"
	case *Array:
		return x.Len() > 0
	default:
		return true
	}
}

// ToInt coerces v to an integer, PHP-style.
func ToInt(v Value) int64 {
	switch x := v.(type) {
	case nil:
		return 0
	case bool:
		if x {
			return 1
		}
		return 0
	case int64:
		return x
	case float64:
		return int64(x)
	case string:
		return parseNumericPrefixInt(x)
	case *Array:
		if x.Len() > 0 {
			return 1
		}
		return 0
	default:
		return 0
	}
}

// ToFloat coerces v to a float, PHP-style.
func ToFloat(v Value) float64 {
	switch x := v.(type) {
	case nil:
		return 0
	case bool:
		if x {
			return 1
		}
		return 0
	case int64:
		return float64(x)
	case float64:
		return x
	case string:
		f, _ := parseNumericPrefixFloat(x)
		return f
	default:
		return 0
	}
}

// ToString coerces v to a string, PHP-style. Floats print with %g to
// match PHP's default precision behaviour closely enough for rendering.
func ToString(v Value) string {
	switch x := v.(type) {
	case nil:
		return ""
	case bool:
		if x {
			return "1"
		}
		return ""
	case int64:
		return strconv.FormatInt(x, 10)
	case float64:
		if x == math.Trunc(x) && math.Abs(x) < 1e15 {
			return strconv.FormatFloat(x, 'f', -1, 64)
		}
		return strconv.FormatFloat(x, 'g', -1, 64)
	case string:
		return x
	case *Array:
		return "Array"
	default:
		return fmt.Sprintf("%v", v)
	}
}

// IsNumericString reports whether s is entirely a numeric literal.
func IsNumericString(s string) bool {
	t := strings.TrimSpace(s)
	if t == "" {
		return false
	}
	// Every string ParseFloat accepts starts with a digit, a sign, a
	// point, or the i/n of inf/nan. Refusing the rest here spares the
	// error ParseFloat would allocate for them.
	switch c := t[0]; {
	case '0' <= c && c <= '9', c == '+', c == '-', c == '.', c == 'i', c == 'I', c == 'n', c == 'N':
	default:
		return false
	}
	_, err := strconv.ParseFloat(t, 64)
	return err == nil
}

func parseNumericPrefixInt(s string) int64 {
	f, _ := parseNumericPrefixFloat(s)
	return int64(f)
}

// parseNumericPrefixFloat parses the longest numeric prefix of s (PHP's
// loose string-to-number conversion). It returns the parsed number and
// whether any numeric prefix exists.
func parseNumericPrefixFloat(s string) (float64, bool) {
	s = strings.TrimLeft(s, " \t\n\r")
	const maxScan = 64 // numeric literals longer than this do not occur
	limit := len(s)
	if limit > maxScan {
		limit = maxScan
	}
	var best float64
	found := false
	for i := 1; i <= limit; i++ {
		if f, err := strconv.ParseFloat(s[:i], 64); err == nil {
			best = f
			found = true
		}
	}
	return best, found
}

// Equal reports deep equality between two values with strict typing
// (=== semantics, used for multivalue collapse and op-content checks).
// Int and float compare unequal even when numerically equal, except that
// comparing across lanes of arithmetic never produces mixed types for
// equal inputs.
func Equal(a, b Value) bool {
	switch x := a.(type) {
	case nil:
		return b == nil
	case bool:
		y, ok := b.(bool)
		return ok && x == y
	case int64:
		y, ok := b.(int64)
		return ok && x == y
	case float64:
		y, ok := b.(float64)
		return ok && x == y
	case string:
		y, ok := b.(string)
		return ok && x == y
	case *Array:
		y, ok := b.(*Array)
		if !ok {
			return false
		}
		if x == y {
			// Pointer equality: the same array value. This fast path is
			// what makes multivalue collapse O(1) when all lanes
			// received the same deduplicated result (e.g. from the
			// read-query cache).
			return true
		}
		if x.Len() != y.Len() {
			return false
		}
		for i := range x.ents {
			if y.ents[i].k != x.ents[i].k || !Equal(x.ents[i].v, y.ents[i].v) {
				return false
			}
		}
		return true
	case *Multi:
		y, ok := b.(*Multi)
		if !ok || len(x.V) != len(y.V) {
			return false
		}
		for i := range x.V {
			if !Equal(x.V[i], y.V[i]) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// LooseEqual implements PHP's == comparison (numeric strings compare
// numerically, null == false, etc.), restricted to the sane subset our
// applications rely on.
func LooseEqual(a, b Value) bool {
	switch x := a.(type) {
	case nil:
		switch y := b.(type) {
		case nil:
			return true
		case bool:
			return !y
		case string:
			return y == ""
		case int64:
			return y == 0
		case float64:
			return y == 0
		case *Array:
			return y.Len() == 0
		}
		return false
	case bool:
		return x == ToBool(b)
	case int64:
		switch y := b.(type) {
		case int64:
			return x == y
		case float64:
			return float64(x) == y
		case string:
			if IsNumericString(y) {
				return float64(x) == ToFloat(y)
			}
			return false
		case bool:
			return ToBool(a) == y
		case nil:
			return x == 0
		}
		return false
	case float64:
		switch y := b.(type) {
		case int64:
			return x == float64(y)
		case float64:
			return x == y
		case string:
			if IsNumericString(y) {
				return x == ToFloat(y)
			}
			return false
		case bool:
			return ToBool(a) == y
		case nil:
			return x == 0
		}
		return false
	case string:
		switch y := b.(type) {
		case string:
			if IsNumericString(x) && IsNumericString(y) {
				return ToFloat(x) == ToFloat(y)
			}
			return x == y
		case int64, float64:
			return LooseEqual(b, a)
		case bool:
			return ToBool(a) == y
		case nil:
			return x == ""
		}
		return false
	case *Array:
		y, ok := b.(*Array)
		if !ok {
			if b == nil {
				return x.Len() == 0
			}
			return false
		}
		if x.Len() != y.Len() {
			return false
		}
		for _, e := range x.ents {
			bv, ok := y.Get(e.k)
			if !ok || !LooseEqual(e.v, bv) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// Compare orders a and b for < <= > >= comparisons, PHP-style: numbers
// (and numeric strings) compare numerically, otherwise strings compare
// lexicographically. It returns -1, 0, or +1.
func Compare(a, b Value) int {
	an, aIsNum := asNumber(a)
	bn, bIsNum := asNumber(b)
	if aIsNum && bIsNum {
		switch {
		case an < bn:
			return -1
		case an > bn:
			return 1
		default:
			return 0
		}
	}
	as, bs := ToString(a), ToString(b)
	switch {
	case as < bs:
		return -1
	case as > bs:
		return 1
	default:
		return 0
	}
}

func asNumber(v Value) (float64, bool) {
	switch x := v.(type) {
	case nil:
		return 0, true
	case bool:
		return ToFloat(x), true
	case int64:
		return float64(x), true
	case float64:
		return x, true
	case string:
		if IsNumericString(x) {
			return ToFloat(x), true
		}
		return 0, false
	default:
		return 0, false
	}
}
