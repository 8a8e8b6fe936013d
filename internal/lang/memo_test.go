package lang

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
)

// memoCall runs one builtin call over lanes both ways — through the
// production call, whose lanes share outcomes, and through the
// reference's per-lane loop — and returns both outcomes and the
// production call's lane and run counts.
func memoCall(name string, args []Value, lanes int) (got, want Value, gerr, werr error, laneCalls, runs int64) {
	fn := builtins[name]
	ref := &exec{lanes: lanes, out: newOutput(lanes)}
	want, werr = ref.callBuiltinPerLane(fn, args, 1)
	ex := &exec{lanes: lanes, out: newOutput(lanes), stats: true}
	got, gerr = ex.invokeBuiltin(name, fn, args, 1)
	return got, want, gerr, werr, ex.builtinLaneCalls, ex.builtinRuns
}

// sameOutcome reports whether two outcomes of a call are the same: the
// same fault (or divergence), or values equal in every lane.
func sameOutcome(got, want Value, gerr, werr error, lanes int) bool {
	if gerr != nil || werr != nil {
		var g, w *RuntimeError
		switch {
		case errors.As(gerr, &g) && errors.As(werr, &w):
			return g.sameFault(w)
		default:
			return errors.Is(gerr, ErrDivergence) && errors.Is(werr, ErrDivergence)
		}
	}
	for i := 0; i < lanes; i++ {
		if !Equal(Lane(got, i), Lane(want, i)) {
			return false
		}
	}
	return true
}

// TestBuiltinLaneMemo: a pure builtin on a multivalue runs once per
// distinct lane argument tuple by identity, gives exactly the outcome
// the per-lane calls give, and hands lanes results they write apart.
func TestBuiltinLaneMemo(t *testing.T) {
	t.Run("every builtin", memoEveryBuiltin)
	t.Run("array results written apart", memoArrayResultsIsolated)
	t.Run("faults", memoFaults)
}

// memoEveryBuiltin calls every builtin at one to three arguments with
// one argument a multivalue of pointer-identical strings, of strings
// equal in content but at distinct addresses (which must not share a
// run), of arrays by pointer, or of ints, and the others fixed. Faults
// count: a tuple that faults shares its fault with the lanes that
// repeat it.
func memoEveryBuiltin(t *testing.T) {
	a := "The quick, brown <fox>\njumps 2 times"
	a2 := strings.Clone(a) // equal bytes, another address
	b := "over, the \"lazy\" dog & 7 cats"
	arr1 := NewArray()
	for _, v := range []Value{"x", int64(3), "y,z"} {
		arr1.Append(v)
	}
	arr2 := NewArray()
	for _, v := range []Value{int64(9), "q"} {
		arr2.Append(v)
	}
	multis := []struct {
		kind     string
		lanes    []Value
		distinct int64
	}{
		{"strings", []Value{a, a, a2, b, a, b}, 3},
		{"arrays", []Value{arr1, arr1, arr2, arr1}, 2},
		{"ints", []Value{int64(2), int64(2), int64(5)}, 2},
	}
	fixed := []Value{",", int64(1), int64(3)}
	names := make([]string, 0, len(builtins))
	for name := range builtins {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		for n := 1; n <= 3; n++ {
			for p := 0; p < n; p++ {
				for _, m := range multis {
					args := slices.Clone(fixed[:n])
					args[p] = &Multi{V: m.lanes}
					lanes := len(m.lanes)
					got, want, gerr, werr, laneCalls, runs := memoCall(name, args, lanes)
					what := fmt.Sprintf("%s with %d arguments, %s at %d", name, n, m.kind, p)
					if !sameOutcome(got, want, gerr, werr, lanes) {
						t.Fatalf("%s: got %v (%v), per-lane %v (%v)", what, got, gerr, want, werr)
					}
					if errors.Is(werr, ErrDivergence) {
						continue // the loop stopped at the first lane that differed
					}
					if laneCalls != int64(lanes) || runs != m.distinct {
						t.Fatalf("%s: %d lane calls took %d runs, want %d and %d", what, laneCalls, runs, lanes, m.distinct)
					}
				}
			}
		}
	}
}

// memoArrayResultsIsolated: lanes that share an array result (explode,
// array_keys, range) write it apart afterwards. Called directly, lanes
// that hold the same array hold it shared, so a lane's write copies it;
// run as scripts, every lane's output is its own request's.
func memoArrayResultsIsolated(t *testing.T) {
	shared := "a,b,c"
	arr := NewArray()
	arr.Append("k")
	for _, c := range []struct {
		name string
		args []Value
	}{
		{"explode", []Value{",", &Multi{V: []Value{shared, shared, "d,e"}}}},
		{"array_keys", []Value{&Multi{V: []Value{arr, arr, NewArray()}}}},
		{"range", []Value{int64(1), &Multi{V: []Value{int64(3), int64(3), int64(2)}}}},
	} {
		got, _, err, _, _, _ := memoCall(c.name, c.args, 3)
		m, ok := got.(*Multi)
		if err != nil || !ok {
			t.Fatalf("%s: got %v (%v), want a multivalue", c.name, got, err)
		}
		if m.V[0] != m.V[1] {
			t.Fatalf("%s: lanes with identical arguments got distinct arrays", c.name)
		}
		if own := m.V[0].(*Array).Own(); own == m.V[1] {
			t.Fatalf("%s: lane 0 may write the array lane 1 holds in place", c.name)
		}
	}
	inputs := []RequestInput{
		{Get: map[string]string{"x": shared, "n": "3", "i": "0", "y": "P"}},
		{Get: map[string]string{"x": shared, "n": "3", "i": "1", "y": "Q"}},
		{Get: map[string]string{"x": "d,e", "n": "2", "i": "1", "y": "R"}},
		{Get: map[string]string{"x": shared, "n": "3", "i": "2", "y": "S"}},
	}
	for _, src := range []string{
		`$a = explode(",", $_GET["x"]); $a[intval($_GET["i"])] = $_GET["y"]; echo implode("|", $a);`,
		`$a = explode(",", $_GET["x"]); $k = array_keys($a); $k[intval($_GET["i"])] = $_GET["y"]; $k[] = "t"; echo implode("|", $k), "/", implode("|", $a);`,
		`$r = range(1, intval($_GET["n"])); $s = $r; $r[intval($_GET["i"])] = $_GET["y"]; echo implode("|", $r), "/", implode("|", $s);`,
	} {
		res := checkSIMDEquiv(t, src, inputs)
		if res.BuiltinRuns >= res.BuiltinLaneCalls {
			t.Fatalf("%s: %d lane calls took %d runs; want lanes to share runs", src, res.BuiltinLaneCalls, res.BuiltinRuns)
		}
	}
}

// memoFaults: a fault every lane reaches is one shared fault, and
// faults in some lanes only, or different faults, are ErrDivergence,
// exactly as per-lane calls give.
func memoFaults(t *testing.T) {
	short, long := "ab", "abcde" // repeated 1<<20 times: 2 MiB, and 5 MiB over the string budget
	for _, c := range []struct {
		what  string
		name  string
		args  []Value
		fault string // "" for divergence
	}{
		{"budget fault in every lane", "str_repeat", []Value{&Multi{V: []Value{long, long, long + "x", long}}, int64(1 << 20)}, "string length limit exceeded"},
		{"wrong argument count in every lane", "str_repeat", []Value{&Multi{V: []Value{short, short, long}}}, "wrong argument count"},
		{"budget fault after lanes that succeed", "str_repeat", []Value{&Multi{V: []Value{short, short, long, short}}, int64(1 << 20)}, ""},
		{"lanes that succeed after budget faults", "str_repeat", []Value{&Multi{V: []Value{long, long, short}}, int64(1 << 20)}, ""},
		{"different faults", "str_repeat", []Value{short, &Multi{V: []Value{int64(-1), int64(-1), int64(1 << 23)}}}, ""},
	} {
		lanes := 0
		for _, a := range c.args {
			if m, ok := a.(*Multi); ok {
				lanes = len(m.V)
			}
		}
		got, want, gerr, werr, _, runs := memoCall(c.name, c.args, lanes)
		if !sameOutcome(got, want, gerr, werr, lanes) {
			t.Fatalf("%s: got %v (%v), per-lane %v (%v)", c.what, got, gerr, want, werr)
		}
		var rt *RuntimeError
		switch {
		case c.fault == "":
			if !errors.Is(gerr, ErrDivergence) {
				t.Fatalf("%s: got %v, want divergence", c.what, gerr)
			}
		case !errors.As(gerr, &rt) || !strings.Contains(rt.Msg, c.fault):
			t.Fatalf("%s: got %v, want the shared fault %q", c.what, gerr, c.fault)
		case runs >= int64(lanes):
			t.Fatalf("%s: %d lanes took %d runs; want the repeated lanes to share the fault", c.what, lanes, runs)
		}
	}
}
