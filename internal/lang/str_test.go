package lang

import (
	"errors"
	"fmt"
	"hash/crc32"
	"runtime"
	"strings"
	"testing"
)

// modelLits are the strings FuzzStringModel builds from: short ones,
// one past growMin, and one of half the string budget, so two of them
// land exactly on it and one more byte crosses it.
var modelLits = [8]string{"", "a", "ab", "b", "bc", "c", strings.Repeat("m", growMin+6), strings.Repeat("B", maxStringBytes/2)}

// modelLaneLit is the per-lane literal arg selects: lane i takes
// modelLits[arg&7 + i*(arg>>3&7)], so some args give every lane the same
// string (which must collapse) and others tell lanes apart.
func modelLaneLit(arg byte, lanes int) []string {
	out := make([]string, lanes)
	for i := range out {
		out[i] = modelLits[(int(arg&7)+i*int(arg>>3&7))&7]
	}
	return out
}

// modelValue is the engine's form of a per-lane literal: NewMulti over
// the lanes, so equal lanes collapse to a univalue.
func modelValue(lanes []string) Value {
	vals := make([]Value, len(lanes))
	for i, s := range lanes {
		vals[i] = s
	}
	return NewMulti(vals)
}

// modelFault is what the string budget makes of an operation whose
// per-lane results have lengths lens: nothing, the shared fault, or
// divergence.
func modelFault(lens []int) string {
	over := 0
	for _, n := range lens {
		if n > maxStringBytes {
			over++
		}
	}
	switch over {
	case 0:
		return ""
	case len(lens):
		return "string length limit exceeded"
	}
	return ErrDivergence.Error()
}

func errString(err error) string {
	var rt *RuntimeError
	if errors.As(err, &rt) {
		return rt.Msg
	}
	if err != nil {
		return err.Error()
	}
	return ""
}

// view is a string the engine handed out, with a checksum of the bytes
// it held then.
type view struct {
	s   string
	sum uint32
}

// views lists every string v is made of, as the engine holds it.
func views(v Value) []view {
	var ss []string
	switch x := v.(type) {
	case string:
		ss = append(ss, x)
	case *Multi:
		for _, l := range x.V {
			if s, ok := l.(string); ok {
				ss = append(ss, s)
			}
		}
	case *segStr:
		for k := 0; k <= x.n; k++ {
			if p := x.part(k); p.lanes == nil {
				ss = append(ss, p.shared)
			} else {
				ss = append(ss, p.lanes...)
			}
		}
	}
	out := make([]view, len(ss))
	for i, s := range ss {
		out[i] = view{s, crc32.ChecksumIEEE([]byte(s))}
	}
	return out
}

// checkValue compares v with the per-lane model and checks the
// representation: a *Multi or a segmented string has one lane per lane
// and lanes that are not all equal (NewMulti's collapse invariant).
func checkValue(v Value, want []string) string {
	lanes := len(want)
	if s, ok := v.(*segStr); ok {
		if len(s.lens) != lanes {
			return "segmented string of the wrong width"
		}
		for i, l := range want {
			if s.len(i) != len(l) {
				return "segmented string's cached lane length differs from the model"
			}
		}
	}
	flat := flatValue(v)
	if m, ok := flat.(*Multi); ok {
		if len(m.V) != lanes {
			return "multivalue of the wrong width"
		}
		same := true
		for _, l := range m.V[1:] {
			same = same && Equal(l, m.V[0])
		}
		if same {
			return "uncollapsed multivalue: every lane is equal"
		}
	}
	for i := range want {
		if got := ToString(Lane(flat, i)); got != want[i] {
			if len(got) > 40 || len(want[i]) > 40 {
				return "lane value differs from the model (long strings)"
			}
			return "lane value " + got + " != model " + want[i]
		}
	}
	return ""
}

// FuzzStringModel runs random sequences of univalue and per-lane `.`
// and `.=`, substr, strlen, ===, array stores and echo over 1–5 lanes
// through the compiled engine's string paths, against a model that holds
// every register as a plain []string. It checks lane values, the
// collapse invariant, budget faults (shared or divergent), the echoed
// output, and that every string handed out earlier still holds its
// bytes after the appends that followed.
func FuzzStringModel(f *testing.F) {
	// op encodes one operation: its kind, destination a and source b.
	op := func(kind, a, b int, arg byte) []byte { return []byte{byte(kind | a<<4 | b<<6), arg} }
	seed := func(lanes int, ops ...[]byte) []byte {
		out := []byte{byte(lanes - 1)}
		for _, o := range ops {
			out = append(out, o...)
		}
		return out
	}
	// Two lanes: "a"/"ab" . "bc"/"c" collapses to "abc".
	f.Add(seed(2, op(1, 0, 0, 0x09), op(1, 1, 0, 0x0c), op(2, 2, 0, 1), op(7, 2, 0, 0), op(9, 2, 0, 0)))
	// Three lanes: a univalue grown in place and copied where its view no
	// longer ends its buffer; a per-lane value whose tail grows in place;
	// a univalue prepended to it; substr views, stores and echoes.
	f.Add(seed(3, op(0, 0, 0, 6), op(3, 0, 0, 1), op(2, 1, 0, 0), op(3, 0, 0, 4), op(3, 1, 0, 6),
		op(1, 2, 0, 0x09), op(3, 2, 0, 6), op(3, 2, 0, 5), op(3, 2, 0, 5), op(2, 3, 1, 2), op(9, 3, 0, 0),
		op(6, 1, 0, 0x2a), op(8, 1, 0, 0), op(3, 1, 0, 1), op(9, 2, 0, 0), op(7, 3, 1, 0)))
	// One lane: half the budget twice lands exactly on it, one byte more
	// crosses it, and so does a second echo of it.
	f.Add(seed(1, op(0, 0, 0, 7), op(6, 0, 1, 0x11), op(3, 0, 0, 7), op(3, 0, 0, 1), op(9, 0, 0, 0), op(9, 0, 0, 0)))
	// Four lanes of different lengths cross the budget apart: divergence.
	f.Add(seed(4, op(1, 0, 0, 0x0f), op(3, 0, 0, 7), op(3, 0, 0, 1), op(9, 0, 0, 0), op(9, 0, 0, 0)))
	// Five lanes: per-lane appends grow each lane's buffer in place.
	f.Add(seed(5, op(1, 0, 0, 0x09), op(4, 0, 0, 6), op(4, 0, 0, 0x09), op(4, 0, 0, 0x0a), op(4, 0, 0, 0x0a),
		op(2, 1, 0, 0), op(7, 0, 1, 0), op(8, 0, 0, 0), op(3, 0, 0, 5), op(9, 0, 0, 0), op(9, 1, 0, 0), op(5, 1, 0, 2)))
	// Two lanes, joins several levels deep: per-lane values with shared
	// parts joined into each other and into the joins, then echoed.
	f.Add(seed(2, op(1, 0, 0, 0x09), op(3, 0, 0, 5), op(1, 1, 0, 0x11), op(5, 1, 0, 3), op(2, 2, 0, 1),
		op(2, 3, 2, 0), op(2, 2, 3, 2), op(4, 2, 0, 0x0a), op(2, 1, 2, 3), op(9, 1, 0, 0), op(7, 1, 2, 0), op(8, 1, 0, 0)))
	// Equal-length lanes that differ only in their last part: a shared
	// head then per-lane bytes, and "a"/"ab" . "bc"/"b".
	f.Add(seed(2, op(0, 0, 0, 2), op(4, 0, 0, 0x11), op(7, 0, 1, 0), op(1, 1, 0, 0x09), op(1, 2, 0, 0x3c),
		op(2, 3, 1, 2), op(7, 3, 0, 0), op(9, 3, 0, 0)))
	// Lanes equal across different part boundaries: "a"+S+"bc" and
	// "ab"+S+"c" with a shared S = "bb" must collapse to "abbbc".
	f.Add(seed(2, op(1, 0, 0, 0x09), op(3, 0, 0, 3), op(3, 0, 0, 3), op(1, 1, 0, 0x0c), op(2, 2, 0, 1),
		op(7, 2, 0, 0), op(9, 2, 0, 0), op(3, 2, 0, 1), op(9, 2, 0, 0)))
	// Joins of two multivalues crossing the budget in one lane
	// (divergence) and in every lane (the canonical fault).
	f.Add(seed(2, op(1, 0, 0, 0x3f), op(3, 0, 0, 1), op(1, 1, 0, 0x3f), op(2, 2, 0, 1), op(2, 2, 1, 1),
		op(0, 3, 0, 7), op(4, 3, 0, 0x11), op(2, 2, 3, 3), op(2, 2, 3, 0), op(9, 3, 0, 0)))
	// Echo of a value with many parts, twice, and a segmented variable
	// read twice by strlen, stored, and read again.
	f.Add(seed(3, op(1, 0, 0, 0x09), op(3, 0, 0, 5), op(4, 0, 0, 0x11), op(3, 0, 0, 3), op(4, 0, 0, 0x0a),
		op(5, 0, 0, 2), op(4, 0, 0, 0x09), op(3, 0, 0, 6), op(4, 0, 0, 0x0b), op(9, 0, 0, 0), op(9, 0, 0, 0),
		op(7, 0, 1, 0), op(7, 0, 1, 0), op(8, 0, 0, 0), op(7, 0, 1, 0), op(2, 1, 0, 0), op(9, 1, 0, 0)))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 65 {
			return // 32 operations each copy up to lanes × the budget
		}
		lanes := 1 + int(data[0])%5
		ex := &exec{lanes: lanes, out: newOutput(lanes), stats: true}
		var regs [4]Value
		var model [4][]string
		for r := range regs {
			regs[r] = ""
			model[r] = make([]string, lanes)
		}
		out := make([]string, lanes)
		store := NewArray()
		var stored [][]string
		var held []view
		uniLanes := func(s string) []string {
			l := make([]string, lanes)
			for i := range l {
				l[i] = s
			}
			return l
		}
		// set runs one operation's engine result against the model.
		set := func(step, r int, v Value, err error, want []string) {
			t.Helper()
			lens := make([]int, lanes)
			for i, s := range want {
				lens[i] = len(s)
			}
			if got, wantErr := errString(err), modelFault(lens); got != wantErr {
				t.Fatalf("step %d: error %q, model %q", step, got, wantErr)
			}
			if err != nil {
				return
			}
			held = append(held, views(regs[r])...)
			regs[r], model[r] = v, want
			if d := checkValue(v, want); d != "" {
				t.Fatalf("step %d: register %d: %s", step, r, d)
			}
		}
		for i := 1; i+1 < len(data); i += 2 {
			step, op, arg := i/2, data[i], data[i+1]
			a, b, c := int(op>>4&3), int(op>>6&3), int(arg&3)
			switch op & 15 % 10 {
			case 0: // $a = "lit"
				set(step, a, modelLits[arg&7], nil, uniLanes(modelLits[arg&7]))
			case 1: // $a = per-lane literal
				l := modelLaneLit(arg, lanes)
				set(step, a, modelValue(l), nil, l)
			case 2: // $a = $b . $c
				want := make([]string, lanes)
				for j := range want {
					want[j] = model[b][j] + model[c][j]
				}
				v, err := ex.concat(regs[b], regs[c], 1)
				set(step, a, v, err, want)
			case 3: // $a .= "lit"
				want := make([]string, lanes)
				for j := range want {
					want[j] = model[a][j] + modelLits[arg&7]
				}
				v, err := ex.concat(regs[a], modelLits[arg&7], 1)
				set(step, a, v, err, want)
			case 4: // $a .= per-lane literal
				l := modelLaneLit(arg, lanes)
				want := make([]string, lanes)
				for j := range want {
					want[j] = model[a][j] + l[j]
				}
				v, err := ex.concat(regs[a], modelValue(l), 1)
				set(step, a, v, err, want)
			case 5: // $a = "lit" . $a
				want := make([]string, lanes)
				for j := range want {
					want[j] = modelLits[arg&7] + model[a][j]
				}
				v, err := ex.concat(modelLits[arg&7], regs[a], 1)
				set(step, a, v, err, want)
			case 6: // $b = substr($a, off, n)
				off, n := int(arg&7), int(arg>>3&7)
				v, err := ex.invokeBuiltin("substr", builtins["substr"], []Value{flatValue(regs[a]), int64(off), int64(n)}, 1)
				want := make([]string, lanes)
				for j, s := range model[a] {
					if off < len(s) {
						want[j] = s[off:min(off+n, len(s))]
					}
				}
				set(step, b, v, err, want)
			case 7: // strlen($a) and $a === $b
				ln, err := ex.invokeBuiltin("strlen", builtins["strlen"], []Value{flatValue(regs[a])}, 1)
				if err != nil {
					t.Fatalf("step %d: strlen: %v", step, err)
				}
				eq, err := ex.binaryOp("===", flatValue(regs[a]), flatValue(regs[b]), 1)
				if err != nil {
					t.Fatalf("step %d: ===: %v", step, err)
				}
				for j := range model[a] {
					if got := Lane(ln, j); got != int64(len(model[a][j])) {
						t.Fatalf("step %d: lane %d: strlen %v, model %d", step, j, got, len(model[a][j]))
					}
					if got := Lane(eq, j); got != (model[a][j] == model[b][j]) {
						t.Fatalf("step %d: lane %d: === %v, model %v", step, j, got, model[a][j] == model[b][j])
					}
				}
			case 8: // $store[] = $a
				v := flatValue(regs[a])
				held = append(held, views(v)...)
				store.Append(CloneValue(v))
				stored = append(stored, model[a])
			case 9: // echo $a
				lens := make([]int, lanes)
				for j := range lens {
					lens[j] = len(out[j]) + len(model[a][j])
				}
				if got, want := errString(ex.echo(regs[a], 1)), modelFault(lens); got != want {
					t.Fatalf("step %d: echo error %q, model %q", step, got, want)
				} else if want == "" {
					for j := range out {
						out[j] += model[a][j]
					}
				}
			}
		}
		for r := range regs {
			if d := checkValue(regs[r], model[r]); d != "" {
				t.Fatalf("at the end: register %d: %s", r, d)
			}
			held = append(held, views(regs[r])...)
		}
		for j, want := range stored {
			cell, _ := store.Get(Key{I: int64(j), IsInt: true})
			if d := checkValue(cell, want); d != "" {
				t.Fatalf("stored value %d: %s", j, d)
			}
		}
		for j, v := range held {
			if crc32.ChecksumIEEE([]byte(v.s)) != v.sum {
				t.Fatalf("string %d handed out earlier changed after later appends", j)
			}
		}
		for j, got := range ex.out.results() {
			if got != out[j] || !ex.out.laneEqual(j, out[j]) {
				t.Fatalf("lane %d: echoed output differs from the model", j)
			}
		}
	})
}

// TestSegmentedAppendLinear: appending a per-lane value to a variable
// in a loop costs amortised O(1) per append. A grouped run appends
// $_GET["x"] 1 000 and then 4 000 times; four times the appends must
// not take much more than four times the bytes, as they would if
// every append copied the part list.
func TestSegmentedAppendLinear(t *testing.T) {
	prog := MustCompile(map[string]string{"main": `$s = "<";
for ($i = 0; $i < intval($_GET["n"]); $i++) { $s .= $_GET["x"]; }
echo $s;`})
	alloc := func(n int) uint64 {
		inputs := make([]RequestInput, 3)
		for i := range inputs {
			inputs[i] = RequestInput{Get: map[string]string{"n": fmt.Sprint(n), "x": fmt.Sprint("x", i)}}
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		res, err := Run(prog, Config{Mode: ModeSIMD, Script: "main", RIDs: []string{"a", "b", "c"}, Inputs: inputs})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		for i := range inputs {
			if want := "<" + strings.Repeat(fmt.Sprint("x", i), n); !res.OutputEqual(i, want) {
				t.Fatalf("%d appends: lane %d's output differs", n, i)
			}
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	small, large := alloc(1000), alloc(4000)
	t.Logf("1 000 appends: %d B, 4 000 appends: %d B", small, large)
	if large > 5*small {
		t.Errorf("4× the appends allocated %.1f× the bytes; want at most 5×", float64(large)/float64(small))
	}
}
