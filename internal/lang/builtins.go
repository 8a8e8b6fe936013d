package lang

import (
	"crypto/md5"
	"crypto/sha1"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"time"
)

// builtinFn is a pure builtin: it must not retain or mutate its
// arguments (reference builtins live in refBuiltins instead).
type builtinFn func(ex *exec, args []Value, line int) (Value, error)

// refBuiltinFn operates on a by-reference array first argument.
type refBuiltinFn func(ex *exec, arr *Array, rest []Value, line int) (Value, error)

func wantArgs(name string, args []Value, min, max int, line int) error {
	if len(args) < min || (max >= 0 && len(args) > max) {
		return &RuntimeError{Msg: fmt.Sprintf("%s(): wrong argument count %d", name, len(args)), Line: line}
	}
	return nil
}

var builtins map[string]builtinFn

// htmlEscaper is htmlspecialchars' table, built once: a strings.Replacer
// is safe for concurrent use.
var htmlEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;", "'", "&#039;")

var refBuiltins = map[string]refBuiltinFn{
	"sort": func(ex *exec, arr *Array, rest []Value, line int) (Value, error) {
		arr.SortValues(func(x, y Value) bool { return Compare(x, y) < 0 })
		return true, nil
	},
	"rsort": func(ex *exec, arr *Array, rest []Value, line int) (Value, error) {
		arr.SortValues(func(x, y Value) bool { return Compare(x, y) > 0 })
		return true, nil
	},
	"ksort": func(ex *exec, arr *Array, rest []Value, line int) (Value, error) {
		arr.SortKeys()
		return true, nil
	},
	"array_push": func(ex *exec, arr *Array, rest []Value, line int) (Value, error) {
		for _, v := range rest {
			arr.Append(v) // refBuiltinApply copied the arguments
		}
		return int64(arr.Len()), nil
	},
	"array_pop": func(ex *exec, arr *Array, rest []Value, line int) (Value, error) {
		if arr.Len() == 0 {
			return nil, nil
		}
		e := arr.ents[len(arr.ents)-1]
		arr.Delete(e.k)
		return e.v, nil
	},
	"array_shift": func(ex *exec, arr *Array, rest []Value, line int) (Value, error) {
		if arr.Len() == 0 {
			return nil, nil
		}
		e := arr.ents[0]
		arr.Delete(e.k)
		// PHP reindexes integer keys after shift.
		reindex(arr)
		return e.v, nil
	},
}

// reindex renumbers the int keys 0, 1, … in order, keeping the string
// keys and every cell's position.
func reindex(arr *Array) {
	var n int64
	for i := range arr.ents {
		if arr.ents[i].k.IsInt {
			arr.ents[i].k = Key{I: n, IsInt: true}
			n++
		}
	}
	arr.nextIdx = n
	arr.rebuildIndex()
}

func init() {
	builtins = map[string]builtinFn{
		// --- strings ---
		"strlen": func(ex *exec, args []Value, line int) (Value, error) {
			if err := wantArgs("strlen", args, 1, 1, line); err != nil {
				return nil, err
			}
			return int64(len(ToString(args[0]))), nil
		},
		"substr": func(ex *exec, args []Value, line int) (Value, error) {
			if err := wantArgs("substr", args, 2, 3, line); err != nil {
				return nil, err
			}
			s := ToString(args[0])
			start := int(ToInt(args[1]))
			n := len(s)
			if start < 0 {
				start = n + start
				if start < 0 {
					start = 0
				}
			}
			if start >= n {
				return "", nil
			}
			end := n
			if len(args) == 3 {
				ln := int(ToInt(args[2]))
				if ln < 0 {
					end = n + ln
				} else {
					end = start + ln
				}
			}
			if end > n {
				end = n
			}
			if end <= start {
				return "", nil
			}
			return s[start:end], nil
		},
		"strpos": func(ex *exec, args []Value, line int) (Value, error) {
			if err := wantArgs("strpos", args, 2, 3, line); err != nil {
				return nil, err
			}
			s, sub := ToString(args[0]), ToString(args[1])
			off := 0
			if len(args) == 3 {
				off = int(ToInt(args[2]))
			}
			if off < 0 || off > len(s) {
				return false, nil
			}
			i := strings.Index(s[off:], sub)
			if i < 0 {
				return false, nil
			}
			return int64(off + i), nil
		},
		"str_replace": func(ex *exec, args []Value, line int) (Value, error) {
			if err := wantArgs("str_replace", args, 3, 3, line); err != nil {
				return nil, err
			}
			subject := ToString(args[2])
			if fromArr, ok := args[0].(*Array); ok {
				tos, toIsArr := args[1].(*Array)
				for i, fe := range fromArr.ents {
					from := ToString(fe.v)
					to := ""
					if toIsArr {
						if i < tos.Len() {
							to = ToString(tos.ents[i].v)
						}
					} else {
						to = ToString(args[1])
					}
					var err error
					if subject, err = replaceAllBudgeted(subject, from, to, line); err != nil {
						return nil, err
					}
				}
				return subject, nil
			}
			return replaceAllBudgeted(subject, ToString(args[0]), ToString(args[1]), line)
		},
		"strtolower": func(ex *exec, args []Value, line int) (Value, error) {
			if err := wantArgs("strtolower", args, 1, 1, line); err != nil {
				return nil, err
			}
			return strings.ToLower(ToString(args[0])), nil
		},
		"strtoupper": func(ex *exec, args []Value, line int) (Value, error) {
			if err := wantArgs("strtoupper", args, 1, 1, line); err != nil {
				return nil, err
			}
			return strings.ToUpper(ToString(args[0])), nil
		},
		"ucfirst": func(ex *exec, args []Value, line int) (Value, error) {
			if err := wantArgs("ucfirst", args, 1, 1, line); err != nil {
				return nil, err
			}
			s := ToString(args[0])
			if s == "" {
				return s, nil
			}
			return strings.ToUpper(s[:1]) + s[1:], nil
		},
		"trim": func(ex *exec, args []Value, line int) (Value, error) {
			if err := wantArgs("trim", args, 1, 2, line); err != nil {
				return nil, err
			}
			cut := " \t\n\r\x00\x0B"
			if len(args) == 2 {
				cut = ToString(args[1])
			}
			return strings.Trim(ToString(args[0]), cut), nil
		},
		"str_repeat": func(ex *exec, args []Value, line int) (Value, error) {
			if err := wantArgs("str_repeat", args, 2, 2, line); err != nil {
				return nil, err
			}
			n := ToInt(args[1])
			if n < 0 {
				return nil, &RuntimeError{Msg: "str_repeat(): negative count", Line: line}
			}
			if n > 1<<22 {
				return nil, &RuntimeError{Msg: "str_repeat(): count too large", Line: line}
			}
			s := ToString(args[0])
			if n > 0 && len(s) > maxStringBytes/int(n) {
				return nil, stringBudget(maxStringBytes+1, line)
			}
			return strings.Repeat(s, int(n)), nil
		},
		"str_pad": func(ex *exec, args []Value, line int) (Value, error) {
			if err := wantArgs("str_pad", args, 2, 3, line); err != nil {
				return nil, err
			}
			s := ToString(args[0])
			width := int(ToInt(args[1]))
			pad := " "
			if len(args) == 3 {
				pad = ToString(args[2])
			}
			if pad == "" || len(s) >= width {
				return s, nil
			}
			if err := stringBudget(width, line); err != nil {
				return nil, err
			}
			var b strings.Builder
			b.WriteString(s)
			for b.Len() < width {
				b.WriteString(pad)
			}
			return b.String()[:width], nil
		},
		"strrev": func(ex *exec, args []Value, line int) (Value, error) {
			if err := wantArgs("strrev", args, 1, 1, line); err != nil {
				return nil, err
			}
			s := []byte(ToString(args[0]))
			for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
				s[i], s[j] = s[j], s[i]
			}
			return string(s), nil
		},
		"implode": func(ex *exec, args []Value, line int) (Value, error) {
			if err := wantArgs("implode", args, 1, 2, line); err != nil {
				return nil, err
			}
			sep := ""
			var arr *Array
			if len(args) == 2 {
				sep = ToString(args[0])
				a, ok := args[1].(*Array)
				if !ok {
					return nil, &RuntimeError{Msg: "implode(): argument must be array", Line: line}
				}
				arr = a
			} else {
				a, ok := args[0].(*Array)
				if !ok {
					return nil, &RuntimeError{Msg: "implode(): argument must be array", Line: line}
				}
				arr = a
			}
			parts := make([]string, 0, arr.Len())
			total := 0
			for _, v := range arr.Values() {
				parts = append(parts, ToString(v))
				total += len(sep) + len(parts[len(parts)-1])
				if err := stringBudget(total, line); err != nil {
					return nil, err
				}
			}
			return strings.Join(parts, sep), nil
		},
		"join": func(ex *exec, args []Value, line int) (Value, error) {
			return builtins["implode"](ex, args, line)
		},
		"explode": func(ex *exec, args []Value, line int) (Value, error) {
			if err := wantArgs("explode", args, 2, 2, line); err != nil {
				return nil, err
			}
			sep := ToString(args[0])
			if sep == "" {
				return nil, &RuntimeError{Msg: "explode(): empty delimiter", Line: line}
			}
			out := NewArray()
			for _, part := range strings.Split(ToString(args[1]), sep) {
				out.Append(part)
			}
			return out, nil
		},
		"sprintf": func(ex *exec, args []Value, line int) (Value, error) {
			if err := wantArgs("sprintf", args, 1, -1, line); err != nil {
				return nil, err
			}
			return phpSprintf(ToString(args[0]), args[1:], line)
		},
		"number_format": func(ex *exec, args []Value, line int) (Value, error) {
			if err := wantArgs("number_format", args, 1, 2, line); err != nil {
				return nil, err
			}
			dec := 0
			if len(args) == 2 {
				dec = int(ToInt(args[1]))
			}
			if err := stringBudget(dec, line); err != nil {
				return nil, err
			}
			s := strconv.FormatFloat(ToFloat(args[0]), 'f', dec, 64)
			// Insert thousands separators.
			neg := strings.HasPrefix(s, "-")
			s = strings.TrimPrefix(s, "-")
			intPart, frac := s, ""
			if i := strings.IndexByte(s, '.'); i >= 0 {
				intPart, frac = s[:i], s[i:]
			}
			var b strings.Builder
			for i, c := range intPart {
				if i > 0 && (len(intPart)-i)%3 == 0 {
					b.WriteByte(',')
				}
				b.WriteRune(c)
			}
			out := b.String() + frac
			if neg {
				out = "-" + out
			}
			return out, nil
		},
		"htmlspecialchars": func(ex *exec, args []Value, line int) (Value, error) {
			if err := wantArgs("htmlspecialchars", args, 1, 1, line); err != nil {
				return nil, err
			}
			return htmlEscaper.Replace(ToString(args[0])), nil
		},
		"nl2br": func(ex *exec, args []Value, line int) (Value, error) {
			if err := wantArgs("nl2br", args, 1, 1, line); err != nil {
				return nil, err
			}
			return strings.ReplaceAll(ToString(args[0]), "\n", "<br />\n"), nil
		},
		"db_quote": func(ex *exec, args []Value, line int) (Value, error) {
			// Renders a value as a SQL string literal with '' escaping —
			// the escaping the sqlmini dialect understands. Applications
			// use it to interpolate user input into queries.
			if err := wantArgs("db_quote", args, 1, 1, line); err != nil {
				return nil, err
			}
			return "'" + strings.ReplaceAll(ToString(args[0]), "'", "''") + "'", nil
		},
		"md5": func(ex *exec, args []Value, line int) (Value, error) {
			if err := wantArgs("md5", args, 1, 1, line); err != nil {
				return nil, err
			}
			sum := md5.Sum([]byte(ToString(args[0])))
			return hex.EncodeToString(sum[:]), nil
		},
		"sha1": func(ex *exec, args []Value, line int) (Value, error) {
			if err := wantArgs("sha1", args, 1, 1, line); err != nil {
				return nil, err
			}
			sum := sha1.Sum([]byte(ToString(args[0])))
			return hex.EncodeToString(sum[:]), nil
		},
		"json_encode": func(ex *exec, args []Value, line int) (Value, error) {
			if err := wantArgs("json_encode", args, 1, 1, line); err != nil {
				return nil, err
			}
			var b strings.Builder
			if err := jsonEncode(&b, args[0]); err != nil {
				return nil, &RuntimeError{Msg: err.Error(), Line: line}
			}
			return b.String(), nil
		},
		"date": func(ex *exec, args []Value, line int) (Value, error) {
			// date(fmt, ts): ts is required in this runtime so that the
			// builtin is deterministic; pair it with time() for PHP's
			// one-argument behaviour.
			if err := wantArgs("date", args, 2, 2, line); err != nil {
				return nil, err
			}
			return phpDate(ToString(args[0]), ToInt(args[1])), nil
		},

		// --- arrays ---
		"count": func(ex *exec, args []Value, line int) (Value, error) {
			if err := wantArgs("count", args, 1, 1, line); err != nil {
				return nil, err
			}
			switch a := args[0].(type) {
			case *Array:
				return int64(a.Len()), nil
			case nil:
				return int64(0), nil
			default:
				return int64(1), nil
			}
		},
		"array_keys": func(ex *exec, args []Value, line int) (Value, error) {
			if err := wantArgs("array_keys", args, 1, 1, line); err != nil {
				return nil, err
			}
			a, ok := args[0].(*Array)
			if !ok {
				return nil, &RuntimeError{Msg: "array_keys(): argument must be array", Line: line}
			}
			out := NewArrayCap(a.Len())
			for _, e := range a.ents {
				out.Append(e.k.Value())
			}
			return out, nil
		},
		"array_values": func(ex *exec, args []Value, line int) (Value, error) {
			if err := wantArgs("array_values", args, 1, 1, line); err != nil {
				return nil, err
			}
			a, ok := args[0].(*Array)
			if !ok {
				return nil, &RuntimeError{Msg: "array_values(): argument must be array", Line: line}
			}
			out := NewArrayCap(a.Len())
			for _, e := range a.ents {
				out.Append(ex.copyValue(e.v))
			}
			return out, nil
		},
		"in_array": func(ex *exec, args []Value, line int) (Value, error) {
			if err := wantArgs("in_array", args, 2, 3, line); err != nil {
				return nil, err
			}
			a, ok := args[1].(*Array)
			if !ok {
				return nil, &RuntimeError{Msg: "in_array(): argument must be array", Line: line}
			}
			strict := len(args) == 3 && ToBool(args[2])
			for _, e := range a.ents {
				if strict {
					if Equal(e.v, args[0]) {
						return true, nil
					}
				} else if LooseEqual(e.v, args[0]) {
					return true, nil
				}
			}
			return false, nil
		},
		"array_key_exists": func(ex *exec, args []Value, line int) (Value, error) {
			if err := wantArgs("array_key_exists", args, 2, 2, line); err != nil {
				return nil, err
			}
			a, ok := args[1].(*Array)
			if !ok {
				return nil, &RuntimeError{Msg: "array_key_exists(): argument must be array", Line: line}
			}
			k, err := NormalizeKey(args[0])
			if err != nil {
				return nil, &RuntimeError{Msg: err.Error(), Line: line}
			}
			_, exists := a.Get(k)
			return exists, nil
		},
		"array_search": func(ex *exec, args []Value, line int) (Value, error) {
			if err := wantArgs("array_search", args, 2, 2, line); err != nil {
				return nil, err
			}
			a, ok := args[1].(*Array)
			if !ok {
				return nil, &RuntimeError{Msg: "array_search(): argument must be array", Line: line}
			}
			for _, e := range a.ents {
				if LooseEqual(e.v, args[0]) {
					return e.k.Value(), nil
				}
			}
			return false, nil
		},
		"array_merge": func(ex *exec, args []Value, line int) (Value, error) {
			out := NewArray()
			for _, arg := range args {
				a, ok := arg.(*Array)
				if !ok {
					return nil, &RuntimeError{Msg: "array_merge(): arguments must be arrays", Line: line}
				}
				for _, e := range a.ents {
					if e.k.IsInt {
						out.Append(ex.copyValue(e.v))
					} else {
						out.Set(e.k, ex.copyValue(e.v))
					}
				}
			}
			return out, nil
		},
		"array_slice": func(ex *exec, args []Value, line int) (Value, error) {
			if err := wantArgs("array_slice", args, 2, 3, line); err != nil {
				return nil, err
			}
			a, ok := args[0].(*Array)
			if !ok {
				return nil, &RuntimeError{Msg: "array_slice(): argument must be array", Line: line}
			}
			n := a.Len()
			off := int(ToInt(args[1]))
			if off < 0 {
				off = n + off
				if off < 0 {
					off = 0
				}
			}
			if off > n {
				off = n
			}
			end := n
			if len(args) == 3 && args[2] != nil {
				l := int(ToInt(args[2]))
				if l < 0 {
					end = n + l
				} else {
					end = off + l
				}
			}
			if end > n {
				end = n
			}
			out := NewArray()
			for i := off; i < end; i++ {
				if e := a.ents[i]; e.k.IsInt {
					out.Append(ex.copyValue(e.v))
				} else {
					out.Set(e.k, ex.copyValue(e.v))
				}
			}
			return out, nil
		},
		"array_reverse": func(ex *exec, args []Value, line int) (Value, error) {
			if err := wantArgs("array_reverse", args, 1, 1, line); err != nil {
				return nil, err
			}
			a, ok := args[0].(*Array)
			if !ok {
				return nil, &RuntimeError{Msg: "array_reverse(): argument must be array", Line: line}
			}
			out := NewArray()
			for i := a.Len() - 1; i >= 0; i-- {
				if e := a.ents[i]; e.k.IsInt {
					out.Append(ex.copyValue(e.v))
				} else {
					out.Set(e.k, ex.copyValue(e.v))
				}
			}
			return out, nil
		},
		"array_sum": func(ex *exec, args []Value, line int) (Value, error) {
			if err := wantArgs("array_sum", args, 1, 1, line); err != nil {
				return nil, err
			}
			a, ok := args[0].(*Array)
			if !ok {
				return nil, &RuntimeError{Msg: "array_sum(): argument must be array", Line: line}
			}
			var sum Value = int64(0)
			for _, e := range a.ents {
				var err error
				sum, err = arith("+", sum, e.v, line)
				if err != nil {
					return nil, err
				}
			}
			return sum, nil
		},
		"range": func(ex *exec, args []Value, line int) (Value, error) {
			if err := wantArgs("range", args, 2, 3, line); err != nil {
				return nil, err
			}
			lo, hi := ToInt(args[0]), ToInt(args[1])
			step := int64(1)
			if len(args) == 3 {
				step = ToInt(args[2])
				if step <= 0 {
					return nil, &RuntimeError{Msg: "range(): step must be positive", Line: line}
				}
			}
			out := NewArray()
			if lo <= hi {
				for v := lo; v <= hi; v += step {
					out.Append(v)
				}
			} else {
				for v := lo; v >= hi; v -= step {
					out.Append(v)
				}
			}
			return out, nil
		},

		// --- math ---
		"abs": func(ex *exec, args []Value, line int) (Value, error) {
			if err := wantArgs("abs", args, 1, 1, line); err != nil {
				return nil, err
			}
			switch x := args[0].(type) {
			case int64:
				if x < 0 {
					return -x, nil
				}
				return x, nil
			default:
				return math.Abs(ToFloat(args[0])), nil
			}
		},
		"max": func(ex *exec, args []Value, line int) (Value, error) {
			return extremum("max", args, line, func(c int) bool { return c > 0 })
		},
		"min": func(ex *exec, args []Value, line int) (Value, error) {
			return extremum("min", args, line, func(c int) bool { return c < 0 })
		},
		"floor": func(ex *exec, args []Value, line int) (Value, error) {
			if err := wantArgs("floor", args, 1, 1, line); err != nil {
				return nil, err
			}
			return math.Floor(ToFloat(args[0])), nil
		},
		"ceil": func(ex *exec, args []Value, line int) (Value, error) {
			if err := wantArgs("ceil", args, 1, 1, line); err != nil {
				return nil, err
			}
			return math.Ceil(ToFloat(args[0])), nil
		},
		"round": func(ex *exec, args []Value, line int) (Value, error) {
			if err := wantArgs("round", args, 1, 2, line); err != nil {
				return nil, err
			}
			prec := 0
			if len(args) == 2 {
				prec = int(ToInt(args[1]))
			}
			mult := math.Pow(10, float64(prec))
			return math.Round(ToFloat(args[0])*mult) / mult, nil
		},
		"intdiv": func(ex *exec, args []Value, line int) (Value, error) {
			if err := wantArgs("intdiv", args, 2, 2, line); err != nil {
				return nil, err
			}
			d := ToInt(args[1])
			if d == 0 {
				return nil, &RuntimeError{Msg: "intdiv(): division by zero", Line: line}
			}
			return ToInt(args[0]) / d, nil
		},
		"pow": func(ex *exec, args []Value, line int) (Value, error) {
			if err := wantArgs("pow", args, 2, 2, line); err != nil {
				return nil, err
			}
			b, e := ToFloat(args[0]), ToFloat(args[1])
			r := math.Pow(b, e)
			if bi, ok := args[0].(int64); ok {
				if ei, ok2 := args[1].(int64); ok2 && ei >= 0 && r == math.Trunc(r) && math.Abs(r) < 1e15 {
					_ = bi
					return int64(r), nil
				}
			}
			return r, nil
		},
		"sqrt": func(ex *exec, args []Value, line int) (Value, error) {
			if err := wantArgs("sqrt", args, 1, 1, line); err != nil {
				return nil, err
			}
			return math.Sqrt(ToFloat(args[0])), nil
		},

		// --- conversions and type predicates ---
		"intval": func(ex *exec, args []Value, line int) (Value, error) {
			if err := wantArgs("intval", args, 1, 1, line); err != nil {
				return nil, err
			}
			return ToInt(args[0]), nil
		},
		"floatval": func(ex *exec, args []Value, line int) (Value, error) {
			if err := wantArgs("floatval", args, 1, 1, line); err != nil {
				return nil, err
			}
			return ToFloat(args[0]), nil
		},
		"strval": func(ex *exec, args []Value, line int) (Value, error) {
			if err := wantArgs("strval", args, 1, 1, line); err != nil {
				return nil, err
			}
			return ToString(args[0]), nil
		},
		"boolval": func(ex *exec, args []Value, line int) (Value, error) {
			if err := wantArgs("boolval", args, 1, 1, line); err != nil {
				return nil, err
			}
			return ToBool(args[0]), nil
		},
		"is_array": func(ex *exec, args []Value, line int) (Value, error) {
			if err := wantArgs("is_array", args, 1, 1, line); err != nil {
				return nil, err
			}
			_, ok := args[0].(*Array)
			return ok, nil
		},
		"is_string": func(ex *exec, args []Value, line int) (Value, error) {
			if err := wantArgs("is_string", args, 1, 1, line); err != nil {
				return nil, err
			}
			_, ok := args[0].(string)
			return ok, nil
		},
		"is_int": func(ex *exec, args []Value, line int) (Value, error) {
			if err := wantArgs("is_int", args, 1, 1, line); err != nil {
				return nil, err
			}
			_, ok := args[0].(int64)
			return ok, nil
		},
		"is_numeric": func(ex *exec, args []Value, line int) (Value, error) {
			if err := wantArgs("is_numeric", args, 1, 1, line); err != nil {
				return nil, err
			}
			switch x := args[0].(type) {
			case int64, float64:
				return true, nil
			case string:
				return IsNumericString(x), nil
			default:
				return false, nil
			}
		},
		"is_null": func(ex *exec, args []Value, line int) (Value, error) {
			if err := wantArgs("is_null", args, 1, 1, line); err != nil {
				return nil, err
			}
			return args[0] == nil, nil
		},
		"gettype": func(ex *exec, args []Value, line int) (Value, error) {
			if err := wantArgs("gettype", args, 1, 1, line); err != nil {
				return nil, err
			}
			switch args[0].(type) {
			case nil:
				return "NULL", nil
			case bool:
				return "boolean", nil
			case int64:
				return "integer", nil
			case float64:
				return "double", nil
			case string:
				return "string", nil
			case *Array:
				return "array", nil
			default:
				return "unknown type", nil
			}
		},
	}
}

func extremum(name string, args []Value, line int, better func(cmp int) bool) (Value, error) {
	var vals []Value
	if len(args) == 1 {
		a, ok := args[0].(*Array)
		if !ok {
			return args[0], nil
		}
		vals = a.Values()
	} else {
		vals = args
	}
	if len(vals) == 0 {
		return nil, &RuntimeError{Msg: name + "(): empty argument", Line: line}
	}
	best := vals[0]
	for _, v := range vals[1:] {
		if better(Compare(v, best)) {
			best = v
		}
	}
	return best, nil
}

// replaceAllBudgeted is strings.ReplaceAll held to the string budget:
// every occurrence can grow the subject by len(to)-len(from), so the
// result's length is known before it is built.
func replaceAllBudgeted(subject, from, to string, line int) (string, error) {
	if grow := len(to) - len(from); grow > 0 {
		if n := strings.Count(subject, from); n > 0 && grow > (maxStringBytes-len(subject))/n {
			return "", stringBudget(maxStringBytes+1, line)
		}
	}
	return strings.ReplaceAll(subject, from, to), nil
}

// phpSprintf implements the subset of sprintf the applications use:
// %s %d %f %x %% with optional 0-flag, width, and precision.
func phpSprintf(format string, args []Value, line int) (Value, error) {
	var b strings.Builder
	ai := 0
	nextArg := func() (Value, error) {
		if ai >= len(args) {
			return nil, &RuntimeError{Msg: "sprintf(): too few arguments", Line: line}
		}
		v := args[ai]
		ai++
		return v, nil
	}
	for i := 0; i < len(format); i++ {
		c := format[i]
		if c != '%' {
			b.WriteByte(c)
			continue
		}
		i++
		if i >= len(format) {
			return nil, &RuntimeError{Msg: "sprintf(): trailing %", Line: line}
		}
		if format[i] == '%' {
			b.WriteByte('%')
			continue
		}
		spec := "%"
		for i < len(format) && (format[i] == '0' || format[i] == '-' || format[i] == '+' ||
			(format[i] >= '1' && format[i] <= '9') || format[i] == '.' ||
			(spec != "%" && format[i] >= '0' && format[i] <= '9')) {
			spec += string(format[i])
			i++
		}
		if i >= len(format) {
			return nil, &RuntimeError{Msg: "sprintf(): malformed directive", Line: line}
		}
		verb := format[i]
		v, err := nextArg()
		if err != nil {
			return nil, err
		}
		switch verb {
		case 's':
			fmt.Fprintf(&b, spec+"s", ToString(v))
		case 'd':
			fmt.Fprintf(&b, spec+"d", ToInt(v))
		case 'f', 'F':
			if !strings.Contains(spec, ".") {
				spec += ".6"
			}
			fmt.Fprintf(&b, spec+"f", ToFloat(v))
		case 'x':
			fmt.Fprintf(&b, spec+"x", ToInt(v))
		case 'X':
			fmt.Fprintf(&b, spec+"X", ToInt(v))
		default:
			return nil, &RuntimeError{Msg: fmt.Sprintf("sprintf(): unsupported verb %%%c", verb), Line: line}
		}
	}
	return b.String(), nil
}

// phpDate implements a subset of date() format characters, in UTC so the
// output is deterministic given the timestamp.
func phpDate(format string, ts int64) string {
	t := time.Unix(ts, 0).UTC()
	var b strings.Builder
	for i := 0; i < len(format); i++ {
		switch format[i] {
		case 'Y':
			fmt.Fprintf(&b, "%04d", t.Year())
		case 'y':
			fmt.Fprintf(&b, "%02d", t.Year()%100)
		case 'm':
			fmt.Fprintf(&b, "%02d", int(t.Month()))
		case 'n':
			fmt.Fprintf(&b, "%d", int(t.Month()))
		case 'd':
			fmt.Fprintf(&b, "%02d", t.Day())
		case 'j':
			fmt.Fprintf(&b, "%d", t.Day())
		case 'H':
			fmt.Fprintf(&b, "%02d", t.Hour())
		case 'i':
			fmt.Fprintf(&b, "%02d", t.Minute())
		case 's':
			fmt.Fprintf(&b, "%02d", t.Second())
		case '\\':
			if i+1 < len(format) {
				i++
				b.WriteByte(format[i])
			}
		default:
			b.WriteByte(format[i])
		}
	}
	return b.String()
}

func jsonEncode(b *strings.Builder, v Value) error {
	switch x := v.(type) {
	case nil:
		b.WriteString("null")
	case bool:
		if x {
			b.WriteString("true")
		} else {
			b.WriteString("false")
		}
	case int64:
		b.WriteString(strconv.FormatInt(x, 10))
	case float64:
		b.WriteString(strconv.FormatFloat(x, 'g', -1, 64))
	case string:
		b.WriteString(strconv.Quote(x))
	case *Array:
		if isList(x) {
			b.WriteByte('[')
			for i, e := range x.ents {
				if i > 0 {
					b.WriteByte(',')
				}
				if err := jsonEncode(b, e.v); err != nil {
					return err
				}
			}
			b.WriteByte(']')
			return nil
		}
		b.WriteByte('{')
		for i, e := range x.ents {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.Quote(e.k.String()))
			b.WriteByte(':')
			if err := jsonEncode(b, e.v); err != nil {
				return err
			}
		}
		b.WriteByte('}')
	default:
		return fmt.Errorf("json_encode: unsupported type %s", TypeName(v))
	}
	return nil
}

func isList(a *Array) bool {
	for i, e := range a.ents {
		if !e.k.IsInt || e.k.I != int64(i) {
			return false
		}
	}
	return true
}

// nativeNonDet computes real non-deterministic values; used only in
// ModePlain (the unmodified baseline runtime).
func nativeNonDet(name string, args []Value) (Value, error) {
	switch name {
	case "time":
		return time.Now().Unix(), nil
	case "microtime":
		return float64(time.Now().UnixNano()) / 1e9, nil
	case "mt_rand", "rand":
		if len(args) == 2 {
			lo, hi := ToInt(args[0]), ToInt(args[1])
			if hi < lo {
				return lo, nil
			}
			return lo + rand.Int63n(hi-lo+1), nil
		}
		return rand.Int63n(1 << 31), nil
	case "uniqid":
		return fmt.Sprintf("%x", time.Now().UnixNano()), nil
	case "getmypid":
		return int64(1), nil
	default:
		return nil, &RuntimeError{Msg: "unknown nondet builtin " + name}
	}
}
