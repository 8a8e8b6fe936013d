package lang

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// memBridge is a deterministic in-memory Bridge for differential
// testing: identical call sequences observe identical state, so any
// observable difference between engines is the engine's fault.
type memBridge struct {
	regs map[string]Value
	kv   map[string]Value
}

func newMemBridge() *memBridge {
	return &memBridge{regs: map[string]Value{}, kv: map[string]Value{}}
}

func (b *memBridge) RegisterRead(rid string, opnum int, name string) (Value, error) {
	return b.regs[name], nil
}
func (b *memBridge) RegisterWrite(rid string, opnum int, name string, v Value) error {
	b.regs[name] = v
	return nil
}
func (b *memBridge) KvGet(rid string, opnum int, key string) (Value, error) {
	return b.kv[key], nil
}
func (b *memBridge) KvSet(rid string, opnum int, key string, v Value) error {
	b.kv[key] = v
	return nil
}
func (b *memBridge) DBOp(rid string, opnum int, stmts []string) (Value, error) {
	res := NewArray()
	for _, s := range stmts {
		if strings.Contains(s, "BAD") {
			return nil, &RuntimeError{Msg: "sql error near \"BAD\""}
		}
		res.Append(int64(len(s)))
	}
	return res, nil
}
func (b *memBridge) NonDet(rid string, fn string, args []Value) (Value, error) {
	switch fn {
	case "time":
		return int64(1700000000), nil
	case "microtime":
		return 1700000000.5, nil
	case "mt_rand", "rand":
		return int64(7), nil
	case "uniqid":
		return "uid-" + rid, nil
	case "getmypid":
		return int64(1234), nil
	}
	return int64(0), nil
}

// engObs is everything a run of the language observably produces: the
// dual-engine equivalence gate compares these field-for-field.
type engObs struct {
	Err     string
	Fault   string
	Digest  uint64
	OpCount int
	InstrU  int64
	InstrM  int64
	Steps   int64
	Outputs []string
}

func observe(res *Result, err error) engObs {
	var o engObs
	if err != nil {
		o.Err = err.Error()
		o.Fault = RenderFault(err)
	}
	if res != nil {
		o.Digest = res.Digest
		o.OpCount = res.OpCount
		o.InstrU = res.InstrUni
		o.InstrM = res.InstrMulti
		o.Steps = res.Steps
		o.Outputs = res.Outputs()
	}
	return o
}

func runEngine(eng Engine, prog *Program, mode Mode, script string, inputs []RequestInput, maxSteps int64) engObs {
	rids := make([]string, len(inputs))
	for i := range rids {
		rids[i] = fmt.Sprintf("r%d", i)
	}
	res, err := Run(prog, Config{
		Mode: mode, Script: script, RIDs: rids, Inputs: inputs,
		Bridge: newMemBridge(), CollectStats: true, MaxSteps: maxSteps,
		Engine: eng,
	})
	return res2obs(res, err)
}

func res2obs(res *Result, err error) engObs { return observe(res, err) }

// candidateEngines are the engines checked against the interpreter
// reference by the differential suite: the production engine.
var candidateEngines = []Engine{EngineCompiled}

// diffScript runs src under every engine in every execution mode the
// system uses — per-request recording, per-request plain, and grouped
// SIMD over all inputs — and requires identical observables.
func diffScript(t *testing.T, src string, inputs []RequestInput) {
	t.Helper()
	diffProgram(t, map[string]string{"main": src}, "main", inputs)
}

func diffProgram(t *testing.T, files map[string]string, script string, inputs []RequestInput) {
	t.Helper()
	prog, err := Compile(files)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	const maxSteps = 200_000
	check := func(mode Mode, ins []RequestInput, label string) {
		t.Helper()
		want := runEngine(EngineInterp, prog, mode, script, ins, maxSteps)
		for _, eng := range candidateEngines {
			got := runEngine(eng, prog, mode, script, ins, maxSteps)
			if !reflect.DeepEqual(want, got) {
				t.Errorf("%s: engines diverge\ninterp: %+v\n%s: %+v", label, want, eng.Name(), got)
			}
		}
	}
	for i, in := range inputs {
		check(ModeRecord, []RequestInput{in}, fmt.Sprintf("record[%d]", i))
		check(ModePlain, []RequestInput{in}, fmt.Sprintf("plain[%d]", i))
	}
	if len(inputs) > 1 {
		check(ModeSIMD, inputs, fmt.Sprintf("simd[%d lanes]", len(inputs)))
	}
}

func engineInputs(vals ...string) []RequestInput {
	out := make([]RequestInput, len(vals))
	for i, v := range vals {
		out[i] = RequestInput{
			Get:    map[string]string{"x": v, "idx": v},
			Post:   map[string]string{"p": v + v},
			Cookie: map[string]string{"sid": "s" + v},
		}
	}
	return out
}

// The differential table: every language construct, state-op shape, and
// fault class the applications exercise, at lane widths 1, 2 and 4.
var engineEquivalenceScripts = []struct {
	name string
	src  string
}{
	{"control flow", `
$x = intval($_GET["x"]);
if ($x > 3) { echo "big"; } elseif ($x > 1) { echo "mid"; } else { echo "small"; }
$i = 0;
while ($i < $x) { $i++; if ($i == 2) { continue; } echo $i; }
for ($j = 0; $j < 3; $j++) { if ($j == 2) { break; } echo "j" . $j; }
switch ($x) { case 1: echo "one"; break; case 2: echo "two"; break; default: echo "many"; }
echo ($x % 2) ? "odd" : "even";
echo ($x > 0 && $x < 3) ? "Y" : "N";
echo ($x == 1 || $x == 4) ? "Q" : "R";`},
	{"foreach and arrays", `
$a = array("k1" => 1, "k2" => 2, 3, 4);
$a[] = intval($_GET["x"]);
$a["n"] = array("deep" => $_GET["x"]);
foreach ($a as $k => $v) { if (is_array($v)) { echo $k . "=arr;"; } else { echo $k . "=" . $v . ";"; } }
foreach ($a["n"] as $v2) { echo "inner:" . $v2; }
unset($a["k1"]);
echo count($a);
$s = "hello";
echo $s[1] . $s[intval($_GET["x"])];`},
	{"functions", `
function fib($n) { if ($n < 2) { return $n; } return fib($n - 1) + fib($n - 2); }
function greet($who, $greeting = "hi " . "there") { return $greeting . " " . $who; }
function bump() { global $counter; $counter = $counter + 1; return $counter; }
$counter = 10;
echo fib(intval($_GET["x"]) + 3);
echo greet("a");
echo greet("b", "yo", "extra-" . $_GET["x"]);
echo bump(); echo bump(); echo $counter;`},
	{"conditional global", `
function maybeglobal($flag) {
  $g = "local";
  if ($flag) { global $g; }
  $g = $g . "+";
  return $g;
}
$g = "G";
echo maybeglobal(0); echo "|";
echo maybeglobal(intval($_GET["x"]) > 1); echo "|";
echo $g;`},
	{"isset empty unset side effects", `
function idx() { global $calls; $calls++; return 0; }
$calls = 0;
$present = array(1);
echo isset($present[idx()]) ? "T" : "F";
echo isset($absent[idx()]) ? "T" : "F";
$nullvar = null;
echo isset($nullvar) ? "T" : "F";
echo empty($nullvar) ? "T" : "F";
echo empty($present) ? "T" : "F";
echo isset($_GET["x"], $_GET["missing"]) ? "T" : "F";
unset($present);
echo isset($present) ? "T" : "F";
echo "calls=" . $calls;`},
	{"incdec and compound", `
$i = intval($_GET["x"]);
echo $i++; echo ++$i; echo $i--; echo --$i;
echo $fresh++; echo $fresh;
$a = array("n" => 2);
$a["n"] += $i;
$a["n"] .= "!";
echo $a["n"];
$s = "v"; $s .= $_GET["x"]; echo $s;`},
	{"builtins", `
$x = $_GET["x"];
echo strlen($x) . strtoupper($x) . substr("abcdef", 1, intval($x));
echo str_replace("a", $x, "banana");
echo implode(",", array(1, $x, 3));
$parts = explode("-", "a-" . $x . "-c");
echo count($parts) . $parts[1];
echo intval("12abc") . floatval("2.5") . strval(9);
echo max(1, intval($x)) . min(2, intval($x));
echo json_encode(array("k" => $x));`},
	{"ref builtins", `
$a = array(3, intval($_GET["x"]), 2);
sort($a);
echo implode(",", $a);
array_push($a, 99, intval($_GET["x"]));
echo array_pop($a);
echo array_shift($a);
rsort($a);
echo implode(",", $a);
$m = array("b" => 1, "a" => intval($_GET["x"]));
ksort($m);
foreach ($m as $k => $v) { echo $k . $v; }`},
	{"state ops", `
session_set("u", $_COOKIE["sid"]);
echo session_get("u");
apc_set("hits", intval($_GET["x"]));
echo apc_get("hits");
echo db_query("SELECT " . $_GET["x"]);
echo db_exec("UPDATE t SET v=" . $_GET["x"]);
echo db_transaction(array("INSERT a", "INSERT " . $_GET["x"]));
echo time() . mt_rand() . uniqid();`},
	{"superglobal writes", `
$_GET["added"] = "w" . $_GET["x"];
echo $_GET["added"] . $_POST["p"] . $_COOKIE["sid"];
$_GET = array("fresh" => 1);
echo isset($_GET["x"]) ? "T" : "F";
$_POST = "not-an-array";
echo $_POST["p"];`},
	{"fault undefined function", `
echo "pre";
if (intval($_GET["x"]) > 100) { no_such_fn(); }
nonexistent_function($_GET["x"]);
echo "post";`},
	{"fault bad sql", `
echo "q";
echo db_query("SELECT BAD " . $_GET["x"]);
echo "unreached";`},
	{"fault division by zero", `
$d = intval($_GET["x"]) - intval($_GET["x"]);
echo 10 / $d;`},
	{"fault foreach non-array", `
$v = "scalar";
foreach ($v as $x2) { echo $x2; }`},
	{"fault string offset assignment", `
$s = "abc";
$s[0] = $_GET["x"];
echo $s;`},
	{"fault ref builtin non-array", `
$n = 5;
sort($n);
echo "unreached";`},
	{"fault state op arity", `
session_get();
echo "unreached";`},
	{"deep paths", `
$d = array();
$d["a"]["b"][] = $_GET["x"];
$d["a"]["b"][] = "fixed";
$d[intval($_GET["x"])]["z"] = 1;
echo json_encode($d);
unset($d["a"]["b"][0]);
echo json_encode($d);
echo isset($d["a"]["b"][1]) ? "T" : "F";`},
	// A default parameter and surplus arguments through a chain in which
	// every lowering order has a caller lowered before its callee, so an
	// argument split decided before the callee's params exist misbinds.
	{"call lowering order", `
function h3($s, $suffix = "!") { return $s . $suffix; }
function h2x($s) { return h3($s) . h3($s, "?", "extra"); }
function h1($s) { return h2x($s) . h3("tail"); }
echo h1($_GET["x"]);`},
	// Constant expressions and constant-guarded code: both engines
	// evaluate them at run time, on every lane.
	{"constant arithmetic", `
function scaled($v, $k = 2 * 3 + 1) { return $v * $k; }
echo 1 + 2 * 3 - 4 / 2, "|", 7 / 2, "|", 7 % 3, "|", 9223372036854775807 + 1;
echo "|" . "a" . "b" . 3 . 1.5 . true . null;
echo "|", -5, -(2 + 3), -"4", -"x", -1.5, !0, !1, !"";
echo "|" . (1 < 2) . (2 <= 1) . ("a" == 0) . (1 === 1.0) . ("1" != "01") . (2 !== 2);
echo "|" . ((1 < 2) ? "lt" : "ge") . (0 ? "t" : "f") . (1 && 0) . (0 || 2);
echo "|" . scaled(intval($_GET["x"])) . (10 - 3 . "x") . $_GET["x"];`},
	{"constant echo args", `
echo "a", 1+2, "b";
echo 1.5, true, null, "-", $_GET["x"], "z", 4, 5;`},
	{"constant-false bodies", `
if (false) { echo "dead"; no_such_fn(); } elseif (1) { echo "live"; } else { echo "else-dead"; }
if (0) { echo "never"; } elseif (intval($_GET["x"]) > 1) { echo "dyn"; } elseif (true) { echo "T"; } else { no_such_fn(); }
while (false) { echo "never"; no_such_fn(); }
for ($i = 0; false; $i++) { echo "never"; }
for (;false;) { no_such_fn(); }
echo "i=" . $i;
echo (false ? no_such_fn() : "ternary");`},
	{"constant switch", `
switch (2) { case 1: echo "one"; break; case 1 + 1: echo "two"; case 3: echo "fall"; break; default: echo "def"; }
switch ("a") { case "b": no_such_fn(); break; default: echo "d"; }
switch (2) { case $_GET["x"]: echo "dyn"; break; case 2: echo "const"; break; }
switch (0) { default: echo "first-default"; }`},
	{"constant fault modulo", `
echo "pre";
echo 1 % 0;
echo "unreached";`},
	{"constant fault division", `
echo $_GET["x"];
$q = 10 / (2 - 2);
echo "unreached";`},
}

func TestEngineEquivalence(t *testing.T) {
	for _, tc := range engineEquivalenceScripts {
		t.Run(tc.name, func(t *testing.T) {
			diffScript(t, tc.src, engineInputs("1"))
			diffScript(t, tc.src, engineInputs("1", "2"))
			diffScript(t, tc.src, engineInputs("4", "1", "2", "4"))
		})
	}
}

func TestEngineEquivalenceIdenticalLanes(t *testing.T) {
	// Identical inputs must stay univalent under both engines.
	for _, tc := range engineEquivalenceScripts {
		t.Run(tc.name, func(t *testing.T) {
			diffScript(t, tc.src, engineInputs("2", "2", "2"))
		})
	}
}

func TestEngineEquivalenceUnknownScript(t *testing.T) {
	diffProgram(t, map[string]string{"main": `echo "hi";`}, "missing.php", engineInputs("1"))
	diffProgram(t, map[string]string{"main": `echo "hi";`}, "missing.php", engineInputs("1", "2"))
}

func TestEngineEquivalenceMultiScript(t *testing.T) {
	files := map[string]string{
		"a.php": `function shared($v) { return $v . "!"; } echo shared($_GET["x"]) . "A";`,
		"b.php": `echo shared($_GET["x"]) . "B"; $t = $unsetvar . "end"; echo $t;`,
	}
	diffProgram(t, files, "a.php", engineInputs("1", "2"))
	diffProgram(t, files, "b.php", engineInputs("1", "2"))
}

func TestEngineEquivalenceStepLimit(t *testing.T) {
	// The empty post-less for loop executes no statement per iteration;
	// it must still reach the limit rather than spin forever.
	for _, src := range []string{`while (1) { $i++; }`, `for (;;) {}`} {
		prog := MustCompile(map[string]string{"main": src})
		for _, eng := range []Engine{EngineInterp, EngineCompiled} {
			res, err := Run(prog, Config{
				Mode: ModeRecord, Script: "main", RIDs: []string{"r"},
				Inputs: []RequestInput{{}}, Bridge: newMemBridge(), MaxSteps: 500,
				Engine: eng,
			})
			if err == nil || err.Error() != "step limit exceeded" {
				t.Fatalf("%s: %s: want step limit fault, got %v", eng.Name(), src, err)
			}
			if res == nil || res.Digest == 0 {
				t.Fatalf("%s: %s: want fault-folded digest", eng.Name(), src)
			}
		}
		a := runEngine(EngineInterp, prog, ModeRecord, "main", []RequestInput{{}}, 500)
		for _, eng := range candidateEngines {
			b := runEngine(eng, prog, ModeRecord, "main", []RequestInput{{}}, 500)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("%s: step-limit observables diverge\ninterp: %+v\n%s: %+v", src, a, eng.Name(), b)
			}
		}
	}
}

// TestEngineEquivalenceStringBudget: every way a script can grow a
// string faster than the call-depth and step budgets can stop it ends
// in the same canonical fault, at the same step, under both engines,
// one lane or several — instead of in 2^depth bytes of memory. The
// first row is the script FuzzEngineEquivalence found hanging both
// engines.
func TestEngineEquivalenceStringBudget(t *testing.T) {
	for _, tc := range []struct{ name, src string }{
		{"doubling recursion", `function f($n){if($n)f($n.$n);}f($_GET["x"]);`},
		{"doubling loop", `$s = "ab" . $_GET["x"]; while (1) { $s .= $s; }`},
		{"str_repeat product", `$s = str_repeat("0123456789" . $_GET["x"], 4000); echo strlen(str_repeat($s, 4000));`},
		{"str_pad width", `echo strlen(str_pad($_GET["x"], 1099511627776, "-"));`},
		{"implode separators", `$s = str_repeat("s" . $_GET["x"], 400000); echo strlen(implode($s, array(1, 2, 3, 4, 5, 6, 7, 8, 9)));`},
		{"str_replace growth", `$s = str_repeat("a", 3000); echo strlen(str_replace("a", $s . $_GET["x"], $s));`},
		{"iterated growing builtin", `$s = "\"" . $_GET["x"]; while (1) { $s = json_encode($s); }`},
		{"number_format decimals", `echo strlen(number_format(1, 1073741824)) . $_GET["x"];`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			diffScript(t, tc.src, engineInputs("1"))
			diffScript(t, tc.src, engineInputs("2", "1", "2"))
			prog := MustCompile(map[string]string{"main": tc.src})
			obs := runEngine(EngineCompiled, prog, ModeRecord, "main", engineInputs("1"), 200_000)
			if obs.Err != "string length limit exceeded" {
				t.Fatalf("want the string-budget fault, got %q (fault %q)", obs.Err, obs.Fault)
			}
		})
	}
	// At the limit is fine; one byte over is not.
	prog := MustCompile(map[string]string{"main": `$s = str_repeat("x", intval($_GET["x"])); echo strlen($s . "y");`})
	for n, wantErr := range map[int]string{maxStringBytes - 1: "", maxStringBytes: "string length limit exceeded"} {
		in := []RequestInput{{Get: map[string]string{"x": fmt.Sprint(n)}}}
		if obs := runEngine(EngineCompiled, prog, ModeRecord, "main", in, 1000); obs.Err != wantErr {
			t.Fatalf("%d bytes + 1: error %q, want %q", n, obs.Err, wantErr)
		}
	}
}

// FuzzEngineEquivalence generates scripts and inputs and requires the
// reference and the production engine to agree on every observable: output bytes, control-flow
// digest, op/step/instruction counts, and fault renderings — at lane
// width 1 (record mode, the server's path) and multi-lane (SIMD, the
// verifier's path).
func FuzzEngineEquivalence(f *testing.F) {
	for _, tc := range engineEquivalenceScripts {
		f.Add(tc.src, "1", "2")
	}
	f.Add(`echo $_GET["x"] + $_GET["y"];`, "0", "00")
	f.Add(`$a[$_GET["x"]] = 1; echo json_encode($a);`, "k", "0")
	f.Add(`function f($n) { return $n <= 0 ? 0 : f($n - 1); } echo f(intval($_GET["x"]));`, "250", "3")
	f.Fuzz(func(t *testing.T, src, x, y string) {
		if len(src) > 4096 || len(x) > 64 || len(y) > 64 {
			t.Skip("oversized input")
		}
		prog, err := Compile(map[string]string{"main": src})
		if err != nil {
			t.Skip("parse error")
		}
		inputs := []RequestInput{
			{Get: map[string]string{"x": x, "y": y}, Cookie: map[string]string{"sid": x}},
			{Get: map[string]string{"x": y, "y": x}, Cookie: map[string]string{"sid": y}},
		}
		const maxSteps = 20_000
		for _, eng := range candidateEngines {
			for i, in := range inputs {
				want := runEngine(EngineInterp, prog, ModeRecord, "main", []RequestInput{in}, maxSteps)
				got := runEngine(eng, prog, ModeRecord, "main", []RequestInput{in}, maxSteps)
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("record[%d]: engines diverge\nsrc: %s\ninterp: %+v\n%s: %+v", i, src, want, eng.Name(), got)
				}
			}
			want := runEngine(EngineInterp, prog, ModeSIMD, "main", inputs, maxSteps)
			got := runEngine(eng, prog, ModeSIMD, "main", inputs, maxSteps)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("simd: engines diverge\nsrc: %s\ninterp: %+v\n%s: %+v", src, want, eng.Name(), got)
			}
		}
	})
}
