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
	// Aliasing: every way two holders can come to share one array, each
	// followed by a write that must reach only the writer's copy.
	{"alias nested write", `
$a = array(array(1, $_GET["x"]), array(3));
$b = $a;
$b[0][1] = 2;
$b[1][] = intval($_GET["x"]);
echo json_encode($a) . json_encode($b);`},
	{"alias write after return", `
function same($v) { return $v; }
function touch($v) { $v["t"][] = $_GET["x"]; return $v; }
$a = array("t" => array(0), "k" => $_GET["x"]);
$b = same($a);
$b["t"][] = 1;
$c = touch($a);
$c["k"] = "c";
echo json_encode($a) . json_encode($b) . json_encode($c);`},
	{"alias unset through copy", `
$a = array("n" => array("x" => 1, "y" => $_GET["x"]), "m" => 2);
$b = $a;
unset($b["n"]["x"]);
unset($b["m"]);
$c = $b;
unset($c["n"]["missing"]["deeper"]);
unset($c["n"]["y"]);
echo json_encode($a) . json_encode($b) . json_encode($c);`},
	{"alias sort copy", `
$a = array(3, intval($_GET["x"]), 1, array(2));
$copy = $a;
sort($copy);
$nested = array("l" => array(9, intval($_GET["x"]), 5));
$n2 = $nested;
sort($n2["l"]);
array_push($copy, $copy);
echo json_encode($a) . json_encode($copy) . json_encode($nested) . json_encode($n2);`},
	{"alias array union", `
$a = array("p" => array(1), "q" => $_GET["x"]);
$b = array("q" => "b", "r" => array(2));
$u = $a + $b;
$u["p"][] = 10;
$u["r"][] = 20;
$a["p"][] = 11;
$b["r"][] = 21;
$a += $a;
echo json_encode($a) . json_encode($b) . json_encode($u);`},
	{"alias global array", `
function add($v) { global $g; $g["list"][] = $v; return $g; }
function peek() { global $g; $local = $g; $local["list"][] = "peek"; return count($local["list"]); }
$g = array("list" => array("seed"));
$snap = $g;
$r = add($_GET["x"]);
$r["list"][] = "caller";
echo peek() . json_encode($g) . json_encode($snap) . json_encode($r);
$g = $snap;
$g["list"][0] = "reset";
echo json_encode($snap);`},
	{"alias multivalue key", `
$shared = array("u1" => array("n" => 1), "u2" => array("n" => 2), "1" => 0);
$keep = $shared;
$shared[$_GET["x"]]["n"] = 9;
$shared[$_GET["x"]][] = $_GET["x"];
echo json_encode($keep) . json_encode($shared);
$m = array();
$m[$_GET["x"]] = array(5);
$m2 = $m;
$m2[$_GET["x"]][] = 6;
echo json_encode($m) . json_encode($m2);
foreach ($keep as $k => $v) { $keep[$k] = $_GET["x"]; echo is_array($v) ? count($v) : $v; }
echo json_encode($keep);`},
	{"alias self assignment", `
$a = array(1, array($_GET["x"]));
$a[] = $a;
$a[1][] = $a;
$b = array($_GET["x"]);
$b[0] = $b;
echo json_encode($a) . json_encode($b);`},
	// A string built by . and .= with a per-lane operand is segmented in
	// the compiled engine: it must read the same through every consumer.
	{"segmented strings", `
function page($t, $b) { $o = "<p>" . $t . "</p>"; $o .= "<div>" . $b . "</div>"; $o .= str_repeat("~", 70); return $o; }
function id($v) { return $v; }
$t = "T" . $_GET["x"];
$s = "head:" . $_GET["x"];
$s .= str_repeat("-", 70);
echo strlen($s), "|", substr($s, 0, 8), "|", strtoupper($t), "|";
$a = array();
$a[] = $s;
$a[$s] = 1;
$k = $s . "!";
echo count($a), isset($a[$k]) ? "y" : "n", isset($s) ? "set" : "unset", empty($s) ? "e" : "ne";
echo $s === $k ? "eq" : "ne", $s == "head:1" . str_repeat("-", 70) ? "one" : "other";
$p = page($t, $s);
echo $p, md5(id($p)), page(id($t), "x" . id($s) . "y");
$u = $s;
$u .= "tail";
echo $s, $u, $t . $s, $s . $t, id($s) . id($s);
$n = "5" . $_GET["x"];
$n .= "0";
$n += 1;
echo $n;
$q = $_GET["x"] > 1 ? $s . "big" : $s . "small";
echo $q, json_encode(array("k" => $s . "v", "t" => $t));
foreach (array(1, 2) as $i) { $s .= $i . $_GET["x"]; $s .= "/"; }
echo $s;
$z = "" . $_GET["x"];
echo $z . $z, "=" . $z . "=";
$w = $s;
$w[0] = "W";
echo $w;`},
	// Constant array literals are built once and shared by the compiled
	// engine: every write must land on a copy, call after call.
	{"constant literal writes", `
function cfg($v) {
  $a = array("k" => array(1, 2), "n" => null, "10" => "ten", 1.5 => "f", true => "t", null => "e", "k2" => "x", "k2" => "dup");
  $a["k"][] = $v;
  $a["k"][0] = $v . "!";
  $a["new"] = $v;
  $a[] = "next";
  unset($a["n"]);
  $b = [];
  $b[] = $v;
  $c = ["x" => ["y" => 1]];
  $c["x"]["z"] = $v;
  unset($c["x"]["y"]);
  $c["x"]["w"][] = 1;
  return json_encode($a) . json_encode($b) . json_encode($c);
}
echo cfg($_GET["x"]), cfg("second"), json_encode(array("k" => array(1, 2), "n" => null)), json_encode([]);
$big = array(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, "a" => 1, "b" => 2);
for ($i = 0; $i < 2; $i++) { $t = $big; $t["a"] = $i; $t[] = $_GET["x"]; echo json_encode($t), json_encode($big); }
apc_set("lit", array("s" => array(1)));
$l = apc_get("lit");
$l["s"][] = 2;
echo json_encode($l), json_encode(apc_get("lit"));`},
	{"sort a literal", `
$a = array(3, 1, 2);
sort($a);
$b = array("b" => 2, "a" => 1);
ksort($b);
$c = array(5, 4);
array_push($c, $_GET["x"], array(0));
$d = array(1, 2, 3);
echo array_pop($d), array_shift($d);
rsort($d);
echo json_encode($a) . json_encode($b) . json_encode($c) . json_encode($d) . json_encode(array(3, 1, 2)) . json_encode(array(1, 2, 3));`},
	{"foreach over a literal being written", `
$a = array("p" => 1, "q" => 2, "r" => 3);
foreach ($a as $k => $v) { $a[$k] = $v * 10; $a[] = $k . $_GET["x"]; unset($a["q"]); }
echo json_encode($a);
foreach (array(1, 2, 3) as $v) { $t = array(0, array(9)); $t[] = $v; $t[1][] = $_GET["x"]; echo json_encode($t); }
foreach (array("x" => array(1, 2)) as $k => $inner) { $inner[] = 3; foreach ($inner as $w) { echo $w; } }`},
	{"nested builtin calls", `
$s = "a,b," . $_GET["x"];
echo implode(",", array_keys(explode(",", $s)));
echo implode("|", array_merge(explode(",", $s), array_values(array("z" => strtoupper(substr($s, 0, 1))))));
echo str_replace("a", strtoupper(implode("", array("x", $_GET["x"]))), $s);
echo max(1, min(5, intval($_GET["x"])), count(explode(",", $s)));
echo sprintf("%s-%d-%s", substr($s, 1, 2), strlen(implode(",", array_reverse(explode(",", $s)))), json_encode(array_slice(range(1, 5), 1, intval($_GET["x"]))));
echo mt_rand(1, intval($_GET["x"]) + count(array(1, 2))), time() > 0 ? "t" : "f";
apc_set("k" . strlen($s), implode(",", array($s, strtoupper($s))));
echo apc_get("k" . strlen(implode("", array($s))));
$arr = array();
array_push($arr, strlen($s), implode(":", explode(",", $s)));
echo json_encode($arr);`},
	{"fault mid-argument in a loop", `
$out = "";
for ($i = 0; $i < 5; $i++) {
  $out .= implode(",", array($i, strlen("ab" . $i), str_repeat("-", $i == intval($_GET["x"]) + 1 ? undefined_fn($i) : 1)));
  echo strlen($out);
}
echo $out;`},
	{"fault mid-argument of a nested call", `
for ($i = 0; $i < 3; $i++) {
  echo implode(",", array_keys(explode(",", "a,b" . $i)));
  if ($i == intval($_GET["x"])) { echo strlen(implode(",", array_keys(explode(",", substr("abc", 0, nope($i)))))); }
}`},
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
		{"echo loop", `while (1) { echo str_repeat("x", 4000000); }`},
		{"per-lane echo loop", `while (1) { echo str_repeat("x", 4000000) . $_GET["x"]; }`},
		{"segmented string crossing the limit", `$s = $_GET["x"] . str_repeat("-", 99); while (1) { $s .= str_repeat("z", 100000); }`},
		{"segmented lanes crossing apart", `$s = str_repeat("p", 1000 * intval($_GET["x"])) . "!"; while (1) { $s .= str_repeat("z", 100000); }`},
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
	// `.=` in a loop grows one buffer in place up to exactly the limit —
	// a univalue at one lane, a segmented string's shared tail at three —
	// and one byte more faults, in every lane.
	const fill = `$s = $_GET["t"] . str_repeat("-", 99); $n = 100;
while ($n + 100000 <= $_GET["x"]) { $s .= str_repeat("z", 100000); $n += 100000; }
$s .= str_repeat("y", $_GET["x"] - $n);
echo strlen($s), substr($s, 0, 2), substr($s, -2);`
	for _, tc := range []struct{ name, extra, wantErr string }{
		{"at the limit", ``, ""},
		{"one byte over", `$s .= "!";`, "string length limit exceeded"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := fill + tc.extra
			in := func(ts ...string) []RequestInput {
				out := make([]RequestInput, len(ts))
				for i, v := range ts {
					out[i] = RequestInput{Get: map[string]string{"x": fmt.Sprint(maxStringBytes), "t": v}}
				}
				return out
			}
			diffScript(t, src, in("a"))
			diffScript(t, src, in("a", "b", "a"))
			prog := MustCompile(map[string]string{"main": src})
			for _, ins := range [][]RequestInput{in("a"), in("a", "b", "a")} {
				mode := ModeRecord
				if len(ins) > 1 {
					mode = ModeSIMD
				}
				obs := runEngine(EngineCompiled, prog, mode, "main", ins, 10_000)
				if obs.Err != tc.wantErr {
					t.Fatalf("%d lanes: error %q, want %q", len(ins), obs.Err, tc.wantErr)
				}
				if want := fmt.Sprintf("%d%s-yy", maxStringBytes, ins[0].Get["t"]); tc.wantErr == "" && obs.Outputs[0] != want {
					t.Fatalf("%d lanes: output %q, want %q", len(ins), obs.Outputs[0], want)
				}
			}
		})
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
