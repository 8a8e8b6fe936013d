package lang

import (
	"fmt"
	"sync"
	"testing"
)

// TestLiteralArraysAcrossGoroutines: a constant array literal is one
// array, built when the program is lowered and shared by every run of
// it. Runs on many goroutines at once write into it, sort it, append to
// its nested literals and iterate it while writing, and each must see
// the literal as written; under -race this fails if any write reaches
// the shared array, or if a run marks it (it must be marked before the
// program is published).
func TestLiteralArraysAcrossGoroutines(t *testing.T) {
	prog := MustCompile(map[string]string{"main": `
function conf() { return array("name" => "x", "tags" => array("b", "a"), "n" => 3); }
$c = conf();
$c["name"] = $_GET["x"];
$c["tags"][] = $_GET["x"];
sort($c["tags"]);
$d = array("b", "a", "c");
sort($d);
$e = array(1, 2);
foreach ($e as $i => $v) { $e[$i] = $v . $_GET["x"]; $e[] = $i; }
$f = array("k" => array(1));
unset($f["k"][0]);
$f["k"]["v"] = $_GET["x"];
echo json_encode($c), json_encode($d), json_encode($e), json_encode($f), "|", json_encode(conf());
`})
	const want = `|{"name":"x","tags":["b","a"],"n":3}`
	var wg sync.WaitGroup
	errs := make([]error, 16)
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				x := fmt.Sprint(g*100 + i)
				res, err := Run(prog, Config{Mode: ModeRecord, Script: "main", RIDs: []string{"r"},
					Inputs: []RequestInput{{Get: map[string]string{"x": x}}}, Bridge: newMemBridge()})
				if err != nil {
					errs[g] = err
					return
				}
				out := res.Outputs()[0]
				// x is all digits, so it sorts before "a".
				head := fmt.Sprintf(`{"name":"%s","tags":[%q,"a","b"],"n":3}["a","b","c"]["1%s","2%s",0,1]{"k":{"v":"%s"}}`, x, x, x, x, x)
				if out != head+want {
					errs[g] = fmt.Errorf("run %s printed %s, want %s", x, out, head+want)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// runCompiledExec runs script main of src under the compiled engine, as
// compiledEngine.Run does, and returns the exec it ran on.
func runCompiledExec(t *testing.T, src string, in RequestInput) (*exec, error) {
	t.Helper()
	prog := MustCompile(map[string]string{"main": src})
	cp, err := prog.compiled()
	if err != nil {
		t.Fatal(err)
	}
	ex, err := newExec(prog, Config{Mode: ModeRecord, Script: "main", RIDs: []string{"r"},
		Inputs: []RequestInput{in}, Bridge: newMemBridge()})
	if err != nil {
		t.Fatal(err)
	}
	ex.gslots = make([]Value, cp.res.nglobals)
	ex.gset = make([]bool, cp.res.nglobals)
	_, _, err = runCStmts(&cframe{ex: ex}, cp.scripts["main"].body)
	return ex, err
}

// TestArgStackBalanced: every builtin, by-reference builtin, state-op
// and nondet call releases its arguments on every way out — a result,
// a fault in its own arguments or in a nested call's, a fault of the
// callee — so the argument stack is empty and cleared when a run ends.
func TestArgStackBalanced(t *testing.T) {
	for _, tc := range []struct{ name, src, wantErr string }{
		{"nested calls", `
$s = "a,b," . $_GET["x"];
for ($i = 0; $i < 3; $i++) {
  echo implode(",", array_keys(explode(",", $s . $i))), max(1, min(5, intval($_GET["x"])), count(explode(",", $s)));
  $a = array();
  array_push($a, strlen($s), implode(":", explode(",", $s)));
  apc_set("k" . strlen($s), implode(",", array($s, mt_rand(1, count($a)))));
  echo apc_get("k" . strlen(implode("", array($s)))), json_encode($a);
}`, ""},
		{"fault in an argument", `
for ($i = 0; $i < 5; $i++) {
  echo implode(",", array($i, strlen("ab" . $i), str_repeat("-", $i == 3 ? undefined_fn($i) : 1)));
}`, "call to undefined function undefined_fn()"},
		{"fault in a nested call's argument", `
for ($i = 0; $i < 3; $i++) {
  echo strlen(implode(",", array_keys(explode(",", substr("abc", 0, $i == 2 ? nope($i) : 1)))));
}`, "call to undefined function nope()"},
		{"fault in the callee", `
for ($i = 0; $i < 3; $i++) { echo strlen(implode(",", array($i, intdiv(4, 2 - $i)))); }`, "intdiv(): division by zero"},
		{"fault in a by-reference builtin's argument", `
$a = array();
for ($i = 0; $i < 3; $i++) { array_push($a, strlen("x"), $i == 1 ? nope() : $i); }`, "call to undefined function nope()"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ex, err := runCompiledExec(t, tc.src, RequestInput{Get: map[string]string{"x": "1"}})
			if got := fmt.Sprint(err); (tc.wantErr == "" && err != nil) || (tc.wantErr != "" && got != tc.wantErr) {
				t.Fatalf("run ended with %v, want %q", err, tc.wantErr)
			}
			if cap(ex.args) == 0 {
				t.Fatal("no call used the argument stack")
			}
			if len(ex.args) != 0 {
				t.Fatalf("%d arguments left on the stack", len(ex.args))
			}
			for i, v := range ex.args[:cap(ex.args)] {
				if v != nil {
					t.Fatalf("stack cell %d still holds %v", i, v)
				}
			}
		})
	}
}
