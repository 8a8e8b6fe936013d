package lang

import (
	"errors"
	"fmt"
	"testing"
)

// runSIMD executes src once for a group of request inputs using
// SIMD-on-demand, returning the per-lane outputs.
func runSIMD(t *testing.T, src string, inputs []RequestInput) ([]string, *Result) {
	t.Helper()
	prog, err := Compile(map[string]string{"main": src})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	rids := make([]string, len(inputs))
	for i := range rids {
		rids[i] = fmt.Sprintf("r%d", i)
	}
	res, err := Run(prog, Config{
		Mode: ModeSIMD, Script: "main", RIDs: rids, Inputs: inputs,
		CollectStats: true,
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res.Outputs(), res
}

// runScalarEach executes src once per input in plain mode, the oracle for
// SIMD equivalence tests.
func runScalarEach(t *testing.T, src string, inputs []RequestInput) []string {
	t.Helper()
	prog, err := Compile(map[string]string{"main": src})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	out := make([]string, len(inputs))
	for i, in := range inputs {
		res, err := Run(prog, Config{
			Mode: ModePlain, Script: "main", RIDs: []string{"r"}, Inputs: []RequestInput{in},
		})
		if err != nil {
			t.Fatalf("run lane %d: %v", i, err)
		}
		out[i] = res.Output(0)
	}
	return out
}

// checkSIMDEquiv asserts that grouped SIMD execution produces exactly the
// same per-lane outputs as executing each request separately — the core
// correctness property of acc-PHP (§4.3, and difference (ii) in the
// proof of Theorem 10).
func checkSIMDEquiv(t *testing.T, src string, inputs []RequestInput) *Result {
	t.Helper()
	want := runScalarEach(t, src, inputs)
	got, res := runSIMD(t, src, inputs)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("lane %d: SIMD %q != scalar %q", i, got[i], want[i])
		}
	}
	return res
}

func gets(kvs ...string) []RequestInput {
	out := make([]RequestInput, 0, len(kvs))
	for _, v := range kvs {
		out = append(out, RequestInput{Get: map[string]string{"x": v}})
	}
	return out
}

func TestSIMDPaperExample(t *testing.T) {
	// The exact example from §4.3: lines 1-2 are multivalent/collapsing,
	// lines 3-4 must execute univalently after the max() collapse.
	src := `
$sum = $_GET["x"] + $_GET["y"];
$larger = max($sum, $_GET["z"]);
$odd = ($larger % 2) ? "True" : "False";
echo $odd;`
	inputs := []RequestInput{
		{Get: map[string]string{"x": "1", "y": "3", "z": "10"}},
		{Get: map[string]string{"x": "2", "y": "4", "z": "10"}},
	}
	got, res := runSIMD(t, src, inputs)
	if got[0] != "False" || got[1] != "False" {
		t.Fatalf("outputs %v", got)
	}
	// After the collapse at max(), the % and ternary and echo run
	// univalently; so some instructions must be univalent.
	if res.InstrUni == 0 {
		t.Fatal("expected univalent instructions after collapse")
	}
	if res.InstrMulti == 0 {
		t.Fatal("expected multivalent instructions before collapse")
	}
}

func TestSIMDCollapse(t *testing.T) {
	// Different inputs, but computation collapses to equal values.
	src := `$v = intval($_GET["x"]) * 0; echo "const" . $v;`
	res := checkSIMDEquiv(t, src, gets("1", "2", "3"))
	if res.InstrUni == 0 {
		t.Fatal("collapse should produce univalent instructions")
	}
}

func TestSIMDAllIdenticalInputsStayUnivalent(t *testing.T) {
	src := `$a = $_GET["x"] . "!"; $b = strlen($a); echo $a . $b;`
	res := checkSIMDEquiv(t, src, gets("same", "same", "same"))
	if res.InstrMulti != 0 {
		t.Fatalf("identical inputs must never go multivalent, got %d multivalent", res.InstrMulti)
	}
}

func TestSIMDArithmetic(t *testing.T) {
	src := `echo intval($_GET["x"]) * 3 + 1;`
	checkSIMDEquiv(t, src, gets("1", "2", "3", "100"))
}

func TestSIMDScalarExpansion(t *testing.T) {
	src := `$c = 10; echo intval($_GET["x"]) + $c;`
	checkSIMDEquiv(t, src, gets("1", "2"))
}

func TestSIMDStringOps(t *testing.T) {
	src := `echo strtoupper($_GET["x"]) . "-" . strlen($_GET["x"]);`
	checkSIMDEquiv(t, src, gets("abc", "de", "fghij"))
}

func TestSIMDMixedIntFloat(t *testing.T) {
	// A multivalue mixing int and float lanes (the one mixture the
	// paper's acc-PHP handles natively).
	src := `$v = $_GET["x"] + 0; echo $v * 2;`
	checkSIMDEquiv(t, src, gets("3", "3.5"))
}

func TestSIMDContainerCellMulti(t *testing.T) {
	// Univalue container holding multivalue cells.
	src := `$a = []; $a["k"] = $_GET["x"]; $a["c"] = 1; echo $a["k"] . $a["c"];`
	checkSIMDEquiv(t, src, gets("p", "q"))
}

func TestSIMDMultivalueKeyExpandsContainer(t *testing.T) {
	// Univalue container + multivalue key: the container must expand
	// into per-lane arrays (§4.3 Containers).
	src := `$a = ["p" => "P", "q" => "Q"]; $a[$_GET["x"]] = "W"; echo $a["p"] . $a["q"];`
	checkSIMDEquiv(t, src, gets("p", "q"))
}

func TestSIMDMultivalueContainerSet(t *testing.T) {
	// Multivalue container: per-lane set, then collapse check.
	src := `
$a = [];
$a[$_GET["x"]] = 1;   // expands $a
$a["z"] = 2;          // per-lane write
echo count($a) . (isset($a["z"]) ? "t" : "f");`
	checkSIMDEquiv(t, src, gets("p", "q"))
}

func TestSIMDMultivalueContainerCollapses(t *testing.T) {
	// Lanes diverge then re-converge: the container should collapse back
	// to a univalue and subsequent instructions run univalently.
	src := `
$a = [];
$a[$_GET["x"]] = 1;
unset($a[$_GET["x"]]);
$a["same"] = 5;
$t = $a["same"] + 1;
echo $t;`
	res := checkSIMDEquiv(t, src, gets("p", "q"))
	if res.InstrUni == 0 {
		t.Fatal("expected univalent tail after re-convergence")
	}
}

func TestSIMDNestedContainers(t *testing.T) {
	src := `
$a = [];
$a["u"][$_GET["x"]] = "deep";
echo isset($a["u"][$_GET["x"]]) ? "t" : "f";
echo count($a["u"]);`
	checkSIMDEquiv(t, src, gets("k1", "k2"))
}

func TestSIMDForeachUnivalentArray(t *testing.T) {
	// The ternary branches on the (univalue) position, so control flow is
	// identical across lanes even though the echoed value is multivalent.
	src := `
$items = ["a", "b", "c"];
foreach ($items as $i => $v) {
  echo ($i % 2 == 0) ? "[" . $v . $_GET["x"] . "]" : $v;
}`
	checkSIMDEquiv(t, src, gets("b", "c"))
}

func TestSIMDForeachMultivalueArray(t *testing.T) {
	// The subject itself is a multivalue (same length per lane).
	src := `
$items = explode(",", $_GET["x"]);
foreach ($items as $v) { echo "<" . $v . ">"; }`
	checkSIMDEquiv(t, src, gets("a,b", "c,d"))
}

func TestSIMDBuiltinSplit(t *testing.T) {
	// Builtin with multivalue argument must split per lane and re-merge.
	src := `echo implode("|", explode(",", $_GET["x"]));`
	checkSIMDEquiv(t, src, gets("1,2,3", "x,y"))
}

func TestSIMDBuiltinDeepCopy(t *testing.T) {
	// Ref-builtin (sort) with a multivalue-bearing array must deep-copy
	// per lane: lanes must not observe each other's mutation.
	src := `
$a = [3, intval($_GET["x"]), 2];
sort($a);
echo implode(",", $a);`
	checkSIMDEquiv(t, src, gets("1", "9"))
}

func TestSIMDUserFunctions(t *testing.T) {
	src := `
function classify($n) {
  $label = "";
  if ($n % 2 == 0) { $label = "even"; } else { $label = "odd"; }
  return $label . ":" . $n;
}
echo classify(intval($_GET["x"]) * 2);` // *2 keeps parity equal across lanes
	checkSIMDEquiv(t, src, gets("3", "8"))
}

func TestSIMDGlobalsAcrossFunctions(t *testing.T) {
	src := `
$acc = "";
function addto($s) { global $acc; $acc .= $s; }
addto($_GET["x"]);
addto("!");
echo $acc;`
	checkSIMDEquiv(t, src, gets("aa", "bb"))
}

func TestSIMDDivergenceIf(t *testing.T) {
	// Lanes take different branches: must report ErrDivergence.
	src := `if ($_GET["x"] == "1") { echo "one"; } else { echo "other"; }`
	prog := MustCompile(map[string]string{"main": src})
	_, err := Run(prog, Config{
		Mode: ModeSIMD, Script: "main", RIDs: []string{"a", "b"},
		Inputs: gets("1", "2"),
	})
	if !errors.Is(err, ErrDivergence) {
		t.Fatalf("want ErrDivergence, got %v", err)
	}
}

func TestSIMDDivergenceWhile(t *testing.T) {
	src := `$n = intval($_GET["x"]); while ($n > 0) { $n--; } echo "done";`
	prog := MustCompile(map[string]string{"main": src})
	_, err := Run(prog, Config{
		Mode: ModeSIMD, Script: "main", RIDs: []string{"a", "b"},
		Inputs: gets("2", "5"),
	})
	if !errors.Is(err, ErrDivergence) {
		t.Fatalf("want ErrDivergence, got %v", err)
	}
}

func TestSIMDDivergenceForeachLength(t *testing.T) {
	src := `foreach (explode(",", $_GET["x"]) as $v) { echo $v; }`
	prog := MustCompile(map[string]string{"main": src})
	_, err := Run(prog, Config{
		Mode: ModeSIMD, Script: "main", RIDs: []string{"a", "b"},
		Inputs: gets("1,2", "1,2,3"),
	})
	if !errors.Is(err, ErrDivergence) {
		t.Fatalf("want ErrDivergence, got %v", err)
	}
}

func TestSIMDDivergenceTernary(t *testing.T) {
	src := `echo intval($_GET["x"]) > 3 ? "hi" : "lo";`
	prog := MustCompile(map[string]string{"main": src})
	_, err := Run(prog, Config{
		Mode: ModeSIMD, Script: "main", RIDs: []string{"a", "b"},
		Inputs: gets("1", "9"),
	})
	if !errors.Is(err, ErrDivergence) {
		t.Fatalf("want ErrDivergence, got %v", err)
	}
}

func TestSIMDDivergenceSwitch(t *testing.T) {
	src := `switch ($_GET["x"]) { case "a": echo 1; break; default: echo 2; }`
	prog := MustCompile(map[string]string{"main": src})
	_, err := Run(prog, Config{
		Mode: ModeSIMD, Script: "main", RIDs: []string{"a", "b"},
		Inputs: gets("a", "z"),
	})
	if !errors.Is(err, ErrDivergence) {
		t.Fatalf("want ErrDivergence, got %v", err)
	}
}

func TestSIMDNoDivergenceSameTruthiness(t *testing.T) {
	// Different values but same truthiness: NOT a divergence (both lanes
	// take the same direction, as the digest would record).
	src := `if (intval($_GET["x"]) > 0) { echo "pos" . $_GET["x"]; } else { echo "neg"; }`
	checkSIMDEquiv(t, src, gets("1", "2"))
}

func TestSIMDFallbackSignal(t *testing.T) {
	src := `__force_fallback(); echo $_GET["x"];`
	prog := MustCompile(map[string]string{"main": src})
	_, err := Run(prog, Config{
		Mode: ModeSIMD, Script: "main", RIDs: []string{"a", "b"},
		Inputs: gets("1", "2"),
	})
	var fe *FallbackError
	if !errors.As(err, &fe) {
		t.Fatalf("want FallbackError, got %v", err)
	}
	// A single-lane group must not trigger the fallback.
	res, err := Run(prog, Config{
		Mode: ModeSIMD, Script: "main", RIDs: []string{"a"}, Inputs: gets("1"),
	})
	if err != nil {
		t.Fatalf("single lane: %v", err)
	}
	if res.Output(0) != "1" {
		t.Fatalf("single lane output %q", res.Output(0))
	}
}

func TestSIMDOutputCopyOnDiverge(t *testing.T) {
	// Shared prefix, divergent middle, shared suffix.
	src := `echo "<header>"; echo $_GET["x"]; echo "<footer>";`
	got, _ := runSIMD(t, src, gets("A", "B"))
	if got[0] != "<header>A<footer>" || got[1] != "<header>B<footer>" {
		t.Fatalf("outputs %v", got)
	}
}

func TestSIMDIssetOnSuperglobals(t *testing.T) {
	// Keys present in only some lanes; isset result differs by lane, but
	// it is only echoed (not branched on), so no divergence.
	src := `echo isset($_GET["y"]) ? "t" : "f";`
	inputs := []RequestInput{
		{Get: map[string]string{"x": "1", "y": "2"}},
		{Get: map[string]string{"x": "1", "y": "2"}},
	}
	checkSIMDEquiv(t, src, inputs)
}

func TestSIMDLargeGroupEquivalence(t *testing.T) {
	src := `
$n = intval($_GET["x"]);
$rows = "";
foreach ([10, 20, 30] as $base) {
  $rows .= "<td>" . ($base + $n % 7) . "</td>";
}
echo "<tr>" . $rows . "</tr>";`
	var inputs []RequestInput
	for i := 0; i < 64; i++ {
		inputs = append(inputs, RequestInput{Get: map[string]string{"x": fmt.Sprint(i * 7)}}) // i*7 % 7 == 0 always: collapses
	}
	res := checkSIMDEquiv(t, src, inputs)
	if res.InstrUni == 0 {
		t.Fatal("expected collapse to univalent execution")
	}
}

func TestSIMDHeterogeneousValuesLargeGroup(t *testing.T) {
	src := `
$q = $_GET["x"];
$page = "<h1>" . htmlspecialchars($q) . "</h1>";
$page .= "<p>common body</p>";
echo $page . strlen($q);`
	var inputs []RequestInput
	for i := 0; i < 32; i++ {
		inputs = append(inputs, RequestInput{Get: map[string]string{"x": fmt.Sprintf("q%d", i)}})
	}
	checkSIMDEquiv(t, src, inputs)
}

func TestSIMDIncDecMulti(t *testing.T) {
	src := `$i = intval($_GET["x"]); $i++; ++$i; echo $i--; echo $i;`
	checkSIMDEquiv(t, src, gets("5", "10"))
}

func TestSIMDCompoundAssignMulti(t *testing.T) {
	src := `$s = "v:"; $s .= $_GET["x"]; $s .= "|end"; echo $s;`
	checkSIMDEquiv(t, src, gets("abc", "d"))
}

func TestSIMDDeepIndexRead(t *testing.T) {
	src := `
$data = ["u1" => ["name" => "alice"], "u2" => ["name" => "bob"]];
echo $data[$_GET["x"]]["name"];`
	checkSIMDEquiv(t, src, gets("u1", "u2"))
}

func TestMultiInvariants(t *testing.T) {
	// NewMulti collapses equal lanes.
	if v := NewMulti([]Value{int64(1), int64(1)}); IsMulti(v) {
		t.Fatal("equal lanes must collapse")
	}
	if v := NewMulti([]Value{int64(1), int64(2)}); !IsMulti(v) {
		t.Fatal("unequal lanes must stay multi")
	}
	// Deep equality for arrays.
	a1, a2 := NewArray(), NewArray()
	a1.Append(int64(5))
	a2.Append(int64(5))
	if v := NewMulti([]Value{a1, a2}); IsMulti(v) {
		t.Fatal("deep-equal arrays must collapse")
	}
	// Expand shares the univalue across lanes; a lane that writes
	// writes its own copy.
	arr := NewArray()
	arr.Append("x")
	lanes := Expand(arr, 3)
	lane0 := lanes[0].(*Array).Own()
	lane0.Append("y")
	lanes[0] = lane0
	if lanes[1].(*Array).Len() != 1 || arr.Len() != 1 || lane0.Len() != 2 {
		t.Fatal("a write to one lane of Expand must not reach the others")
	}
}

func TestMaterializeLane(t *testing.T) {
	inner := NewMulti([]Value{"a", "b"})
	arr := NewArray()
	k, _ := NormalizeKey(Value("cell"))
	arr.Set(k, inner)
	m0 := MaterializeLane(arr, 0).(*Array)
	v, _ := m0.Get(k)
	if v != "a" {
		t.Fatalf("lane 0 cell = %v", v)
	}
	m1 := MaterializeLane(arr, 1).(*Array)
	v, _ = m1.Get(k)
	if v != "b" {
		t.Fatalf("lane 1 cell = %v", v)
	}
	// Arrays without multivalues are returned as-is (no copy needed).
	plain := NewArray()
	plain.Append(int64(1))
	if MaterializeLane(plain, 0).(*Array) != plain {
		t.Fatal("multivalue-free array should not be copied")
	}
}
