package lang

import (
	"strings"
	"testing"
)

// foreach iterates a copy of its subject and binds copies of its
// elements. In the production engine both copies share the arrays (the
// writer copies), in the reference engine they are eager; these tests
// pin down the observable semantics.

func TestForeachValueMutationIsolated(t *testing.T) {
	// Mutating $v's interior must not affect the subject array.
	src := `
$a = [[1], [2], [3]];
foreach ($a as $v) {
  $v[0] = 99;
}
echo $a[0][0] . $a[1][0] . $a[2][0];`
	if got := runPlain(t, src, RequestInput{}); got != "123" {
		t.Fatalf("got %q (foreach must bind copies when mutated)", got)
	}
}

func TestForeachValueReassignmentIsolated(t *testing.T) {
	// Plain reassignment of $v never affects the subject.
	src := `
$a = [1, 2, 3];
foreach ($a as $v) {
  $v = $v * 10;
}
echo implode(",", $a);`
	if got := runPlain(t, src, RequestInput{}); got != "1,2,3" {
		t.Fatalf("got %q", got)
	}
}

func TestForeachRefBuiltinOnValueIsolated(t *testing.T) {
	// sort($v) mutates in place; the subject must stay untouched.
	src := `
$a = [[3,1,2]];
foreach ($a as $v) {
  sort($v);
}
echo implode(",", $a[0]);`
	if got := runPlain(t, src, RequestInput{}); got != "3,1,2" {
		t.Fatalf("got %q", got)
	}
}

func TestForeachSubjectAppendDuringLoop(t *testing.T) {
	// Appending to the subject during iteration must not extend the loop.
	src := `
$a = [1, 2];
$n = 0;
foreach ($a as $v) {
  $a[] = 99;
  $n++;
}
echo $n . ":" . count($a);`
	if got := runPlain(t, src, RequestInput{}); got != "2:4" {
		t.Fatalf("got %q", got)
	}
}

func TestForeachSubjectCellReplacementDuringLoop(t *testing.T) {
	// Replacing later cells during iteration: the loop sees the snapshot.
	src := `
$a = [1, 2, 3];
$out = "";
foreach ($a as $i => $v) {
  $a[2] = 100;
  $out .= $v . ",";
}
echo $out;`
	if got := runPlain(t, src, RequestInput{}); got != "1,2,3," {
		t.Fatalf("got %q (iteration must see the snapshot)", got)
	}
}

func TestForeachUnsetSubjectDuringLoop(t *testing.T) {
	src := `
$a = [1, 2, 3];
$out = "";
foreach ($a as $v) {
  unset($a[2]);
  $out .= $v;
}
echo $out . ":" . count($a);`
	if got := runPlain(t, src, RequestInput{}); got != "123:2" {
		t.Fatalf("got %q", got)
	}
}

func TestForeachNestedLoopsSameValVar(t *testing.T) {
	src := `
$outer = [[1,2],[3,4]];
$out = "";
foreach ($outer as $v) {
  foreach ($v as $v2) {
    $out .= $v2;
  }
}
echo $out;`
	if got := runPlain(t, src, RequestInput{}); got != "1234" {
		t.Fatalf("got %q", got)
	}
}

// TestForeachSubjectInteriorWriteIsolated: a write into an element of
// the subject variable during the loop must not reach the element the
// loop bound, at any depth, as in PHP. Both engines must print 11.
func TestForeachSubjectInteriorWriteIsolated(t *testing.T) {
	src := `$a = []; $a[0][0] = 1; $a[1][0] = 2; foreach ($a as $k => $v) { $a[$k][] = 9; echo count($v); }`
	prog := MustCompile(map[string]string{"main": src})
	for _, eng := range []Engine{EngineInterp, EngineCompiled} {
		res, err := Run(prog, Config{
			Mode: ModePlain, Script: "main", RIDs: []string{"r1"},
			Inputs: []RequestInput{{}}, Engine: eng,
		})
		if err != nil {
			t.Fatalf("%s: %v", eng.Name(), err)
		}
		if got := res.Output(0); got != "11" {
			t.Errorf("%s: got %q, want %q", eng.Name(), got, "11")
		}
	}
	diffScript(t, src, engineInputs("1", "2"))
}

func TestForeachSIMDMutationEquivalence(t *testing.T) {
	// The mutation path must behave identically in grouped execution.
	src := `
$rows = [["n" => 1], ["n" => intval($_GET["x"])]];
foreach ($rows as $v) {
  $v["n"] = $v["n"] * 2;
  echo $v["n"] . ";";
}
echo $rows[1]["n"];`
	checkSIMDEquiv(t, src, gets("5", "9"))
}

func TestForeachBreakInsideSwitch(t *testing.T) {
	// break inside switch binds to the switch, not the loop (PHP).
	src := `
foreach ([1, 2, 3] as $v) {
  switch ($v) {
    case 2: echo "two"; break;
    default: echo $v;
  }
}`
	if got := runPlain(t, src, RequestInput{}); got != "1two3" {
		t.Fatalf("got %q", got)
	}
}

func TestStringBuilderPattern(t *testing.T) {
	// The dominant app pattern: accumulate HTML into a string across
	// nested calls and loops.
	src := `
function row($cells) {
  $out = "<tr>";
  foreach ($cells as $c) { $out .= "<td>" . $c . "</td>"; }
  return $out . "</tr>";
}
$html = "";
foreach ([[1,2],[3,4]] as $r) {
  $html .= row($r);
}
echo $html;`
	want := "<tr><td>1</td><td>2</td></tr><tr><td>3</td><td>4</td></tr>"
	if got := runPlain(t, src, RequestInput{}); got != want {
		t.Fatalf("got %q", got)
	}
	if !strings.Contains(want, "<td>1</td>") {
		t.Fatal("sanity")
	}
}
