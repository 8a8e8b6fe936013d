package lang

import (
	"errors"
	"strings"
	"testing"
)

// Tests for first-class fault results: partial Result alongside the
// RuntimeError, fault-folded digests, and the per-lane error-group
// merge rule in ModeSIMD.

func compileFault(t *testing.T, scripts map[string]string) *Program {
	t.Helper()
	prog, err := Compile(scripts)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return prog
}

func recordRun(t *testing.T, prog *Program, script string, get map[string]string) (*Result, error) {
	t.Helper()
	return Run(prog, Config{
		Mode:   ModeRecord,
		Script: script,
		RIDs:   []string{"r1"},
		Inputs: []RequestInput{{Get: get}},
		Bridge: NopBridge{},
	})
}

func TestRecordFaultReturnsResult(t *testing.T) {
	prog := compileFault(t, map[string]string{
		"boom": `echo "pre"; nosuchfn();`,
		"ok":   `echo "pre";`,
	})
	res, err := recordRun(t, prog, "boom", nil)
	var rt *RuntimeError
	if !errors.As(err, &rt) {
		t.Fatalf("want RuntimeError, got %v", err)
	}
	if res == nil {
		t.Fatal("fault must still produce a Result")
	}
	if res.Digest == 0 {
		t.Fatal("fault result must carry a digest")
	}
	okRes, err := recordRun(t, prog, "ok", nil)
	if err != nil {
		t.Fatal(err)
	}
	if okRes.Digest == res.Digest {
		t.Fatal("a faulted execution must not share a digest with a completed one")
	}
}

func TestFaultDigestSeparatesSites(t *testing.T) {
	// Faults at different sites — or with different messages — must land
	// in different control-flow groups.
	prog := compileFault(t, map[string]string{
		"a": `nosuchfn();`,
		"b": `$x = 1;
$y = 2;
alsonotafn();`,
	})
	ra, erra := recordRun(t, prog, "a", nil)
	rb, errb := recordRun(t, prog, "b", nil)
	if erra == nil || errb == nil {
		t.Fatal("both scripts must fault")
	}
	if ra.Digest == rb.Digest {
		t.Fatal("different fault sites must have different digests")
	}
	// The same fault reproduces the same digest (determinism).
	ra2, _ := recordRun(t, prog, "a", nil)
	if ra.Digest != ra2.Digest {
		t.Fatal("fault digest must be deterministic")
	}
}

func TestUnknownScriptFaultResult(t *testing.T) {
	prog := compileFault(t, map[string]string{"ok": `echo "x";`})
	res, err := recordRun(t, prog, "nope", nil)
	var rt *RuntimeError
	if !errors.As(err, &rt) {
		t.Fatalf("want RuntimeError, got %v", err)
	}
	if !strings.Contains(rt.Msg, "unknown script") {
		t.Fatalf("msg = %q", rt.Msg)
	}
	if res == nil || res.Digest == 0 {
		t.Fatal("unknown script must produce an auditable fault result")
	}
	if res.OpCount != 0 {
		t.Fatalf("OpCount = %d, want 0", res.OpCount)
	}
	res2, _ := recordRun(t, prog, "alsonope", nil)
	if res.Digest == res2.Digest {
		t.Fatal("different unknown script names must not share a digest")
	}
}

func TestSIMDGroupFaultSharedByAllLanes(t *testing.T) {
	// Both lanes reach the same fault: the group faults as a unit and
	// RenderFault matches what each request's server execution rendered.
	prog := compileFault(t, map[string]string{
		"boom": `$x = $_GET["x"]; nosuchfn();`,
	})
	res, err := Run(prog, Config{
		Mode:   ModeSIMD,
		Script: "boom",
		RIDs:   []string{"r1", "r2"},
		Inputs: []RequestInput{{Get: map[string]string{"x": "1"}}, {Get: map[string]string{"x": "2"}}},
		Bridge: NopBridge{},
	})
	var rt *RuntimeError
	if !errors.As(err, &rt) {
		t.Fatalf("want RuntimeError, got %v", err)
	}
	if res == nil {
		t.Fatal("group fault must produce a Result")
	}
	_, serr := recordRun(t, prog, "boom", map[string]string{"x": "1"})
	var srt *RuntimeError
	if !errors.As(serr, &srt) {
		t.Fatal("server-mode run must fault too")
	}
	if RenderFault(rt) != RenderFault(srt) {
		t.Fatalf("group rendering %q != single-lane rendering %q", RenderFault(rt), RenderFault(srt))
	}
}

func TestSIMDPerLaneFaultIsDivergence(t *testing.T) {
	// Lane 0 divides by zero, lane 1 does not: the alleged group did not
	// share control flow, so re-execution must report divergence.
	prog := compileFault(t, map[string]string{
		"div": `$d = $_GET["d"]; echo 10 / intval($d);`,
	})
	_, err := Run(prog, Config{
		Mode:   ModeSIMD,
		Script: "div",
		RIDs:   []string{"r1", "r2"},
		Inputs: []RequestInput{{Get: map[string]string{"d": "0"}}, {Get: map[string]string{"d": "2"}}},
		Bridge: NopBridge{},
	})
	if !errors.Is(err, ErrDivergence) {
		t.Fatalf("want ErrDivergence, got %v", err)
	}
	// Symmetric: the faulting lane last.
	_, err = Run(prog, Config{
		Mode:   ModeSIMD,
		Script: "div",
		RIDs:   []string{"r1", "r2"},
		Inputs: []RequestInput{{Get: map[string]string{"d": "2"}}, {Get: map[string]string{"d": "0"}}},
		Bridge: NopBridge{},
	})
	if !errors.Is(err, ErrDivergence) {
		t.Fatalf("want ErrDivergence, got %v", err)
	}
}

func TestSIMDAllLanesSameFaultPropagates(t *testing.T) {
	// Every lane faults identically inside per-lane execution (both
	// divide by zero): that is a shared group fault, not divergence.
	prog := compileFault(t, map[string]string{
		"div": `$d = $_GET["d"]; $tag = $_GET["tag"]; echo $tag; echo 10 / intval($d);`,
	})
	res, err := Run(prog, Config{
		Mode:   ModeSIMD,
		Script: "div",
		RIDs:   []string{"r1", "r2"},
		Inputs: []RequestInput{
			{Get: map[string]string{"d": "0", "tag": "a"}},
			{Get: map[string]string{"d": "0", "tag": "b"}},
		},
		Bridge: NopBridge{},
	})
	var rt *RuntimeError
	if !errors.As(err, &rt) {
		t.Fatalf("want shared RuntimeError, got %v", err)
	}
	if res == nil {
		t.Fatal("shared group fault must produce a Result")
	}
	if !strings.Contains(rt.Msg, "division by zero") {
		t.Fatalf("msg = %q", rt.Msg)
	}
}

func TestSingleLaneFallbackBecomesFault(t *testing.T) {
	// A FallbackError in a single-lane execution (string offset
	// assignment is deterministic and multivalue-free) converts into an
	// auditable runtime fault with a digest, not an unrecordable error.
	prog := compileFault(t, map[string]string{
		"strset": `$s = "ab"; $s[0] = "x"; echo $s;`,
	})
	res, err := recordRun(t, prog, "strset", nil)
	var rt *RuntimeError
	if !errors.As(err, &rt) {
		t.Fatalf("want converted RuntimeError, got %v", err)
	}
	if !strings.Contains(rt.Msg, "unsupported construct") {
		t.Fatalf("msg = %q", rt.Msg)
	}
	if res == nil || res.Digest == 0 {
		t.Fatal("single-lane fallback must produce an auditable fault result")
	}
	// Multi-lane executions keep FallbackError semantics (the verifier
	// splits the group and replays lanes individually).
	_, err = Run(prog, Config{
		Mode:   ModeSIMD,
		Script: "strset",
		RIDs:   []string{"r1", "r2"},
		Inputs: []RequestInput{{}, {}},
		Bridge: NopBridge{},
	})
	var fb *FallbackError
	if !errors.As(err, &fb) {
		t.Fatalf("multi-lane run must keep FallbackError, got %v", err)
	}
}

func TestRenderFaultIncludesSite(t *testing.T) {
	// The canonical rendering carries the fault site, so the same
	// message at two different lines yields two different bodies — a
	// relocated error response cannot match honest re-execution.
	prog := compileFault(t, map[string]string{
		"a": `echo 1 / 0;`,
		"b": `$x = 1;
echo 1 / 0;`,
	})
	_, erra := recordRun(t, prog, "a", nil)
	_, errb := recordRun(t, prog, "b", nil)
	if erra == nil || errb == nil {
		t.Fatal("both scripts must fault")
	}
	ra, rb := RenderFault(erra), RenderFault(errb)
	if ra == rb {
		t.Fatalf("same message at different sites rendered identically: %q", ra)
	}
	if !strings.Contains(ra, "line 1") || !strings.Contains(rb, "line 2") {
		t.Fatalf("renderings must name their sites: %q, %q", ra, rb)
	}
}

func TestFaultOpCountExcludesFaultedCall(t *testing.T) {
	// A state-op call that faults on its arguments consumes no opnum:
	// the server records no log entry for it, so M must not count it.
	prog := compileFault(t, map[string]string{
		"badcall": `session_get();`,
	})
	res, err := recordRun(t, prog, "badcall", nil)
	var rt *RuntimeError
	if !errors.As(err, &rt) {
		t.Fatalf("want RuntimeError, got %v", err)
	}
	if res.OpCount != 0 {
		t.Fatalf("OpCount = %d, want 0 (the faulting call issued no operation)", res.OpCount)
	}
}

// NopBridge is a Bridge for programs that use no shared state; all state
// operations fail and nondeterministic builtins return zero values. It
// backs the pure-compute tests.
type NopBridge struct{}

func (NopBridge) RegisterRead(string, int, string) (Value, error) {
	return nil, errNoState
}
func (NopBridge) RegisterWrite(string, int, string, Value) error { return errNoState }
func (NopBridge) KvGet(string, int, string) (Value, error)       { return nil, errNoState }
func (NopBridge) KvSet(string, int, string, Value) error         { return errNoState }
func (NopBridge) DBOp(string, int, []string) (Value, error)      { return nil, errNoState }
func (NopBridge) NonDet(string, string, []Value) (Value, error)  { return int64(0), nil }

var errNoState = &RuntimeError{Msg: "no shared-state bridge configured"}
