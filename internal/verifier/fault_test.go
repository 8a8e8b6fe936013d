package verifier

import (
	"context"
	"strings"
	"testing"

	"orochi/internal/lang"
	"orochi/internal/server"
	"orochi/internal/trace"
)

// Tests for audit completeness over faulted requests: error responses
// are recorded, re-executed as error groups, and verified end to end.

// faultApp mixes healthy handlers with ones that fault in different
// ways, including after issuing state operations.
var faultApp = map[string]string{
	"ok": `
$n = intval($_GET["n"]);
echo "ok " . ($n * 2);
`,
	"boom": `nosuchfn();`,
	"latefault": `
session_set("mark", "set");
$x = session_get("mark");
echo "before ";
nosuchfn();
echo "never";
`,
	"badsql": `
$rows = db_query("SELECT * FROM nowhere");
foreach ($rows as $row) { echo "row"; }
echo "done";
`,
	"divzero": `
$d = intval($_GET["d"]);
echo 10 / $d;
`,
	"readmark": `
if (session_get("mark") === "set") {
  nosuchfn();
} else {
  echo "no mark";
}
`,
	"strset": `$s = "ab"; $s[0] = "x"; echo $s;`,
}

func compileFaultApp(t *testing.T) *lang.Program {
	t.Helper()
	prog, err := lang.Compile(faultApp)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return prog
}

// serveFaultMix serves a period mixing successful and faulted requests
// (runtime fault, post-state-op fault, unknown script) and returns the
// artifacts.
func serveFaultMix(t *testing.T, prog *lang.Program) *server.Server {
	t.Helper()
	srv := server.New(prog, server.Options{Record: true})
	inputs := []trace.Input{
		{Script: "ok", Get: map[string]string{"n": "3"}},
		{Script: "boom"},
		{Script: "ok", Get: map[string]string{"n": "4"}},
		{Script: "boom"},
		{Script: "latefault"},
		{Script: "nosuchscript"},
		{Script: "divzero", Get: map[string]string{"d": "0"}},
		{Script: "divzero", Get: map[string]string{"d": "2"}},
		{Script: "strset"},
		{Script: "strset"},
	}
	srv.ServeAllContext(context.Background(), inputs, 2)
	return srv
}

func TestFaultMixAccepts(t *testing.T) {
	prog := compileFaultApp(t)
	srv := serveFaultMix(t, prog)
	snap := srv.Snapshot()
	_ = snap
	res, err := AuditContext(context.Background(), prog, srv.Trace(), srv.Reports(), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Fatalf("honest mixed period must accept, got: %s", res.Reason)
	}
	// Every request — including the faulted ones — was replayed.
	if res.Stats.RequestsReplayed != 10 {
		t.Fatalf("replayed %d requests, want 10", res.Stats.RequestsReplayed)
	}
	// The two identical boom requests share one (deduplicated) error
	// group: re-execution ran them as a single two-lane group.
	rep := srv.Reports()
	tags := 0
	for _, rids := range rep.Groups {
		if len(rids) == 2 {
			tags++
		}
	}
	if tags == 0 {
		t.Fatal("identical faulted requests were not grouped together")
	}
}

func TestFaultMixOOOAccepts(t *testing.T) {
	// The Appendix A out-of-order audit covers faulted requests too.
	prog := compileFaultApp(t)
	srv := serveFaultMix(t, prog)
	res, err := OOOAuditContext(context.Background(), prog, srv.Trace(), srv.Reports(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Fatalf("OOO audit of honest mixed period must accept, got: %s", res.Reason)
	}
}

func TestFaultAfterStateOpsRecordsPartialM(t *testing.T) {
	// A handler that issues state operations before faulting records a
	// partial op count, and the redo pass applies its writes — the fault
	// does not roll back shared-object effects.
	prog := compileFaultApp(t)
	srv := server.New(prog, server.Options{Record: true})
	rid, body := srv.Handle(trace.Input{Script: "latefault"})
	if !strings.HasPrefix(body, "HTTP 500") {
		t.Fatalf("body = %q", body)
	}
	rep := srv.Reports()
	if got := rep.OpCounts[rid]; got != 2 {
		t.Fatalf("M(%s) = %d, want 2 (session_set + session_get before the fault)", rid, got)
	}
	res, err := AuditContext(context.Background(), prog, srv.Trace(), rep, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Fatalf("accept expected, got: %s", res.Reason)
	}
	snap, err := res.FinalSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := snap.Registers["mark"]; !ok || lang.ToString(v) != "set" {
		t.Fatalf("final snapshot lost the pre-fault register write: %v", snap.Registers)
	}
}

func TestForgedErrorGroupRejected(t *testing.T) {
	// Relocating a successful request into an error group must reject:
	// its traced response cannot equal the canonical fault rendering.
	prog := compileFaultApp(t)
	srv := server.New(prog, server.Options{Record: true})
	srv.Handle(trace.Input{Script: "ok", Get: map[string]string{"n": "3"}})
	srv.Handle(trace.Input{Script: "boom"})
	rep := srv.Reports().Clone()
	// Find the two groups and merge the ok request into the boom group.
	var okTag, boomTag uint64
	for tag, script := range rep.Scripts {
		if script == "ok" {
			okTag = tag
		} else {
			boomTag = tag
		}
	}
	rep.Groups[boomTag] = append(rep.Groups[boomTag], rep.Groups[okTag]...)
	delete(rep.Groups, okTag)
	delete(rep.Scripts, okTag)
	res, err := AuditContext(context.Background(), prog, srv.Trace(), rep, srv.Snapshot(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted {
		t.Fatal("successful request forged into an error group must reject")
	}
}

func TestRelocatedFaultSiteRejected(t *testing.T) {
	// Claiming a faulted request belongs to a group of a DIFFERENT fault
	// site must reject: re-execution faults somewhere else, so the
	// rendering cannot match the traced response.
	prog := compileFaultApp(t)
	srv := server.New(prog, server.Options{Record: true})
	srv.Handle(trace.Input{Script: "boom"})
	srv.Handle(trace.Input{Script: "badsql"})
	rep := srv.Reports().Clone()
	var boomTag, sqlTag uint64
	for tag, script := range rep.Scripts {
		if script == "boom" {
			boomTag = tag
		} else {
			sqlTag = tag
		}
	}
	// Move the boom request into the badsql group: the executor alleges
	// it faulted at the badsql site.
	rep.Groups[sqlTag] = append(rep.Groups[sqlTag], rep.Groups[boomTag]...)
	delete(rep.Groups, boomTag)
	delete(rep.Scripts, boomTag)
	res, err := AuditContext(context.Background(), prog, srv.Trace(), rep, srv.Snapshot(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted {
		t.Fatal("fault relocated to a different site must reject")
	}
}

func TestForgedUnknownScriptDenialRejected(t *testing.T) {
	// The denial attack: the executor skips executing a request to a
	// VALID script, serves the canonical fault of a nonexistent script,
	// and groups the rid under that script name. Re-execution would
	// faithfully reproduce the forged fault, so runGroup must reject on
	// the trace's script instead.
	prog := compileFaultApp(t)
	rt := &lang.RuntimeError{Msg: `unknown script "zzz"`}
	srv := server.New(prog, server.Options{Record: true, TamperResponse: func(rid, body string) string {
		return lang.RenderFault(rt)
	}})
	rid, body := srv.Handle(trace.Input{Script: "ok", Get: map[string]string{"n": "3"}})
	if !strings.HasPrefix(body, "HTTP 500") {
		t.Fatalf("tamper did not fire: %q", body)
	}
	rep := srv.Reports().Clone()
	// Rewrite the reports the way the malicious executor would: the rid
	// moves into an error group for the bogus script with M = 0.
	d := lang.NewDigest("zzz")
	d.Fault(rt.Line, rt.Msg)
	rep.Groups = map[uint64][]string{d.Sum(): {rid}}
	rep.Scripts = map[uint64]string{d.Sum(): "zzz"}
	rep.OpCounts = map[string]int{rid: 0}
	res, err := AuditContext(context.Background(), prog, srv.Trace(), rep, srv.Snapshot(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted {
		t.Fatal("forged unknown-script denial must be rejected")
	}
	if !strings.Contains(res.Reason, "arrived for") {
		t.Logf("reason: %s", res.Reason)
	}
}

func TestTamperedFaultSiteRejected(t *testing.T) {
	// Editing only the fault site in the served error body must reject:
	// the rendering is canonical, and re-execution derives the true
	// site.
	prog := compileFaultApp(t)
	srv := server.New(prog, server.Options{Record: true, TamperResponse: func(rid, body string) string {
		return strings.Replace(body, "line 1", "line 7", 1)
	}})
	_, body := srv.Handle(trace.Input{Script: "boom"})
	if !strings.Contains(body, "line 7") {
		t.Fatalf("tamper did not fire: %q", body)
	}
	res, err := AuditContext(context.Background(), prog, srv.Trace(), srv.Reports(), srv.Snapshot(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted {
		t.Fatal("relocated fault site in the response must be rejected")
	}
}

func TestPerLaneFaultDivergenceRejected(t *testing.T) {
	// A group whose lanes fault differently (one divides by zero, the
	// other does not) is divergence: the grouping report lied.
	prog := compileFaultApp(t)
	srv := server.New(prog, server.Options{Record: true})
	srv.Handle(trace.Input{Script: "divzero", Get: map[string]string{"d": "0"}})
	srv.Handle(trace.Input{Script: "divzero", Get: map[string]string{"d": "2"}})
	rep := srv.Reports().Clone()
	if len(rep.Groups) != 2 {
		t.Fatalf("expected 2 groups (one faulted, one not), got %d", len(rep.Groups))
	}
	// Merge both requests into a single alleged group.
	var all []string
	var keep uint64
	for tag, rids := range rep.Groups {
		all = append(all, rids...)
		keep = tag
	}
	rep.Groups = map[uint64][]string{keep: all}
	rep.Scripts = map[uint64]string{keep: "divzero"}
	res, err := AuditContext(context.Background(), prog, srv.Trace(), rep, srv.Snapshot(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted {
		t.Fatal("mixed fault/success lanes in one group must reject")
	}
}

func TestUndecodableRegisterWriteRejected(t *testing.T) {
	// Phase 2 must reject a register write the verifier cannot decode;
	// otherwise, when it is the register's last write, finalRegisters
	// would silently chain a stale value into the next epoch's trusted
	// snapshot under a clean ACCEPT.
	prog := compileFaultApp(t)
	srv := server.New(prog, server.Options{Record: true})
	srv.Handle(trace.Input{Script: "latefault"})
	rep := srv.Reports().Clone()
	tampered := false
	for i := range rep.OpLogs {
		for j := range rep.OpLogs[i] {
			if rep.OpLogs[i][j].Type == lang.RegisterWrite {
				rep.OpLogs[i][j].Value = "\x00garbage"
				tampered = true
			}
		}
	}
	if !tampered {
		t.Fatal("no register write found to tamper")
	}
	res, err := AuditContext(context.Background(), prog, srv.Trace(), rep, srv.Snapshot(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted {
		t.Fatal("undecodable register write must be rejected")
	}
	if !strings.Contains(res.Reason, "undecodable register write") {
		t.Fatalf("rejection should name the undecodable write, got: %s", res.Reason)
	}
}

func TestFaultedPeriodChainsSnapshot(t *testing.T) {
	// Two periods: period 1's faulted request wrote a register before
	// faulting; period 2's request branches on that register and faults
	// only when it sees the chained value. The chained snapshot must
	// make period 2 accept, and a stale (empty) snapshot must reject —
	// the fault path itself depends on the §4.1/§4.5 hand-off.
	prog := compileFaultApp(t)
	srv := server.New(prog, server.Options{Record: true})
	srv.Handle(trace.Input{Script: "latefault"})
	tr1, rep1 := srv.Trace(), srv.Reports()
	srv.NewPeriod()
	_, body := srv.Handle(trace.Input{Script: "readmark"})
	if !strings.HasPrefix(body, "HTTP 500") {
		t.Fatalf("period 2 should fault on the inherited register, got %q", body)
	}
	tr2, rep2 := srv.Trace(), srv.Reports()

	res1, err := AuditContext(context.Background(), prog, tr1, rep1, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res1.Accepted {
		t.Fatalf("period 1: %s", res1.Reason)
	}
	chained, err := res1.FinalSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	res2, err := AuditContext(context.Background(), prog, tr2, rep2, chained, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Accepted {
		t.Fatalf("period 2 under chained state: %s", res2.Reason)
	}
	// Under a stale initial state the branch flips: re-execution
	// completes with "no mark" while the trace says the request faulted.
	res2stale, err := AuditContext(context.Background(), prog, tr2, rep2, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res2stale.Accepted {
		t.Fatal("period 2 accepted under stale initial state")
	}
}
