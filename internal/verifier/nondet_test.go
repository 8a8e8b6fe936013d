package verifier

import (
	"context"
	"strings"
	"testing"

	"orochi/internal/lang"
	"orochi/internal/server"
	"orochi/internal/trace"
)

// Tests for the non-determinism plausibility checks (§4.6) and other
// report-validation edges.

func serveNow(t *testing.T, n int) (*lang.Program, *trace.Trace, *serverArtifacts) {
	t.Helper()
	prog := compileApp(t)
	inputs := make([]trace.Input, n)
	for i := range inputs {
		inputs[i] = trace.Input{Script: "now"}
	}
	tr, art := serveWorkload(t, prog, inputs, 1)
	return prog, tr, art
}

func TestNonDetTimeBackwardsRejected(t *testing.T) {
	// A script with two time() calls; the tampered report makes the
	// second recorded time precede the first.
	prog2, err := lang.Compile(map[string]string{
		"twotimes": `$a = time(); $b = time(); echo ($b >= $a) ? "mono" : "backwards";`,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := newServerForTest(t, prog2)
	srv.Handle(trace.Input{Script: "twotimes"})
	rep2 := srv.Reports().Clone()
	for rid := range rep2.NonDet {
		if len(rep2.NonDet[rid]) == 2 {
			rep2.NonDet[rid][0].Value = lang.EncodeValue(lang.Value(int64(2_000_000_000)))
			rep2.NonDet[rid][1].Value = lang.EncodeValue(lang.Value(int64(1_000_000_000)))
		}
	}
	res, err := AuditContext(context.Background(), prog2, srv.Trace(), rep2, srv.Snapshot(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted {
		t.Fatal("time going backwards within a request must be rejected")
	}
	if !strings.Contains(res.Reason, "backwards") && !strings.Contains(res.Reason, "output") {
		t.Logf("reason: %s", res.Reason)
	}
}

func TestNonDetFnMismatchRejected(t *testing.T) {
	_, tr, art := serveNow(t, 1)
	rep := art.srv.Reports().Clone()
	for rid := range rep.NonDet {
		for i := range rep.NonDet[rid] {
			if rep.NonDet[rid][i].Fn == "time" {
				rep.NonDet[rid][i].Fn = "mt_rand"
			}
		}
	}
	prog := compileApp(t)
	res, err := AuditContext(context.Background(), prog, tr, rep, art.snap, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted {
		t.Fatal("nondet function-name mismatch must be rejected")
	}
}

func TestNonDetExhaustionRejected(t *testing.T) {
	_, tr, art := serveNow(t, 1)
	rep := art.srv.Reports().Clone()
	for rid := range rep.NonDet {
		rep.NonDet[rid] = rep.NonDet[rid][:0]
	}
	prog := compileApp(t)
	res, err := AuditContext(context.Background(), prog, tr, rep, art.snap, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted {
		t.Fatal("missing nondet records must be rejected")
	}
}

func TestNonDetUndecodableRejected(t *testing.T) {
	_, tr, art := serveNow(t, 1)
	rep := art.srv.Reports().Clone()
	for rid := range rep.NonDet {
		for i := range rep.NonDet[rid] {
			rep.NonDet[rid][i].Value = "garbage"
		}
	}
	prog := compileApp(t)
	res, err := AuditContext(context.Background(), prog, tr, rep, art.snap, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted {
		t.Fatal("undecodable nondet values must be rejected")
	}
}

func TestWrongScriptInGroupRejected(t *testing.T) {
	prog := compileApp(t)
	inputs := []trace.Input{{Script: "list"}}
	tr, art := serveWorkload(t, prog, inputs, 1)
	rep := art.srv.Reports().Clone()
	for tag := range rep.Scripts {
		rep.Scripts[tag] = "now" // claim a different entry point
	}
	res, err := AuditContext(context.Background(), prog, tr, rep, art.snap, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted {
		t.Fatal("wrong script mapping must be rejected")
	}
}

func TestUnknownScriptInGroupRejected(t *testing.T) {
	prog := compileApp(t)
	inputs := []trace.Input{{Script: "list"}}
	tr, art := serveWorkload(t, prog, inputs, 1)
	rep := art.srv.Reports().Clone()
	for tag := range rep.Scripts {
		rep.Scripts[tag] = "no-such-script"
	}
	res, err := AuditContext(context.Background(), prog, tr, rep, art.snap, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted {
		t.Fatal("unknown script in group must be rejected")
	}
}

func TestServer500Audits(t *testing.T) {
	// A request whose handler raises a runtime error produces the
	// canonical error response AND a group membership: faulted requests
	// are first-class auditable outcomes, so an honest period containing
	// one ACCEPTs (the §A.1 "programs run to completion" boundary is
	// lifted).
	prog, err := lang.Compile(map[string]string{
		"boom": `nosuchfn();`,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := newServerForTest(t, prog)
	_, body := srv.Handle(trace.Input{Script: "boom"})
	if !strings.HasPrefix(body, "HTTP 500") {
		t.Fatalf("body = %q", body)
	}
	res, err := AuditContext(context.Background(), prog, srv.Trace(), srv.Reports(), srv.Snapshot(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Fatalf("honest faulted request must be accepted, got: %s", res.Reason)
	}
}

func TestServer500TamperedBodyRejected(t *testing.T) {
	// The same faulted request with the error body edited on the wire: a
	// tampered error response must still REJECT (soundness is preserved
	// by re-deriving the canonical rendering during re-execution).
	prog, err := lang.Compile(map[string]string{
		"boom": `nosuchfn();`,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(prog, server.Options{Record: true, TamperResponse: func(rid, body string) string {
		return strings.Replace(body, "nosuchfn", "harmless", 1)
	}})
	_, body := srv.Handle(trace.Input{Script: "boom"})
	if !strings.HasPrefix(body, "HTTP 500") {
		t.Fatalf("body = %q", body)
	}
	res, err := AuditContext(context.Background(), prog, srv.Trace(), srv.Reports(), srv.Snapshot(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted {
		t.Fatal("tampered error body must be rejected")
	}
}

func TestVerdictDeterminism(t *testing.T) {
	prog := compileApp(t)
	tr, art := serveWorkload(t, prog, sampleInputs(20), 4)
	r1, err := AuditContext(context.Background(), prog, tr, art.srv.Reports(), art.snap, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := AuditContext(context.Background(), prog, tr, art.srv.Reports(), art.snap, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Accepted != r2.Accepted {
		t.Fatal("audit verdict must be deterministic")
	}
}

// newServerForTest builds a recording server for a custom program.
func newServerForTest(t *testing.T, prog *lang.Program) *server.Server {
	t.Helper()
	return server.New(prog, server.Options{Record: true})
}
