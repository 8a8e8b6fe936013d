package verifier

import (
	"context"
	"testing"

	"orochi/internal/lang"
	"orochi/internal/reports"
	"orochi/internal/trace"
)

// TestOOOAcceptsHonest: the Appendix A out-of-order audit accepts honest
// concurrent executions.
func TestOOOAcceptsHonest(t *testing.T) {
	prog := compileApp(t)
	tr, art := serveWorkload(t, prog, sampleInputs(30), 6)
	res, err := OOOAuditContext(context.Background(), prog, tr, art.srv.Reports(), art.snap)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Fatalf("OOO audit rejected honest run: %s", res.Reason)
	}
	if res.Stats.RequestsReplayed != 30 {
		t.Fatalf("replayed %d", res.Stats.RequestsReplayed)
	}
}

// TestOOODifferentialWithSIMD: the grouped verifier and the OOO verifier
// must agree on every verdict — honest and tampered (Lemma 8 made
// executable).
func TestOOODifferentialWithSIMD(t *testing.T) {
	prog := compileApp(t)
	tr, art := serveWorkload(t, prog, sampleInputs(25), 4)

	tampers := []struct {
		name string
		mut  func(*reports.Reports)
	}{
		{"honest", func(*reports.Reports) {}},
		{"forged-write", func(rep *reports.Reports) {
			for i := range rep.OpLogs {
				for j := range rep.OpLogs[i] {
					if rep.OpLogs[i][j].Type == lang.RegisterWrite {
						rep.OpLogs[i][j].Value = lang.EncodeValue(lang.Value("evil"))
						return
					}
				}
			}
		}},
		{"dropped-entry", func(rep *reports.Reports) {
			for i := range rep.OpLogs {
				if len(rep.OpLogs[i]) > 0 {
					rep.OpLogs[i] = rep.OpLogs[i][1:]
					return
				}
			}
		}},
		{"wrong-count", func(rep *reports.Reports) {
			for rid, m := range rep.OpCounts {
				if m > 0 {
					rep.OpCounts[rid] = m - 1
					return
				}
			}
		}},
		{"missing-group-member", func(rep *reports.Reports) {
			for tag, rids := range rep.Groups {
				if len(rids) > 0 {
					rep.Groups[tag] = rids[1:]
					return
				}
			}
		}},
	}
	for _, tc := range tampers {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			rep := art.srv.Reports().Clone()
			tc.mut(rep)
			simd, err := AuditContext(context.Background(), prog, tr, rep, art.snap, Options{})
			if err != nil {
				t.Fatal(err)
			}
			ooo, err := OOOAuditContext(context.Background(), prog, tr, rep, art.snap)
			if err != nil {
				t.Fatal(err)
			}
			// One caveat: group membership does not exist in the OOO
			// audit (it replays every traced request), so the
			// missing-group-member tamper is only caught by the grouped
			// verifier's coverage check.
			if tc.name == "missing-group-member" {
				if simd.Accepted {
					t.Fatal("grouped verifier must reject missing group member")
				}
				return
			}
			if simd.Accepted != ooo.Accepted {
				t.Fatalf("verdicts disagree: SIMD=%v (%s) OOO=%v (%s)",
					simd.Accepted, simd.Reason, ooo.Accepted, ooo.Reason)
			}
		})
	}
}

// TestOOORejectsFigure4a: the ordering attacks are caught before any
// re-execution, identically in both verifiers.
func TestOOORejectsFigure4a(t *testing.T) {
	prog, err := lang.Compile(fig4App)
	if err != nil {
		t.Fatal(err)
	}
	tr := &trace.Trace{Events: []trace.Event{
		fig4Event(trace.Request, "r1", 1, "f", ""),
		fig4Event(trace.Response, "r1", 2, "", "1"),
		fig4Event(trace.Request, "r2", 3, "g", ""),
		fig4Event(trace.Response, "r2", 4, "", "0"),
	}}
	olA := []reports.OpEntry{rOp("r2", 2, "A"), wOp("r1", 1, "A")}
	olB := []reports.OpEntry{wOp("r2", 1, "B"), rOp("r1", 2, "B")}
	res, err := OOOAuditContext(context.Background(), prog, tr, fig4Reports(olA, olB), fig4Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted {
		t.Fatal("OOO audit must reject Figure 4(a)")
	}
}

// TestOOOAcceptsFigure4c: and the legal concurrent interleaving passes.
func TestOOOAcceptsFigure4c(t *testing.T) {
	prog, err := lang.Compile(fig4App)
	if err != nil {
		t.Fatal(err)
	}
	tr := &trace.Trace{Events: []trace.Event{
		fig4Event(trace.Request, "r1", 1, "f", ""),
		fig4Event(trace.Request, "r2", 2, "g", ""),
		fig4Event(trace.Response, "r1", 3, "", "1"),
		fig4Event(trace.Response, "r2", 4, "", "1"),
	}}
	olA := []reports.OpEntry{wOp("r1", 1, "A"), rOp("r2", 2, "A")}
	olB := []reports.OpEntry{wOp("r2", 1, "B"), rOp("r1", 2, "B")}
	res, err := OOOAuditContext(context.Background(), prog, tr, fig4Reports(olA, olB), fig4Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Fatalf("OOO audit must accept Figure 4(c): %s", res.Reason)
	}
}

// TestOOORejectsTamperedResponse: output comparison works per request.
func TestOOORejectsTamperedResponse(t *testing.T) {
	prog := compileApp(t)
	tr, art := serveWorkload(t, prog, sampleInputs(10), 2)
	// Tamper the trace body directly (equivalent to a tampered wire).
	for i := range tr.Events {
		if tr.Events[i].Kind == trace.Response {
			tr.Events[i].Body += "<!--evil-->"
			break
		}
	}
	res, err := OOOAuditContext(context.Background(), prog, tr, art.srv.Reports(), art.snap)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted {
		t.Fatal("OOO audit must reject tampered response")
	}
}

// TestOOOExtraOpsRejected: a request that wants more ops than M claims
// fails CheckOp inside the drained finish loop.
func TestOOOExtraOpsRejected(t *testing.T) {
	prog := compileApp(t)
	tr, art := serveWorkload(t, prog, []trace.Input{
		{Script: "visit", Cookie: map[string]string{"user": "zed"}},
	}, 1)
	rep := art.srv.Reports().Clone()
	// Claim fewer ops than really happened AND truncate the logs to
	// match, so ProcessOpReports passes but re-execution wants more.
	var rid string
	for r := range rep.OpCounts {
		rid = r
	}
	m := rep.OpCounts[rid]
	if m < 2 {
		t.Skip("need at least 2 ops")
	}
	rep.OpCounts[rid] = m - 1
	for i := range rep.OpLogs {
		var kept []reports.OpEntry
		for _, e := range rep.OpLogs[i] {
			if e.RID == rid && e.Opnum == m {
				continue
			}
			kept = append(kept, e)
		}
		rep.OpLogs[i] = kept
	}
	res, err := OOOAuditContext(context.Background(), prog, tr, rep, art.snap)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted {
		t.Fatal("request issuing more ops than M must be rejected")
	}
}
