package verifier

import (
	"bytes"
	"context"
	"reflect"
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

// TestOOOFinalSnapshotMatchesGrouped: an accepted OOO audit hands on the
// same final state as the grouped one — tables, KV entries and the
// registers' last writes — byte for byte.
func TestOOOFinalSnapshotMatchesGrouped(t *testing.T) {
	prog := compileApp(t)
	tr, art := serveWorkload(t, prog, sampleInputs(30), 6)
	var raw [2][]byte
	for i, audit := range []func() (*Result, error){
		func() (*Result, error) {
			return AuditContext(context.Background(), prog, tr, art.srv.Reports(), art.snap, Options{})
		},
		func() (*Result, error) {
			return OOOAuditContext(context.Background(), prog, tr, art.srv.Reports(), art.snap)
		},
	} {
		res, err := audit()
		if err != nil || !res.Accepted {
			t.Fatalf("audit %d: %v %+v", i, err, res)
		}
		snap, err := res.FinalSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		if len(snap.Registers) == 0 || len(snap.KV) == 0 {
			t.Fatalf("audit %d: final snapshot has %d registers and %d KV entries",
				i, len(snap.Registers), len(snap.KV))
		}
		if raw[i], err = snap.EncodeRaw(); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(raw[0], raw[1]) {
		t.Fatalf("final snapshots differ: grouped %d bytes, OOO %d bytes", len(raw[0]), len(raw[1]))
	}
}

// TestOOODifferentialWithSIMD: the grouped verifier and the OOO verifier
// must agree on every verdict — honest and tampered (Lemma 8 made
// executable) — and on its reason and forensics. The two run the same
// Phases 1–2, so a tamper those phases catch is reported identically;
// a Phase-3 failure is too, apart from the batch coordinates that only
// grouping has.
func TestOOODifferentialWithSIMD(t *testing.T) {
	prog := compileApp(t)
	tr, art := serveWorkload(t, prog, sampleInputs(25), 4)

	// firstEntry returns the first entry of the first log of an object
	// of the given kind.
	firstEntry := func(rep *reports.Reports, kind reports.ObjectKind) *reports.OpEntry {
		for i, o := range rep.Objects {
			if o.Kind == kind && len(rep.OpLogs[i]) > 0 {
				return &rep.OpLogs[i][0]
			}
		}
		t.Fatalf("no %v log with entries", kind)
		return nil
	}
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
		{"undecodable-register-write", func(rep *reports.Reports) {
			for i := range rep.OpLogs {
				for j := range rep.OpLogs[i] {
					if rep.OpLogs[i][j].Type == lang.RegisterWrite {
						rep.OpLogs[i][j].Value = "\xff not a value"
						return
					}
				}
			}
		}},
		{"kv-entry-retyped", func(rep *reports.Reports) {
			firstEntry(rep, reports.KVObj).Type = lang.RegisterRead
		}},
		{"register-entry-other-key", func(rep *reports.Reports) {
			firstEntry(rep, reports.RegisterObj).Key = "some_other_register"
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
			if (tc.name == "honest") != simd.Accepted {
				t.Fatalf("accepted = %v: %s", simd.Accepted, simd.Reason)
			}
			want := simd.Forensics
			if want != nil && want.Phase == PhaseReExec {
				cp := *want
				cp.GroupTag, cp.Chunk, cp.GroupSize = "", 0, 0
				want = &cp
			}
			if simd.Reason != ooo.Reason || !reflect.DeepEqual(want, ooo.Forensics) {
				t.Fatalf("rejections differ:\nSIMD %q %+v\nOOO  %q %+v", simd.Reason, want, ooo.Reason, ooo.Forensics)
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
