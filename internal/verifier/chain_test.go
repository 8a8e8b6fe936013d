package verifier

import (
	"bytes"
	"context"
	"testing"

	"orochi/internal/reports"
	"orochi/internal/trace"
)

// TestAuditPeriodChaining exercises §4.1/§4.5: contiguous audit periods
// chain — the verifier derives period N+1's initial object state from
// period N's accepted audit, without ever asking the server for state.
func TestAuditPeriodChaining(t *testing.T) {
	prog := compileApp(t)
	srv := newServerForTest(t, prog)
	if err := srv.Setup(testSchema); err != nil {
		t.Fatal(err)
	}
	initState := srv.Snapshot()

	// Period 1: create posts, vote, accumulate sessions and APC state.
	period1 := []trace.Input{
		{Script: "post", Post: map[string]string{"title": "first"}},
		{Script: "post", Post: map[string]string{"title": "second"}},
		{Script: "vote", Get: map[string]string{"id": "1"}},
		{Script: "visit", Cookie: map[string]string{"user": "alice"}},
		{Script: "visit", Cookie: map[string]string{"user": "alice"}},
		{Script: "now"},
	}
	srv.ServeAllContext(context.Background(), period1, 3)
	res1, err := AuditContext(context.Background(), prog, srv.Trace(), srv.Reports(), initState, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res1.Accepted {
		t.Fatalf("period 1 rejected: %s", res1.Reason)
	}
	chained, err := res1.FinalSnapshot()
	if err != nil {
		t.Fatal(err)
	}

	// The server keeps running into period 2 with its live state; the
	// verifier will audit period 2 against the state it derived itself.
	srv.NewPeriod()
	period2 := []trace.Input{
		{Script: "visit", Cookie: map[string]string{"user": "alice"}}, // continues her count
		{Script: "vote", Get: map[string]string{"id": "1"}},           // sees period-1 votes
		{Script: "list"},
		{Script: "post", Post: map[string]string{"title": "third"}}, // id continues from autoinc
	}
	srv.ServeAllContext(context.Background(), period2, 2)
	tr2 := srv.Trace()
	res2, err := AuditContext(context.Background(), prog, tr2, srv.Reports(), chained, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Accepted {
		t.Fatalf("period 2 rejected: %s", res2.Reason)
	}

	// Sanity: period 2 actually depended on period-1 state — alice's
	// third visit must say "visit 3" and the list must show all posts.
	sawVisit3, sawThird := false, false
	for _, ev := range tr2.Events {
		if ev.Kind != trace.Response {
			continue
		}
		if contains(ev.Body, "visit 3") {
			sawVisit3 = true
		}
		if contains(ev.Body, "created post 3") {
			sawThird = true
		}
	}
	if !sawVisit3 {
		t.Fatal("alice's session did not carry across periods")
	}
	if !sawThird {
		t.Fatal("auto-increment did not carry across periods")
	}
}

// TestChainingCarriesAutoIncrementPastDeletedMax: the hand-off must carry
// the table's auto-increment counter, not re-derive it from the surviving
// rows. Period 1 deletes the max-id row, so the live server's counter (3)
// is past max(id)+1 (2); period 2's auto-insert gets id 3 online, and the
// chained redo must assign 3 too or an honest server is rejected.
func TestChainingCarriesAutoIncrementPastDeletedMax(t *testing.T) {
	prog := compileApp(t)
	srv := newServerForTest(t, prog)
	if err := srv.Setup(testSchema); err != nil {
		t.Fatal(err)
	}
	initState := srv.Snapshot()
	srv.ServeAllContext(context.Background(), []trace.Input{
		{Script: "post", Post: map[string]string{"title": "kept"}},
		{Script: "post", Post: map[string]string{"title": "doomed"}},
		{Script: "unpost", Get: map[string]string{"id": "2"}},
	}, 1)
	res1, err := AuditContext(context.Background(), prog, srv.Trace(), srv.Reports(), initState, Options{})
	if err != nil || !res1.Accepted {
		t.Fatalf("period 1: %v %+v", err, res1)
	}
	chained, err := res1.FinalSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	srv.NewPeriod()
	srv.ServeAllContext(context.Background(), []trace.Input{
		{Script: "post", Post: map[string]string{"title": "after"}},
		{Script: "list"},
	}, 1)
	tr2 := srv.Trace()
	sawThird := false
	for _, ev := range tr2.Events {
		sawThird = sawThird || (ev.Kind == trace.Response && contains(ev.Body, "created post 3"))
	}
	if !sawThird {
		t.Fatal("the live server did not assign id 3: the scenario is not exercised")
	}
	res2, err := AuditContext(context.Background(), prog, tr2, srv.Reports(), chained, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Accepted {
		t.Fatalf("honest period 2 rejected: %s", res2.Reason)
	}
}

// TestChainedSnapshotRejectedIfStale: feeding the wrong initial state
// (period 1's start instead of its end) must fail period 2's audit.
func TestChainedSnapshotRejectedIfStale(t *testing.T) {
	prog := compileApp(t)
	srv := newServerForTest(t, prog)
	if err := srv.Setup(testSchema); err != nil {
		t.Fatal(err)
	}
	initState := srv.Snapshot()
	srv.ServeAllContext(context.Background(), []trace.Input{
		{Script: "post", Post: map[string]string{"title": "x"}},
		{Script: "visit", Cookie: map[string]string{"user": "bob"}},
	}, 1)
	res1, err := AuditContext(context.Background(), prog, srv.Trace(), srv.Reports(), initState, Options{})
	if err != nil || !res1.Accepted {
		t.Fatalf("period 1: %v %v", err, res1)
	}
	srv.NewPeriod()
	srv.ServeAllContext(context.Background(), []trace.Input{
		{Script: "visit", Cookie: map[string]string{"user": "bob"}}, // visit 2 online
		{Script: "list"}, // shows 1 post online
	}, 1)
	// Audit period 2 against the STALE (empty) state.
	res2, err := AuditContext(context.Background(), prog, srv.Trace(), srv.Reports(), initState, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Accepted {
		t.Fatal("stale initial state must make period 2 outputs irreproducible")
	}
}

// TestFinalStateMatchesCandidate: Phase 2 alone fixes a period's final
// state. FinalState, given only the initial state and the reports,
// returns the state an ACCEPT of the full audit hands on, byte for byte
// in the canonical form; and on a log that fails to redo it returns the
// REJECT the full audit reaches, with the same reason.
func TestFinalStateMatchesCandidate(t *testing.T) {
	prog := compileApp(t)
	srv := newServerForTest(t, prog)
	if err := srv.Setup(testSchema); err != nil {
		t.Fatal(err)
	}
	initState := srv.Snapshot()
	srv.ServeAllContext(context.Background(), []trace.Input{
		{Script: "post", Post: map[string]string{"title": "first"}},
		{Script: "vote", Get: map[string]string{"id": "1"}},
		{Script: "visit", Cookie: map[string]string{"user": "alice"}},
	}, 2)
	ctx := context.Background()
	res, err := AuditContext(ctx, prog, srv.Trace(), srv.Reports(), initState, Options{})
	if err != nil || !res.Accepted {
		t.Fatalf("audit: %v %+v", err, res)
	}
	final, err := res.FinalSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	derived, rej, err := FinalState(ctx, initState, srv.Reports(), Options{})
	if err != nil || rej != nil {
		t.Fatalf("FinalState: %v %+v", err, rej)
	}
	want, err := final.EncodeRaw()
	if err != nil {
		t.Fatal(err)
	}
	got, err := derived.EncodeRaw()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("FinalState differs from the accepted audit's final snapshot")
	}

	bad := srv.Reports().Clone()
	broken := false
	for i, o := range bad.Objects {
		for j, e := range bad.OpLogs[i] {
			if o.Kind == reports.DBObj && e.OK && len(e.Stmts) > 0 && !broken {
				bad.OpLogs[i][j].Stmts = append([]string{"NOT SQL"}, e.Stmts[1:]...)
				broken = true
			}
		}
	}
	if !broken {
		t.Fatal("no DB write to break")
	}
	full, err := AuditContext(ctx, prog, srv.Trace(), bad, initState, Options{})
	if err != nil || full.Accepted || full.Forensics == nil || full.Forensics.Phase != PhaseRedo {
		t.Fatalf("full audit of the broken log: %v %+v", err, full)
	}
	snap, rej, err := FinalState(ctx, initState, bad, Options{})
	if err != nil || snap != nil || rej == nil || rej.Accepted || rej.Reason != full.Reason {
		t.Fatalf("FinalState of the broken log = %v, %+v, %v; want the REJECT %q", snap, rej, err, full.Reason)
	}
}

func TestFinalSnapshotOnRejected(t *testing.T) {
	res := &Result{Accepted: false}
	if _, err := res.FinalSnapshot(); err == nil {
		t.Fatal("FinalSnapshot must fail on rejected audits")
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestFinalStateRejectsMalformedObjects: FinalState runs no Phase 1, so
// it makes the checks its redo relies on itself. Reports with fewer or
// more operation logs than objects, or one object named twice, are a
// REJECT with the reason the full audit gives — never a panic.
func TestFinalStateRejectsMalformedObjects(t *testing.T) {
	prog := compileApp(t)
	srv := newServerForTest(t, prog)
	if err := srv.Setup(testSchema); err != nil {
		t.Fatal(err)
	}
	initState := srv.Snapshot()
	srv.ServeAllContext(context.Background(), []trace.Input{
		{Script: "post", Post: map[string]string{"title": "first"}},
		{Script: "visit", Cookie: map[string]string{"user": "alice"}},
	}, 2)
	if len(srv.Reports().Objects) < 2 {
		t.Fatalf("need two objects, got %d", len(srv.Reports().Objects))
	}
	for _, tc := range []struct {
		name  string
		check string
		edit  func(r *reports.Reports)
	}{
		{"fewer logs", "log-count", func(r *reports.Reports) { r.OpLogs = r.OpLogs[:len(r.OpLogs)-1] }},
		{"more logs", "log-count", func(r *reports.Reports) { r.OpLogs = append(r.OpLogs, nil) }},
		{"duplicate object", "duplicate-object", func(r *reports.Reports) { r.Objects[1] = r.Objects[0] }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := srv.Reports().Clone()
			tc.edit(bad)
			ctx := context.Background()
			full, err := AuditContext(ctx, prog, srv.Trace(), bad, initState, Options{})
			if err != nil || full.Accepted || full.Forensics.Check != tc.check {
				t.Fatalf("full audit = %v %+v, want a %s REJECT", err, full, tc.check)
			}
			snap, rej, err := FinalState(ctx, initState, bad, Options{})
			if err != nil || snap != nil || rej == nil || rej.Reason != full.Reason || rej.Forensics.Check != tc.check {
				t.Fatalf("FinalState = %v, %+v, %v; want the REJECT %q", snap, rej, err, full.Reason)
			}
		})
	}
}
