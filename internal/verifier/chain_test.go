package verifier

import (
	"context"
	"testing"

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
