package harness

import (
	"context"
	"runtime"
	"testing"

	"orochi/internal/server"
	"orochi/internal/verifier"
	"orochi/internal/workload"
)

// TestServeAllocsPerRequest holds serving to a heap-allocation budget:
// fixed-seed wiki, forum and hotcrp mixes are served with recording on
// at concurrency 1, and the process's malloc count per request must
// stay under each mix's budget. The budgets are the counts measured
// when constant array literals became static, builtin arguments moved
// to a per-run stack and index paths to the Go stack, plus 10 %
// headroom; the build before those changes made 1 078, 982 and 1 017
// (792, 732 and 767 after).
func TestServeAllocsPerRequest(t *testing.T) {
	for _, c := range []struct {
		name   string
		w      *workload.Workload
		budget float64
	}{
		{"wiki", workload.Wiki(workload.WikiParams{Requests: 600, Pages: 200, ZipfS: 0.53, Seed: 7}), 871},
		{"forum", workload.Forum(workload.ForumParams{Requests: 600, Topics: 21, Users: 83, GuestRatio: 40.0 / 41.0, Seed: 7}), 805},
		{"hotcrp", hotcrpMix(), 844},
	} {
		t.Run(c.name, func(t *testing.T) {
			srv := server.New(c.w.App.Compile(), server.Options{Record: true})
			for _, stmts := range [][]string{c.w.App.Schema, c.w.Seed} {
				if err := srv.Setup(stmts); err != nil {
					t.Fatal(err)
				}
			}
			// The first tenth warms the program's lowering, the SQL
			// statement cache and the recorder's tables.
			warm := len(c.w.Requests) / 10
			ctx := context.Background()
			if err := srv.ServeAllContext(ctx, c.w.Requests[:warm], 1); err != nil {
				t.Fatal(err)
			}
			reqs := c.w.Requests[warm:]
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			if err := srv.ServeAllContext(ctx, reqs, 1); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			per := float64(after.Mallocs-before.Mallocs) / float64(len(reqs))
			bytes := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(reqs))
			t.Logf("%d requests: %.0f allocs/req, %.0f B/req (budget %.0f)", len(reqs), per, bytes, c.budget)
			if per > c.budget {
				t.Errorf("%.0f allocations per request, budget %.0f", per, c.budget)
			}
		})
	}
}

// hotcrpMix is the hotcrp-review benchmark's mix at a fixed seed.
func hotcrpMix() *workload.Workload {
	p := workload.DefaultHotCRPParams().Scale(6)
	p.Seed = 7
	return workload.HotCRP(p)
}

// TestAuditBytesPerRequest holds the grouped audit to a budget of bytes
// allocated per request: fixed-seed wiki, forum and hotcrp mixes are
// served, audited once at Workers 1 to warm up, and audited again while
// the process's allocated bytes are counted. The budgets are the bytes
// measured when string multivalues became part lists (12 653 and 8 909
// B/req for wiki and forum), plus 10 %; the build before, which
// rewrote every lane's string at each `.` of two multivalues,
// allocated 14 190 and 11 210. HotCRP's is the 9 955 B/req measured
// when lanes with identical builtin arguments began to share one call
// and SQL string literals to be copied once, plus 10 %; it was 18 262
// before that, and 79 960 before part lists.
func TestAuditBytesPerRequest(t *testing.T) {
	for _, c := range []struct {
		name   string
		w      *workload.Workload
		budget float64
	}{
		{"wiki", workload.Wiki(workload.WikiParams{Requests: 600, Pages: 200, ZipfS: 0.53, Seed: 7}), 13918},
		{"forum", workload.Forum(workload.ForumParams{Requests: 600, Topics: 21, Users: 83, GuestRatio: 40.0 / 41.0, Seed: 7}), 9800},
		{"hotcrp", hotcrpMix(), 10950},
	} {
		t.Run(c.name, func(t *testing.T) {
			served, err := Serve(c.w, server.Options{Record: true}, 1)
			if err != nil {
				t.Fatal(err)
			}
			audit := func() {
				t.Helper()
				res, err := served.AuditContext(context.Background(), verifier.Options{Workers: 1})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Accepted {
					t.Fatalf("audit rejected: %s", res.Reason)
				}
			}
			audit()
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			audit()
			runtime.ReadMemStats(&after)
			bytes := float64(after.TotalAlloc-before.TotalAlloc) / float64(served.Requests)
			t.Logf("%d requests: %.0f B/req allocated by the audit (budget %.0f)", served.Requests, bytes, c.budget)
			if bytes > c.budget {
				t.Errorf("%.0f bytes allocated per audited request, budget %.0f", bytes, c.budget)
			}
		})
	}
}
