package apps_test

import (
	"context"
	"strings"
	"testing"

	"orochi/internal/apps"
	"orochi/internal/harness"
	"orochi/internal/server"
	"orochi/internal/trace"
	"orochi/internal/verifier"
	"orochi/internal/workload"
)

func TestAllAppsCompile(t *testing.T) {
	for _, app := range apps.All() {
		prog := app.Compile()
		if len(prog.Scripts) < 4 {
			t.Errorf("%s: only %d scripts", app.Name, len(prog.Scripts))
		}
	}
}

func TestByName(t *testing.T) {
	if apps.ByName("wiki") == nil || apps.ByName("forum") == nil || apps.ByName("hotcrp") == nil {
		t.Fatal("ByName must find the three applications")
	}
	if apps.ByName("nope") != nil {
		t.Fatal("ByName must return nil for unknown apps")
	}
}

func newServer(t *testing.T, app *apps.App, seed []string) *server.Server {
	t.Helper()
	srv := server.New(app.Compile(), server.Options{Record: true})
	if err := srv.Setup(app.Schema); err != nil {
		t.Fatal(err)
	}
	if err := srv.Setup(seed); err != nil {
		t.Fatal(err)
	}
	return srv
}

func TestWikiViewRendersSeededPage(t *testing.T) {
	w := workload.Wiki(workload.WikiParams{Requests: 0, Pages: 5, ZipfS: 0.53, Seed: 1})
	srv := newServer(t, w.App, w.Seed)
	_, body := srv.Handle(trace.Input{Script: "view", Get: map[string]string{"page": "Page_000"}})
	if !strings.Contains(body, "<h1>Page_000</h1>") {
		t.Fatalf("view missing title: %s", body)
	}
	if !strings.Contains(body, "<p>") {
		t.Fatalf("view missing rendered body: %s", body)
	}
	// Second view must hit the cache and produce identical output.
	_, body2 := srv.Handle(trace.Input{Script: "view", Get: map[string]string{"page": "Page_000"}})
	if body != body2 {
		t.Fatal("cached view differs from rendered view")
	}
}

func TestWikiMissingPage(t *testing.T) {
	w := workload.Wiki(workload.WikiParams{Requests: 0, Pages: 2, ZipfS: 0.53, Seed: 1})
	srv := newServer(t, w.App, w.Seed)
	_, body := srv.Handle(trace.Input{Script: "view", Get: map[string]string{"page": "Nope"}})
	if !strings.Contains(body, "does not exist") {
		t.Fatalf("missing page: %s", body)
	}
}

func TestWikiEditInvalidatesCache(t *testing.T) {
	w := workload.Wiki(workload.WikiParams{Requests: 0, Pages: 2, ZipfS: 0.53, Seed: 1})
	srv := newServer(t, w.App, w.Seed)
	view := trace.Input{Script: "view", Get: map[string]string{"page": "Page_000"}}
	_, before := srv.Handle(view)
	srv.Handle(trace.Input{
		Script: "edit",
		Post:   map[string]string{"page": "Page_000", "text": "== Page_000 ==\nFresh content here."},
		Cookie: map[string]string{"user": "alice"},
	})
	_, after := srv.Handle(view)
	if before == after {
		t.Fatal("edit did not invalidate the cache")
	}
	if !strings.Contains(after, "Fresh content here.") {
		t.Fatalf("edit content missing: %s", after)
	}
}

func TestWikiSearchAndHistoryAndRecent(t *testing.T) {
	w := workload.Wiki(workload.WikiParams{Requests: 0, Pages: 12, ZipfS: 0.53, Seed: 1})
	srv := newServer(t, w.App, w.Seed)
	_, body := srv.Handle(trace.Input{Script: "search", Get: map[string]string{"q": "Page"}})
	if !strings.Contains(body, "result(s)") || !strings.Contains(body, "Page_000") {
		t.Fatalf("search: %s", body)
	}
	_, body = srv.Handle(trace.Input{Script: "history", Get: map[string]string{"page": "Page_001"}})
	if !strings.Contains(body, "rev ") {
		t.Fatalf("history: %s", body)
	}
	_, body = srv.Handle(trace.Input{Script: "recent"})
	if !strings.Contains(body, "edited by") {
		t.Fatalf("recent: %s", body)
	}
}

func TestForumGuestAndLoginFlow(t *testing.T) {
	w := workload.Forum(workload.ForumParams{Requests: 0, Topics: 3, Users: 5, GuestRatio: 0.9, Seed: 2})
	srv := newServer(t, w.App, w.Seed)
	// Guest views a topic.
	_, body := srv.Handle(trace.Input{Script: "viewtopic", Get: map[string]string{"t": "1"}})
	if !strings.Contains(body, "Browsing as guest") {
		t.Fatalf("guest view: %s", body)
	}
	if !strings.Contains(body, "Seed post") {
		t.Fatalf("posts missing: %s", body)
	}
	// Reply without login fails.
	_, body = srv.Handle(trace.Input{
		Script: "reply",
		Post:   map[string]string{"t": "1", "body": "unauthorized"},
		Cookie: map[string]string{"sid": "sid-000"},
	})
	if !strings.Contains(body, "must log in") {
		t.Fatalf("unauthorized reply: %s", body)
	}
	// Login then reply succeeds.
	_, body = srv.Handle(trace.Input{
		Script: "login",
		Post:   map[string]string{"name": "user000"},
		Cookie: map[string]string{"sid": "sid-000"},
	})
	if !strings.Contains(body, "Hello, user000") {
		t.Fatalf("login: %s", body)
	}
	_, body = srv.Handle(trace.Input{
		Script: "reply",
		Post:   map[string]string{"t": "1", "body": "hello world"},
		Cookie: map[string]string{"sid": "sid-000"},
	})
	if !strings.Contains(body, "was posted") {
		t.Fatalf("reply: %s", body)
	}
	// The reply shows up.
	_, body = srv.Handle(trace.Input{Script: "viewtopic", Get: map[string]string{"t": "1"}})
	if !strings.Contains(body, "hello world") {
		t.Fatalf("reply not visible: %s", body)
	}
}

func TestForumViewCounterFlush(t *testing.T) {
	w := workload.Forum(workload.ForumParams{Requests: 0, Topics: 1, Users: 2, GuestRatio: 0.5, Seed: 2})
	srv := newServer(t, w.App, w.Seed)
	for i := 0; i < 25; i++ {
		srv.Handle(trace.Input{Script: "viewtopic", Get: map[string]string{"t": "1"}})
	}
	r, err := srv.Store.DB.Exec(`SELECT views FROM topics WHERE id = 1`)
	if err != nil {
		t.Fatal(err)
	}
	// Seeded views + two flushes of 10.
	views := r.Rows[0][0].(int64)
	if views < 20 {
		t.Fatalf("views = %d, expected at least two flushed batches", views)
	}
}

func TestHotCRPSubmitReviewBrowse(t *testing.T) {
	app := apps.HotCRP()
	srv := newServer(t, app, nil)
	_, body := srv.Handle(trace.Input{
		Script: "submit",
		Post:   map[string]string{"title": "T1", "abstract": "A first abstract."},
		Cookie: map[string]string{"user": "author0"},
	})
	if !strings.Contains(body, "Paper #1 received") {
		t.Fatalf("submit: %s", body)
	}
	// Update of the same paper.
	_, body = srv.Handle(trace.Input{
		Script: "submit",
		Post:   map[string]string{"title": "T1", "abstract": "A better abstract."},
		Cookie: map[string]string{"user": "author0"},
	})
	if !strings.Contains(body, "Paper #1 updated") {
		t.Fatalf("update: %s", body)
	}
	// Two review versions.
	for v := 0; v < 2; v++ {
		_, body = srv.Handle(trace.Input{
			Script: "review",
			Post:   map[string]string{"p": "1", "score": "4", "text": "solid work"},
			Cookie: map[string]string{"user": "rev00"},
		})
	}
	if !strings.Contains(body, "Review v2") {
		t.Fatalf("review versioning: %s", body)
	}
	// Paper page shows the latest version only.
	_, body = srv.Handle(trace.Input{
		Script: "paper", Get: map[string]string{"p": "1"}, Cookie: map[string]string{"user": "rev00"},
	})
	if !strings.Contains(body, "v2") || strings.Contains(body, "v1") {
		t.Fatalf("paper page should show latest review version: %s", body)
	}
	if !strings.Contains(body, "average score: 4.00") {
		t.Fatalf("average: %s", body)
	}
	_, body = srv.Handle(trace.Input{
		Script: "reviewerhome", Cookie: map[string]string{"user": "rev00"},
	})
	if !strings.Contains(body, "1 paper(s) reviewed") {
		t.Fatalf("reviewerhome: %s", body)
	}
}

// End-to-end: each application serves its (scaled) workload concurrently
// and the audit accepts.
func TestWorkloadsAuditEndToEnd(t *testing.T) {
	cases := []struct {
		name string
		w    *workload.Workload
	}{
		{"wiki", workload.Wiki(workload.WikiParams{Requests: 150, Pages: 20, ZipfS: 0.53, Seed: 11})},
		{"forum", workload.Forum(workload.ForumParams{Requests: 150, Topics: 5, Users: 8, GuestRatio: 0.8, Seed: 12})},
		{"hotcrp", workload.HotCRP(workload.HotCRPParams{
			Papers: 6, Reviewers: 4, UpdatesMax: 3, ReviewsPerPaper: 2, ViewsPerReviewer: 10, Seed: 13,
		})},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			served, err := harness.Serve(c.w, harness.ServeConfig{Record: true, Concurrency: 6})
			if err != nil {
				t.Fatal(err)
			}
			res, err := served.AuditContext(context.Background(), verifier.Options{CollectStats: true})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Accepted {
				t.Fatalf("%s audit rejected: %s", c.name, res.Reason)
			}
			if res.Stats.RequestsReplayed != len(c.w.Requests) {
				t.Fatalf("replayed %d of %d", res.Stats.RequestsReplayed, len(c.w.Requests))
			}
			// Grouping must actually deduplicate.
			multi := 0
			for _, g := range res.Stats.Groups {
				if g.N > 1 {
					multi++
				}
			}
			if multi == 0 {
				t.Errorf("%s: no multi-request control-flow groups formed", c.name)
			}
		})
	}
}

func TestWorkloadTamperDetectedEndToEnd(t *testing.T) {
	w := workload.Wiki(workload.WikiParams{Requests: 60, Pages: 10, ZipfS: 0.53, Seed: 21})
	served, err := harness.Serve(w, harness.ServeConfig{
		Record: true, Concurrency: 4,
		TamperResponse: func(rid, body string) string {
			if rid == "r000033" {
				return strings.Replace(body, "OroWiki", "EvilWiki", 1)
			}
			return body
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := served.AuditContext(context.Background(), verifier.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted {
		t.Fatal("tampered wiki response must be rejected")
	}
}

func TestZipfShape(t *testing.T) {
	w := workload.Wiki(workload.WikiParams{Requests: 3000, Pages: 50, ZipfS: 0.53, Seed: 5})
	counts := map[string]int{}
	for _, in := range w.Requests {
		if in.Script == "view" {
			counts[in.Get["page"]]++
		}
	}
	// Rank 0 must be requested more than rank 30.
	if counts["Page_000"] <= counts["Page_030"] {
		t.Fatalf("zipf shape violated: %d vs %d", counts["Page_000"], counts["Page_030"])
	}
}

func TestWorkloadSizes(t *testing.T) {
	if got := len(workload.Wiki(workload.WikiParams{Requests: 100, Pages: 10, ZipfS: 0.5, Seed: 1}).Requests); got != 100 {
		t.Fatalf("wiki requests = %d", got)
	}
	if got := len(workload.Forum(workload.ForumParams{Requests: 120, Topics: 4, Users: 6, GuestRatio: 0.9, Seed: 1}).Requests); got != 120 {
		t.Fatalf("forum requests = %d", got)
	}
	hw := workload.HotCRP(workload.HotCRPParams{Papers: 4, Reviewers: 3, UpdatesMax: 2, ReviewsPerPaper: 2, ViewsPerReviewer: 6, Seed: 1})
	if len(hw.Requests) == 0 {
		t.Fatal("hotcrp workload empty")
	}
	// Paper-sized defaults match §5.
	def := workload.DefaultWikiParams()
	if def.Requests != 20000 || def.Pages != 200 {
		t.Fatalf("wiki defaults: %+v", def)
	}
	if workload.DefaultForumParams().Requests != 30000 {
		t.Fatal("forum default requests")
	}
	if workload.DefaultHotCRPParams().Papers != 269 {
		t.Fatal("hotcrp default papers")
	}
}
