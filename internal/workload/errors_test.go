package workload

import (
	"context"
	"strings"
	"testing"

	"orochi/internal/server"
	"orochi/internal/verifier"
)

func TestWithErrorsDeterministicMix(t *testing.T) {
	base := Wiki(WikiParams{Requests: 400, Pages: 10, ZipfS: 0.53, Seed: 11})
	p := ErrorMixParams{Rate: 0.1, Seed: 11}
	w1 := WithErrors(base, p)
	w2 := WithErrors(Wiki(WikiParams{Requests: 400, Pages: 10, ZipfS: 0.53, Seed: 11}), p)
	counts := map[string]int{}
	for i := range w1.Requests {
		if w1.Requests[i].Script != w2.Requests[i].Script {
			t.Fatalf("request %d differs across same-seed builds", i)
		}
		counts[w1.Requests[i].Script]++
	}
	for _, s := range []string{ErrorUnknownScript, ErrorUndefinedFn, ErrorBadSQL} {
		if counts[s] == 0 {
			t.Fatalf("error mix contains no %q requests: %v", s, counts)
		}
	}
	if counts["view"] == 0 {
		t.Fatal("error mix must keep successful requests")
	}
	if w1.App.Name != "wiki+errors" {
		t.Fatalf("app name = %q", w1.App.Name)
	}
	// The base workload and app are untouched.
	if _, ok := base.App.Sources[ErrorUndefinedFn]; ok {
		t.Fatal("WithErrors mutated the base app")
	}
}

func TestWithErrorsServesAndAudits(t *testing.T) {
	// End to end: a period mixing successful and faulted wiki requests
	// serves (faults become canonical 500s) and audits ACCEPT.
	w := WithErrors(Wiki(WikiParams{Requests: 60, Pages: 5, ZipfS: 0.53, Seed: 5}),
		ErrorMixParams{Rate: 0.2, Seed: 5})
	prog := w.App.Compile()
	srv := server.New(prog, server.Options{Record: true})
	if err := srv.Setup(w.App.Schema); err != nil {
		t.Fatal(err)
	}
	if err := srv.Setup(w.Seed); err != nil {
		t.Fatal(err)
	}
	snap := srv.Snapshot()
	srv.ServeAllContext(context.Background(), w.Requests, 4)

	faulted := 0
	for _, ev := range srv.Trace().Requests() {
		if body, ok := srv.Trace().ResponseOf(ev.RID); ok && strings.HasPrefix(body, "HTTP 500") {
			faulted++
		}
	}
	if faulted == 0 {
		t.Fatal("error mix produced no faulted responses")
	}
	res, err := verifier.AuditContext(context.Background(), prog, srv.Trace(), srv.Reports(), snap, verifier.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Fatalf("honest faulted period must accept, got: %s", res.Reason)
	}
	if res.Stats.RequestsReplayed != len(w.Requests) {
		t.Fatalf("replayed %d of %d requests", res.Stats.RequestsReplayed, len(w.Requests))
	}
}
