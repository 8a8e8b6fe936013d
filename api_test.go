package orochi_test

import (
	"context"
	"strings"
	"testing"

	"orochi"
)

func TestQuickstartFlow(t *testing.T) {
	prog, err := orochi.CompileApp(map[string]string{
		"hello": `echo "hello " . $_GET["name"];`,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := orochi.NewServer(prog, orochi.ServerOptions{Record: true})
	snap := srv.Snapshot()
	_, body := srv.Handle(orochi.Input{Script: "hello", Get: map[string]string{"name": "world"}})
	if body != "hello world" {
		t.Fatalf("body = %q", body)
	}
	res, err := orochi.AuditContext(context.Background(), prog, srv.Trace(), srv.Reports(), snap, orochi.AuditOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Fatalf("rejected: %s", res.Reason)
	}
}

func TestQuickstartTamperRejected(t *testing.T) {
	prog, err := orochi.CompileApp(map[string]string{
		"hello": `echo "hello " . $_GET["name"];`,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := orochi.NewServer(prog, orochi.ServerOptions{
		Record:         true,
		TamperResponse: func(rid, body string) string { return strings.ToUpper(body) },
	})
	snap := srv.Snapshot()
	srv.Handle(orochi.Input{Script: "hello", Get: map[string]string{"name": "x"}})
	res, err := orochi.AuditContext(context.Background(), prog, srv.Trace(), srv.Reports(), snap, orochi.AuditOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted {
		t.Fatal("tampered response must be rejected")
	}
}

func TestSampleAppsExposed(t *testing.T) {
	apps := orochi.SampleApps()
	if len(apps) != 3 {
		t.Fatalf("sample apps = %d", len(apps))
	}
	for _, a := range apps {
		if a.Compile() == nil {
			t.Fatalf("%s failed to compile", a.Name)
		}
	}
}

func TestWorkloadConstructors(t *testing.T) {
	if len(orochi.WikiWorkload().Requests) != 20000 {
		t.Fatal("wiki workload size")
	}
	if len(orochi.ForumWorkload().Requests) != 30000 {
		t.Fatal("forum workload size")
	}
	if w := orochi.HotCRPWorkload(); len(w.Requests) < 40000 {
		t.Fatalf("hotcrp workload size = %d", len(w.Requests))
	}
}
