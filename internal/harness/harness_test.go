package harness

import (
	"context"
	"testing"

	"orochi/internal/verifier"
	"orochi/internal/workload"
)

func smallWiki() *workload.Workload {
	return workload.Wiki(workload.WikiParams{Requests: 60, Pages: 8, ZipfS: 0.53, Seed: 99})
}

func TestServeAndAudit(t *testing.T) {
	served, err := Serve(smallWiki(), ServeConfig{Record: true, Concurrency: 4})
	if err != nil {
		t.Fatal(err)
	}
	if served.Requests != 60 {
		t.Fatalf("requests = %d", served.Requests)
	}
	if served.ServeCPU <= 0 || served.ServeWall <= 0 {
		t.Fatal("timings must be positive")
	}
	res, err := served.AuditContext(context.Background(), verifier.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Fatalf("rejected: %s", res.Reason)
	}
}

func TestServeWithoutRecording(t *testing.T) {
	served, err := Serve(smallWiki(), ServeConfig{Record: false, Concurrency: 2})
	if err != nil {
		t.Fatal(err)
	}
	if served.Reports != nil {
		t.Fatal("baseline must not have reports")
	}
	if _, err := served.AuditContext(context.Background(), verifier.Options{}); err == nil {
		t.Fatal("audit without reports must error")
	}
}

func TestSizes(t *testing.T) {
	served, err := Serve(smallWiki(), ServeConfig{Record: true, Concurrency: 2})
	if err != nil {
		t.Fatal(err)
	}
	sizes, err := served.Sizes()
	if err != nil {
		t.Fatal(err)
	}
	if sizes.TraceBytes <= 0 || sizes.ReportBytes <= 0 {
		t.Fatalf("sizes: %+v", sizes)
	}
	if sizes.ReportBytes >= sizes.TraceBytes {
		t.Fatalf("reports (%d B) should be much smaller than the trace (%d B)",
			sizes.ReportBytes, sizes.TraceBytes)
	}
	if sizes.BaselineReportBytes > sizes.ReportBytes {
		t.Fatal("baseline reports must be a subset of OROCHI's")
	}
	if sizes.DBPlainBytes <= 0 {
		t.Fatal("plain DB size must be positive")
	}
}

func TestBaselineReplayMatchesServeCost(t *testing.T) {
	w := smallWiki()
	served, err := Serve(w, ServeConfig{Record: true, Concurrency: 2})
	if err != nil {
		t.Fatal(err)
	}
	base, err := BaselineReplay(w, served)
	if err != nil {
		t.Fatal(err)
	}
	if base <= 0 {
		t.Fatal("baseline replay must take time")
	}
}

func TestBadSeedSQLSurfaces(t *testing.T) {
	w := smallWiki()
	w.Seed = append(w.Seed, "NOT SQL")
	if _, err := Serve(w, ServeConfig{Record: true}); err == nil {
		t.Fatal("bad seed SQL must fail Serve")
	}
}
