package harness

import (
	"context"
	"math"
	"testing"

	"orochi/internal/encio"
	"orochi/internal/server"
	"orochi/internal/verifier"
	"orochi/internal/workload"
)

func smallWiki() *workload.Workload {
	return workload.Wiki(workload.WikiParams{Requests: 60, Pages: 8, ZipfS: 0.53, Seed: 99})
}

func TestServeAndAudit(t *testing.T) {
	served, err := Serve(smallWiki(), server.Options{Record: true}, 4)
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
	served, err := Serve(smallWiki(), server.Options{}, 2)
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

// TestPaperRow: the row's sizes are the gzipped encodings of the
// served artifacts, and its ratios have the signs the paper's Fig. 8
// shows.
func TestPaperRow(t *testing.T) {
	w := smallWiki()
	served, err := Serve(w, server.Options{Record: true}, 2)
	if err != nil {
		t.Fatal(err)
	}
	row, err := served.row(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := encio.Compress(served.Trace.EncodeRaw())
	if err != nil {
		t.Fatal(err)
	}
	if want := float64(len(enc)) / float64(served.Requests); row.TraceBytes != want {
		t.Fatalf("trace %.2f B/req, its gzipped encoding is %.2f", row.TraceBytes, want)
	}
	if row.ReportBytes <= 0 || row.ReportBytes >= row.TraceBytes {
		t.Fatalf("reports (%.1f B/req) should be smaller than the trace (%.1f B/req)",
			row.ReportBytes, row.TraceBytes)
	}
	if row.BaselineReportBytes > row.ReportBytes {
		t.Fatal("baseline reports must be a subset of OROCHI's")
	}
	if row.Speedup <= 0 {
		t.Fatalf("speedup %.2f (replay %v, audit %v)", row.Speedup, row.Replay, row.Audit.Total)
	}
	if row.TempDB < 1 {
		t.Fatalf("temp DB ratio %.2f < 1", row.TempDB)
	}

	full, err := PaperRow(context.Background(), w, 2)
	if err != nil {
		t.Fatal(err)
	}
	if full.Requests != len(w.Requests) || math.IsNaN(full.ServerOverhead) || math.IsInf(full.ServerOverhead, 0) {
		t.Fatalf("row: %+v", full)
	}
}

func TestBaselineReplayMatchesServeCost(t *testing.T) {
	w := smallWiki()
	served, err := Serve(w, server.Options{Record: true}, 2)
	if err != nil {
		t.Fatal(err)
	}
	base, err := baselineReplay(w, served.Trace)
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
	if _, err := Serve(w, server.Options{Record: true}, 1); err == nil {
		t.Fatal("bad seed SQL must fail Serve")
	}
}
