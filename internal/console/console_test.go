package console_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"orochi/internal/console"
	"orochi/internal/epoch"
	"orochi/internal/fleet"
	"orochi/internal/lang"
	"orochi/internal/server"
	"orochi/internal/trace"
)

// consoleApp is the smallest app that exercises shared state: an APC
// counter, so every request appears in the op logs and groups dedup.
var consoleApp = map[string]string{
	"hit": `
$n = apc_get("n");
if ($n === null) { $n = 0; }
apc_set("n", $n + 1);
echo "n=" . ($n + 1);
`,
}

func hits(n int) []trace.Input {
	out := make([]trace.Input, n)
	for i := range out {
		out[i] = trace.Input{Script: "hit"}
	}
	return out
}

// buildPipeline serves bursts through a recording server with the epoch
// pipeline attached, seals, audits everything, and returns the live
// components a console would be built over. tamper optionally corrupts
// recorded responses (the misbehaving-executor path).
func buildPipeline(t *testing.T, bursts int, tamper func(rid, body string) string) (*server.Server, *epoch.Manager, *epoch.Auditor) {
	t.Helper()
	prog, err := lang.Compile(consoleApp)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(prog, server.Options{Record: true, TamperResponse: tamper})
	if err := srv.Setup(nil); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	mgr, err := epoch.StartManager(dir, srv, srv.Snapshot(), epoch.ManagerOptions{EpochEvents: 8})
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < bursts; b++ {
		srv.ServeAllContext(context.Background(), hits(8), 2)
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	auditor := epoch.NewAuditor(prog, dir, epoch.AuditorOptions{})
	if _, err := auditor.RunOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	return srv, mgr, auditor
}

// get fetches a console path and returns (status, body).
func get(t *testing.T, ts *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestConsoleHonestPipeline drives an honest run end to end and checks
// every endpoint of the surface.
func TestConsoleHonestPipeline(t *testing.T) {
	srv, mgr, auditor := buildPipeline(t, 3, nil)
	scrubber := epoch.NewScrubber(mgr.Dir(), auditor.Decisions(), epoch.ScrubberOptions{Sample: -1})
	if _, err := scrubber.RunOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	con := console.New(console.Options{Server: srv, Manager: mgr, Auditor: auditor, Scrubber: scrubber})
	ts := httptest.NewServer(con.Handler())
	defer ts.Close()

	sealed := len(mgr.Status().Sealed)
	if sealed == 0 {
		t.Fatal("pipeline sealed no epochs")
	}

	// Prometheus exposition.
	code, body := get(t, ts, "/-/metrics")
	if code != http.StatusOK {
		t.Fatalf("/-/metrics: %d", code)
	}
	for _, want := range []string{
		"# TYPE orochi_requests_total counter",
		"orochi_requests_total 24",
		"orochi_epochs_sealed_total " + itoa(sealed),
		`orochi_epochs_audited_total{verdict="accept"} ` + itoa(sealed),
		`orochi_epochs_audited_total{verdict="reject"} 0`,
		"orochi_audit_lag_epochs 0",
		`orochi_audit_phase_seconds_total{phase="re-execution"}`,
		"orochi_audit_dedup_ratio ",
		"orochi_rejects_unacked 0",
		"orochi_storage_chunks ",
		"orochi_storage_bytes ",
		"orochi_storage_dedup_ratio ",
		"orochi_storage_chunk_refs ",
		"orochi_storage_chunk_refs_unique ",
		"orochi_storage_chunk_ref_bytes ",
		"orochi_storage_chunk_unique_bytes ",
		"orochi_scrub_runs_total 1",
		`orochi_scrub_checks_total{kind="chunk"}`,
		"orochi_scrub_failures_total 0",
		"orochi_scrub_last_failures 0",
		"# TYPE orochi_lang_cache_hits counter",
		"orochi_lang_cache_hits ",
		"# TYPE orochi_lang_cache_misses counter",
		"orochi_lang_cache_misses ",
		"# TYPE orochi_lang_cache_evictions counter",
		"orochi_lang_cache_evictions ",
		"# TYPE orochi_go_heap_alloc_objects_total counter",
		"orochi_go_heap_alloc_objects_total ",
		"# TYPE orochi_go_heap_alloc_bytes_total counter",
		"orochi_go_heap_alloc_bytes_total ",
		"# TYPE orochi_go_gc_cycles_total counter",
		"orochi_go_gc_cycles_total ",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/-/metrics missing %q in:\n%s", want, body)
		}
	}
	// One "hit" group across many requests: dedup ratio must exceed 1.
	for _, line := range strings.Split(body, "\n") {
		if v, ok := strings.CutPrefix(line, "orochi_audit_dedup_ratio "); ok {
			if v == "0" || v == "1" {
				t.Fatalf("uniform workload should dedup, ratio = %s", v)
			}
		}
	}

	// The index page: serving counters (24 requests, none in flight),
	// one row per sealed epoch, and every verdict an ACCEPT.
	code, body = get(t, ts, "/-/")
	if code != http.StatusOK || !strings.Contains(body, "<h1>orochi console</h1>") {
		t.Fatalf("/-/ index: %d\n%s", code, body)
	}
	if !regexp.MustCompile(`<tr><td>24</td><td>[^<]*</td><td>0</td>`).MatchString(body) {
		t.Fatalf("/-/ index lacks the serving row (24 requests, 0 in flight):\n%s", body)
	}
	for _, s := range mgr.Status().Sealed {
		row := fmt.Sprintf("<tr><td>%d</td><td>%d</td><td>%d</td><td>%d</td><td>%.12s</td></tr>",
			s.Epoch, s.Events, s.Requests, s.Bytes, s.ManifestSHA)
		if !strings.Contains(body, row) {
			t.Fatalf("/-/ index lacks epoch row %s:\n%s", row, body)
		}
	}
	if !strings.Contains(body, "chain ACCEPT") ||
		strings.Count(body, `<span class="accept">ACCEPT</span>`) != sealed || strings.Contains(body, "REJECT</span>") {
		t.Fatalf("/-/ index should show %d ACCEPT verdicts and an accepted chain:\n%s", sealed, body)
	}

	// JSON API.
	code, body = get(t, ts, "/-/api/epochs")
	if code != http.StatusOK {
		t.Fatalf("/-/api/epochs: %d", code)
	}
	var ev console.EpochsView
	if err := json.Unmarshal([]byte(body), &ev); err != nil {
		t.Fatal(err)
	}
	if len(ev.Sealed) != sealed || ev.Audit == nil || ev.Audit.Accepted != sealed ||
		ev.Audit.Rejected != 0 || !ev.Audit.ChainAccepted {
		t.Fatalf("/-/api/epochs view: %+v", ev)
	}

	code, body = get(t, ts, "/-/api/verdicts")
	if code != http.StatusOK {
		t.Fatalf("/-/api/verdicts: %d", code)
	}
	var ds []epoch.Decision
	if err := json.Unmarshal([]byte(body), &ds); err != nil {
		t.Fatal(err)
	}
	if len(ds) != sealed || !ds[0].Accepted || ds[0].Resolution != epoch.ResolutionOpen {
		t.Fatalf("/-/api/verdicts: %+v", ds)
	}

	if code, _ := get(t, ts, "/-/api/verdicts/1"); code != http.StatusOK {
		t.Fatalf("drill-down on epoch 1: %d", code)
	}
	if code, _ := get(t, ts, "/-/api/verdicts/999"); code != http.StatusNotFound {
		t.Fatalf("unknown epoch must 404, got %d", code)
	}
	if code, _ := get(t, ts, "/-/api/verdicts/xyz"); code != http.StatusBadRequest {
		t.Fatalf("non-numeric epoch must 400, got %d", code)
	}
}

// TestConsoleRejectAndAck tampers one recorded response, then walks the
// operator workflow: the reject surfaces in metrics with its forensics
// in the drill-down, and acknowledging it through the API clears the
// unacked gauge durably.
func TestConsoleRejectAndAck(t *testing.T) {
	const victim = "r000003"
	srv, mgr, auditor := buildPipeline(t, 1, func(rid, body string) string {
		if rid == victim {
			return body + "!"
		}
		return body
	})
	con := console.New(console.Options{Server: srv, Manager: mgr, Auditor: auditor})
	ts := httptest.NewServer(con.Handler())
	defer ts.Close()

	_, body := get(t, ts, "/-/metrics")
	for _, want := range []string{
		`orochi_epochs_audited_total{verdict="reject"} 1`,
		"orochi_rejects_unacked 1",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, body)
		}
	}

	// Which epoch the victim landed in depends on where the two serving
	// goroutines happened to be when the manager cut, so follow the
	// REJECT rather than assume epoch 1.
	_, body = get(t, ts, "/-/api/verdicts")
	var all []epoch.Decision
	if err := json.Unmarshal([]byte(body), &all); err != nil {
		t.Fatal(err)
	}
	rejected := ""
	for _, d := range all {
		if !d.Accepted {
			rejected = itoa(int(d.Epoch))
		}
	}
	if rejected == "" {
		t.Fatalf("no REJECT among the stored verdicts: %s", body)
	}

	// The drill-down carries the forensics naming the tampered request.
	_, body = get(t, ts, "/-/api/verdicts/"+rejected)
	var d epoch.Decision
	if err := json.Unmarshal([]byte(body), &d); err != nil {
		t.Fatal(err)
	}
	if d.Accepted || d.Forensics == nil || d.Forensics.RequestID != victim || d.Forensics.Diff == nil {
		t.Fatalf("reject decision lacks forensics for %s: %+v", victim, d)
	}

	// Acknowledge through the API.
	resp, err := ts.Client().Post(ts.URL+"/-/api/ack", "application/json",
		strings.NewReader(`{"epoch": `+rejected+`, "note": "tamper drill"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ack: %d", resp.StatusCode)
	}
	_, body = get(t, ts, "/-/api/verdicts/"+rejected)
	if err := json.Unmarshal([]byte(body), &d); err != nil {
		t.Fatal(err)
	}
	if d.Resolution != epoch.ResolutionAcked || d.Note != "tamper drill" {
		t.Fatalf("ack did not stick: %+v", d)
	}
	if _, body := get(t, ts, "/-/metrics"); !strings.Contains(body, "orochi_rejects_unacked 0") {
		t.Fatal("acknowledged reject still counted as unacked")
	}

	// Acking an unknown epoch is a 404.
	resp, err = ts.Client().Post(ts.URL+"/-/api/ack", "application/json",
		strings.NewReader(`{"epoch": 42, "note": "?"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("ack of unknown epoch: %d", resp.StatusCode)
	}
}

// TestConsoleAbsentComponents: every component is optional; endpoints
// whose component is missing answer 404 while the rest keep serving.
func TestConsoleAbsentComponents(t *testing.T) {
	con := console.New(console.Options{})
	ts := httptest.NewServer(con.Handler())
	defer ts.Close()

	for _, path := range []string{"/-/api/epochs", "/-/api/verdicts", "/-/api/verdicts/1"} {
		if code, _ := get(t, ts, path); code != http.StatusNotFound {
			t.Fatalf("%s without components: %d, want 404", path, code)
		}
	}
	// Metrics and the index degrade to what is known (uptime).
	if code, body := get(t, ts, "/-/metrics"); code != http.StatusOK ||
		!strings.Contains(body, "orochi_uptime_seconds") || strings.Contains(body, "orochi_requests_total") {
		t.Fatalf("bare metrics: %d\n%s", code, body)
	}
	if code, body := get(t, ts, "/-/"); code != http.StatusOK || !strings.Contains(body, "orochi console") ||
		strings.Contains(body, "<h2>serving</h2>") || strings.Contains(body, "<h2>epoch pipeline</h2>") {
		t.Fatalf("bare index: %d\n%s", code, body)
	}
}

// TestConsoleFleetMetrics: a process that coordinates a fleet audit and
// serves its artifacts exposes the fleet families, including what the
// chunk transport cost on the wire and how the snapshot hand-off
// deduplicated.
func TestConsoleFleetMetrics(t *testing.T) {
	_, mgr, _ := buildPipeline(t, 2, nil)
	as, err := fleet.NewArtifactServer(mgr.Dir())
	if err != nil {
		t.Fatal(err)
	}
	coord, err := fleet.NewCoordinator(mgr.Dir(), fleet.CoordinatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	con := console.New(console.Options{FleetArtifacts: as, FleetCoordinator: coord})
	ts := httptest.NewServer(con.Handler())
	defer ts.Close()
	_, body := get(t, ts, "/-/metrics")
	for _, want := range []string{
		"orochi_fleet_chunks_served_total 0",
		"orochi_fleet_chunks_verified_total 0",
		"orochi_fleet_chunk_bytes_served_total 0",
		"orochi_fleet_workers 0",
		"orochi_fleet_init_mismatch_total 0",
		"# TYPE orochi_fleet_epochs_in_flight gauge",
		"orochi_fleet_fetched_bytes_total 0",
		"# TYPE orochi_fleet_wire_bytes_total counter",
		"orochi_fleet_wire_bytes_total 0",
		"orochi_fleet_states_derived_total 0",
		"# TYPE orochi_fleet_state_derive_seconds_total counter",
		"orochi_fleet_state_derive_seconds_total 0",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/-/metrics missing %q in:\n%s", want, body)
		}
	}
}

func itoa(n int) string { return strconv.Itoa(n) }
