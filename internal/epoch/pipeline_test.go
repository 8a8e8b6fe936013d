package epoch

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"orochi/internal/cas"
	"orochi/internal/lang"
	"orochi/internal/object"
	"orochi/internal/server"
	"orochi/internal/trace"
	"orochi/internal/verifier"
	"orochi/internal/workload"
)

// pipelineApp exercises all three object kinds plus nondeterminism, so
// epoch audits cover registers, KV, the DB, and nondet records.
var pipelineApp = map[string]string{
	"visit": `
$user = $_COOKIE["user"];
$sess = session_get("sess:" . $user);
if (!is_array($sess)) {
  $sess = ["visits" => 0];
}
$sess["visits"] = $sess["visits"] + 1;
session_set("sess:" . $user, $sess);
$hits = apc_get("hits");
if ($hits === null) { $hits = 0; }
apc_set("hits", $hits + 1);
echo "hello " . $user . ", visit " . $sess["visits"];
`,
	"post": `
$title = $_POST["title"];
$r = db_exec("INSERT INTO posts (title, votes) VALUES (" . db_quote($title) . ", 0)");
echo "created post " . $r["insert_id"];
`,
	"vote": `
$id = intval($_GET["id"]);
db_exec("UPDATE posts SET votes = votes + 1 WHERE id = " . $id);
$rows = db_query("SELECT votes FROM posts WHERE id = " . $id);
if (count($rows) > 0) {
  echo "votes=" . $rows[0]["votes"];
} else {
  echo "no such post";
}
`,
	"now": `
$t = time();
$r = mt_rand(1, 100);
echo "t=" . ($t > 0 ? "ok" : "bad") . " r=" . (($r >= 1 && $r <= 100) ? "ok" : "bad");
`,
}

var pipelineSchema = []string{
	`CREATE TABLE posts (id INT PRIMARY KEY AUTOINCREMENT, title TEXT, votes INT)`,
}

func compilePipelineApp(t *testing.T) *lang.Program {
	t.Helper()
	prog, err := lang.Compile(pipelineApp)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return prog
}

// burst is one balanced batch of requests: epochs can only cut between
// bursts, so bursts make sealing deterministic in tests.
func burst(n, salt int) []trace.Input {
	var out []trace.Input
	for i := 0; i < n; i++ {
		switch i % 4 {
		case 0:
			out = append(out, trace.Input{Script: "visit", Cookie: map[string]string{"user": "alice"}})
		case 1:
			out = append(out, trace.Input{Script: "post", Post: map[string]string{"title": fmt.Sprintf("t%d-%d", salt, i)}})
		case 2:
			out = append(out, trace.Input{Script: "vote", Get: map[string]string{"id": "1"}})
		default:
			out = append(out, trace.Input{Script: "now"})
		}
	}
	return out
}

// startPipeline builds a recording server with the epoch manager
// attached, ready to serve.
func startPipeline(t *testing.T, dir string, epochEvents int) (*lang.Program, *server.Server, *Manager) {
	t.Helper()
	prog := compilePipelineApp(t)
	srv := server.New(prog, server.Options{Record: true})
	if err := srv.Setup(pipelineSchema); err != nil {
		t.Fatal(err)
	}
	mgr, err := StartManager(dir, srv, srv.Snapshot(), ManagerOptions{EpochEvents: epochEvents})
	if err != nil {
		t.Fatal(err)
	}
	return prog, srv, mgr
}

func TestEpochPipelineEndToEnd(t *testing.T) {
	dir := t.TempDir()
	prog, srv, mgr := startPipeline(t, dir, 40)

	// 3 bursts of 25 requests = 50 events each >= 40: each burst ends
	// with a cut, plus Close seals nothing extra (last burst cut).
	for b := 0; b < 3; b++ {
		srv.ServeAllContext(context.Background(), burst(25, b), 4)
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}

	sealed, err := ListSealed(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(sealed) < 3 {
		t.Fatalf("sealed %d epochs, want >= 3", len(sealed))
	}
	// Each epoch's trace is one artifact, however many events it holds.
	for _, s := range sealed {
		if segs := s.Manifest.Segments; len(segs) != 1 || segs[0].Name != TraceName {
			t.Fatalf("epoch %d pins trace artifacts %+v, want exactly one %s", s.Number, segs, TraceName)
		}
	}
	// The manifest hash chain must link every epoch to its predecessor.
	if sealed[0].Manifest.PrevManifestSHA256 != "" {
		t.Fatal("epoch 1 must not link to a predecessor")
	}
	if sealed[0].Manifest.Init == nil {
		t.Fatal("epoch 1 must carry the trusted init snapshot")
	}
	for i := 1; i < len(sealed); i++ {
		if sealed[i].Manifest.PrevManifestSHA256 != sealed[i-1].ManifestSHA {
			t.Fatalf("epoch %d chain link broken", sealed[i].Number)
		}
		if sealed[i].Manifest.Init != nil {
			t.Fatalf("epoch %d must not carry an init snapshot", sealed[i].Number)
		}
	}

	a := NewAuditor(prog, dir, AuditorOptions{})
	if _, err := a.RunOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	verdicts := a.Verdicts()
	if len(verdicts) != len(sealed) {
		t.Fatalf("audited %d epochs, sealed %d", len(verdicts), len(sealed))
	}
	reqs := 0
	for _, v := range verdicts {
		if !v.Accepted {
			t.Fatalf("epoch %d rejected: %s", v.Epoch, v.Reason)
		}
		if v.ChainSHA == "" {
			t.Fatalf("epoch %d has no ledger digest", v.Epoch)
		}
		reqs += v.Requests
	}
	if reqs != 75 {
		t.Fatalf("ledger covers %d requests, want 75", reqs)
	}
}

// tamperChunk flips one byte inside a stored chunk file of dir's chain
// store.
func tamperChunk(t *testing.T, dir, sha string) {
	t.Helper()
	path := filepath.Join(dir, CASDirName, sha[:2], sha)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// uniqueChunk returns a chunk digest referenced by sealed[idx] but by
// no earlier epoch, so tampering it cannot damage the epochs before it
// (chunks are shared across epochs — that is the point of the CAS).
func uniqueChunk(t *testing.T, sealed []*Sealed, idx int) string {
	t.Helper()
	prior := make(map[string]bool)
	for i := 0; i < idx; i++ {
		for _, r := range sealed[i].Manifest.ChunkRefs() {
			prior[r.SHA256] = true
		}
	}
	for _, r := range sealed[idx].Manifest.ChunkRefs() {
		if !prior[r.SHA256] {
			return r.SHA256
		}
	}
	t.Fatalf("epoch %d shares every chunk with earlier epochs", sealed[idx].Number)
	return ""
}

// TestEpochTamperBreaksChain flips one byte in a sealed chunk unique to
// epoch 2: the auditor must reject that epoch on its content digest and
// refuse to audit anything after it (the chain has no trusted state
// anymore).
func TestEpochTamperBreaksChain(t *testing.T) {
	dir := t.TempDir()
	prog, srv, mgr := startPipeline(t, dir, 40)
	for b := 0; b < 3; b++ {
		srv.ServeAllContext(context.Background(), burst(25, b), 4)
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	sealed, err := ListSealed(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(sealed) < 3 {
		t.Fatalf("sealed %d epochs, want >= 3", len(sealed))
	}

	sha := uniqueChunk(t, sealed, 1)
	tamperChunk(t, dir, sha)

	a := NewAuditor(prog, dir, AuditorOptions{})
	if _, err := a.RunOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	verdicts := a.Verdicts()
	if len(verdicts) != 2 {
		t.Fatalf("got %d verdicts, want 2 (accept, then reject stops the chain)", len(verdicts))
	}
	if !verdicts[0].Accepted {
		t.Fatalf("epoch 1 rejected: %s", verdicts[0].Reason)
	}
	if verdicts[1].Accepted {
		t.Fatal("tampered epoch 2 was accepted")
	}
	// The REJECT's forensics must name the damaged chunk.
	if verdicts[1].Forensics == nil || verdicts[1].Forensics.Phase != PhaseEpochLoad {
		t.Fatalf("tamper forensics = %+v, want phase %s", verdicts[1].Forensics, PhaseEpochLoad)
	}
	if !strings.Contains(verdicts[1].Reason, sha) {
		t.Fatalf("reject reason %q does not name the tampered chunk %s", verdicts[1].Reason, sha)
	}
	if a.ChainAccepted() {
		t.Fatal("chain still accepted after tamper")
	}
	// Later runs must not advance past the break.
	if n, err := a.RunOnce(context.Background()); err != nil || n != 0 {
		t.Fatalf("auditor advanced past a broken chain: n=%d err=%v", n, err)
	}
}

// TestSnapshotChainingAcrossEpochs pins the §4.1/§4.5 hand-off: epoch
// N+1's audit must depend on epoch N's verified final snapshot, and a
// stale initial state must be rejected.
func TestSnapshotChainingAcrossEpochs(t *testing.T) {
	dir := t.TempDir()
	prog, srv, mgr := startPipeline(t, dir, 12)

	// Epoch 1: alice visits twice and creates a post.
	srv.ServeAllContext(context.Background(), []trace.Input{
		{Script: "visit", Cookie: map[string]string{"user": "alice"}},
		{Script: "visit", Cookie: map[string]string{"user": "alice"}},
		{Script: "post", Post: map[string]string{"title": "first"}},
		{Script: "now"},
		{Script: "now"},
		{Script: "now"},
	}, 1)
	// Epoch 2: her third visit and a vote on the epoch-1 post — both
	// reproducible only from epoch 1's final state. Concurrency 1 keeps
	// the trace order deterministic for the response check below.
	srv.ServeAllContext(context.Background(), []trace.Input{
		{Script: "visit", Cookie: map[string]string{"user": "alice"}},
		{Script: "vote", Get: map[string]string{"id": "1"}},
		{Script: "now"},
		{Script: "now"},
		{Script: "now"},
		{Script: "now"},
	}, 1)
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	sealed, err := ListSealed(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(sealed) != 2 {
		t.Fatalf("sealed %d epochs, want 2", len(sealed))
	}

	// Chained audit: epoch 2 inherits epoch 1's FinalSnapshot.
	ep1, err := Load(sealed[0])
	if err != nil {
		t.Fatal(err)
	}
	res1, err := verifier.AuditContext(context.Background(), prog, ep1.Trace, ep1.Reports, ep1.Init, verifier.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res1.Accepted {
		t.Fatalf("epoch 1 rejected: %s", res1.Reason)
	}
	chained, err := res1.FinalSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	ep2, err := Load(sealed[1])
	if err != nil {
		t.Fatal(err)
	}
	res2, err := verifier.AuditContext(context.Background(), prog, ep2.Trace, ep2.Reports, chained, verifier.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Accepted {
		t.Fatalf("epoch 2 rejected under chained state: %s", res2.Reason)
	}
	// Epoch 2's responses really did depend on epoch 1's state.
	if body, ok := ep2.Trace.ResponseOf(ep2.Trace.Requests()[0].RID); !ok || body != "hello alice, visit 3" {
		t.Fatalf("epoch 2 visit response %q does not continue epoch 1's session", body)
	}
	// A stale initial state (epoch 1's start) must be rejected.
	res2stale, err := verifier.AuditContext(context.Background(), prog, ep2.Trace, ep2.Reports, object.EmptySnapshot(), verifier.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res2stale.Accepted {
		t.Fatal("epoch 2 accepted under stale initial state")
	}

	// Tampering with a chunk of epoch 1's sealed segment must be caught
	// by its content digest before any re-execution happens.
	seg := sealed[0].Manifest.Segments[0]
	if len(seg.Chunks) == 0 {
		t.Fatalf("segment %s has no chunks", seg.Name)
	}
	tamperChunk(t, dir, seg.Chunks[0].SHA256)
	if _, err := Load(sealed[0]); err == nil {
		t.Fatal("tampered epoch 1 loaded without error")
	} else if _, ok := err.(*IntegrityError); !ok {
		t.Fatalf("tamper surfaced as %T, want *IntegrityError", err)
	}
	a := NewAuditor(prog, dir, AuditorOptions{})
	if _, err := a.RunOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if a.ChainAccepted() {
		t.Fatal("chain accepted despite epoch 1 tamper")
	}
}

// TestServeWhileAudit runs the background auditor concurrently with
// live serving: verdicts accumulate while new epochs are still being
// produced, and the ledger ends complete and accepted.
func TestServeWhileAudit(t *testing.T) {
	dir := t.TempDir()
	prog, srv, mgr := startPipeline(t, dir, 30)

	a := NewAuditor(prog, dir, AuditorOptions{
		Notify: mgr.Notify(),
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = a.Run(ctx)
	}()

	for b := 0; b < 5; b++ {
		srv.ServeAllContext(context.Background(), burst(16, b), 4) // 32 events per burst >= 30
	}
	// Let the background auditor make progress while serving could
	// still continue, then drain and close.
	deadline := time.After(5 * time.Second)
	for len(a.Verdicts()) == 0 {
		select {
		case <-deadline:
			t.Fatal("background auditor made no progress while serving")
		case <-time.After(10 * time.Millisecond):
		}
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	cancel()
	<-done

	// Catch up on anything sealed after the background loop stopped.
	for {
		n, err := a.RunOnce(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			break
		}
	}
	sealed, err := ListSealed(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(sealed) < 5 {
		t.Fatalf("sealed %d epochs, want >= 5", len(sealed))
	}
	verdicts := a.Verdicts()
	if len(verdicts) != len(sealed) {
		t.Fatalf("audited %d epochs, sealed %d", len(verdicts), len(sealed))
	}
	for _, v := range verdicts {
		if !v.Accepted {
			t.Fatalf("epoch %d rejected: %s", v.Epoch, v.Reason)
		}
	}
	if !a.ChainAccepted() {
		t.Fatal("chain rejected")
	}
}

// faultedWorkload builds a small wiki workload with the error-injecting
// request mix: unknown script, undefined function, and bad SQL faults
// sprinkled among normal traffic.
func faultedWorkload() *workload.Workload {
	return workload.WithErrors(
		workload.Wiki(workload.WikiParams{Requests: 80, Pages: 5, ZipfS: 0.53, Seed: 9}),
		workload.ErrorMixParams{Rate: 0.2, Seed: 9})
}

// startFaultedPipeline provisions a recording server for the faulted
// wiki workload with the epoch manager attached.
func startFaultedPipeline(t *testing.T, dir string, w *workload.Workload, opts server.Options) (*lang.Program, *server.Server, *Manager) {
	t.Helper()
	prog := w.App.Compile()
	opts.Record = true
	srv := server.New(prog, opts)
	if err := srv.Setup(w.App.Schema); err != nil {
		t.Fatal(err)
	}
	if err := srv.Setup(w.Seed); err != nil {
		t.Fatal(err)
	}
	mgr, err := StartManager(dir, srv, srv.Snapshot(), ManagerOptions{EpochEvents: 30})
	if err != nil {
		t.Fatal(err)
	}
	return prog, srv, mgr
}

// countFaultedResponses loads every sealed epoch and counts traced
// error responses.
func countFaultedResponses(t *testing.T, dir string) int {
	t.Helper()
	sealed, err := ListSealed(dir)
	if err != nil {
		t.Fatal(err)
	}
	faulted := 0
	for _, s := range sealed {
		ep, err := Load(s)
		if err != nil {
			continue // tampered epochs fail integrity; callers check verdicts
		}
		for _, ev := range ep.Trace.Requests() {
			if body, ok := ep.Trace.ResponseOf(ev.RID); ok && strings.HasPrefix(body, "HTTP 500") {
				faulted++
			}
		}
	}
	return faulted
}

// TestEpochPipelineSurvivesFaultedPeriods is the serve-while-audit flow
// over a workload that includes faulting requests: epochs containing
// error responses must still chain to a clean ACCEPT.
func TestEpochPipelineSurvivesFaultedPeriods(t *testing.T) {
	dir := t.TempDir()
	w := faultedWorkload()
	prog, srv, mgr := startFaultedPipeline(t, dir, w, server.Options{})

	a := NewAuditor(prog, dir, AuditorOptions{
		Notify: mgr.Notify(),
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = a.Run(ctx)
	}()

	// Serve in balanced bursts so epochs cut between them.
	for i := 0; i < len(w.Requests); i += 16 {
		end := i + 16
		if end > len(w.Requests) {
			end = len(w.Requests)
		}
		srv.ServeAllContext(context.Background(), w.Requests[i:end], 4)
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	cancel()
	<-done
	for {
		n, err := a.RunOnce(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			break
		}
	}

	if faulted := countFaultedResponses(t, dir); faulted == 0 {
		t.Fatal("workload produced no faulted responses; the test exercises nothing")
	}
	sealed, err := ListSealed(dir)
	if err != nil {
		t.Fatal(err)
	}
	verdicts := a.Verdicts()
	if len(verdicts) != len(sealed) || len(verdicts) == 0 {
		t.Fatalf("audited %d epochs, sealed %d", len(verdicts), len(sealed))
	}
	for _, v := range verdicts {
		if !v.Accepted {
			t.Fatalf("epoch %d with faulted requests rejected: %s", v.Epoch, v.Reason)
		}
	}
	if !a.ChainAccepted() {
		t.Fatal("chain rejected despite honest execution")
	}
}

// TestEpochTamperedErrorBodyRejectsChain serves the same faulted
// workload through an executor that edits error bodies on the wire: the
// chain verdict must flip to REJECT at the first poisoned epoch.
func TestEpochTamperedErrorBodyRejectsChain(t *testing.T) {
	dir := t.TempDir()
	w := faultedWorkload()
	prog, srv, mgr := startFaultedPipeline(t, dir, w, server.Options{
		TamperResponse: func(rid, body string) string {
			// Rewrite the fault message: clients saw an error the program
			// could not have produced.
			return strings.Replace(body, "undefined_helper", "ghost_helper", 1)
		},
	})
	for i := 0; i < len(w.Requests); i += 16 {
		end := i + 16
		if end > len(w.Requests) {
			end = len(w.Requests)
		}
		srv.ServeAllContext(context.Background(), w.Requests[i:end], 4)
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	a := NewAuditor(prog, dir, AuditorOptions{})
	for {
		n, err := a.RunOnce(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			break
		}
	}
	if a.ChainAccepted() {
		t.Fatal("chain accepted despite tampered error bodies")
	}
	rejected := false
	for _, v := range a.Verdicts() {
		if !v.Accepted {
			rejected = true
			break
		}
	}
	if !rejected {
		t.Fatal("no epoch rejected the tampered error response")
	}
}

// TestAuditorCheckpointResume audits a chain with checkpoints on, then
// re-audits only the tail from the persisted checkpoint.
func TestAuditorCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	prog, srv, mgr := startPipeline(t, dir, 20)
	for b := 0; b < 3; b++ {
		srv.ServeAllContext(context.Background(), burst(12, b), 3) // 24 events per burst >= 20
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	full := NewAuditor(prog, dir, AuditorOptions{Checkpoints: true})
	if _, err := full.RunOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !full.ChainAccepted() || len(full.Verdicts()) < 3 {
		t.Fatalf("full audit failed: %+v", full.Verdicts())
	}

	snap, err := LoadCheckpoint(dir, 2)
	if err != nil {
		t.Fatalf("checkpoint for epoch 2 missing: %v", err)
	}
	tail := NewAuditor(prog, dir, AuditorOptions{From: 3, Init: snap})
	// The resumed auditor rehydrates epochs 1-2 from the decision log
	// (they are the prior run's verdicts), then re-audits from 3.
	if got := tail.Verdicts(); len(got) != 2 || got[0].Epoch != 1 || got[1].Epoch != 2 {
		t.Fatalf("rehydrated ledger should hold epochs 1-2: %+v", got)
	}
	if tail.NextEpoch() != 3 {
		t.Fatalf("tail audit should start at epoch 3, next = %d", tail.NextEpoch())
	}
	if _, err := tail.RunOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	verdicts := tail.Verdicts()
	if len(verdicts) < 3 || verdicts[2].Epoch != 3 {
		t.Fatalf("tail audit did not resume at epoch 3: %+v", verdicts)
	}
	for _, v := range verdicts {
		if !v.Accepted {
			t.Fatalf("epoch %d rejected on resume: %s", v.Epoch, v.Reason)
		}
	}
	// Rehydration restored the chain digest, so the resumed run's epoch-3
	// ChainSHA must equal the full run's (the ledgers agree bit for bit).
	if full.Verdicts()[2].ChainSHA != verdicts[2].ChainSHA {
		t.Fatalf("resumed chain digest diverged: %s vs %s",
			full.Verdicts()[2].ChainSHA, verdicts[2].ChainSHA)
	}
}

func TestManagerRefusesDirtyDir(t *testing.T) {
	dir := t.TempDir()
	prog, srv, mgr := startPipeline(t, dir, 12)
	_ = prog
	srv.ServeAllContext(context.Background(), burst(8, 0), 2)
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	srv2 := server.New(compilePipelineApp(t), server.Options{Record: true})
	if err := srv2.Setup(pipelineSchema); err != nil {
		t.Fatal(err)
	}
	if _, err := StartManager(dir, srv2, srv2.Snapshot(), ManagerOptions{}); err == nil {
		t.Fatal("manager accepted a directory that already holds an epoch chain")
	}
}

// TestDamagedManifestRejects: a garbled MANIFEST.json must surface as
// a REJECT verdict for that epoch, not abort the scan — and the intact
// prefix before it must still be audited.
func TestDamagedManifestRejects(t *testing.T) {
	dir := t.TempDir()
	prog, srv, mgr := startPipeline(t, dir, 20)
	for b := 0; b < 3; b++ {
		srv.ServeAllContext(context.Background(), burst(12, b), 3)
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	manPath := filepath.Join(dir, "epoch-000002", ManifestName)
	if err := os.WriteFile(manPath, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	a := NewAuditor(prog, dir, AuditorOptions{})
	if _, err := a.RunOnce(context.Background()); err != nil {
		t.Fatalf("damaged manifest aborted the audit instead of rejecting: %v", err)
	}
	verdicts := a.Verdicts()
	if len(verdicts) != 2 {
		t.Fatalf("got %d verdicts, want 2", len(verdicts))
	}
	if !verdicts[0].Accepted {
		t.Fatalf("intact epoch 1 rejected: %s", verdicts[0].Reason)
	}
	if verdicts[1].Accepted || verdicts[1].Epoch != 2 {
		t.Fatalf("damaged epoch 2 not rejected: %+v", verdicts[1])
	}
	if a.ChainAccepted() {
		t.Fatal("chain accepted despite damaged manifest")
	}
}

// requireOnlySealedEpochs checks that every epoch directory under dir
// holds its manifest and nothing else: the trace of an epoch still
// being served lives only in memory, and sealing writes its artifacts
// to the chunk store.
func requireOnlySealedEpochs(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if epochDirNumber(e.Name()) == 0 {
			continue
		}
		files, err := os.ReadDir(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, f := range files {
			names = append(names, f.Name())
		}
		if len(names) != 1 || names[0] != ManifestName {
			t.Fatalf("%s holds %v, want only %s", e.Name(), names, ManifestName)
		}
	}
}

// TestChainDirHoldsOnlySealedEpochs: the live epoch never reaches disk
// before it is sealed, and each sealed epoch pins its trace as one
// artifact whose body table spans the whole epoch.
func TestChainDirHoldsOnlySealedEpochs(t *testing.T) {
	dir := t.TempDir()
	_, srv, mgr := startPipeline(t, dir, 40)
	// One request at a time, every response is a balanced point, so
	// each burst of 40 events is exactly one epoch.
	for b := 0; b < 3; b++ {
		srv.ServeAllContext(context.Background(), burst(20, b), 1)
	}
	srv.ServeAllContext(context.Background(), burst(10, 3), 1) // mid-epoch
	deadline := time.Now().Add(10 * time.Second)
	for len(mgr.Status().Sealed) < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("sealed %d of 3 cut epochs", len(mgr.Status().Sealed))
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := mgr.Status(); st.CurrentEpoch != 4 || st.CurrentEvents != 20 {
		t.Fatalf("status: epoch %d with %d events, want epoch 4 with 20", st.CurrentEpoch, st.CurrentEvents)
	}
	requireOnlySealedEpochs(t, dir)
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	requireOnlySealedEpochs(t, dir)

	sealed, err := ListSealed(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(sealed) != 4 {
		t.Fatalf("sealed %d epochs, want 4", len(sealed))
	}
	store, err := OpenChainStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	shared := 0
	for _, s := range sealed {
		if len(s.Manifest.Segments) != 1 {
			t.Fatalf("epoch %d pins %d trace artifacts, want 1", s.Number, len(s.Manifest.Segments))
		}
		blob, err := cas.ReadBlob(store, s.Manifest.Segments[0].Chunks)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := trace.DecodeRaw(blob)
		if err != nil {
			t.Fatal(err)
		}
		responses := make(map[string]int)
		for _, ev := range tr.Events {
			if ev.Kind == trace.Response {
				responses[ev.Body]++
			}
		}
		// Bodies answered more than once are long enough not to occur
		// inside another field, so counting their bytes counts copies.
		for body, n := range responses {
			if n < 2 {
				continue
			}
			shared++
			if got := bytes.Count(blob, []byte(body)); got != 1 {
				t.Fatalf("epoch %d stores the body %q of %d responses %d times, want once", s.Number, body, n, got)
			}
		}
	}
	if shared == 0 {
		t.Fatal("no epoch has two responses sharing a body; the test checks nothing")
	}
}

// TestSealFailureStopsChainKeepsServing blocks epoch 3's directory with
// a file. Its seal fails, and the chain ends there: serving continues,
// every later period is cut and discarded, the error surfaces through
// Status and Close, and the epochs sealed before the failure still
// audit.
func TestSealFailureStopsChainKeepsServing(t *testing.T) {
	dir := t.TempDir()
	prog, srv, mgr := startPipeline(t, dir, 40)
	if err := os.WriteFile(filepath.Join(dir, epochDirName(3)), []byte("in the way"), 0o644); err != nil {
		t.Fatal(err)
	}
	const bursts = 10
	for b := 0; b < bursts; b++ {
		if err := srv.ServeAllContext(context.Background(), burst(25, b), 4); err != nil {
			t.Fatalf("burst %d: %v", b, err)
		}
		// Each burst of 50 events ends in a cut, sealed or discarded.
		if n := srv.Trace().Len(); n >= 40 {
			t.Fatalf("after burst %d the collector buffers %d events", b, n)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for mgr.Status().Err == "" {
		if time.Now().After(deadline) {
			t.Fatal("the failed seal never surfaced in Status")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Serving still runs against the live state: 6 posts per burst.
	if _, body := srv.Handle(trace.Input{Script: "post", Post: map[string]string{"title": "after"}}); body != fmt.Sprintf("created post %d", 6*bursts+1) {
		t.Fatalf("served %q after the failure", body)
	}
	st := mgr.Status()
	err := mgr.Close()
	if err == nil || err.Error() != st.Err || !strings.Contains(err.Error(), "seal 3") {
		t.Fatalf("Close = %v, want the failure Status reported (%q)", err, st.Err)
	}

	sealed, lerr := ListSealed(dir)
	if lerr != nil {
		t.Fatal(lerr)
	}
	if len(sealed) != 2 || sealed[0].Number != 1 || sealed[1].Number != 2 {
		t.Fatalf("sealed %+v, want epochs 1 and 2 only", sealed)
	}
	for n := int64(4); n <= bursts+1; n++ {
		if _, err := os.Stat(filepath.Join(dir, epochDirName(n))); !os.IsNotExist(err) {
			t.Fatalf("epoch %d has a directory after the chain ended at epoch 3: %v", n, err)
		}
	}
	// Without the blocker, which an auditor would read as a damaged
	// epoch 3, the chain is the two epochs sealed before the failure.
	if err := os.Remove(filepath.Join(dir, epochDirName(3))); err != nil {
		t.Fatal(err)
	}
	a := NewAuditor(prog, dir, AuditorOptions{})
	if _, err := a.RunOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	verdicts := a.Verdicts()
	if len(verdicts) != 2 || !verdicts[0].Accepted || !verdicts[1].Accepted || !a.ChainAccepted() {
		t.Fatalf("want epochs 1-2 ACCEPT, got %+v", verdicts)
	}
}
