package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"orochi/internal/cas"
	"orochi/internal/epoch"
	"orochi/internal/lang"
	"orochi/internal/server"
	"orochi/internal/workload"
)

// The local auditor and the fleet coordinator are two drivers of one
// epoch.Ledger. These tests run both over the same chains and compare
// what each leaves behind.

// localAudit runs the in-process auditor to exhaustion on dir and
// closes its decision log, so the log can be read back.
func localAudit(t *testing.T, prog *lang.Program, dir string, opts epoch.AuditorOptions) *epoch.Auditor {
	t.Helper()
	a := epoch.NewAuditor(prog, dir, opts)
	if _, err := a.DrainSealed(context.Background(), time.Millisecond, nil); err != nil {
		t.Fatal(err)
	}
	if err := a.Decisions().Close(); err != nil {
		t.Fatal(err)
	}
	return a
}

// fleetAudit runs a coordinator and two workers to completion on dir
// and closes the coordinator's decision log.
func fleetAudit(t *testing.T, prog *lang.Program, dir string, opts CoordinatorOptions) *Coordinator {
	t.Helper()
	coord, ts := startFleet(t, dir, opts)
	runWorkers(t, prog, ts.URL, 2, nil)
	if err := coord.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := coord.Close(); err != nil {
		t.Fatal(err)
	}
	return coord
}

// compactChain leaves dir the way retention leaves a chain that both
// drivers still have work on: fully audited with checkpoints, every
// epoch but the first and the newest `retain` compacted to decision +
// checkpoint, and epoch 1's own decision forgotten — so an audit starts
// at epoch 1, audits it, adopts the compacted epochs and audits the
// rest. (Epoch 1 escapes compaction by losing its checkpoint first.)
func compactChain(t *testing.T, prog *lang.Program, dir string, retain int) {
	t.Helper()
	if a := localAudit(t, prog, dir, epoch.AuditorOptions{Checkpoints: true}); !a.ChainAccepted() {
		t.Fatalf("chain did not audit clean before compaction: %+v", a.Verdicts())
	}
	if err := os.Remove(filepath.Join(dir, "checkpoints", "epoch-000001.json")); err != nil {
		t.Fatal(err)
	}
	res, err := epoch.GC(dir, epoch.GCOptions{Retain: retain})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Compacted) == 0 || res.Compacted[0] != 2 {
		t.Fatalf("retention compacted %v, want epoch 2 onwards", res.Compacted)
	}
	path := filepath.Join(dir, epoch.DecisionLogName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var kept [][]byte
	for _, line := range bytes.SplitAfter(data, []byte("\n")) {
		var ev struct {
			Decision *epoch.Decision `json:"decision"`
		}
		if len(line) > 0 {
			if err := json.Unmarshal(line, &ev); err != nil {
				t.Fatal(err)
			}
		}
		if ev.Decision == nil || ev.Decision.Epoch != 1 {
			kept = append(kept, line)
		}
	}
	if err := os.WriteFile(path, bytes.Join(kept, nil), 0o644); err != nil {
		t.Fatal(err)
	}
}

// rewriteManifest changes epoch n's manifest bytes — and so its digest
// — without changing anything a reader of the manifest sees.
func rewriteManifest(t *testing.T, dir string, n int64) {
	t.Helper()
	path := filepath.Join(dir, epoch.EpochDirName(n), epoch.ManifestName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	patched := strings.Replace(string(data), "{\n", "{\n  \"future_field\": 1,\n", 1)
	if patched == string(data) {
		t.Fatal("manifest not rewritten")
	}
	if err := os.WriteFile(path, []byte(patched), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCompactedEpochMustLinkInBothDrivers: a compacted epoch is adopted
// only if its manifest links to the previous epoch's manifest as it is
// on disk. Epoch 1's manifest is rewritten after epoch 2 was compacted;
// epoch 2 must then REJECT with the same reason and ledger digest
// whether the chain is audited in-process or by a fleet. (The
// coordinator used to adopt it without the link check and ACCEPT the
// whole chain.)
func TestCompactedEpochMustLinkInBothDrivers(t *testing.T) {
	master := t.TempDir()
	prog := sealTestChain(t, master)
	compactChain(t, prog, master, 2)
	rewriteManifest(t, master, 1)

	local := localAudit(t, prog, copyChain(t, master), epoch.AuditorOptions{})
	want := normalize(t, local.Verdicts())
	if len(want) != 2 || !want[0].Accepted || want[1].Accepted ||
		!strings.Contains(want[1].Reason, "manifest chain mismatch") {
		t.Fatalf("local audit should ACCEPT epoch 1 and REJECT epoch 2 on its link: %+v", want)
	}
	coord := fleetAudit(t, prog, copyChain(t, master), CoordinatorOptions{})
	requireSameLedger(t, "fleet", normalize(t, coord.Verdicts()), want)
	if coord.ChainAccepted() || coord.ChainSHA() != want[1].ChainSHA {
		t.Fatalf("fleet chain: accepted=%v digest %.12s, want REJECT at %.12s",
			coord.ChainAccepted(), coord.ChainSHA(), want[1].ChainSHA)
	}
}

// normDecisions reads dir's decision log back with everything that
// legitimately differs between two audits of two copies of one chain
// blanked: when each verdict was decided, how long its phases took, and
// the copy's path (a damaged manifest's reason names its file).
func normDecisions(t *testing.T, dir string) []string {
	t.Helper()
	ds, err := epoch.ReadDecisions(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, d := range ds {
		d.DecidedAt = time.Time{}
		d.Timings = epoch.DecisionTimings{}
		line, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, strings.ReplaceAll(string(line), dir, "<chain>"))
	}
	return out
}

// normalizeAt is normalize with the chain copy's path blanked.
func normalizeAt(t *testing.T, vs []epoch.Verdict, dir string) []normVerdict {
	out := normalize(t, vs)
	for i := range out {
		out[i].Reason = strings.ReplaceAll(out[i].Reason, dir, "<chain>")
		out[i].Forensics = strings.ReplaceAll(out[i].Forensics, dir, "<chain>")
	}
	return out
}

// TestDecisionLogSameFromBothDrivers is the golden cross-driver test:
// the local auditor and a two-worker fleet must leave the same
// decisions.jsonl behind on a clean chain, a chain with a flipped chunk,
// one with a damaged manifest, and a retention-compacted one.
func TestDecisionLogSameFromBothDrivers(t *testing.T) {
	master := t.TempDir()
	prog := sealTestChain(t, master)
	sealed, err := epoch.ListSealed(master)
	if err != nil {
		t.Fatal(err)
	}
	if len(sealed) < 4 {
		t.Fatalf("sealed %d epochs, want >= 4", len(sealed))
	}
	chains := map[string]func(dir string){
		"clean":   func(string) {},
		"flipped": func(dir string) { tamperChunk(t, dir, uniqueChunk(t, sealed, 1)) },
		"damaged": func(dir string) {
			path := filepath.Join(dir, epoch.EpochDirName(3), epoch.ManifestName)
			if err := os.WriteFile(path, []byte("{"), 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"compacted": func(dir string) { compactChain(t, prog, dir, 2) },
	}
	for name, prepare := range chains {
		src := copyChain(t, master)
		prepare(src)
		localDir, fleetDir := copyChain(t, src), copyChain(t, src)
		local := localAudit(t, prog, localDir, epoch.AuditorOptions{})
		coord := fleetAudit(t, prog, fleetDir, CoordinatorOptions{})
		requireSameLedger(t, name, normalizeAt(t, coord.Verdicts(), fleetDir), normalizeAt(t, local.Verdicts(), localDir))
		if clean := name == "clean" || name == "compacted"; local.ChainAccepted() != clean || coord.ChainAccepted() != clean {
			t.Fatalf("%s: chain accepted local=%v fleet=%v, want %v", name, local.ChainAccepted(), coord.ChainAccepted(), clean)
		}
		got, want := normDecisions(t, fleetDir), normDecisions(t, localDir)
		if len(got) != len(want) {
			t.Fatalf("%s: fleet logged %d decisions, local %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: decision %d differs\nfleet: %s\nlocal: %s", name, i+1, got[i], want[i])
			}
		}
		if name == "compacted" {
			adopted := 0
			for _, v := range coord.Verdicts() {
				if v.Adopted {
					adopted++
				}
			}
			if adopted == 0 {
				t.Fatal("compacted: the fleet adopted no epoch")
			}
		}
	}
}

// TestChainCutBySmallerChunksStillAudits seals a chain with the chunk
// bounds the sealer used before the 32 KiB average (2 / 8 / 64 KiB),
// its trace and reports cut by content as well as its snapshots, and
// audits it with the current ones. Manifests pin chunks of any size, so
// the chain must ACCEPT through the local auditor and through the
// fleet's HTTPStore alike, with the same ledger.
func TestChainCutBySmallerChunksStillAudits(t *testing.T) {
	master := t.TempDir()
	cur, curLog := cas.DefaultChunker, cas.LogChunker
	t.Cleanup(func() { cas.DefaultChunker, cas.LogChunker = cur, curLog })
	old := cas.ChunkerOptions{Min: 2 << 10, Avg: 8 << 10, Max: 64 << 10}
	cas.DefaultChunker, cas.LogChunker = old, old
	prog := sealQuietChain(t, master, 12) // twelve distinct bodies: a trace the old bounds cut
	cas.DefaultChunker, cas.LogChunker = cur, curLog

	sealed, err := epoch.ListSealed(master)
	if err != nil {
		t.Fatal(err)
	}
	store, err := epoch.OpenChainStore(master)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		refs  []cas.Ref
		bound cas.ChunkerOptions
	}{
		{"init snapshot", sealed[0].Manifest.Init.Chunks, cur},
		{"trace", sealed[0].Manifest.Segments[0].Chunks, curLog},
	} {
		blob, err := cas.ReadBlob(store, c.refs)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(c.bound.Split(blob)); n >= len(c.refs) {
			t.Fatalf("the old bounds cut epoch 1's %s into %d chunks, the current ones into %d: nothing old to audit", c.name, len(c.refs), n)
		}
	}

	local := localAudit(t, prog, copyChain(t, master), epoch.AuditorOptions{})
	coord := fleetAudit(t, prog, copyChain(t, master), CoordinatorOptions{})
	if !local.ChainAccepted() || !coord.ChainAccepted() {
		t.Fatalf("chain accepted local=%v fleet=%v, want both", local.ChainAccepted(), coord.ChainAccepted())
	}
	want := normalize(t, local.Verdicts())
	if len(want) != len(sealed) {
		t.Fatalf("local audit decided %d of %d epochs", len(want), len(sealed))
	}
	requireSameLedger(t, "fleet", normalize(t, coord.Verdicts()), want)
}

// TestFleetCheckpointRetry: a checkpoint the coordinator could not write
// is retried with the next publish, as the local auditor retries it —
// a transient failure must not cost the chain the checkpoint a later
// resume or compaction needs — and Warnings reports only what is still
// unwritten when the audit ends.
func TestFleetCheckpointRetry(t *testing.T) {
	master := t.TempDir()
	prog := sealTestChain(t, master)
	// A plain file where checkpoints/ must go makes every write fail.
	block := func(dir string) string {
		blocker := filepath.Join(dir, "checkpoints")
		if err := os.WriteFile(blocker, []byte("in the way"), 0o644); err != nil {
			t.Fatal(err)
		}
		return blocker
	}
	// One worker, so epochs are posted one at a time; healAfter runs once
	// the coordinator has answered epoch 1's post.
	audit := func(dir string, opts CoordinatorOptions, healAfter func()) *Coordinator {
		coord, ts := startFleet(t, dir, opts)
		ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
		defer cancel()
		_, err := RunWorker(ctx, prog, WorkerOptions{Coordinator: ts.URL, Name: "w", InitPoll: 10 * time.Millisecond,
			OnEpoch: func(r EpochReport) {
				if r.Epoch == 1 {
					healAfter()
				}
			}})
		if err != nil {
			t.Fatal(err)
		}
		if err := coord.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		return coord
	}

	// Healed after epoch 1 was published without its checkpoint: the next
	// publish writes both.
	dir := copyChain(t, master)
	blocker := block(dir)
	coord := audit(dir, CoordinatorOptions{}, func() {
		if _, err := epoch.LoadCheckpointRefs(dir, 1); err == nil {
			t.Error("checkpoint written through the blocker")
		}
		if err := os.Remove(blocker); err != nil {
			t.Error(err)
		}
	})
	if w := coord.Warnings(); len(w) != 0 {
		t.Fatalf("every checkpoint was written in the end, yet: %v", w)
	}
	for _, v := range coord.Verdicts() {
		if _, err := epoch.LoadCheckpoint(dir, v.Epoch); err != nil {
			t.Fatalf("epoch %d's checkpoint missing after the retry: %v", v.Epoch, err)
		}
	}

	// Never healed: the audit still finishes, and says what it owes.
	dir = copyChain(t, master)
	block(dir)
	coord = audit(dir, CoordinatorOptions{To: 1}, func() {})
	if w := coord.Warnings(); len(w) != 1 || !strings.Contains(w[0], "epoch 1: checkpoint write failed") {
		t.Fatalf("warnings = %v, want epoch 1's unwritten checkpoint", w)
	}
}

// setManifestVersion rewrites the format stamp of epoch n's manifest:
// to version, or out of the file when version is negative.
func setManifestVersion(t *testing.T, dir string, n int64, version int) {
	t.Helper()
	path := filepath.Join(dir, epoch.EpochDirName(n), epoch.ManifestName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	stamp := fmt.Sprintf("  \"version\": %d,\n", epoch.ManifestVersion)
	repl := ""
	if version >= 0 {
		repl = fmt.Sprintf("  \"version\": %d,\n", version)
	}
	patched := strings.Replace(string(data), stamp, repl, 1)
	if patched == string(data) {
		t.Fatal("manifest version not rewritten")
	}
	if err := os.WriteFile(path, []byte(patched), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestForeignFormatRefusedNotRejected: a chain whose epoch 1 carries
// another format generation was sealed by another build. Nothing here
// can read it, and that is no evidence against the server: every entry
// point refuses it with epoch.ErrChainFormat, no verdict is published,
// and the decision log is neither created nor touched. The stamp only
// speaks for the chain through epoch 1: a later epoch that differs is a
// damaged manifest, which both drivers REJECT identically.
func TestForeignFormatRefusedNotRejected(t *testing.T) {
	master := t.TempDir()
	prog := sealTestChain(t, master)
	audited := copyChain(t, master)
	if a := localAudit(t, prog, audited, epoch.AuditorOptions{Checkpoints: true}); !a.ChainAccepted() {
		t.Fatalf("chain did not audit clean: %+v", a.Verdicts())
	}
	ctx := context.Background()
	for _, tc := range []struct {
		name    string
		version int
	}{
		{"version absent", -1},
		{"an older build's version", epoch.ManifestVersion - 1},
		{"a newer build's version", epoch.ManifestVersion + 1},
	} {
		for _, src := range []string{master, audited} {
			dir := copyChain(t, src)
			setManifestVersion(t, dir, 1, tc.version)
			logPath := filepath.Join(dir, epoch.DecisionLogName)
			before, beforeErr := os.ReadFile(logPath)
			refused := func(what string, err error) {
				t.Helper()
				if !errors.Is(err, epoch.ErrChainFormat) {
					t.Fatalf("%s: %s = %v, want epoch.ErrChainFormat", tc.name, what, err)
				}
			}

			a := epoch.NewAuditor(prog, dir, epoch.AuditorOptions{})
			if a.Decisions() != nil {
				t.Fatalf("%s: NewAuditor opened the decision log of a chain it cannot read", tc.name)
			}
			_, err := a.RunOnce(ctx)
			refused("RunOnce", err)
			_, err = a.DrainSealed(ctx, time.Millisecond, nil)
			refused("DrainSealed", err)
			if vs := a.Verdicts(); len(vs) != 0 {
				t.Fatalf("%s: the auditor published %+v", tc.name, vs)
			}
			_, err = NewCoordinator(dir, CoordinatorOptions{})
			refused("NewCoordinator", err)
			_, err = NewArtifactServer(dir)
			refused("NewArtifactServer", err)
			_, err = epoch.GC(dir, epoch.GCOptions{})
			refused("GC", err)
			_, err = epoch.Scrub(ctx, dir, epoch.ScrubOptions{Sample: -1})
			refused("Scrub", err)
			_, err = epoch.ListSealed(dir)
			refused("ListSealed", err)

			after, afterErr := os.ReadFile(logPath)
			if !bytes.Equal(before, after) || (beforeErr == nil) != (afterErr == nil) {
				t.Fatalf("%s: decisions.jsonl changed under a refused chain (before: %d bytes, %v; after: %d bytes, %v)",
					tc.name, len(before), beforeErr, len(after), afterErr)
			}
		}
	}

	// Only epoch 3 restamped: the chain is this build's, epoch 3's
	// manifest is damaged, and both drivers REJECT it alike.
	src := copyChain(t, master)
	newer := epoch.ManifestVersion + 1
	setManifestVersion(t, src, 3, newer)
	localDir, fleetDir := copyChain(t, src), copyChain(t, src)
	local := localAudit(t, prog, localDir, epoch.AuditorOptions{})
	want := normalizeAt(t, local.Verdicts(), localDir)
	if len(want) != 3 || !want[0].Accepted || !want[1].Accepted || want[2].Accepted ||
		!strings.Contains(want[2].Reason, "damaged manifest: ") || !strings.Contains(want[2].Reason, fmt.Sprintf("format generation %d", newer)) {
		t.Fatalf("local audit should ACCEPT epochs 1-2 and REJECT epoch 3's manifest: %+v", want)
	}
	coord := fleetAudit(t, prog, fleetDir, CoordinatorOptions{})
	requireSameLedger(t, "restamped epoch 3", normalizeAt(t, coord.Verdicts(), fleetDir), want)
	if coord.ChainAccepted() || coord.ChainSHA() != want[2].ChainSHA {
		t.Fatalf("fleet chain: accepted=%v digest %.12s, want REJECT at %.12s",
			coord.ChainAccepted(), coord.ChainSHA(), want[2].ChainSHA)
	}
}

// sealTamperedChain seals a seven-epoch chain from the faulted wiki
// workload, served one request at a time so that epoch k holds requests
// 10(k-1) to 10k-1, through an executor that flips one bit of the 26th
// response — request r000026, in epoch 3. It returns that request's id.
func sealTamperedChain(t *testing.T, dir string) (*lang.Program, string) {
	t.Helper()
	w := workload.WithErrors(
		workload.Wiki(workload.WikiParams{Requests: 70, Pages: 5, ZipfS: 0.53, Seed: 9}),
		workload.ErrorMixParams{Rate: 0.2, Seed: 9})
	prog := w.App.Compile()
	var served atomic.Int64
	tampered := ""
	srv := server.New(prog, server.Options{Record: true, TamperResponse: func(rid, body string) string {
		if served.Add(1) != 26 {
			return body
		}
		tampered = rid
		b := []byte(body)
		b[0] ^= 0x20
		return string(b)
	}})
	if err := srv.Setup(w.App.Schema); err != nil {
		t.Fatal(err)
	}
	if err := srv.Setup(w.Seed); err != nil {
		t.Fatal(err)
	}
	mgr, err := epoch.StartManager(dir, srv, srv.Snapshot(), epoch.ManagerOptions{EpochEvents: 20})
	if err != nil {
		t.Fatal(err)
	}
	srv.ServeAllContext(context.Background(), w.Requests, 1)
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	return prog, tampered
}

// TestMidChainTamperSameLedger: with a response tampered in epoch 3 of
// seven, epoch 4 onwards are audited from epoch 3's candidate while
// epoch 3 still re-executes — and none of it may show. The local
// auditor at Workers 1, 2 and 4 and a two-worker fleet, plain and
// cross-checking every epoch, must all publish epochs 1–2 ACCEPT and
// epoch 3 REJECT with the same forensics and digests, nothing after
// it, and leave the same decisions.jsonl behind. Workers 1 is the
// sequential walk: one epoch in flight at a time.
func TestMidChainTamperSameLedger(t *testing.T) {
	master := t.TempDir()
	prog, rid := sealTamperedChain(t, master)
	if sealed, err := epoch.ListSealed(master); err != nil || len(sealed) < 6 {
		t.Fatalf("sealed %d epochs (%v), want >= 6", len(sealed), err)
	}
	refDir := copyChain(t, master)
	want := normalizeAt(t, localAudit(t, prog, refDir, epoch.AuditorOptions{Workers: 1}).Verdicts(), refDir)
	if len(want) != 3 || !want[0].Accepted || !want[1].Accepted || want[2].Accepted ||
		!strings.Contains(want[2].Forensics, `"request_id":"`+rid+`"`) {
		t.Fatalf("sequential audit should ACCEPT epochs 1-2 and REJECT epoch 3 naming %s: %+v", rid, want)
	}
	wantLog := normDecisions(t, refDir)
	check := func(label, dir string, got []epoch.Verdict) {
		t.Helper()
		requireSameLedger(t, label, normalizeAt(t, got, dir), want)
		gotLog := normDecisions(t, dir)
		if strings.Join(gotLog, "\n") != strings.Join(wantLog, "\n") {
			t.Fatalf("%s: decisions.jsonl differs\ngot:  %s\nwant: %s", label, gotLog, wantLog)
		}
	}
	for _, workers := range []int{2, 4} {
		dir := copyChain(t, master)
		check(fmt.Sprintf("local workers=%d", workers), dir,
			localAudit(t, prog, dir, epoch.AuditorOptions{Workers: workers}).Verdicts())
	}
	for name, opts := range map[string]CoordinatorOptions{"fleet": {}, "fleet cross-check": {CrossCheck: 1}} {
		dir := copyChain(t, master)
		coord := fleetAudit(t, prog, dir, opts)
		check(name, dir, coord.Verdicts())
		if st := coord.Stats(); st.InitMismatches != 0 {
			t.Fatalf("%s: %d init mismatches on an honest fleet", name, st.InitMismatches)
		}
	}
}
