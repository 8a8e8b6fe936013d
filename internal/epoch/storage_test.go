package epoch

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"orochi/internal/cas"
	"orochi/internal/encio"
	"orochi/internal/lang"
	"orochi/internal/server"
	"orochi/internal/trace"
)

// sealChain seals >= 3 epochs into dir and returns the program.
func sealChain(t *testing.T, dir string) *lang.Program {
	t.Helper()
	prog, srv, mgr := startPipeline(t, dir, 20)
	for b := 0; b < 3; b++ {
		srv.ServeAllContext(context.Background(), burst(12, b), 3) // 24 events per burst >= 20
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	return prog
}

func TestGCSweepsOrphanChunks(t *testing.T) {
	dir := t.TempDir()
	prog := sealChain(t, dir)

	// Plant an orphan — debris a crashed seal would leave behind.
	store, err := OpenChainStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	orphan := []byte("orphaned chunk from a crashed seal")
	orphanSHA := cas.SumHex(orphan)
	if err := store.Put(orphanSHA, orphan); err != nil {
		t.Fatal(err)
	}

	dry, err := GC(dir, GCOptions{DryRun: true})
	if err != nil {
		t.Fatal(err)
	}
	if dry.SweptChunks != 1 || dry.SweptBytes == 0 {
		t.Fatalf("dry run should report exactly the orphan: %+v", dry)
	}
	if !store.Has(orphanSHA) {
		t.Fatal("dry run must not delete anything")
	}
	if len(dry.Compacted) != 0 {
		t.Fatalf("no retention requested, yet compacted %v", dry.Compacted)
	}

	res, err := GC(dir, GCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.SweptChunks != 1 {
		t.Fatalf("swept %d chunks, want 1 (the orphan)", res.SweptChunks)
	}
	if store.Has(orphanSHA) {
		t.Fatal("orphan survived the sweep")
	}
	if res.LiveChunks == 0 {
		t.Fatal("live set should not be empty")
	}

	// Every referenced chunk survived: the chain still audits clean.
	a := NewAuditor(prog, dir, AuditorOptions{})
	if _, err := a.RunOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !a.ChainAccepted() {
		t.Fatalf("chain rejected after GC: %+v", a.Verdicts())
	}
}

func TestGCRetentionSkipsUnverifiedEpochs(t *testing.T) {
	dir := t.TempDir()
	sealChain(t, dir)

	// No audit has run: no decisions, no checkpoints — nothing may be
	// compacted, however old.
	res, err := GC(dir, GCOptions{Retain: 1, DryRun: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Compacted) != 0 {
		t.Fatalf("compacted unverified epochs %v", res.Compacted)
	}
	if len(res.Skipped) == 0 {
		t.Fatal("retention candidates without decisions should be reported as skipped")
	}
}

func TestGCRetentionCompactsAndAuditorAdopts(t *testing.T) {
	dir := t.TempDir()
	prog := sealChain(t, dir)

	full := NewAuditor(prog, dir, AuditorOptions{Checkpoints: true})
	if _, err := full.RunOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	fullVerdicts := full.Verdicts()
	if !full.ChainAccepted() || len(fullVerdicts) < 3 {
		t.Fatalf("full audit failed: %+v", fullVerdicts)
	}
	n := len(fullVerdicts)

	res, err := GC(dir, GCOptions{Retain: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Compacted) != n-1 {
		t.Fatalf("compacted %v, want the %d epochs before the newest", res.Compacted, n-1)
	}
	if res.SweptChunks == 0 {
		t.Fatal("compaction should have released chunks to sweep")
	}
	marker, err := ReadCompacted(filepath.Join(dir, epochDirName(1)))
	if err != nil || marker == nil {
		t.Fatalf("epoch 1 should carry a compaction marker: %v %v", marker, err)
	}
	if marker.ManifestSHA == "" || marker.ChainSHA == "" {
		t.Fatalf("marker must pin manifest and chain digests: %+v", marker)
	}

	// A fresh auditor adopts the compacted epochs (decision +
	// checkpoint) and fully re-verifies the retained tail. The chain
	// digest must come out bit-identical to the original full audit.
	re := NewAuditor(prog, dir, AuditorOptions{})
	if _, err := re.RunOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	verdicts := re.Verdicts()
	if len(verdicts) != n {
		t.Fatalf("re-audit covered %d epochs, want %d", len(verdicts), n)
	}
	for i, v := range verdicts {
		if !v.Accepted {
			t.Fatalf("epoch %d rejected after compaction: %s", v.Epoch, v.Reason)
		}
		wantAdopted := i < n-1
		if v.Adopted != wantAdopted {
			t.Fatalf("epoch %d adopted=%v, want %v", v.Epoch, v.Adopted, wantAdopted)
		}
	}
	if got, want := verdicts[n-1].ChainSHA, fullVerdicts[n-1].ChainSHA; got != want {
		t.Fatalf("chain digest diverged after compaction: %s vs %s", got, want)
	}

	// Tampering a surviving chunk must still break the retained tail.
	sealed, err := ListSealed(dir)
	if err != nil {
		t.Fatal(err)
	}
	last := sealed[len(sealed)-1]
	refs := last.Manifest.ChunkRefs()
	if len(refs) == 0 {
		t.Fatal("retained epoch has no chunks")
	}
	tamperChunk(t, dir, refs[0].SHA256)
	post := NewAuditor(prog, dir, AuditorOptions{})
	if _, err := post.RunOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	pv := post.Verdicts()
	lastV := pv[len(pv)-1]
	if lastV.Accepted || lastV.Epoch != last.Number {
		t.Fatalf("tampered retained epoch should reject: %+v", lastV)
	}
	if !strings.Contains(lastV.Reason, refs[0].SHA256) {
		t.Fatalf("reject should name the tampered chunk digest, got: %s", lastV.Reason)
	}
}

func TestScrubDetectsTamperAndRecordsDecision(t *testing.T) {
	dir := t.TempDir()
	sealChain(t, dir)

	clean, err := Scrub(context.Background(), dir, ScrubOptions{Sample: -1})
	if err != nil {
		t.Fatal(err)
	}
	if !clean.OK() {
		t.Fatalf("clean chain failed scrub: %+v", clean.Failures)
	}
	if clean.ChunksChecked == 0 || clean.Epochs < 3 {
		t.Fatalf("scrub checked nothing: %+v", clean)
	}

	sealed, err := ListSealed(dir)
	if err != nil {
		t.Fatal(err)
	}
	sha := uniqueChunk(t, sealed, 1)
	tamperChunk(t, dir, sha)

	res, err := Scrub(context.Background(), dir, ScrubOptions{Sample: -1})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK() {
		t.Fatal("scrub missed a tampered chunk at full sampling")
	}
	found := false
	for _, f := range res.Failures {
		if f.Chunk == sha && f.Epoch == sealed[1].Number {
			found = true
		}
	}
	if !found {
		t.Fatalf("failures should name chunk %s of epoch %d: %+v", short(sha), sealed[1].Number, res.Failures)
	}

	log, err := OpenDecisionLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	appended, err := RecordScrubFailures(log, dir, res)
	if err != nil {
		t.Fatal(err)
	}
	if appended == 0 {
		t.Fatal("scrub failures should append REJECT decisions")
	}
	d, ok := log.Get(sealed[1].Number)
	if !ok || d.Accepted {
		t.Fatalf("epoch %d should hold a REJECT decision: %+v", sealed[1].Number, d)
	}
	if d.Forensics == nil || d.Forensics.Phase != PhaseScrub {
		t.Fatalf("decision should carry scrub forensics: %+v", d.Forensics)
	}
	if !strings.Contains(d.Reason, sha) {
		t.Fatalf("decision reason should name the chunk digest: %s", d.Reason)
	}
}

func TestScrubDetectsMissingChunk(t *testing.T) {
	dir := t.TempDir()
	sealChain(t, dir)
	sealed, err := ListSealed(dir)
	if err != nil {
		t.Fatal(err)
	}
	sha := uniqueChunk(t, sealed, 0)
	store, err := OpenChainStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Delete(sha); err != nil {
		t.Fatal(err)
	}
	res, err := Scrub(context.Background(), dir, ScrubOptions{Sample: -1})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK() {
		t.Fatal("scrub missed a deleted chunk")
	}
}

func TestScrubberRunOnceSharesDecisionLog(t *testing.T) {
	dir := t.TempDir()
	prog := sealChain(t, dir)
	a := NewAuditor(prog, dir, AuditorOptions{})
	if _, err := a.RunOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	sealed, err := ListSealed(dir)
	if err != nil {
		t.Fatal(err)
	}
	sha := uniqueChunk(t, sealed, 1)
	tamperChunk(t, dir, sha)

	sc := NewScrubber(dir, a.Decisions(), ScrubberOptions{Sample: -1})
	res, err := sc.RunOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.OK() {
		t.Fatal("scrubber missed the tampered chunk")
	}
	st := sc.Status()
	if st.Runs != 1 || st.Failures == 0 || st.LastFailures == 0 {
		t.Fatalf("scrubber status not updated: %+v", st)
	}
	// The failure landed in the auditor's ledger (same DecisionLog) as
	// an annotation: the epoch was audited ACCEPT before the tamper, and
	// that stored verdict must stand — a scrub failure flags it without
	// rewriting it.
	d, ok := a.Decisions().Get(sealed[1].Number)
	if !ok || !d.Accepted {
		t.Fatalf("scrub must not downgrade epoch %d's stored ACCEPT: %+v", sealed[1].Number, d)
	}
	if !d.ScrubFailed || !strings.Contains(d.ScrubDetail, sha) {
		t.Fatalf("epoch %d should carry a scrub annotation naming chunk %s: %+v", sealed[1].Number, short(sha), d)
	}
	if d.ChainSHA == "" || d.Timings.Total == 0 {
		t.Fatalf("annotation must leave the audit's chain digest and metrics intact: %+v", d)
	}

	// A second pass re-challenges the same persistent failure; the flag
	// already stands, so nothing more is appended — the log must not
	// grow every scrub interval forever.
	before := decisionLogLines(t, dir)
	if _, err := sc.RunOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if after := decisionLogLines(t, dir); after != before {
		t.Fatalf("repeated scrub pass grew the decision log: %d -> %d lines", before, after)
	}
}

// decisionLogLines counts lines of dir's decisions.jsonl.
func decisionLogLines(t *testing.T, dir string) int {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, DecisionLogName))
	if err != nil {
		t.Fatal(err)
	}
	return strings.Count(string(data), "\n")
}

func TestScrubNeverReopensAckedReject(t *testing.T) {
	dir := t.TempDir()
	prog := sealChain(t, dir)
	sealed, err := ListSealed(dir)
	if err != nil {
		t.Fatal(err)
	}
	sha := uniqueChunk(t, sealed, 1)
	tamperChunk(t, dir, sha)

	// The chain audit REJECTs the tampered epoch; an operator
	// investigates and acknowledges the verdict.
	a := NewAuditor(prog, dir, AuditorOptions{})
	if _, err := a.RunOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	n := sealed[1].Number
	if d, ok := a.Decisions().Get(n); !ok || d.Accepted {
		t.Fatalf("tampered epoch %d should hold a REJECT: %+v", n, d)
	}
	acked, err := a.Decisions().Ack(n, "tamper investigated")
	if err != nil {
		t.Fatal(err)
	}

	// A scrub pass re-finds the same damage. The acknowledged decision
	// must stand — annotated, not reopened with a fresh DecidedAt.
	res, err := Scrub(context.Background(), dir, ScrubOptions{Sample: -1})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK() {
		t.Fatal("scrub missed the tampered chunk")
	}
	if _, err := RecordScrubFailures(a.Decisions(), dir, res); err != nil {
		t.Fatal(err)
	}
	d, ok := a.Decisions().Get(n)
	if !ok || d.Resolution != ResolutionAcked || d.Note != "tamper investigated" {
		t.Fatalf("scrub reopened an acknowledged decision: %+v", d)
	}
	if !d.DecidedAt.Equal(acked.DecidedAt) {
		t.Fatalf("scrub forged a fresh DecidedAt: %v -> %v", acked.DecidedAt, d.DecidedAt)
	}
	if !d.ScrubFailed {
		t.Fatalf("acked decision should still gain the scrub annotation: %+v", d)
	}
}

func TestCompactedAdoptionFailureKeepsStoredAccept(t *testing.T) {
	dir := t.TempDir()
	prog := sealChain(t, dir)

	full := NewAuditor(prog, dir, AuditorOptions{Checkpoints: true})
	if _, err := full.RunOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !full.ChainAccepted() {
		t.Fatalf("full audit failed: %+v", full.Verdicts())
	}
	fullVerdicts := full.Verdicts()
	n := len(fullVerdicts)
	if _, err := GC(dir, GCOptions{Retain: 1}); err != nil {
		t.Fatal(err)
	}

	// Make epoch 1's checkpoint transiently unreadable: adoption fails,
	// but the stored ACCEPT — the compacted epoch's only remaining trust
	// artifact — must survive the failed run so a later run can recover.
	ckpt := checkpointPath(dir, 1)
	if err := os.Rename(ckpt, ckpt+".away"); err != nil {
		t.Fatal(err)
	}
	broken := NewAuditor(prog, dir, AuditorOptions{})
	if _, err := broken.RunOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	bv := broken.Verdicts()
	if len(bv) == 0 || bv[0].Accepted {
		t.Fatalf("adoption without a checkpoint should REJECT in-memory: %+v", bv)
	}
	if d, ok := broken.Decisions().Get(1); !ok || !d.Accepted {
		t.Fatalf("failed adoption overwrote epoch 1's stored ACCEPT: %+v (ok=%v)", d, ok)
	}

	// The failure heals; a fresh run adopts from the intact decision and
	// the chain digest comes out bit-identical to the original audit.
	if err := os.Rename(ckpt+".away", ckpt); err != nil {
		t.Fatal(err)
	}
	re := NewAuditor(prog, dir, AuditorOptions{})
	if _, err := re.RunOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !re.ChainAccepted() {
		t.Fatalf("chain did not recover after the checkpoint returned: %+v", re.Verdicts())
	}
	rv := re.Verdicts()
	if len(rv) != n || rv[n-1].ChainSHA != fullVerdicts[n-1].ChainSHA {
		t.Fatalf("recovered chain digest diverged: %+v", rv)
	}
}

func TestLockChainExcludesMaintenance(t *testing.T) {
	dir := t.TempDir()
	_, srv, mgr := startPipeline(t, dir, 1000)
	srv.ServeAllContext(context.Background(), burst(10, 0), 2)

	// A live manager holds the chain lock: maintenance must be refused.
	if _, err := LockChain(dir); !errors.Is(err, ErrChainBusy) {
		t.Fatalf("LockChain against a live manager: err=%v, want ErrChainBusy", err)
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	lock, err := LockChain(dir)
	if err != nil {
		t.Fatalf("LockChain after Close: %v", err)
	}
	if _, err := LockChain(dir); !errors.Is(err, ErrChainBusy) {
		t.Fatalf("second LockChain while held: err=%v, want ErrChainBusy", err)
	}
	if err := lock.Unlock(); err != nil {
		t.Fatal(err)
	}
	relock, err := LockChain(dir)
	if err != nil {
		t.Fatalf("LockChain after Unlock: %v", err)
	}
	relock.Unlock()
}

// copyTree copies a chain directory.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func auditVerdicts(t *testing.T, prog *lang.Program, dir string, workers int) []Verdict {
	t.Helper()
	a := NewAuditor(prog, dir, AuditorOptions{Workers: workers})
	if _, err := a.RunOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	return a.Verdicts()
}

func TestManifestUnknownFieldsAudit(t *testing.T) {
	dir := t.TempDir()
	prog, srv, mgr := startPipeline(t, dir, 1000)
	srv.ServeAllContext(context.Background(), burst(10, 0), 2)
	if err := mgr.Close(); err != nil { // single sealed epoch
		t.Fatal(err)
	}
	sealed, err := ListSealed(dir)
	if err != nil || len(sealed) != 1 {
		t.Fatalf("want exactly 1 sealed epoch: %d, %v", len(sealed), err)
	}

	// A future writer may add fields this reader doesn't know. Inject
	// one; the chain is a single epoch, so no successor pins the old
	// manifest bytes and the audit must still ACCEPT.
	path := filepath.Join(sealed[0].Dir, ManifestName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	patched := strings.Replace(string(data), "{\n", "{\n  \"future_field\": {\"nested\": [1, 2, 3]},\n", 1)
	if patched == string(data) {
		t.Fatal("failed to inject unknown field")
	}
	if err := os.WriteFile(path, []byte(patched), 0o644); err != nil {
		t.Fatal(err)
	}

	m, sha, err := ReadManifest(sealed[0].Dir)
	if err != nil {
		t.Fatalf("manifest with unknown fields failed to parse: %v", err)
	}
	if sha != cas.SumHex([]byte(patched)) {
		t.Fatal("digest must cover the on-disk bytes, unknown fields included")
	}
	if m.Epoch != sealed[0].Number || m.Version != ManifestVersion {
		t.Fatalf("known fields lost around the unknown one: %+v", m)
	}

	verdicts := auditVerdicts(t, prog, dir, 1)
	if len(verdicts) != 1 || !verdicts[0].Accepted {
		t.Fatalf("unknown manifest fields broke the audit: %+v", verdicts)
	}
}

func TestWriteManifestCleansTmpOnRenameFailure(t *testing.T) {
	dir := t.TempDir()
	// A directory squatting on the manifest name makes the final rename
	// fail after the temp file was written and fsynced.
	if err := os.Mkdir(filepath.Join(dir, ManifestName), 0o755); err != nil {
		t.Fatal(err)
	}
	_, err := WriteManifest(dir, &Manifest{Epoch: 1})
	if err == nil {
		t.Fatal("rename onto a directory should fail")
	}
	if _, serr := os.Stat(filepath.Join(dir, ManifestName+".tmp")); !os.IsNotExist(serr) {
		t.Fatalf("stale %s.tmp left behind after failed rename: %v", ManifestName, serr)
	}
}

// TestTamperedSharedBodyRejectsNamingChunk alters one byte of a response
// body that many responses of a sealed segment share. The body is stored
// once, so the flip would rewrite all of them; the chunk digest catches
// it before any is decoded, and the REJECT names the chunk.
func TestTamperedSharedBodyRejectsNamingChunk(t *testing.T) {
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
	if len(sealed) < 2 {
		t.Fatalf("sealed %d epochs, want >= 2", len(sealed))
	}
	store, err := OpenChainStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Every "now" request answers with these bytes.
	body := []byte("t=ok r=ok")
	var target cas.Ref
	var at int // offset of the body inside the target chunk
	for _, seg := range sealed[1].Manifest.Segments {
		blob, err := cas.ReadBlob(store, seg.Chunks)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := trace.DecodeRaw(blob)
		if err != nil {
			t.Fatal(err)
		}
		sharers := 0
		for _, ev := range tr.Events {
			if ev.Kind == trace.Response && ev.Body == string(body) {
				sharers++
			}
		}
		if sharers < 2 {
			continue
		}
		if n := bytes.Count(blob, body); n != 1 {
			t.Fatalf("segment %s stores the body of %d responses %d times, want once", seg.Name, sharers, n)
		}
		off := int64(bytes.Index(blob, body))
		for _, ref := range seg.Chunks {
			if off < ref.Bytes {
				target, at = ref, int(off)
				break
			}
			off -= ref.Bytes
		}
		break
	}
	if target.SHA256 == "" {
		t.Fatal("no segment of epoch 2 has two responses sharing a body")
	}
	for _, ref := range sealed[0].Manifest.ChunkRefs() {
		if ref.SHA256 == target.SHA256 {
			t.Fatal("the chunk is shared with epoch 1; tampering it would reject the wrong epoch")
		}
	}
	chunk, err := store.Get(target.SHA256)
	if err != nil {
		t.Fatal(err)
	}
	chunk[at] ^= 0x01
	zdata, err := encio.Gzip(chunk)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, CASDirName, target.SHA256[:2], target.SHA256)
	if err := os.WriteFile(path, zdata, 0o644); err != nil {
		t.Fatal(err)
	}

	a := NewAuditor(prog, dir, AuditorOptions{})
	if _, err := a.RunOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	verdicts := a.Verdicts()
	if len(verdicts) != 2 || !verdicts[0].Accepted || verdicts[1].Accepted {
		t.Fatalf("want epoch 1 ACCEPT then epoch 2 REJECT, got %+v", verdicts)
	}
	if a.ChainAccepted() {
		t.Fatal("chain accepted over a tampered body")
	}
	f := verdicts[1].Forensics
	if f == nil || f.Phase != PhaseEpochLoad || f.Check != "integrity" {
		t.Fatalf("forensics = %+v, want an %s integrity failure", f, PhaseEpochLoad)
	}
	if !strings.Contains(verdicts[1].Reason, target.SHA256) {
		t.Fatalf("reject reason %q does not name the tampered chunk %s", verdicts[1].Reason, target.SHA256)
	}
}

// TestCheckpointsAreRefLists: a checkpoint is a list of chunk refs into
// the chain store, and everything that touches checkpoints goes through
// that one form — GC marks the chunks a checkpoint names (with and
// without retention), compaction and adoption work off it, scrub
// challenges a compacted epoch's checkpoint chunk by chunk and names
// the one that fails, and a ref list GC cannot parse stops the sweep.
func TestCheckpointsAreRefLists(t *testing.T) {
	dir := t.TempDir()
	prog := sealChain(t, dir)
	full := NewAuditor(prog, dir, AuditorOptions{Checkpoints: true})
	if _, err := full.RunOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	fullVerdicts := full.Verdicts()
	n := len(fullVerdicts)
	if !full.ChainAccepted() || n < 3 {
		t.Fatalf("full audit failed: %+v", fullVerdicts)
	}
	store, err := OpenChainStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	checkpointChunks := func() map[string]bool {
		shas := make(map[string]bool)
		for e := int64(1); e <= int64(n); e++ {
			refs, err := LoadCheckpointRefs(dir, e)
			if err != nil || len(refs) == 0 {
				t.Fatalf("epoch %d checkpoint refs: %v (%d refs)", e, err, len(refs))
			}
			for _, r := range refs {
				shas[r.SHA256] = true
			}
			snap, err := LoadCheckpoint(dir, e)
			if err != nil {
				t.Fatalf("epoch %d checkpoint does not load: %v", e, err)
			}
			raw, err := snap.EncodeRaw()
			if err != nil {
				t.Fatal(err)
			}
			if got := cas.BlobBytes(refs); got != int64(len(raw)) {
				t.Fatalf("epoch %d checkpoint refs pin %d bytes, snapshot encodes to %d", e, got, len(raw))
			}
		}
		return shas
	}
	before := checkpointChunks()

	// No retention: nothing a checkpoint names may be swept.
	res, err := GC(dir, GCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.SweptChunks != 0 {
		t.Fatalf("plain GC of a fully referenced chain swept %d chunks", res.SweptChunks)
	}
	// Retention: the compacted epochs' own chunks go, their checkpoints'
	// chunks stay, and the chain still adopts to the same digest.
	res, err = GC(dir, GCOptions{Retain: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Compacted) != n-1 || res.SweptChunks == 0 {
		t.Fatalf("retention compacted %v and swept %d chunks", res.Compacted, res.SweptChunks)
	}
	for sha := range before {
		if !store.Has(sha) {
			t.Fatalf("GC swept checkpoint chunk %s", short(sha))
		}
	}
	checkpointChunks()
	re := NewAuditor(prog, dir, AuditorOptions{})
	if _, err := re.RunOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if rv := re.Verdicts(); len(rv) != n || rv[n-1].ChainSHA != fullVerdicts[n-1].ChainSHA || !rv[0].Adopted {
		t.Fatalf("adoption off ref-list checkpoints diverged: %+v", rv)
	}

	// Scrub challenges a compacted epoch through its checkpoint's chunks.
	clean, err := Scrub(context.Background(), dir, ScrubOptions{Sample: -1})
	if err != nil {
		t.Fatal(err)
	}
	if !clean.OK() || clean.Compacted != n-1 || clean.ChunksChecked == 0 {
		t.Fatalf("scrub of an intact compacted chain: %+v", clean)
	}
	refs, err := LoadCheckpointRefs(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	victim := refs[len(refs)-1].SHA256
	tamperChunk(t, dir, victim)
	dirty, err := Scrub(context.Background(), dir, ScrubOptions{Sample: -1})
	if err != nil {
		t.Fatal(err)
	}
	named := false
	for _, f := range dirty.Failures {
		if f.Name == checkpointArtifact && f.Chunk == victim {
			named = true
		}
	}
	if !named {
		t.Fatalf("scrub did not name the flipped checkpoint chunk %s: %+v", short(victim), dirty.Failures)
	}

	// A checkpoint that does not parse could name any chunk: no sweep.
	if err := os.WriteFile(checkpointPath(dir, 2), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := GC(dir, GCOptions{}); err == nil || !strings.Contains(err.Error(), "checkpoint") {
		t.Fatalf("GC swept past an unreadable checkpoint: %v", err)
	}
}

// TestLogsCutAtBoundSnapshotsByContent seals one epoch whose trace,
// reports, init and checkpoint each exceed cas.LogChunker.Max: every
// trace and reports chunk but the last is exactly LogChunker.Max bytes,
// while the init and checkpoint snapshots are cut by content, as
// cas.DefaultChunker cuts them.
func TestLogsCutAtBoundSnapshotsByContent(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(42))
	text := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = "abcdefghijklmnopqrstuvwxyz   "[rng.Intn(29)]
		}
		return string(b)
	}
	prog := compilePipelineApp(t)
	srv := server.New(prog, server.Options{Record: true})
	setup := append([]string(nil), pipelineSchema...)
	for i := 0; i < 800; i++ {
		setup = append(setup, fmt.Sprintf("INSERT INTO posts (title, votes) VALUES ('%s', 0)", text(400)))
	}
	if err := srv.Setup(setup); err != nil {
		t.Fatal(err)
	}
	mgr, err := StartManager(dir, srv, srv.Snapshot(), ManagerOptions{EpochEvents: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	var posts []trace.Input
	for i := 0; i < 700; i++ {
		posts = append(posts, trace.Input{Script: "post", Post: map[string]string{"title": text(600)}})
	}
	srv.ServeAllContext(context.Background(), posts, 4)
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	sealed, err := ListSealed(dir)
	if err != nil || len(sealed) != 1 {
		t.Fatalf("sealed %d epochs (%v), want 1", len(sealed), err)
	}
	m := sealed[0].Manifest
	for _, fi := range []FileInfo{m.Segments[0].FileInfo, m.Reports} {
		if len(fi.Chunks) < 2 {
			t.Fatalf("%s: %d bytes in %d chunk(s); the test needs a log longer than %d", fi.Name, fi.Bytes, len(fi.Chunks), cas.LogChunker.Max)
		}
		for i, r := range fi.Chunks[:len(fi.Chunks)-1] {
			if r.Bytes != int64(cas.LogChunker.Max) {
				t.Fatalf("%s chunk %d of %d is %d bytes, want LogChunker.Max %d", fi.Name, i+1, len(fi.Chunks), r.Bytes, cas.LogChunker.Max)
			}
		}
	}

	a := NewAuditor(prog, dir, AuditorOptions{Checkpoints: true})
	if _, err := a.RunOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !a.ChainAccepted() {
		t.Fatalf("chain not accepted: %+v", a.Verdicts())
	}
	checkpoint, err := LoadCheckpointRefs(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	store, err := OpenChainStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for name, refs := range map[string][]cas.Ref{"init": m.Init.Chunks, "checkpoint": checkpoint} {
		blob, err := cas.ReadBlob(store, refs)
		if err != nil {
			t.Fatal(err)
		}
		lengths := func(chunks [][]byte) string {
			var b strings.Builder
			for _, c := range chunks {
				fmt.Fprintf(&b, " %d", len(c))
			}
			return b.String()
		}
		var got strings.Builder
		for _, r := range refs {
			fmt.Fprintf(&got, " %d", r.Bytes)
		}
		if want := lengths(cas.DefaultChunker.Split(blob)); got.String() != want {
			t.Fatalf("%s chunks are%s bytes, DefaultChunker cuts%s", name, got.String(), want)
		}
		if fixed := lengths(cas.LogChunker.Split(blob)); got.String() == fixed {
			t.Fatalf("%s (%d bytes) is cut at fixed offsets:%s", name, len(blob), fixed)
		}
	}
}
