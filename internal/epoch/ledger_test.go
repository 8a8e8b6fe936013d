package epoch

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"orochi/internal/object"
)

// patchManifest changes epoch n's manifest bytes, and so its digest,
// without changing anything a reader of the manifest sees.
func patchManifest(t *testing.T, dir string, n int64) {
	t.Helper()
	path := filepath.Join(dir, epochDirName(n), ManifestName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	patched := strings.Replace(string(data), "{\n", "{\n  \"future_field\": 1,\n", 1)
	if patched == string(data) {
		t.Fatal("manifest not patched")
	}
	if err := os.WriteFile(path, []byte(patched), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestLedgerDecidesLocally puts every decision the ledger makes without
// an executor to epoch 2 of a chain that was audited with checkpoints
// and compacted down to its newest epoch: what the verdict says, and
// what publishing it does to the stored decision.
func TestLedgerDecidesLocally(t *testing.T) {
	master := t.TempDir()
	prog := sealChain(t, master)
	full := NewAuditor(prog, master, AuditorOptions{Checkpoints: true})
	if _, err := full.RunOnce(t.Context()); err != nil || !full.ChainAccepted() || len(full.Verdicts()) < 3 {
		t.Fatalf("full audit: %v, %+v", err, full.Verdicts())
	}
	wantChain := full.Verdicts()[1].ChainSHA
	full.Decisions().Close()
	intact := t.TempDir() // the same chain, nothing compacted
	copyTree(t, master, intact)
	if res, err := GC(master, GCOptions{Retain: 1}); err != nil || len(res.Compacted) < 2 {
		t.Fatalf("compaction: %v, %+v", err, res)
	}

	cases := []struct {
		name   string
		src    string
		mutate func(dir string, log *DecisionLog)
		// The verdict wanted: none (the epoch needs an executor) when
		// neither accepted nor check is set.
		accepted   bool
		check      string
		reason     string
		keepStored bool
		// What the log must hold for epoch 2 once the verdict is published.
		storedAccepted bool
		storedReason   string
	}{
		{name: "intact epoch needs an executor", src: intact},
		{name: "damaged manifest", src: intact,
			mutate: func(dir string, _ *DecisionLog) {
				if err := os.WriteFile(filepath.Join(dir, epochDirName(2), ManifestName), []byte("{"), 0o644); err != nil {
					t.Fatal(err)
				}
			},
			check: "integrity", reason: "epoch 2 integrity: damaged manifest: "},
		{name: "compacted, adopted", src: master,
			accepted: true, storedAccepted: true},
		{name: "compacted, does not link to the previous manifest", src: master,
			mutate: func(dir string, _ *DecisionLog) { patchManifest(t, dir, 1) },
			check:  "manifest-chain", reason: "manifest chain mismatch: epoch 2 links to ",
			storedReason: "manifest chain mismatch"},
		{name: "compacted, stored decision is no ACCEPT", src: master,
			mutate: func(_ string, log *DecisionLog) {
				if err := log.Append(Decision{Epoch: 2, Reason: "stored reject"}); err != nil {
					t.Fatal(err)
				}
			},
			check: "compaction", reason: "epoch 2 is compacted but the decision log holds no ACCEPT for it",
			keepStored: true, storedReason: "stored reject"},
		{name: "compacted, stored decision pins another manifest", src: master,
			mutate: func(dir string, _ *DecisionLog) { patchManifest(t, dir, 2) },
			check:  "compaction", reason: "epoch 2 is compacted but its stored decision pins manifest ",
			keepStored: true, storedAccepted: true},
		{name: "compacted, checkpoint unreadable", src: master,
			mutate: func(dir string, _ *DecisionLog) {
				if err := os.Remove(checkpointPath(dir, 2)); err != nil {
					t.Fatal(err)
				}
			},
			check: "compaction", reason: "epoch 2 is compacted but its checkpoint is unreadable: ",
			keepStored: true, storedAccepted: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			copyTree(t, tc.src, dir)
			log, err := OpenDecisionLog(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer log.Close()
			if tc.mutate != nil {
				tc.mutate(dir, log)
			}
			init, err := loadCheckpoint(dir, 1)
			if err != nil {
				t.Fatal(err)
			}
			l := NewLedger(dir, log, 2, init, true)
			s, err := readSealed(dir, 2)
			if err != nil {
				t.Fatal(err)
			}
			v, final, err := l.DecideLocally(s)
			if err != nil {
				t.Fatal(err)
			}
			if tc.check == "" && !tc.accepted {
				if v != nil {
					t.Fatalf("decided an epoch that needs an executor: %+v", v)
				}
				return
			}
			if v == nil {
				t.Fatal("no local decision")
			}
			if v.Accepted != tc.accepted || v.Adopted != tc.accepted || v.KeepStored != tc.keepStored ||
				!strings.HasPrefix(v.Reason, tc.reason) {
				t.Fatalf("verdict %+v, want accepted=%v keepStored=%v reason %q…", v, tc.accepted, tc.keepStored, tc.reason)
			}
			if !tc.accepted && (v.Forensics == nil || v.Forensics.Phase != PhaseEpochLoad ||
				v.Forensics.Check != tc.check || v.Forensics.Detail != v.Reason) {
				t.Fatalf("forensics %+v, want epoch-load/%s carrying the reason", v.Forensics, tc.check)
			}
			if tc.accepted && (final.Snap == nil || len(final.Refs) == 0) {
				t.Fatalf("adoption must hand on the checkpoint in both forms: %+v", final)
			}

			lines := decisionLogLines(t, dir)
			if err := l.Publish(*v, final); err != nil {
				t.Fatal(err)
			}
			d, _ := log.Get(2)
			if d.Accepted != tc.storedAccepted || !strings.HasPrefix(d.Reason, tc.storedReason) {
				t.Fatalf("stored decision after publish: %+v", d)
			}
			if kept := tc.accepted || tc.keepStored; kept != (decisionLogLines(t, dir) == lines) {
				t.Fatalf("decision log grew=%v, want kept=%v", decisionLogLines(t, dir) != lines, kept)
			}
			if l.ChainAccepted() != tc.accepted {
				t.Fatalf("ChainAccepted=%v", l.ChainAccepted())
			}
			if tc.accepted && (l.Next() != 3 || l.ChainSHA() != wantChain || l.Init().Snap != final.Snap) {
				t.Fatalf("adoption left the ledger at next=%d chain=%.12s, want 3 and the full audit's %.12s",
					l.Next(), l.ChainSHA(), wantChain)
			}
		})
	}
}

// TestLedgerRehydrates: a ledger starts with the stored decisions of
// the epochs before its first, and resumes the digest sequence only
// from a contiguous prefix whose last decision carries a digest.
func TestLedgerRehydrates(t *testing.T) {
	accept := func(n int64, chain string) Decision {
		return Decision{Epoch: n, Accepted: true, ManifestSHA: "m", ChainSHA: chain}
	}
	reject := func(n int64, chain string) Decision {
		return Decision{Epoch: n, Reason: "stored reject", ManifestSHA: "m", ChainSHA: chain}
	}
	trusted := State{Snap: object.EmptySnapshot()}
	cases := []struct {
		name     string
		stored   []Decision
		from     int64
		init     State
		verdicts int
		chain    string
		broken   bool
	}{
		{name: "fresh chain", from: 1},
		{name: "contiguous prefix", stored: []Decision{accept(1, "c1"), accept(2, "c2")}, from: 3, init: trusted,
			verdicts: 2, chain: "c2"},
		{name: "decisions at or after from are left to the re-audit", stored: []Decision{accept(1, "c1"), accept(2, "c2")}, from: 2, init: trusted,
			verdicts: 1, chain: "c1"},
		{name: "gap in the prefix", stored: []Decision{accept(1, "c1"), accept(3, "c3")}, from: 4, init: trusted,
			verdicts: 2},
		{name: "prefix ends before from", stored: []Decision{accept(1, "c1")}, from: 3, init: trusted,
			verdicts: 1},
		{name: "stored REJECT breaks the chain", stored: []Decision{accept(1, "c1"), reject(2, "c2")}, from: 3,
			verdicts: 2, chain: "c2", broken: true},
		{name: "stored REJECT, resumed past with a trusted state", stored: []Decision{accept(1, "c1"), reject(2, "c2")}, from: 3, init: trusted,
			verdicts: 2, chain: "c2"},
		{name: "digest-less scrub decision seeds no digest", stored: []Decision{accept(1, "c1"), reject(2, "")}, from: 3,
			verdicts: 2, broken: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			log, err := OpenDecisionLog(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer log.Close()
			for _, d := range tc.stored {
				if err := log.Append(d); err != nil {
					t.Fatal(err)
				}
			}
			l := NewLedger(dir, log, tc.from, tc.init, false)
			if got := len(l.Verdicts()); got != tc.verdicts || l.ChainSHA() != tc.chain ||
				l.ChainAccepted() == tc.broken || l.Next() != tc.from {
				t.Fatalf("verdicts=%d chain=%q accepted=%v next=%d, want %d %q %v %d",
					got, l.ChainSHA(), l.ChainAccepted(), l.Next(), tc.verdicts, tc.chain, !tc.broken, tc.from)
			}
		})
	}
}

// TestLedgerPublish pins the digest sequence, the chain-order rule, and
// the one checkpoint policy: a write that fails is parked and retried
// by every later publish and flush, and nothing is lost when it heals.
func TestLedgerPublish(t *testing.T) {
	dir := t.TempDir()
	log, err := OpenDecisionLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	blocker := filepath.Join(dir, "checkpoints")
	if err := os.WriteFile(blocker, []byte("in the way"), 0o644); err != nil {
		t.Fatal(err)
	}
	l := NewLedger(dir, log, 1, State{}, true)
	digest := func(prev, manifest string, verdict byte) string {
		sum := sha256.Sum256(append([]byte(prev+manifest), verdict))
		return hex.EncodeToString(sum[:])
	}
	final := State{Snap: object.EmptySnapshot()}
	var ck *CheckpointError

	if err := l.Publish(Verdict{Epoch: 2, Accepted: true}, final); err == nil || errors.As(err, &ck) || len(l.Verdicts()) != 0 {
		t.Fatalf("epoch 2 published before epoch 1: %v", err)
	}
	if err := l.Publish(Verdict{Epoch: 1, Accepted: true, ManifestSHA: "m1"}, final); !errors.As(err, &ck) || ck.Epoch != 1 {
		t.Fatalf("want epoch 1's CheckpointError, got %v", err)
	}
	c1 := digest("", "m1", 1)
	if d, ok := log.Get(1); !ok || !d.Accepted || d.ChainSHA != c1 || l.Next() != 2 || l.ChainSHA() != c1 {
		t.Fatalf("the verdict must stand without its checkpoint: %+v next=%d", d, l.Next())
	}
	if err := l.Publish(Verdict{Epoch: 2, Accepted: true, ManifestSHA: "m2"}, final); !errors.As(err, &ck) || ck.Epoch != 1 {
		t.Fatalf("still blocked, want epoch 1's CheckpointError first, got %v", err)
	}
	if owed := l.UnwrittenCheckpoints(); len(owed) != 2 || owed[0].Epoch != 1 || owed[1].Epoch != 2 || owed[1].Err == nil {
		t.Fatalf("unwritten: %+v", owed)
	}
	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	if err := l.Publish(Verdict{Epoch: 3, ManifestSHA: "m3", Reason: "no"}, State{}); err != nil {
		t.Fatalf("a REJECT still flushes what is owed: %v", err)
	}
	for n := int64(1); n <= 2; n++ {
		if _, err := loadCheckpoint(dir, n); err != nil {
			t.Fatalf("epoch %d's checkpoint: %v", n, err)
		}
	}
	if _, err := os.Stat(checkpointPath(dir, 3)); err == nil || len(l.UnwrittenCheckpoints()) != 0 {
		t.Fatal("a REJECT has no checkpoint, and nothing else is owed")
	}
	c3 := digest(digest(c1, "m2", 1), "m3", 0)
	if l.ChainAccepted() || l.ChainSHA() != c3 || l.Next() != 3 || l.Verdicts()[2].ChainSHA != c3 {
		t.Fatalf("after the REJECT: accepted=%v chain=%.12s next=%d", l.ChainAccepted(), l.ChainSHA(), l.Next())
	}
	if err := l.Publish(Verdict{Epoch: 3, Accepted: true}, final); err == nil || len(l.Verdicts()) != 3 {
		t.Fatalf("a broken chain took another verdict: %v", err)
	}
}
