package epoch

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"orochi/internal/verifier"
)

// TestAuditorNotifyChanShared pins the fix for the per-poll allocation:
// with no Notify channel configured, every poll iteration must reuse
// one shared never-firing channel instead of allocating a fresh one.
func TestAuditorNotifyChanShared(t *testing.T) {
	a := NewAuditor(nil, t.TempDir(), AuditorOptions{})
	if a.notifyChan() != a.notifyChan() {
		t.Fatal("notifyChan allocates a new channel per call when Notify is unset")
	}
	notify := make(chan struct{})
	b := NewAuditor(nil, t.TempDir(), AuditorOptions{Notify: notify})
	if b.notifyChan() != (<-chan struct{})(notify) {
		t.Fatal("notifyChan must return the configured Notify channel")
	}
}

// TestAuditorCheckpointRetry pins the fix for the lost-checkpoint bug:
// RunOnce used to advance past an epoch before its checkpoint write
// succeeded, so a transient write failure permanently skipped that
// epoch's checkpoint and a later -from resume failed. The failed write
// must be retried on the next RunOnce.
func TestAuditorCheckpointRetry(t *testing.T) {
	dir := t.TempDir()
	prog, srv, mgr := startPipeline(t, dir, 20)
	for b := 0; b < 3; b++ {
		srv.ServeAllContext(context.Background(), burst(12, b), 3) // 24 events per burst >= 20
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}

	// Block checkpoint writes: a plain file where the checkpoints
	// directory must go makes MkdirAll fail.
	blocker := filepath.Join(dir, "checkpoints")
	if err := os.WriteFile(blocker, []byte("in the way"), 0o644); err != nil {
		t.Fatal(err)
	}

	a := NewAuditor(prog, dir, AuditorOptions{Checkpoints: true})
	audited, err := a.RunOnce(context.Background())
	if err == nil {
		t.Fatal("RunOnce must surface the checkpoint write failure")
	}
	var ck *CheckpointError
	if !errors.As(err, &ck) || ck.Epoch != 1 {
		t.Fatalf("want a CheckpointError for epoch 1, got %v", err)
	}
	if audited != 1 {
		t.Fatalf("audited %d epochs before the write failure, want 1", audited)
	}
	// The verdict is already published and the chain advanced — only the
	// checkpoint is owed.
	if got := a.NextEpoch(); got != 2 {
		t.Fatalf("NextEpoch = %d after epoch 1's verdict, want 2", got)
	}
	if verdicts := a.Verdicts(); len(verdicts) != 1 || !verdicts[0].Accepted {
		t.Fatalf("epoch 1 verdict not published: %+v", verdicts)
	}

	// Still blocked: the retry must fail again without auditing further.
	if n, err := a.RunOnce(context.Background()); err == nil {
		t.Fatal("RunOnce must keep failing while the checkpoint cannot be written")
	} else if n != 0 {
		t.Fatalf("RunOnce audited %d epochs past an unwritten checkpoint", n)
	}

	// Unblock and let the retry land.
	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	for {
		n, err := a.RunOnce(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			break
		}
	}
	if !a.ChainAccepted() || len(a.Verdicts()) < 3 {
		t.Fatalf("chain audit incomplete after retry: %+v", a.Verdicts())
	}
	// Every epoch's checkpoint exists — including epoch 1, whose first
	// write failed — and a -from resume works from the retried one.
	for n := int64(1); n <= 2; n++ {
		if _, err := LoadCheckpoint(dir, n); err != nil {
			t.Fatalf("checkpoint for epoch %d missing after retry: %v", n, err)
		}
	}
	snap, err := LoadCheckpoint(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	tail := NewAuditor(prog, dir, AuditorOptions{From: 2, Init: snap})
	// Epoch 1's verdict is rehydrated from the decision log; the
	// re-audit itself starts at epoch 2.
	if tail.NextEpoch() != 2 {
		t.Fatalf("resume from retried checkpoint should audit from epoch 2, next = %d", tail.NextEpoch())
	}
	if _, err := tail.RunOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	verdicts := tail.Verdicts()
	if len(verdicts) < 2 || verdicts[0].Epoch != 1 || verdicts[1].Epoch != 2 {
		t.Fatalf("resume from retried checkpoint did not re-audit epoch 2: %+v", verdicts)
	}
	for _, v := range verdicts {
		if !v.Accepted {
			t.Fatalf("epoch %d rejected on resume: %s", v.Epoch, v.Reason)
		}
	}
}

// TestAuditorRunRetriesCheckpointWrites drives the continuous Run loop
// through a transient checkpoint-write failure: Run must poll through
// the retryable CheckpointError (verdicts keep getting published) and
// finish cleanly once the write succeeds — not abandon the chain.
func TestAuditorRunRetriesCheckpointWrites(t *testing.T) {
	dir := t.TempDir()
	prog, srv, mgr := startPipeline(t, dir, 20)
	for b := 0; b < 2; b++ {
		srv.ServeAllContext(context.Background(), burst(12, b), 3) // 24 events per burst >= 20: 2 epochs
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	blocker := filepath.Join(dir, "checkpoints")
	if err := os.WriteFile(blocker, []byte("in the way"), 0o644); err != nil {
		t.Fatal(err)
	}

	// The blocked window below is shorter than one auditorPoll tick,
	// far under the maxCheckpointRetries budget.
	a := NewAuditor(prog, dir, AuditorOptions{Checkpoints: true, To: 2})
	done := make(chan error, 1)
	go func() { done <- a.Run(context.Background()) }()

	// Epoch 1's verdict lands even while its checkpoint cannot be
	// written; Run keeps retrying instead of exiting.
	waitFor(t, "epoch 1 verdict", func() bool { return len(a.Verdicts()) >= 1 })
	select {
	case err := <-done:
		t.Fatalf("Run gave up on a retryable checkpoint failure: %v", err)
	case <-time.After(50 * time.Millisecond):
	}

	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not finish after the checkpoint path was unblocked")
	}
	if !a.ChainAccepted() || len(a.Verdicts()) != 2 {
		t.Fatalf("chain incomplete: %+v", a.Verdicts())
	}
	for n := int64(1); n <= 2; n++ {
		if _, err := LoadCheckpoint(dir, n); err != nil {
			t.Fatalf("checkpoint for epoch %d missing: %v", n, err)
		}
	}
}

// TestAuditorRunSurfacesPersistentCheckpointFailure: a checkpoint path
// that never becomes writable must not stall Run silently forever — the
// error surfaces after the bounded retry budget.
func TestAuditorRunSurfacesPersistentCheckpointFailure(t *testing.T) {
	dir := t.TempDir()
	prog, srv, mgr := startPipeline(t, dir, 20)
	srv.ServeAllContext(context.Background(), burst(12, 0), 3)
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	blocker := filepath.Join(dir, "checkpoints")
	if err := os.WriteFile(blocker, []byte("in the way"), 0o644); err != nil {
		t.Fatal(err)
	}
	a := NewAuditor(prog, dir, AuditorOptions{Checkpoints: true, To: 1})
	done := make(chan error, 1)
	go func() { done <- a.Run(context.Background()) }()
	select {
	case err := <-done:
		var ck *CheckpointError
		if !errors.As(err, &ck) {
			t.Fatalf("want a surfaced CheckpointError, got %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run retried a permanently failing checkpoint forever")
	}
	// The verdict itself was still published.
	if v := a.Verdicts(); len(v) != 1 || !v[0].Accepted {
		t.Fatalf("epoch 1 verdict missing: %+v", v)
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAuditorParallelVerifyMatches audits one chain with sequential and
// parallel verifier options; the ledger must be identical.
func TestAuditorParallelVerifyMatches(t *testing.T) {
	dir := t.TempDir()
	prog, srv, mgr := startPipeline(t, dir, 20)
	for b := 0; b < 2; b++ {
		srv.ServeAllContext(context.Background(), burst(12, b), 3)
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	run := func(workers int) []Verdict {
		a := NewAuditor(prog, dir, AuditorOptions{Verify: verifier.Options{Workers: workers}})
		if _, err := a.RunOnce(context.Background()); err != nil {
			t.Fatal(err)
		}
		return a.Verdicts()
	}
	seq, par := run(1), run(8)
	if len(seq) != len(par) || len(seq) == 0 {
		t.Fatalf("ledger lengths differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i].Accepted != par[i].Accepted || seq[i].Reason != par[i].Reason ||
			seq[i].ChainSHA != par[i].ChainSHA {
			t.Fatalf("epoch %d verdicts differ: %+v vs %+v", seq[i].Epoch, seq[i], par[i])
		}
	}
}

// overlapWatch is an observer that holds the first re-execution phase
// until a second epoch is under audit (or a deadline passes), and
// records the deepest in-flight count and progress line it saw.
type overlapWatch struct {
	a       *Auditor
	once    sync.Once
	mu      sync.Mutex
	deepest Progress
}

func (o *overlapWatch) note() {
	p := o.a.Progress()
	o.mu.Lock()
	if p.InFlight > o.deepest.InFlight {
		o.deepest = p
	}
	o.mu.Unlock()
}

func (o *overlapWatch) PhaseStart(phase string, _ int) {
	if phase == verifier.PhaseReExec {
		o.once.Do(func() {
			for deadline := time.Now().Add(5 * time.Second); o.a.Progress().InFlight < 2 && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
		})
	}
	o.note()
}
func (o *overlapWatch) PhaseEnd(string, time.Duration)      {}
func (o *overlapWatch) GroupReexecuted(string, uint64, int) { o.note() }
func (o *overlapWatch) OpsReplayed(int)                     {}
func (o *overlapWatch) Verdict(bool, string)                {}

// TestAuditorOverlapsEpochs: with Workers 2 the next epoch is audited
// from the candidate state while the one before still re-executes —
// Progress names the older epoch and counts both — and the ledger is
// the one the sequential walk (Workers 1) publishes.
func TestAuditorOverlapsEpochs(t *testing.T) {
	dir := t.TempDir()
	prog, srv, mgr := startPipeline(t, dir, 20)
	for b := 0; b < 4; b++ {
		srv.ServeAllContext(context.Background(), burst(12, b), 3)
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	run := func(workers int, obs verifier.Observer) *Auditor {
		a := NewAuditor(prog, dir, AuditorOptions{Workers: workers, Verify: verifier.Options{Observer: obs}})
		if w, ok := obs.(*overlapWatch); ok {
			w.a = a
		}
		if _, err := a.DrainSealed(context.Background(), time.Millisecond, nil); err != nil {
			t.Fatal(err)
		}
		return a
	}
	watch := &overlapWatch{}
	seq, par := run(1, nil), run(2, watch)
	if p := watch.deepest; p.InFlight != 2 || !strings.Contains(p.String(), "2 epoch(s) in flight") {
		t.Fatalf("never saw two epochs in flight: %+v %q", p, p.String())
	}
	if p := par.Progress(); p.Epoch != 0 || p.InFlight != 0 {
		t.Fatalf("progress not cleared after the drain: %+v", p)
	}
	want, got := seq.Verdicts(), par.Verdicts()
	if len(want) < 3 || len(got) != len(want) {
		t.Fatalf("ledgers of %d and %d epochs, want the same >= 3", len(want), len(got))
	}
	for i := range want {
		if !got[i].Accepted || got[i].ChainSHA != want[i].ChainSHA || got[i].ManifestSHA != want[i].ManifestSHA {
			t.Fatalf("epoch %d: %+v, sequential %+v", want[i].Epoch, got[i], want[i])
		}
	}
}
