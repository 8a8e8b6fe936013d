package epoch

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"orochi/internal/verifier"
)

// cancelOnGroup cancels a context the first time a control-flow group
// re-executes — a deterministic mid-epoch cancellation point.
type cancelOnGroup struct {
	cancel context.CancelFunc
	fired  atomic.Bool
}

func (c *cancelOnGroup) PhaseStart(string, int)         {}
func (c *cancelOnGroup) PhaseEnd(string, time.Duration) {}
func (c *cancelOnGroup) GroupReexecuted(string, uint64, int) {
	if c.fired.CompareAndSwap(false, true) {
		c.cancel()
	}
}
func (c *cancelOnGroup) OpsReplayed(int)      {}
func (c *cancelOnGroup) Verdict(bool, string) {}

// TestAuditorCancellationPublishesNoVerdict pins the shutdown-mid-epoch
// contract: cancelling the auditor while it is verifying an epoch must
// never publish a verdict for it — not ACCEPT, and above all not a
// spurious REJECT. The position does not advance (symmetric with the
// retryable CheckpointError path), so the next RunOnce re-audits the
// epoch from scratch and the chain completes cleanly.
func TestAuditorCancellationPublishesNoVerdict(t *testing.T) {
	dir := t.TempDir()
	prog, srv, mgr := startPipeline(t, dir, 20)
	for b := 0; b < 3; b++ {
		srv.ServeAllContext(context.Background(), burst(12, b), 3) // 24 events per burst >= 20: seals epochs
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	obs := &cancelOnGroup{cancel: cancel}
	// Workers: 1 keeps the cancellation point deterministic: with one
	// epoch in flight and a sequential pool the cancel always lands
	// before the first epoch's remaining group tasks, so it can never
	// finish.
	a := NewAuditor(prog, dir, AuditorOptions{
		Workers:  1,
		Observer: obs,
		Verify:   verifier.Options{Workers: 1},
	})

	err := a.Run(ctx)
	if !errors.Is(err, verifier.ErrAuditCanceled) {
		t.Fatalf("cancelled Run returned %v; want an ErrAuditCanceled match", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Run must also match context.Canceled, got %v", err)
	}
	if !obs.fired.Load() {
		t.Fatal("cancellation point never fired: the test cancelled nothing")
	}
	if v := a.Verdicts(); len(v) != 0 {
		t.Fatalf("cancelled mid-epoch audit published %d verdict(s): %+v", len(v), v)
	}
	if got := a.NextEpoch(); got != 1 {
		t.Fatalf("cancelled auditor advanced to epoch %d; must stay at 1", got)
	}
	if !a.ChainAccepted() {
		t.Fatal("cancellation broke the chain: it must not count as a REJECT")
	}
	if p := a.Progress(); p.Epoch != 0 {
		t.Fatalf("progress not cleared after cancellation: %+v", p)
	}

	// The same auditor, given a live context, re-audits the interrupted
	// epoch whole and completes the chain. (The observer keeps calling
	// its cancel, but that context is already dead — the new one is
	// untouched.)
	if _, err := a.RunOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	verdicts := a.Verdicts()
	if len(verdicts) == 0 {
		t.Fatal("re-audit after cancellation produced no verdicts")
	}
	for _, v := range verdicts {
		if !v.Accepted {
			t.Fatalf("epoch %d rejected after a cancelled first attempt: %s", v.Epoch, v.Reason)
		}
	}
	if !a.ChainAccepted() {
		t.Fatal("chain must ACCEPT after the clean re-audit")
	}
}

// TestDrainSealedCancelled pins DrainSealed's cancellation path: a dead
// context drains nothing and surfaces the typed cancellation error.
func TestDrainSealedCancelled(t *testing.T) {
	dir := t.TempDir()
	prog, srv, mgr := startPipeline(t, dir, 20)
	srv.ServeAllContext(context.Background(), burst(12, 0), 3)
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	a := NewAuditor(prog, dir, AuditorOptions{})
	n, err := a.DrainSealed(ctx, time.Millisecond, nil)
	if n != 0 || !errors.Is(err, verifier.ErrAuditCanceled) {
		t.Fatalf("DrainSealed on a dead context: n=%d err=%v", n, err)
	}
	if len(a.Verdicts()) != 0 {
		t.Fatal("cancelled drain published verdicts")
	}
}
