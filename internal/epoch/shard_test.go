package epoch

import (
	"context"
	"testing"

	"orochi/internal/server"
)

// TestEpochCutMidBurstSharded runs the epoch pipeline over a sharded
// server under continuous concurrent traffic: epoch cuts land at
// whatever balanced points the burst happens to pass through, the
// recorder swap in Cut races the very next request's recorder load, and
// every sealed epoch must still audit ACCEPT with the chain intact.
// Run under -race this also pins that SwapRecorder via atomic.Pointer
// is race-free against the lock-free serving hot path.
func TestEpochCutMidBurstSharded(t *testing.T) {
	dir := t.TempDir()
	prog := compilePipelineApp(t)
	srv := server.New(prog, server.Options{Record: true, Shards: 8})
	if err := srv.Setup(pipelineSchema); err != nil {
		t.Fatal(err)
	}
	mgr, err := StartManager(dir, srv, srv.Snapshot(), ManagerOptions{EpochEvents: 30})
	if err != nil {
		t.Fatal(err)
	}

	// One continuous stream, no deliberate drain points: cuts happen
	// mid-burst wherever the trace is momentarily balanced.
	const n = 240
	srv.ServeAllContext(context.Background(), burst(n, 1), 6)
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}

	a := NewAuditor(prog, dir, AuditorOptions{})
	if _, err := a.RunOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	verdicts := a.Verdicts()
	if len(verdicts) == 0 {
		t.Fatal("no epochs audited")
	}
	reqs := 0
	for _, v := range verdicts {
		if !v.Accepted {
			t.Fatalf("epoch %d rejected: %s", v.Epoch, v.Reason)
		}
		reqs += v.Requests
	}
	if reqs != n {
		t.Fatalf("ledger covers %d requests, want %d", reqs, n)
	}
	if !a.ChainAccepted() {
		t.Fatal("chain verdict must be ACCEPT")
	}
}
