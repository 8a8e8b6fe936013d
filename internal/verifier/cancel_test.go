package verifier

import (
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"orochi/internal/workload"
)

// These tests pin the cancellation contract of the context-aware audit:
// cancelling at ANY point yields either an error matching
// ErrAuditCanceled with no Result, or a Result bit-identical to the
// uncancelled run — never a third outcome, and in particular never a
// verdict the uncancelled audit would not have produced. CI runs this
// package under -race, so the cancel/worker-pool interleavings are
// exercised too.

// countObserver tallies every non-verdict observer callback; the tally
// enumerates the deterministic cancellation points of an audit.
type countObserver struct{ n atomic.Int64 }

func (c *countObserver) PhaseStart(string, int)              { c.n.Add(1) }
func (c *countObserver) PhaseEnd(string, time.Duration)      { c.n.Add(1) }
func (c *countObserver) GroupReexecuted(string, uint64, int) { c.n.Add(1) }
func (c *countObserver) OpsReplayed(int)                     { c.n.Add(1) }
func (c *countObserver) Verdict(bool, string)                {}

// cancelAtObserver cancels the audit's context at its at-th callback.
// Callbacks fire concurrently from pool workers, so the trigger is an
// atomic counter.
type cancelAtObserver struct {
	countObserver
	at     int64
	cancel context.CancelFunc
}

func (c *cancelAtObserver) hit() {
	// >= rather than ==: concurrent callbacks can jump the counter past
	// `at` between the Add and the Load, and cancel is idempotent.
	if c.n.Load() >= c.at {
		c.cancel()
	}
}

func (c *cancelAtObserver) PhaseStart(p string, u int) { c.countObserver.PhaseStart(p, u); c.hit() }
func (c *cancelAtObserver) PhaseEnd(p string, d time.Duration) {
	c.countObserver.PhaseEnd(p, d)
	c.hit()
}
func (c *cancelAtObserver) GroupReexecuted(s string, tag uint64, n int) {
	c.countObserver.GroupReexecuted(s, tag, n)
	c.hit()
}
func (c *cancelAtObserver) OpsReplayed(n int) { c.countObserver.OpsReplayed(n); c.hit() }

// cancelPoints spreads up to max cancellation points over [1, total],
// always covering the first few callbacks (the early phases) and the
// last one.
func cancelPoints(total int64, max int) []int64 {
	var pts []int64
	for k := int64(1); k <= total && k <= 4; k++ {
		pts = append(pts, k)
	}
	if total > 4 {
		step := (total - 4) / int64(max)
		if step < 1 {
			step = 1
		}
		for k := int64(5); k <= total; k += step {
			pts = append(pts, k)
		}
		pts = append(pts, total)
	}
	return pts
}

// checkCancelledRun validates one cancelled audit outcome against the
// uncancelled baseline: verdict absent (typed cancellation error) or
// bit-identical.
func checkCancelledRun(t *testing.T, res *Result, err error, base *Result, baseSnap string) {
	t.Helper()
	if err != nil {
		if !errors.Is(err, ErrAuditCanceled) {
			t.Fatalf("cancelled audit returned a non-cancellation error: %v", err)
		}
		if res != nil {
			t.Fatalf("cancelled audit returned both an error and a result")
		}
		return
	}
	if res.Accepted != base.Accepted || res.Reason != base.Reason {
		t.Fatalf("cancelled audit changed the verdict: got (%v, %q), want (%v, %q)",
			res.Accepted, res.Reason, base.Accepted, base.Reason)
	}
	if res.Accepted {
		snap, serr := res.FinalSnapshot()
		if serr != nil {
			t.Fatal(serr)
		}
		if got := snapshotFingerprint(t, snap); got != baseSnap {
			t.Fatalf("cancelled audit changed the final snapshot")
		}
	}
}

// TestAuditCancellationDeterminism serves the wiki workload (with
// injected faults), audits it uncancelled, then re-audits with the
// context cancelled at every deterministic observer callback point and
// at a handful of random wall-clock points. Every run must be absent or
// identical — across a parallel worker pool.
func TestAuditCancellationDeterminism(t *testing.T) {
	w := workload.WithErrors(
		workload.Wiki(workload.WikiParams{Requests: 160, Pages: 20, ZipfS: 0.53, Seed: 21}),
		workload.ErrorMixParams{Rate: 0.1, Seed: 5})
	prog, tr, art := serveParallelWorkload(t, w, 6, nil)
	rep := art.srv.Reports()

	base, err := AuditContext(context.Background(), prog, tr, rep, art.snap, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !base.Accepted {
		t.Fatalf("baseline audit rejected: %s", base.Reason)
	}
	bsnap, err := base.FinalSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	baseSnap := snapshotFingerprint(t, bsnap)

	// Enumerate the audit's callback timeline once.
	counter := &countObserver{}
	if _, err := AuditContext(context.Background(), prog, tr, rep, art.snap,
		Options{Workers: 1, Observer: counter}); err != nil {
		t.Fatal(err)
	}
	total := counter.n.Load()
	if total < 8 {
		t.Fatalf("audit produced only %d observer callbacks; the timeline is too short to test", total)
	}

	for _, k := range cancelPoints(total, 16) {
		ctx, cancel := context.WithCancel(context.Background())
		obs := &cancelAtObserver{at: k, cancel: cancel}
		res, err := AuditContext(ctx, prog, tr, rep, art.snap, Options{Workers: 4, Observer: obs})
		cancel()
		checkCancelledRun(t, res, err, base, baseSnap)
	}

	// Wall-clock-random cancellation points: no observer involved, the
	// cancel races the pool from outside.
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 8; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		delay := time.Duration(rng.Intn(1500)) * time.Microsecond
		timer := time.AfterFunc(delay, cancel)
		res, err := AuditContext(ctx, prog, tr, rep, art.snap, Options{Workers: 4})
		timer.Stop()
		cancel()
		checkCancelledRun(t, res, err, base, baseSnap)
	}
}

// TestAuditCancellationNeverFlipsReject repeats the determinism check
// against a tampered execution: the uncancelled audit REJECTs with one
// canonical reason, and a cancelled audit must report exactly that
// reject or nothing — a cancellation must never surface as a different
// (or spurious) REJECT.
func TestAuditCancellationNeverFlipsReject(t *testing.T) {
	w := workload.Wiki(workload.WikiParams{Requests: 120, Pages: 15, ZipfS: 0.53, Seed: 31})
	tamper := func(rid, body string) string {
		if rid == "r000061" {
			return body + "<!-- tampered -->"
		}
		return body
	}
	prog, tr, art := serveParallelWorkload(t, w, 4, tamper)
	rep := art.srv.Reports()

	base, err := AuditContext(context.Background(), prog, tr, rep, art.snap, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if base.Accepted {
		t.Fatal("tampered execution must REJECT")
	}

	counter := &countObserver{}
	if _, err := AuditContext(context.Background(), prog, tr, rep, art.snap,
		Options{Workers: 1, Observer: counter}); err != nil {
		t.Fatal(err)
	}

	for _, k := range cancelPoints(counter.n.Load(), 12) {
		ctx, cancel := context.WithCancel(context.Background())
		obs := &cancelAtObserver{at: k, cancel: cancel}
		res, err := AuditContext(ctx, prog, tr, rep, art.snap, Options{Workers: 4, Observer: obs})
		cancel()
		checkCancelledRun(t, res, err, base, "")
	}
}

// TestCancelledBeforeStart pins the typed error on every context-aware
// entry point when the context is already dead: no verdict, no partial
// result, errors.Is matches both ErrAuditCanceled and context.Canceled.
func TestCancelledBeforeStart(t *testing.T) {
	w := workload.Wiki(workload.WikiParams{Requests: 24, Pages: 6, ZipfS: 0.53, Seed: 41})
	prog, tr, art := serveParallelWorkload(t, w, 2, nil)
	rep := art.srv.Reports()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if res, err := AuditContext(ctx, prog, tr, rep, art.snap, Options{}); res != nil ||
		!errors.Is(err, ErrAuditCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("AuditContext on a dead context: res=%v err=%v", res, err)
	}
	if res, err := OOOAuditContext(ctx, prog, tr, rep, art.snap); res != nil ||
		!errors.Is(err, ErrAuditCanceled) {
		t.Fatalf("OOOAuditContext on a dead context: res=%v err=%v", res, err)
	}

	// The same period under a live context still ACCEPTs.
	res, err := AuditContext(context.Background(), prog, tr, rep, art.snap, Options{})
	if err != nil || !res.Accepted {
		t.Fatalf("AuditContext on a live context: res=%+v err=%v", res, err)
	}
}
