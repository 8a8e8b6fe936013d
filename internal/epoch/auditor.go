package epoch

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"orochi/internal/lang"
	"orochi/internal/object"
	"orochi/internal/verifier"
)

// AuditorOptions configures a chain auditor.
type AuditorOptions struct {
	// Workers bounds how many epochs are loaded and integrity-checked
	// concurrently, ahead of the (inherently sequential) verification
	// stage (default 2). Verification is sequential because epoch N+1's
	// trusted initial state is epoch N's verified final snapshot.
	Workers int
	// Poll is how often Run rescans for newly sealed epochs when no
	// notification channel fires (default 250ms).
	Poll time.Duration
	// Notify, if non-nil, wakes Run early (the manager's Notify channel).
	Notify <-chan struct{}
	// From is the first epoch to audit (default 1). Starting past 1
	// requires Init or a checkpoint for From-1 (see Checkpoints).
	From int64
	// To is the last epoch to audit (0 = unbounded; Run keeps watching).
	To int64
	// Init overrides the trusted initial state of epoch From. When
	// zero-valued, epoch 1 uses its manifest's init snapshot and
	// From > 1 loads checkpoint From-1.
	Init *object.Snapshot
	// Checkpoints, when true, persists each accepted epoch's verified
	// final snapshot under <dir>/checkpoints/, so a later audit run can
	// resume from the middle of the chain (default off; the CLI enables
	// it).
	Checkpoints bool
	// Verify configures the underlying verifier.
	Verify verifier.Options
	// Observer, if non-nil, receives the per-epoch audit progress
	// callbacks (verifier.Observer) for whichever epoch is currently
	// under verification. The auditor additionally tracks the same
	// stream itself and exposes it as Progress() for status endpoints,
	// so most callers need no Observer of their own. It supersedes
	// Verify.Observer, which the auditor overrides per epoch.
	Observer verifier.Observer
}

func (o AuditorOptions) withDefaults() AuditorOptions {
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.Poll <= 0 {
		o.Poll = 250 * time.Millisecond
	}
	if o.From <= 0 {
		o.From = 1
	}
	return o
}

// Auditor drives a Ledger in-process: it discovers sealed epochs,
// prefetches them, and audits them in chain order, continuously or in
// batches, concurrently with live serving. What a verdict does to the
// chain — including that a single REJECT, such as a flipped byte in a
// sealed segment, leaves later epochs unaudited — is the Ledger's.
type Auditor struct {
	dir  string
	prog *lang.Program
	opts AuditorOptions
	// never is the shared never-firing channel notifyChan falls back to
	// when no Notify channel is configured, so polling iterations don't
	// allocate a fresh channel each time around.
	never chan struct{}

	ledger *Ledger
	// logErr parks a failed open of the decision log; the first RunOnce
	// surfaces it, keeping NewAuditor's signature error-free.
	logErr error

	mu       sync.Mutex
	progress Progress
}

// NewAuditor builds an auditor over the epoch chain in dir. It opens
// the chain's durable decision log (creating it on first use) and
// starts the ledger at From with the decisions of earlier epochs
// replayed into it (see NewLedger). A failed log open does not fail
// construction; it surfaces as the first RunOnce's error.
func NewAuditor(prog *lang.Program, dir string, opts AuditorOptions) *Auditor {
	opts = opts.withDefaults()
	log, logErr := OpenDecisionLog(dir)
	return &Auditor{dir: dir, prog: prog, opts: opts, never: make(chan struct{}), logErr: logErr,
		ledger: NewLedger(dir, log, opts.From, State{Snap: opts.Init}, opts.Checkpoints)}
}

// Ledger exposes the chain ledger the auditor feeds.
func (a *Auditor) Ledger() *Ledger { return a.ledger }

// Decisions exposes the durable decision log (nil when its open
// failed); the console serves verdict history and acks through it.
func (a *Auditor) Decisions() *DecisionLog { return a.ledger.Decisions() }

// maxCheckpointRetries bounds how many consecutive failed checkpoint
// writes Run polls through before surfacing the error: transient
// failures self-heal within a few poll ticks, while a permanently
// unwritable checkpoint path must not stall auditing silently forever.
const maxCheckpointRetries = 10

// ckptRetryBudget is the consecutive-stalled-failure rule shared by Run
// and DrainSealed: forward progress resets the budget, and only a
// CheckpointError within the budget is retryable.
type ckptRetryBudget struct{ failures int }

// observe classifies one RunOnce outcome. It returns true when err is a
// retryable checkpoint failure within budget (the caller should wait
// and call RunOnce again); false means err must be surfaced as-is (or
// is nil).
func (b *ckptRetryBudget) observe(n int, err error) bool {
	if n > 0 || err == nil {
		// Forward progress (new verdicts, or a pass without a write
		// failure): only *consecutive* stalled failures count against the
		// budget — per-epoch transient flaps that heal on the next poll
		// must not accumulate into an abort.
		b.failures = 0
	}
	if err == nil {
		return false
	}
	var ck *CheckpointError
	if !errors.As(err, &ck) || b.failures >= maxCheckpointRetries {
		return false
	}
	b.failures++
	return true
}

// Run audits sealed epochs as they appear until ctx is cancelled (or,
// when To is set, until To has been audited — and its checkpoint
// persisted — or the chain breaks). On cancellation it returns an error
// matching both verifier.ErrAuditCanceled and the context error; a
// cancellation that lands mid-epoch abandons that epoch's verification
// without publishing any verdict (never a REJECT — the executor did
// nothing wrong), so a later Run or RunOnce re-audits the epoch from
// scratch. It returns nil on a completed bounded run. A CheckpointError
// from RunOnce is retryable (the verdict is published, only the
// snapshot write is owed), so Run keeps polling through it; after
// maxCheckpointRetries consecutive failures it returns the error
// instead.
func (a *Auditor) Run(ctx context.Context) error {
	var budget ckptRetryBudget
	for {
		n, err := a.RunOnce(ctx)
		if errors.Is(err, verifier.ErrAuditCanceled) {
			return err
		}
		if !budget.observe(n, err) && err != nil {
			return err
		}
		if !a.ledger.ChainAccepted() || (a.opts.To > 0 && a.ledger.Next() > a.opts.To &&
			len(a.ledger.UnwrittenCheckpoints()) == 0) {
			return nil
		}
		select {
		case <-ctx.Done():
			return canceled(ctx)
		case <-a.notifyChan():
		case <-time.After(a.opts.Poll):
		}
	}
}

// canceled wraps a context cancellation so callers can match it as
// verifier.ErrAuditCanceled and as the underlying context error alike,
// whether the cancellation landed mid-epoch or between epochs.
func canceled(ctx context.Context) error {
	return fmt.Errorf("epoch: %w: %w", verifier.ErrAuditCanceled, context.Cause(ctx))
}

func (a *Auditor) notifyChan() <-chan struct{} {
	if a.opts.Notify != nil {
		return a.opts.Notify
	}
	return a.never // never fires; the Poll timer drives us
}

// RunOnce audits every currently sealed, not-yet-audited epoch in chain
// order and returns how many verdicts it appended. A REJECT stops the
// chain; a non-nil error is an internal fault (not a verdict).
// Cancelling ctx abandons the epoch currently under verification with
// an error matching verifier.ErrAuditCanceled — its verdict is NOT
// published and the auditor's position does not advance, so the next
// RunOnce re-audits it whole (symmetric with the retryable
// CheckpointError path: transient interruptions never turn into
// spurious REJECTs).
func (a *Auditor) RunOnce(ctx context.Context) (int, error) {
	if ctx.Err() != nil {
		// Check before any disk work: a dead context must not pay for a
		// full epoch load just to discard it inside the verifier.
		return 0, canceled(ctx)
	}
	if a.logErr != nil {
		// No durable ledger, no audits: publishing verdicts that vanish
		// on restart would silently defeat the decision log.
		return 0, fmt.Errorf("epoch: decision log unavailable: %w", a.logErr)
	}
	if !a.ledger.ChainAccepted() {
		return 0, nil
	}
	// A checkpoint whose write failed last time must land before any new
	// verdicts: a path that stays unwritable then stalls the audit and
	// runs out Run's retry budget, instead of the chain growing past a
	// checkpoint it never got.
	if err := a.ledger.FlushCheckpoints(); err != nil {
		return 0, err
	}

	// Probe epoch directories directly from the ledger's position — the
	// naming scheme is deterministic, so discovering new work is O(new
	// epochs), not a full O(chain length) rescan on every poll. The probe
	// stops at the first unsealed epoch, which also enforces chain
	// contiguity: a gap (an epoch lost before sealing) simply never
	// closes, and later sealed epochs stay unaudited — surfaced by
	// callers comparing NextEpoch against what exists on disk. It stops
	// at a damaged manifest too: that is a REJECT, and the chain ends
	// there.
	var batch []*Sealed
	for n := a.ledger.Next(); a.opts.To == 0 || n <= a.opts.To; n++ {
		s := readSealed(a.dir, n)
		if s == nil {
			break
		}
		batch = append(batch, s)
		if s.Err != nil {
			break
		}
	}
	if len(batch) == 0 {
		return 0, nil
	}

	// Stage 1 (worker pool): load + integrity-check epochs concurrently.
	// A semaphore slot is held from load start until stage 2 consumes
	// the result, so at most Workers fully decoded epochs sit in memory
	// ahead of the (slower) sequential verification stage. A single
	// dispatcher acquires slots in chain order — were loaders to race
	// for slots themselves, later epochs could hold every slot while
	// the consumer waits on an earlier epoch that can never start.
	futures := make([]chan loadResult, len(batch))
	for i := range futures {
		futures[i] = make(chan loadResult, 1)
	}
	sem := make(chan struct{}, a.opts.Workers)
	go func() {
		for i, s := range batch {
			sem <- struct{}{}
			go func(i int, s *Sealed) {
				if s.Err != nil || s.Compacted {
					// Nothing to load: the ledger decides these itself.
					futures[i] <- loadResult{}
					return
				}
				l, err := Load(s)
				futures[i] <- loadResult{loaded: l, err: err}
			}(i, s)
		}
	}()
	consumed := 0
	defer func() {
		// On an early return (verifier fault or chain break), drain the
		// abandoned prefetches in the background so their loader
		// goroutines don't block on the semaphore forever.
		go func(from int) {
			for i := from; i < len(batch); i++ {
				<-futures[i]
				<-sem
			}
		}(consumed)
	}()

	// Stage 2 (sequential): decide in chain order; the ledger threads
	// each verified final snapshot forward.
	audited := 0
	for i, s := range batch {
		r := <-futures[i]
		<-sem
		consumed = i + 1
		verdict, final, err := a.auditOne(ctx, s, r)
		if err != nil {
			return audited, err
		}
		if err := a.ledger.Publish(*verdict, final); err != nil {
			// The verdict is published in memory; a log that cannot take
			// it is an internal fault the caller must see, and a checkpoint
			// that cannot be written is parked in the ledger and retried.
			return audited + 1, err
		}
		audited++
		if !verdict.Accepted {
			break
		}
	}
	return audited, nil
}

// DrainSealed synchronously audits every currently sealed,
// not-yet-audited epoch — the catch-up counterpart of Run for CLI use.
// Retryable checkpoint-write failures are polled through with the same
// maxCheckpointRetries budget as Run, waiting `wait` between attempts
// and resetting on forward progress; onRetry, when non-nil, observes
// each retried error. Cancelling ctx abandons the drain (mid-epoch
// cancellations publish no verdict, exactly as in RunOnce) with an
// error matching verifier.ErrAuditCanceled. It returns the number of
// verdicts appended.
func (a *Auditor) DrainSealed(ctx context.Context, wait time.Duration, onRetry func(error)) (int, error) {
	total := 0
	var budget ckptRetryBudget
	for {
		n, err := a.RunOnce(ctx)
		total += n
		if errors.Is(err, verifier.ErrAuditCanceled) {
			return total, err
		}
		if budget.observe(n, err) {
			if onRetry != nil {
				onRetry(err)
			}
			select {
			case <-ctx.Done():
				return total, canceled(ctx)
			case <-time.After(wait):
			}
			continue
		}
		if err != nil {
			return total, err
		}
		if n == 0 {
			return total, nil
		}
	}
}

type loadResult struct {
	loaded *Loaded
	err    error
}

// auditOne produces the verdict for the ledger's next epoch and, on
// acceptance, the verified final state that seeds the one after. A
// cancellation mid-verification surfaces as the verifier's typed error
// (no verdict, no chain extension); the epoch stays unaudited for the
// next pass.
func (a *Auditor) auditOne(ctx context.Context, s *Sealed, r loadResult) (*Verdict, State, error) {
	if v, final, err := a.ledger.DecideLocally(s); v != nil || err != nil {
		return v, final, err
	}
	prevSHA, err := a.ledger.PrevSHA()
	if err != nil {
		return nil, State{}, err
	}
	vopts := a.opts.Verify
	vopts.Observer = a.beginProgress(s.Number)
	defer a.endProgress()
	v, snap, err := AuditEpoch(ctx, a.prog, s, r.loaded, r.err, prevSHA, a.ledger.Init().Snap, vopts)
	return &v, State{Snap: snap}, err
}

// Verdicts returns a copy of the ledger so far, in epoch order.
func (a *Auditor) Verdicts() []Verdict { return a.ledger.Verdicts() }

// ChainAccepted reports whether every audited epoch so far accepted.
func (a *Auditor) ChainAccepted() bool { return a.ledger.ChainAccepted() }

// NextEpoch reports the next epoch the auditor will verify.
func (a *Auditor) NextEpoch() int64 { return a.ledger.Next() }
