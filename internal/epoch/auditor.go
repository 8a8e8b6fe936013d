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
	// Workers bounds how many epochs are audited at once (default 2).
	// Epoch N+1 is audited from epoch N's candidate final state, fixed
	// once N's redo (verifier Phases 1–2) has run, so N+1 re-executes
	// while N still does; verdicts are published in chain order and
	// N+1's only once N ACCEPTed, so the ledger is the same at any
	// setting.
	Workers int
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
	// Verify configures the underlying verifier. Its Observer, if
	// non-nil, receives the audit progress callbacks of every epoch
	// under verification; with Workers > 1 the streams of several
	// epochs interleave. The auditor additionally tracks the same
	// stream itself and exposes it as Progress() for status endpoints,
	// so most callers need no Observer of their own.
	Verify verifier.Options
}

func (o AuditorOptions) withDefaults() AuditorOptions {
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.From <= 0 {
		o.From = 1
	}
	return o
}

// Auditor drives a Ledger in-process: it discovers sealed epochs and
// audits up to Workers of them at once, publishing in chain order,
// continuously or in batches, concurrently with live serving. What a
// verdict does to the chain — including that a single REJECT, such as a
// flipped byte in a sealed segment, leaves later epochs unaudited — is
// the Ledger's.
type Auditor struct {
	dir  string
	prog *lang.Program
	opts AuditorOptions
	// never is the shared never-firing channel notifyChan falls back to
	// when no Notify channel is configured, so polling iterations don't
	// allocate a fresh channel each time around.
	never chan struct{}

	ledger *Ledger
	// openErr parks a chain this build cannot read (ErrChainFormat) or a
	// failed open of the decision log; the first RunOnce surfaces it,
	// keeping NewAuditor's signature error-free.
	openErr error

	mu       sync.Mutex
	progress map[int64]*Progress // one slot per epoch under verification
}

// NewAuditor builds an auditor over the epoch chain in dir. It opens
// the chain's durable decision log (creating it on first use) and
// starts the ledger at From with the decisions of earlier epochs
// replayed into it (see NewLedger). A chain of another format
// generation is refused before the log is touched. Neither that nor a
// failed log open fails construction; each surfaces as the first
// RunOnce's error.
func NewAuditor(prog *lang.Program, dir string, opts AuditorOptions) *Auditor {
	opts = opts.withDefaults()
	var log *DecisionLog
	openErr := CheckChainFormat(dir)
	if openErr == nil {
		if log, openErr = OpenDecisionLog(dir); openErr != nil {
			// No durable ledger, no audits: publishing verdicts that
			// vanish on restart would silently defeat the decision log.
			openErr = fmt.Errorf("epoch: decision log unavailable: %w", openErr)
		}
	}
	return &Auditor{dir: dir, prog: prog, opts: opts, never: make(chan struct{}), openErr: openErr,
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

// auditorPoll is how often Run rescans for newly sealed epochs when no
// Notify wake-up arrives.
const auditorPoll = 250 * time.Millisecond

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
		case <-time.After(auditorPoll):
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
	return a.never // never fires; the auditorPoll timer drives us
}

// RunOnce audits every currently sealed, not-yet-audited epoch,
// publishing in chain order, and returns how many verdicts it appended.
// A REJECT stops the chain; a non-nil error is an internal fault (not a
// verdict). Cancelling ctx abandons the epochs under verification with
// an error matching verifier.ErrAuditCanceled — their verdicts are NOT
// published and the auditor's position does not advance, so the next
// RunOnce re-audits them whole (symmetric with the retryable
// CheckpointError path: transient interruptions never turn into
// spurious REJECTs).
func (a *Auditor) RunOnce(ctx context.Context) (int, error) {
	if ctx.Err() != nil {
		// Check before any disk work: a dead context must not pay for a
		// full epoch load just to discard it inside the verifier.
		return 0, canceled(ctx)
	}
	if a.openErr != nil {
		return 0, a.openErr
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
	// there. An epoch 1 sealed after construction is format-checked here.
	var batch []*Sealed
	for n := a.ledger.Next(); a.opts.To == 0 || n <= a.opts.To; n++ {
		s, err := readSealed(a.dir, n)
		if err != nil {
			return 0, err
		}
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

	// Runs of epochs that need an executor go to the audit pool; the
	// ledger decides a damaged or compacted epoch itself, between runs,
	// so an adopted checkpoint seeds the next run's first epoch.
	audited := 0
	for len(batch) > 0 {
		n := 0
		for n < len(batch) && batch[n].Err == nil && !batch[n].Compacted {
			n++
		}
		if n > 0 {
			k, err := a.auditRun(ctx, batch[:n])
			audited += k
			if err != nil || !a.ledger.ChainAccepted() {
				return audited, err
			}
			batch = batch[n:]
			continue
		}
		v, final, err := a.ledger.DecideLocally(batch[0])
		if err != nil {
			return audited, err
		}
		if err := a.ledger.Publish(*v, final); err != nil {
			return audited + 1, err
		}
		audited++
		if !v.Accepted {
			break
		}
		batch = batch[1:]
	}
	return audited, nil
}

// errNoCandidate ends the audit of an epoch whose predecessor handed on
// no candidate state. It is never published: the predecessor's own
// outcome — a REJECT, a fault or a cancellation — stops the run first.
var errNoCandidate = errors.New("epoch: the previous epoch handed on no candidate state")

// auditRun audits a run of consecutive epochs that each need the
// executor, up to Workers of them at once, and publishes their verdicts
// in chain order. Each slot of the audit pool loads its epoch, waits for
// the previous epoch's candidate final state, prepares (verifier Phases
// 1–2), hands its own candidate on and re-executes; so epoch n+1 is
// loaded, redone and re-executed while epoch n still re-executes.
//
// Soundness is by induction and holds by construction: a verdict is
// published only after every earlier one, the run stops at the first
// REJECT, and epoch n's ACCEPT publishes as the next trusted initial
// state the very snapshot epoch n+1 was audited from — so the ledger,
// every decision and every checkpoint are what the sequential walk
// produces. After a REJECT or a fault everything later is cancelled and
// discarded; auditRun returns once every slot has stopped.
func (a *Auditor) auditRun(ctx context.Context, run []*Sealed) (int, error) {
	prevSHA, err := a.ledger.PrevSHA()
	if err != nil {
		return 0, err
	}
	ctx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	defer func() {
		cancel()
		wg.Wait()
	}()
	// hand[i] carries the initial state of run[i]: the ledger's for the
	// first epoch, then each epoch's candidate, exactly one send each
	// (nil when an epoch has none to give).
	hand := make([]chan *object.Snapshot, len(run)+1)
	results := make([]chan slotResult, len(run))
	for i := range hand {
		hand[i] = make(chan *object.Snapshot, 1)
		if i < len(run) {
			results[i] = make(chan slotResult, 1)
		}
	}
	hand[0] <- a.ledger.Init().Snap
	sem := make(chan struct{}, a.opts.Workers)
	wg.Add(1)
	go func() {
		defer wg.Done()
		// One dispatcher takes slots in chain order, so an epoch only ever
		// waits on an earlier one that already holds a slot.
		for i, s := range run {
			select {
			case sem <- struct{}{}:
			case <-ctx.Done():
				return
			}
			prev := prevSHA
			if i > 0 {
				prev = run[i-1].ManifestSHA
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				results[i] <- a.auditSlot(ctx, s, prev, i == 0, hand[i], hand[i+1])
			}()
		}
	}()

	audited := 0
	for i := range run {
		var r slotResult
		select {
		case r = <-results[i]:
		case <-ctx.Done():
			return audited, canceled(ctx)
		}
		<-sem
		if r.err != nil {
			return audited, r.err
		}
		if err := a.ledger.Publish(r.v, r.final); err != nil {
			// The verdict is published in memory; a log that cannot take
			// it is an internal fault the caller must see, and a checkpoint
			// that cannot be written is parked in the ledger and retried.
			return audited + 1, err
		}
		audited++
		if !r.v.Accepted {
			break
		}
	}
	return audited, nil
}

type slotResult struct {
	v     Verdict
	final State // the verified final state, on ACCEPT
	err   error
}

// auditSlot audits one epoch of a run from the initial state in `in`
// and sends its candidate on `out` as soon as Phases 1–2 fix it. first
// marks the run's first epoch, whose nil initial state means the one its
// manifest pins. A cancellation mid-verification surfaces as the
// verifier's typed error (no verdict, no chain extension); the epoch
// stays unaudited for the next pass.
func (a *Auditor) auditSlot(ctx context.Context, s *Sealed, prevSHA string, first bool,
	in <-chan *object.Snapshot, out chan<- *object.Snapshot) slotResult {
	var cand *object.Snapshot
	handed := false
	handOn := func() {
		if !handed {
			handed = true
			out <- cand
		}
	}
	defer handOn()
	loaded, loadErr := Load(s)
	init := <-in
	if init == nil && !first {
		return slotResult{err: errNoCandidate}
	}
	vopts := a.opts.Verify
	vopts.Observer = a.beginProgress(s.Number)
	defer a.endProgress(s.Number)
	v, p, err := PrepareEpoch(ctx, s, loaded, loadErr, prevSHA, init, vopts)
	if p == nil {
		return slotResult{v: v, err: err}
	}
	if cand, err = p.Candidate(); err != nil {
		return slotResult{err: err}
	}
	handOn()
	if v, err = Finish(ctx, a.prog, v, p, vopts); err != nil || !v.Accepted {
		return slotResult{v: v, err: err}
	}
	return slotResult{v: v, final: State{Snap: cand}}
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

// Verdicts returns a copy of the ledger so far, in epoch order.
func (a *Auditor) Verdicts() []Verdict { return a.ledger.Verdicts() }

// ChainAccepted reports whether every audited epoch so far accepted.
func (a *Auditor) ChainAccepted() bool { return a.ledger.ChainAccepted() }

// NextEpoch reports the next epoch the auditor will verify.
func (a *Auditor) NextEpoch() int64 { return a.ledger.Next() }
