package epoch

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
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

// Verdict is one entry of the audit ledger.
type Verdict struct {
	Epoch    int64
	Accepted bool
	Reason   string // empty when accepted
	// Forensics is the structured evidence behind a REJECT: the
	// verifier's record for verification failures, or an epoch-level
	// record (integrity/chain failures) built here. Nil when accepted.
	Forensics *verifier.Forensics
	Events    int
	Requests  int
	// AuditTime is the verifier's wall time for this epoch (zero when
	// the epoch was rejected before verification, e.g. on an integrity
	// failure).
	AuditTime time.Duration
	// Stats is the verifier's cost decomposition (zero value when
	// verification never ran).
	Stats verifier.Stats
	// ManifestSHA is the digest of this epoch's manifest file.
	ManifestSHA string
	// ChainSHA is the running ledger digest: H(prev ChainSHA ||
	// ManifestSHA || verdict byte). Two auditors that agree on the last
	// ChainSHA agree on every verdict before it.
	ChainSHA string
	// Adopted marks a compacted epoch whose stored ACCEPT decision and
	// checkpoint were adopted instead of re-verified (retention
	// compaction evicted its artifacts). Adopted verdicts extend the
	// chain digest exactly as a full audit would, but are not
	// re-appended to the decision log — the stored decision, possibly
	// acknowledged, stands.
	Adopted bool
	// KeepStored marks a REJECT whose epoch holds a stored ACCEPT that
	// must survive it: a compacted epoch's adoption failed (unreadable
	// checkpoint, manifest mismatch), which can be transient — its bulk
	// artifacts are gone, so the stored ACCEPT is the only trust
	// artifact left and overwriting it with this verdict would make the
	// failure permanent. The verdict still breaks this run's chain; a
	// later run re-attempts adoption from the intact decision.
	KeepStored bool
}

// Auditor verifies a chain of sealed epochs, continuously or in
// batches, concurrently with live serving. Epoch N+1's trusted initial
// state is epoch N's verified final snapshot (verifier.Result.
// FinalSnapshot), so a single REJECT — including an integrity failure
// such as a flipped byte in a sealed segment — poisons the chain: later
// epochs have no trusted initial state and are reported as blocked
// rather than audited.
type Auditor struct {
	dir  string
	prog *lang.Program
	opts AuditorOptions
	// never is the shared never-firing channel notifyChan falls back to
	// when no Notify channel is configured, so polling iterations don't
	// allocate a fresh channel each time around.
	never chan struct{}

	// log is the durable decision ledger (decisions.jsonl in dir); a
	// failed open is parked in logErr and surfaced by the first RunOnce,
	// keeping NewAuditor's signature error-free.
	log    *DecisionLog
	logErr error

	mu       sync.Mutex
	verdicts []Verdict
	next     int64 // next epoch number to audit
	init     *object.Snapshot
	prevSHA  string // manifest digest the next epoch must chain to
	chainSHA string
	broken   bool
	progress Progress
	// pendingCkpt holds a verified final snapshot whose checkpoint write
	// failed; the next RunOnce retries it before auditing further, so a
	// transient write failure never permanently skips an epoch's
	// checkpoint (which would break a later -from resume).
	pendingCkpt *pendingCheckpoint
}

type pendingCheckpoint struct {
	n    int64
	snap *object.Snapshot
}

// CheckpointError reports a failed write of an epoch's verified final
// snapshot. The epoch's verdict is already published and the snapshot
// is parked for a retry on the next RunOnce, so the failure is
// transient from the chain's point of view: Run keeps polling through
// it instead of abandoning the audit loop.
type CheckpointError struct {
	Epoch int64
	Err   error
}

func (e *CheckpointError) Error() string {
	return fmt.Sprintf("epoch %d: checkpoint write failed (will retry): %v", e.Epoch, e.Err)
}

func (e *CheckpointError) Unwrap() error { return e.Err }

// NewAuditor builds an auditor over the epoch chain in dir. It opens
// the chain's durable decision log (creating it on first use) and
// rehydrates the ledger with the decisions of epochs before From —
// verdicts published by an earlier run, which would otherwise be
// invisible to Verdicts() and the status endpoints after a restart. A
// failed log open does not fail construction; it surfaces as the first
// RunOnce's error.
func NewAuditor(prog *lang.Program, dir string, opts AuditorOptions) *Auditor {
	opts = opts.withDefaults()
	a := &Auditor{dir: dir, prog: prog, opts: opts, never: make(chan struct{}),
		next: opts.From, init: opts.Init}
	a.log, a.logErr = OpenDecisionLog(dir)
	if a.log != nil {
		a.rehydrate()
	}
	return a
}

// rehydrate replays prior-run decisions for epochs before From into the
// in-memory ledger. The chain digest resumes from the last rehydrated
// decision only when the rehydrated prefix is contiguous and ends at
// From-1 — otherwise this run's digests start a fresh sequence rather
// than silently chaining across a gap. Decisions at or after From are
// left to the coming re-audit (its verdicts replace them in the log).
func (a *Auditor) rehydrate() {
	var prior []Verdict
	for _, d := range a.log.Decisions() {
		if d.Epoch < a.opts.From {
			prior = append(prior, verdictFromDecision(d))
		}
	}
	if len(prior) == 0 {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.verdicts = append(a.verdicts, prior...)
	for _, v := range prior {
		if !v.Accepted && a.init == nil {
			// A prior REJECT poisons the chain for this run too — unless
			// the caller supplied a trusted initial state (Init, e.g. from
			// a checkpoint), which is the explicit way to resume past one.
			a.broken = true
		}
	}
	last := prior[len(prior)-1]
	if last.Epoch == a.opts.From-1 && int64(len(prior)) == last.Epoch-prior[0].Epoch+1 &&
		last.ChainSHA != "" {
		// A decision with no chain digest (a scrub REJECT recorded for a
		// never-audited epoch) cannot seed the digest sequence; without
		// it this run's digests start fresh rather than silently chaining
		// from an empty string.
		a.chainSHA = last.ChainSHA
	}
}

// Decisions exposes the durable decision log (nil when its open
// failed); the console serves verdict history and acks through it.
func (a *Auditor) Decisions() *DecisionLog { return a.log }

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
		a.mu.Lock()
		done := a.broken || (a.opts.To > 0 && a.next > a.opts.To && a.pendingCkpt == nil)
		a.mu.Unlock()
		if done {
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
	a.mu.Lock()
	if a.broken {
		a.mu.Unlock()
		return 0, nil
	}
	start := a.next
	a.mu.Unlock()

	// A checkpoint whose write failed last time must land before any new
	// verdicts: its epoch has already been published and a.next advanced
	// past it, so this retry is the only path that ever writes it.
	if err := a.flushPendingCheckpoint(); err != nil {
		return 0, err
	}

	// Probe epoch directories directly from `start` — the naming scheme
	// is deterministic, so discovering new work is O(new epochs), not a
	// full O(chain length) rescan on every poll. The probe stops at the
	// first unsealed epoch, which also enforces chain contiguity: a gap
	// (an epoch lost before sealing) simply never closes, and later
	// sealed epochs stay unaudited — surfaced by callers comparing
	// NextEpoch against what exists on disk.
	var batch []*Sealed
	for n := start; a.opts.To == 0 || n <= a.opts.To; n++ {
		epochDir := filepath.Join(a.dir, epochDirName(n))
		m, sha, err := ReadManifest(epochDir)
		switch {
		case os.IsNotExist(err):
			// Not sealed yet (or a gap): stop here.
		case err != nil:
			// Damaged manifest: audit evidence, not a fault — it will
			// become a REJECT verdict and break the chain there.
			batch = append(batch, &Sealed{Number: n, Dir: epochDir, ManifestSHA: sha, Err: err})
		case m.Epoch != n:
			batch = append(batch, &Sealed{Number: n, Dir: epochDir, ManifestSHA: sha,
				Err: fmt.Errorf("epoch: manifest in %s claims epoch %d", epochDir, m.Epoch)})
		default:
			marker, _ := ReadCompacted(epochDir)
			batch = append(batch, &Sealed{Number: n, Dir: epochDir, Manifest: m, ManifestSHA: sha,
				Compacted: marker != nil})
			continue
		}
		break
	}
	if len(batch) == 0 {
		return 0, nil
	}

	// Resolve the manifest digest the first epoch must chain to.
	if start > 1 {
		if err := a.ensurePrevSHA(start); err != nil {
			return 0, err
		}
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
				if s.Compacted {
					// Nothing to load: the epoch's artifacts were evicted
					// by compaction; auditOne adopts its stored decision.
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

	// Stage 2 (sequential): verify in chain order, threading the
	// verified final snapshot forward.
	audited := 0
	for i, s := range batch {
		r := <-futures[i]
		<-sem
		consumed = i + 1
		verdict, snapNext, err := a.auditOne(ctx, s, r)
		if err != nil {
			return audited, err
		}
		a.mu.Lock()
		a.verdicts = append(a.verdicts, verdict)
		if verdict.Accepted {
			a.init = snapNext
			a.prevSHA = s.ManifestSHA
			a.next = s.Number + 1
		} else {
			a.broken = true
		}
		a.mu.Unlock()
		audited++
		if !verdict.Adopted && !verdict.KeepStored {
			// Adopted verdicts restate a decision the log already holds
			// (possibly acknowledged); re-appending would reopen its
			// resolution and forge a fresh DecidedAt. KeepStored REJECTs
			// must not replace a compacted epoch's stored ACCEPT — the
			// epoch's only remaining trust artifact.
			if err := a.log.Append(decisionFromVerdict(verdict)); err != nil {
				// The verdict is published in memory; a ledger that cannot
				// take it is an internal fault the caller must see.
				return audited, err
			}
		}
		if !verdict.Accepted {
			break
		}
		if a.opts.Checkpoints && !verdict.Adopted {
			if err := a.writeCheckpoint(s.Number, snapNext); err != nil {
				// The verdict is already published and a.next advanced, so
				// park the snapshot for a retry on the next RunOnce instead
				// of losing this epoch's checkpoint forever.
				a.mu.Lock()
				a.pendingCkpt = &pendingCheckpoint{n: s.Number, snap: snapNext}
				a.mu.Unlock()
				return audited, &CheckpointError{Epoch: s.Number, Err: err}
			}
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

// auditOne produces the verdict for one epoch and, on acceptance, the
// verified final snapshot that seeds the next epoch. A cancellation
// mid-verification surfaces as the verifier's typed error (no verdict,
// no chain extension); the epoch stays unaudited for the next pass.
func (a *Auditor) auditOne(ctx context.Context, s *Sealed, r loadResult) (Verdict, *object.Snapshot, error) {
	v := Verdict{Epoch: s.Number, ManifestSHA: s.ManifestSHA}
	if s.Manifest != nil {
		v.Events = s.Manifest.Events
		v.Requests = s.Manifest.Requests
	}
	reject := func(reason string, f *verifier.Forensics) (Verdict, *object.Snapshot, error) {
		v.Accepted = false
		v.Reason = reason
		if f != nil && f.Detail == "" {
			f.Detail = reason
		}
		v.Forensics = f
		v.ChainSHA = a.extendChain(s.ManifestSHA, false)
		return v, nil, nil
	}
	if r.err != nil {
		if _, ok := r.err.(*IntegrityError); ok {
			// Epoch-level evidence: the load names the damaged segment or
			// file; no request-level forensics exist because verification
			// never ran.
			return reject(r.err.Error(), &verifier.Forensics{Phase: PhaseEpochLoad, Check: "integrity"})
		}
		return v, nil, r.err
	}
	a.mu.Lock()
	prevSHA := a.prevSHA
	init := a.init
	a.mu.Unlock()
	if s.Manifest.PrevManifestSHA256 != prevSHA {
		return reject(fmt.Sprintf("manifest chain mismatch: epoch %d links to %s, previous manifest is %s",
			s.Number, short(s.Manifest.PrevManifestSHA256), short(prevSHA)),
			&verifier.Forensics{Phase: PhaseEpochLoad, Check: "manifest-chain"})
	}
	if s.Compacted {
		// Retention compaction evicted this epoch's bulk artifacts; it
		// survives as its stored ACCEPT decision plus checkpoint. Adopt
		// both: the chain link was just verified against the on-disk
		// manifest, the stored decision must pin that exact manifest,
		// and the checkpoint becomes the next epoch's trusted initial
		// state. The chain digest is extended with the same
		// H(prev || manifestSHA || 1) as a full audit, so ChainSHA stays
		// bit-identical to an uncompacted run.
		// Any reject below must not overwrite a decision the log already
		// holds: the stored decision is the compacted epoch's only
		// remaining trust artifact, and an adoption failure (unreadable
		// checkpoint, manifest mismatch) can be transient — replacing the
		// decision would make it permanent and unrecoverable.
		d, ok := a.log.Get(s.Number)
		v.KeepStored = ok
		if !ok || !d.Accepted {
			return reject(fmt.Sprintf("epoch %d is compacted but the decision log holds no ACCEPT for it", s.Number),
				&verifier.Forensics{Phase: PhaseEpochLoad, Check: "compaction"})
		}
		if d.ManifestSHA != s.ManifestSHA {
			return reject(fmt.Sprintf("epoch %d is compacted but its stored decision pins manifest %s, on disk is %s",
				s.Number, short(d.ManifestSHA), short(s.ManifestSHA)),
				&verifier.Forensics{Phase: PhaseEpochLoad, Check: "compaction"})
		}
		snapNext, err := LoadCheckpoint(a.dir, s.Number)
		if err != nil {
			return reject(fmt.Sprintf("epoch %d is compacted but its checkpoint is unreadable: %v", s.Number, err),
				&verifier.Forensics{Phase: PhaseEpochLoad, Check: "compaction"})
		}
		v.Accepted = true
		v.Adopted = true
		v.ChainSHA = a.extendChain(s.ManifestSHA, true)
		return v, snapNext, nil
	}
	if init == nil {
		if r.loaded.Init == nil {
			return reject(fmt.Sprintf("epoch %d has no trusted initial state (no chained snapshot, no init in manifest)", s.Number),
				&verifier.Forensics{Phase: PhaseEpochLoad, Check: "missing-init"})
		}
		init = r.loaded.Init
	}
	vopts := a.opts.Verify
	vopts.Observer = a.beginProgress(s.Number)
	defer a.endProgress()
	res, err := verifier.AuditContext(ctx, a.prog, r.loaded.Trace, r.loaded.Reports, init, vopts)
	if err != nil {
		return v, nil, err
	}
	v.AuditTime = res.Stats.Total
	v.Stats = res.Stats
	if !res.Accepted {
		return reject(res.Reason, res.Forensics)
	}
	snapNext, err := res.FinalSnapshot()
	if err != nil {
		return v, nil, err
	}
	v.Accepted = true
	v.ChainSHA = a.extendChain(s.ManifestSHA, true)
	return v, snapNext, nil
}

// extendChain advances the running ledger digest.
func (a *Auditor) extendChain(manifestSHA string, accepted bool) string {
	a.mu.Lock()
	defer a.mu.Unlock()
	h := sha256.New()
	h.Write([]byte(a.chainSHA))
	h.Write([]byte(manifestSHA))
	if accepted {
		h.Write([]byte{1})
	} else {
		h.Write([]byte{0})
	}
	a.chainSHA = hex.EncodeToString(h.Sum(nil))
	return a.chainSHA
}

// ensurePrevSHA fills in the manifest digest epoch `start` must link
// to, reading epoch start-1's manifest from disk. (Its contents are
// vouched for by the checkpoint trust assumption, not re-verified.)
func (a *Auditor) ensurePrevSHA(start int64) error {
	a.mu.Lock()
	have := a.prevSHA != ""
	a.mu.Unlock()
	if have {
		return nil
	}
	_, sha, err := ReadManifest(filepath.Join(a.dir, epochDirName(start-1)))
	if err != nil {
		return fmt.Errorf("epoch: auditing from %d needs epoch %d's manifest: %w", start, start-1, err)
	}
	a.mu.Lock()
	a.prevSHA = sha
	a.mu.Unlock()
	return nil
}

// flushPendingCheckpoint retries a checkpoint write that failed on a
// previous RunOnce. It returns the write error (leaving the checkpoint
// pending) until the write succeeds.
func (a *Auditor) flushPendingCheckpoint() error {
	a.mu.Lock()
	p := a.pendingCkpt
	a.mu.Unlock()
	if p == nil {
		return nil
	}
	if err := a.writeCheckpoint(p.n, p.snap); err != nil {
		return &CheckpointError{Epoch: p.n, Err: err}
	}
	a.mu.Lock()
	if a.pendingCkpt == p {
		a.pendingCkpt = nil
	}
	a.mu.Unlock()
	return nil
}

func (a *Auditor) writeCheckpoint(n int64, snap *object.Snapshot) error {
	return WriteCheckpoint(a.dir, n, snap)
}

// Verdicts returns a copy of the ledger so far, in epoch order.
func (a *Auditor) Verdicts() []Verdict {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]Verdict(nil), a.verdicts...)
}

// ChainAccepted reports whether every audited epoch so far accepted.
func (a *Auditor) ChainAccepted() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return !a.broken
}

// NextEpoch reports the next epoch the auditor will verify.
func (a *Auditor) NextEpoch() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.next
}
