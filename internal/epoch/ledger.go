package epoch

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"orochi/internal/cas"
	"orochi/internal/lang"
	"orochi/internal/object"
	"orochi/internal/verifier"
)

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

// NewVerdict starts epoch s's verdict with what the manifest walk alone
// vouches for: the epoch's identity and the counts its manifest claims.
func NewVerdict(s *Sealed) Verdict {
	v := Verdict{Epoch: s.Number, ManifestSHA: s.ManifestSHA}
	if s.Manifest != nil {
		v.Events = s.Manifest.Events
		v.Requests = s.Manifest.Requests
	}
	return v
}

// Reject returns v as a REJECT for reason; forensics without a detail
// of their own carry the reason.
func (v Verdict) Reject(reason string, f *verifier.Forensics) Verdict {
	v.Accepted = false
	v.Reason = reason
	if f != nil && f.Detail == "" {
		f.Detail = reason
	}
	v.Forensics = f
	return v
}

// rejectEpoch is Reject for the epoch-level checks that run before the
// verifier does; check names which one failed.
func (v Verdict) rejectEpoch(check, format string, args ...any) Verdict {
	return v.Reject(fmt.Sprintf(format, args...), &verifier.Forensics{Phase: PhaseEpochLoad, Check: check})
}

// rejectLink is the manifest-chain check, shared by epochs that are
// audited and epochs that are adopted.
func (v Verdict) rejectLink(linksTo, prevSHA string) Verdict {
	return v.rejectEpoch("manifest-chain", "manifest chain mismatch: epoch %d links to %s, previous manifest is %s",
		v.Epoch, short(linksTo), short(prevSHA))
}

// State is a verified final state on its way to being the next epoch's
// trusted initial state: in memory (the local auditor hands it over as
// it is), as chunk refs into the chain store (what the fleet moves, and
// what a checkpoint is), or both. The zero State is none: an epoch
// audited from it falls back to the init snapshot its own manifest pins.
type State struct {
	Snap *object.Snapshot
	Refs []cas.Ref
}

// PrepareEpoch is the first half of the executor: it checks one sealed
// epoch whose artifacts had to be read, in the fixed order integrity
// (loadErr, from Load) → manifest link → trusted initial state →
// verification Phases 1–2 (verifier.Prepare). init nil means the
// snapshot the epoch's own manifest pins. It returns either a decided
// verdict — a REJECT — or, with the verdict still open, the prepared
// audit, whose Candidate is the final state an ACCEPT will vouch for
// and which Finish completes. It is a plain function of its arguments,
// so the local auditor calls it directly and a fleet worker calls it
// between a fetch and a post, and every epoch-level REJECT reads the
// same from both. The verdict carries no chain digest; the Ledger it is
// published to assigns one. An error is an internal fault or a
// cancellation (verifier.ErrAuditCanceled), never a verdict.
func PrepareEpoch(ctx context.Context, s *Sealed, loaded *Loaded, loadErr error,
	prevSHA string, init *object.Snapshot, vopts verifier.Options) (Verdict, *verifier.Prepared, error) {
	v := NewVerdict(s)
	if loadErr != nil {
		var ie *IntegrityError
		if !errors.As(loadErr, &ie) {
			return v, nil, loadErr
		}
		// The load names the damaged artifact; no request-level forensics
		// exist because verification never ran.
		return v.rejectEpoch("integrity", "%s", loadErr.Error()), nil, nil
	}
	if s.Manifest.PrevManifestSHA256 != prevSHA {
		return v.rejectLink(s.Manifest.PrevManifestSHA256, prevSHA), nil, nil
	}
	if init == nil {
		if loaded.Init == nil {
			return v.rejectEpoch("missing-init",
				"epoch %d has no trusted initial state (no chained snapshot, no init in manifest)", s.Number), nil, nil
		}
		init = loaded.Init
	}
	p, res, err := verifier.Prepare(ctx, loaded.Trace, loaded.Reports, init, vopts)
	if p == nil && err == nil {
		v = v.withResult(res)
	}
	return v, p, err
}

// Finish is the second half of the executor: it re-executes a prepared
// epoch (verifier Phases 3–4) and decides v. Errors are PrepareEpoch's.
func Finish(ctx context.Context, prog *lang.Program, v Verdict, p *verifier.Prepared, vopts verifier.Options) (Verdict, error) {
	res, err := p.ReExec(ctx, prog, vopts)
	if err != nil {
		return v, err
	}
	return v.withResult(res), nil
}

// withResult decides v by the verifier's result.
func (v Verdict) withResult(res *verifier.Result) Verdict {
	v.AuditTime = res.Stats.Total
	v.Stats = res.Stats
	if !res.Accepted {
		return v.Reject(res.Reason, res.Forensics)
	}
	v.Accepted = true
	return v
}

// CheckpointError reports a failed write of an epoch's verified final
// state. The epoch's verdict is already published and the state is
// parked in the ledger for a retry, so the failure is transient from the
// chain's point of view: drivers keep going through it.
type CheckpointError struct {
	Epoch int64
	Err   error
}

func (e *CheckpointError) Error() string {
	return fmt.Sprintf("epoch %d: checkpoint write failed (will retry): %v", e.Epoch, e.Err)
}

func (e *CheckpointError) Unwrap() error { return e.Err }

// Ledger is the chain walk both audit drivers share: the in-process
// Auditor and the fleet coordinator each feed one Ledger, so the ledger
// digest, what is written to decisions.jsonl, how a compacted epoch is
// adopted and when a checkpoint is written cannot differ between them.
// It decides epochs strictly in chain order. Epoch N+1's trusted
// initial state is epoch N's verified final state, so one REJECT breaks
// the chain: later epochs have no trusted state to start from.
//
// Readers may call any method at any time. DecideLocally, Publish and
// FlushCheckpoints are for the one driver, which serializes them (the
// auditor's loop, the coordinator's lock); their file writes happen
// outside the ledger's own lock.
type Ledger struct {
	dir         string
	log         *DecisionLog
	checkpoints bool

	mu       sync.Mutex
	verdicts []Verdict
	next     int64  // next epoch to decide
	init     State  // trusted initial state of epoch next
	prevSHA  string // manifest digest epoch next must link to
	chainSHA string
	broken   bool
	// parked holds accepted epochs' final states whose checkpoint is not
	// written yet: a failed write is retried by every later flush, so a
	// transient failure never costs an epoch its checkpoint (a later
	// -from resume, a coordinator restart and retention compaction all
	// need it).
	parked []parkedCheckpoint
}

type parkedCheckpoint struct {
	epoch int64
	state State
	err   error // the last write's failure; nil until one was tried
}

// NewLedger starts a ledger over dir's chain at epoch from, with init as
// that epoch's trusted initial state, and replays into it the decisions
// log holds for earlier epochs — verdicts an earlier run published,
// which would otherwise be invisible after a restart. The chain digest
// resumes from the last of them only when they run contiguously up to
// from-1 and that one carries a digest (a scrub REJECT recorded for a
// never-audited epoch does not); otherwise this run's digests start a
// fresh sequence rather than silently chaining across a gap. Decisions
// at or after from are left to the coming audit, whose verdicts replace
// them. checkpoints says whether accepted epochs' final states are
// written under <dir>/checkpoints/. A nil log (its open failed) gives a
// ledger that can be read but not published to.
func NewLedger(dir string, log *DecisionLog, from int64, init State, checkpoints bool) *Ledger {
	l := &Ledger{dir: dir, log: log, checkpoints: checkpoints, next: from, init: init}
	if log == nil {
		return l
	}
	for _, d := range log.Decisions() {
		if d.Epoch >= from {
			break
		}
		l.verdicts = append(l.verdicts, verdictFromDecision(d))
		if !d.Accepted && init.Snap == nil && init.Refs == nil {
			// A stored REJECT breaks the chain for this run too — unless the
			// caller brought a trusted initial state (a checkpoint), which is
			// the explicit way to resume past one.
			l.broken = true
		}
	}
	if n := len(l.verdicts); n > 0 {
		last := l.verdicts[n-1]
		if last.Epoch == from-1 && int64(n) == last.Epoch-l.verdicts[0].Epoch+1 {
			l.chainSHA = last.ChainSHA
		}
	}
	return l
}

// Decisions exposes the durable decision log (nil when its open failed).
func (l *Ledger) Decisions() *DecisionLog { return l.log }

// Verdicts returns a copy of the ledger so far, in epoch order.
func (l *Ledger) Verdicts() []Verdict {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Verdict(nil), l.verdicts...)
}

// ChainAccepted reports whether every decided epoch so far accepted.
func (l *Ledger) ChainAccepted() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return !l.broken
}

// ChainSHA returns the running ledger digest.
func (l *Ledger) ChainSHA() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.chainSHA
}

// Next reports the next epoch the ledger will decide. Past the last
// sealed epoch it names the epoch the chain is waiting for; sealed
// epochs beyond an unsealed Next are a gap no audit can cross.
func (l *Ledger) Next() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next
}

// Init returns the trusted initial state of epoch Next.
func (l *Ledger) Init() State {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.init
}

// PrevSHA returns the manifest digest epoch Next must link to. A ledger
// started past epoch 1 reads it off epoch Next-1's manifest, whose
// contents are vouched for by the same trust as the initial state it
// was started with, not re-verified.
func (l *Ledger) PrevSHA() (string, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.prevSHA == "" && l.next > 1 {
		_, sha, err := ReadManifest(filepath.Join(l.dir, epochDirName(l.next-1)))
		if err != nil {
			return "", fmt.Errorf("epoch: auditing from %d needs epoch %d's manifest: %w", l.next, l.next-1, err)
		}
		l.prevSHA = sha
	}
	return l.prevSHA, nil
}

// DecideLocally decides epoch Next when that takes no executor: a
// damaged manifest is a REJECT naming the damage, and a compacted epoch
// — retention evicted its bulk artifacts, it survives as its stored
// ACCEPT plus checkpoint — is adopted, the checkpoint becoming the next
// epoch's trusted initial state. It returns a nil verdict for an epoch
// that has to be audited (PrepareEpoch, Finish).
//
// Adoption checks the chain link against the on-disk manifest, that the
// stored decision pins that exact manifest, and that the checkpoint
// reads back whole. A REJECT of the last three kinds must not replace
// the decision the log holds (KeepStored): it is the compacted epoch's
// only remaining trust artifact, and the failure can be transient.
func (l *Ledger) DecideLocally(s *Sealed) (*Verdict, State, error) {
	v := NewVerdict(s)
	if s.Err != nil {
		_, err := Load(s) // reads nothing: it only words the damage
		v = v.rejectEpoch("integrity", "%s", err.Error())
		return &v, State{}, nil
	}
	if !s.Compacted {
		return nil, State{}, nil
	}
	prevSHA, err := l.PrevSHA()
	if err != nil {
		return nil, State{}, err
	}
	if s.Manifest.PrevManifestSHA256 != prevSHA {
		v = v.rejectLink(s.Manifest.PrevManifestSHA256, prevSHA)
		return &v, State{}, nil
	}
	d, stored := l.log.Get(s.Number)
	v.KeepStored = stored
	var final State
	switch {
	case !stored || !d.Accepted:
		v = v.rejectEpoch("compaction", "epoch %d is compacted but the decision log holds no ACCEPT for it", s.Number)
	case d.ManifestSHA != s.ManifestSHA:
		v = v.rejectEpoch("compaction", "epoch %d is compacted but its stored decision pins manifest %s, on disk is %s",
			s.Number, short(d.ManifestSHA), short(s.ManifestSHA))
	default:
		if final, err = loadCheckpoint(l.dir, s.Number); err != nil {
			v = v.rejectEpoch("compaction", "epoch %d is compacted but its checkpoint is unreadable: %v", s.Number, err)
		} else {
			v.Accepted, v.Adopted, v.KeepStored = true, true, false
		}
	}
	return &v, final, nil
}

// Publish records the verdict of epoch Next: it extends the chain
// digest with H(prev || manifestSHA || verdict byte), appends the
// verdict to the ledger and — unless it restates or must not replace a
// stored decision (Adopted, KeepStored) — to the durable log, and then
// either advances, with final as the next epoch's trusted initial state
// and its checkpoint written if the ledger keeps checkpoints, or, on a
// REJECT, breaks the chain. A *CheckpointError means the verdict stands
// and a checkpoint is owed (FlushCheckpoints); any other error is an
// internal fault.
func (l *Ledger) Publish(v Verdict, final State) error {
	l.mu.Lock()
	if l.broken || v.Epoch != l.next {
		err := fmt.Errorf("epoch: verdict for epoch %d published out of chain order (next %d, broken %v)", v.Epoch, l.next, l.broken)
		l.mu.Unlock()
		return err
	}
	h := sha256.New()
	h.Write([]byte(l.chainSHA))
	h.Write([]byte(v.ManifestSHA))
	if v.Accepted {
		h.Write([]byte{1})
		l.init, l.prevSHA, l.next = final, v.ManifestSHA, v.Epoch+1
		if l.checkpoints && !v.Adopted {
			l.parked = append(l.parked, parkedCheckpoint{epoch: v.Epoch, state: final})
		}
	} else {
		h.Write([]byte{0})
		l.broken = true
	}
	l.chainSHA = hex.EncodeToString(h.Sum(nil))
	v.ChainSHA = l.chainSHA
	l.verdicts = append(l.verdicts, v)
	l.mu.Unlock()
	if !v.Adopted && !v.KeepStored {
		// Re-appending an adopted verdict would reopen the stored
		// decision's resolution and forge a fresh DecidedAt.
		if err := l.log.Append(decisionFromVerdict(v)); err != nil {
			return err
		}
	}
	return l.FlushCheckpoints()
}

// FlushCheckpoints writes every checkpoint still owed, oldest first, and
// returns the first failure as a *CheckpointError; what failed stays
// parked for the next flush.
func (l *Ledger) FlushCheckpoints() error {
	l.mu.Lock()
	parked := l.parked
	l.mu.Unlock()
	var failed []parkedCheckpoint
	for _, p := range parked {
		if p.err = writeCheckpoint(l.dir, p.epoch, p.state); p.err != nil {
			failed = append(failed, p)
		}
	}
	l.mu.Lock()
	l.parked = failed
	l.mu.Unlock()
	if len(failed) > 0 {
		return &CheckpointError{Epoch: failed[0].epoch, Err: failed[0].err}
	}
	return nil
}

// UnwrittenCheckpoints lists the checkpoints still owed, each with the
// error of its last attempt.
func (l *Ledger) UnwrittenCheckpoints() []*CheckpointError {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []*CheckpointError
	for _, p := range l.parked {
		out = append(out, &CheckpointError{Epoch: p.epoch, Err: p.err})
	}
	return out
}
