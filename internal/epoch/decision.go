package epoch

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"orochi/internal/verifier"
)

// DecisionLogName is the audit decision log kept at the chain
// directory's root: one JSON object per line, append-only, fsynced.
const DecisionLogName = "decisions.jsonl"

// PhaseEpochLoad tags forensics for epoch-level rejects raised before
// the verifier ran: integrity failures (a damaged trace or reports
// artifact), manifest chain breaks, and a missing trusted initial state.
const PhaseEpochLoad = "epoch-load"

// Resolution states of a decision. A decision is born open; an operator
// acknowledges it (typically a REJECT, after investigating the
// forensics) with a note, and the acknowledgement survives restarts
// because it is an event in the same log.
const (
	ResolutionOpen  = "open"
	ResolutionAcked = "acked"
)

// Decision is the durable form of one epoch's audit verdict: everything
// an operator needs to answer "what happened and what did it cost"
// without the auditor process that produced it — verdict, forensics,
// timings, chain digest — plus the resolution state machine.
type Decision struct {
	Epoch    int64  `json:"epoch"`
	Accepted bool   `json:"accepted"`
	Reason   string `json:"reason,omitempty"`
	// Forensics is the verifier's structured evidence for a REJECT (nil
	// on ACCEPT and for pre-verification rejects that carry none).
	Forensics *verifier.Forensics `json:"forensics,omitempty"`
	Events    int                 `json:"events"`
	Requests  int                 `json:"requests"`
	// Timings is the audit cost decomposition, durations in nanoseconds.
	Timings DecisionTimings `json:"timings"`
	// RequestsReplayed and GroupBatches record re-execution volume (the
	// dedup ratio's numerator and denominator); DedupHits/DedupMisses
	// the query-dedup cache behaviour.
	RequestsReplayed int    `json:"requests_replayed,omitempty"`
	GroupBatches     int    `json:"group_batches,omitempty"`
	DedupHits        int64  `json:"dedup_hits,omitempty"`
	DedupMisses      int64  `json:"dedup_misses,omitempty"`
	ManifestSHA      string `json:"manifest_sha256"`
	ChainSHA         string `json:"chain_sha256"`
	// DecidedAt is when the verdict was appended to the log.
	DecidedAt time.Time `json:"decided_at"`
	// Resolution is ResolutionOpen or ResolutionAcked; Note and AckedAt
	// are set by the acknowledgement.
	Resolution string    `json:"resolution"`
	Note       string    `json:"note,omitempty"`
	AckedAt    time.Time `json:"acked_at,omitzero"`
	// ScrubFailed flags a retrievability challenge this epoch failed
	// after the decision was published (ScrubDetail names the artifact,
	// ScrubAt the pass). It is an annotation, not a verdict: the audit
	// verdict, resolution, chain digest, and metrics stand untouched —
	// for a compacted epoch the stored ACCEPT is the only remaining
	// trust artifact, and a failed challenge (which can be a transient
	// read error) must never destroy it. A re-audit's fresh verdict
	// clears the flag.
	ScrubFailed bool      `json:"scrub_failed,omitempty"`
	ScrubDetail string    `json:"scrub_detail,omitempty"`
	ScrubAt     time.Time `json:"scrub_at,omitzero"`
}

// DecisionTimings is the persisted slice of verifier.Stats phase
// timings (JSON numbers are nanoseconds).
type DecisionTimings struct {
	ProcOpRep time.Duration `json:"proc_op_rep_ns"`
	DBRedo    time.Duration `json:"db_redo_ns"`
	ReExec    time.Duration `json:"re_exec_ns"`
	DBQuery   time.Duration `json:"db_query_ns"`
	Other     time.Duration `json:"other_ns"`
	Total     time.Duration `json:"total_ns"`
}

// decisionEvent is one line of the log. The log is event-sourced: a
// "verdict" line (re)states an epoch's decision whole, an "ack" line
// transitions its resolution, a "scrub" line annotates it with a failed
// retrievability challenge. Replaying the lines in order rebuilds the
// exact state, so appends never rewrite the file.
type decisionEvent struct {
	Kind     string    `json:"kind"` // "verdict" | "ack" | "scrub"
	Decision *Decision `json:"decision,omitempty"`
	Epoch    int64     `json:"epoch,omitempty"`
	Note     string    `json:"note,omitempty"`
	At       time.Time `json:"at,omitzero"`
}

// DecisionLog is the durable ACCEPT/REJECT ledger of an epoch chain
// directory. Safe for concurrent use.
type DecisionLog struct {
	path string

	mu      sync.Mutex
	f       *os.File
	byEpoch map[int64]*Decision
}

// OpenDecisionLog opens (creating if needed) the decision log in the
// chain directory dir and replays it into memory.
func OpenDecisionLog(dir string) (*DecisionLog, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("epoch: decision log: %w", err)
	}
	path := filepath.Join(dir, DecisionLogName)
	l := &DecisionLog{path: path, byEpoch: make(map[int64]*Decision)}
	validLen, err := l.replay()
	if err != nil {
		return nil, err
	}
	// A crash mid-append leaves torn bytes past the last good line.
	// Replay skipped them; drop them from the file too, so the next
	// append starts a fresh line instead of merging into the fragment
	// (which would lose that decision on the following replay).
	if fi, err := os.Stat(path); err == nil && fi.Size() > validLen {
		if err := os.Truncate(path, validLen); err != nil {
			return nil, fmt.Errorf("epoch: decision log: %w", err)
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("epoch: decision log: %w", err)
	}
	if err := syncDir(dir); err != nil {
		f.Close()
		return nil, fmt.Errorf("epoch: decision log: %w", err)
	}
	l.f = f
	return l, nil
}

// replay rebuilds the in-memory state from the log file and returns
// the number of leading bytes that parsed cleanly. A verdict line
// replaces the epoch's decision whole (re-audits happen after restarts
// without checkpoints) and resets its resolution; an ack line
// transitions the current decision. A torn final line — a crash mid-
// append — is skipped (and excluded from the returned length, so the
// writable open path can truncate it away); anything else malformed is
// an error, because silently dropping decisions would defeat the
// ledger.
func (l *DecisionLog) replay() (int64, error) {
	f, err := os.Open(l.path)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("epoch: decision log: %w", err)
	}
	defer f.Close()
	size, err := f.Seek(0, 2)
	if err != nil {
		return 0, fmt.Errorf("epoch: decision log: %w", err)
	}
	if _, err := f.Seek(0, 0); err != nil {
		return 0, fmt.Errorf("epoch: decision log: %w", err)
	}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var pending []byte // last line seen, validated once we know it's not the tail
	read, lineNo := 0, 0
	var validLen int64 // bytes through the last applied line's newline
	apply := func(line []byte, isTail bool) (bool, error) {
		var ev decisionEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			if isTail {
				return false, nil // torn tail from a crash mid-append
			}
			return false, fmt.Errorf("epoch: decision log line %d: %w", lineNo, err)
		}
		switch ev.Kind {
		case "verdict":
			if ev.Decision == nil {
				return false, fmt.Errorf("epoch: decision log line %d: verdict without decision", lineNo)
			}
			d := *ev.Decision
			if d.Resolution == "" {
				d.Resolution = ResolutionOpen
			}
			l.byEpoch[d.Epoch] = &d
		case "ack":
			if d, ok := l.byEpoch[ev.Epoch]; ok {
				d.Resolution = ResolutionAcked
				d.Note = ev.Note
				d.AckedAt = ev.At
			}
		case "scrub":
			if d, ok := l.byEpoch[ev.Epoch]; ok {
				d.ScrubFailed = true
				d.ScrubDetail = ev.Note
				d.ScrubAt = ev.At
			}
		default:
			return false, fmt.Errorf("epoch: decision log line %d: unknown kind %q", lineNo, ev.Kind)
		}
		return true, nil
	}
	for sc.Scan() {
		if pending != nil {
			lineNo = read
			if _, err := apply(pending, false); err != nil {
				return 0, err
			}
			validLen += int64(len(pending)) + 1
		}
		read++
		pending = append([]byte(nil), sc.Bytes()...)
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("epoch: decision log: %w", err)
	}
	if pending != nil {
		lineNo = read
		applied, err := apply(pending, true)
		if err != nil {
			return 0, err
		}
		if applied {
			// The tail parsed; keep the file whole (its final newline,
			// if any, is part of the good prefix).
			validLen = size
		}
	}
	return validLen, nil
}

// append writes one event line and fsyncs.
func (l *DecisionLog) append(ev decisionEvent) error {
	data, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if _, err := l.f.Write(data); err != nil {
		return fmt.Errorf("epoch: decision log: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("epoch: decision log: %w", err)
	}
	return nil
}

// Append records an epoch's decision. A later Append for the same epoch
// (a re-audit after a restart) replaces the earlier one and reopens its
// resolution.
func (l *DecisionLog) Append(d Decision) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if d.Resolution == "" {
		d.Resolution = ResolutionOpen
	}
	if err := l.append(decisionEvent{Kind: "verdict", Decision: &d}); err != nil {
		return err
	}
	l.byEpoch[d.Epoch] = &d
	return nil
}

// Ack transitions an epoch's decision open → acked(note). Acking an
// already-acked decision updates the note (the latest investigation
// wins); acking an unknown epoch is an error.
func (l *DecisionLog) Ack(epoch int64, note string) (Decision, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	d, ok := l.byEpoch[epoch]
	if !ok {
		return Decision{}, fmt.Errorf("epoch: no decision recorded for epoch %d", epoch)
	}
	at := time.Now().UTC()
	if err := l.append(decisionEvent{Kind: "ack", Epoch: epoch, Note: note, At: at}); err != nil {
		return Decision{}, err
	}
	d.Resolution = ResolutionAcked
	d.Note = note
	d.AckedAt = at
	return *d, nil
}

// MarkScrubFailed annotates an epoch's stored decision with a failed
// retrievability challenge. The annotation never changes the verdict,
// the resolution, or any audit metric — in particular it never
// downgrades an ACCEPT (for a compacted epoch the stored ACCEPT is the
// only remaining trust artifact) and never reopens an acknowledged
// decision. Annotating an epoch with no stored decision is an error;
// record those as fresh scrub REJECT verdicts instead.
func (l *DecisionLog) MarkScrubFailed(epoch int64, detail string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	d, ok := l.byEpoch[epoch]
	if !ok {
		return fmt.Errorf("epoch: no decision recorded for epoch %d", epoch)
	}
	at := time.Now().UTC()
	if err := l.append(decisionEvent{Kind: "scrub", Epoch: epoch, Note: detail, At: at}); err != nil {
		return err
	}
	d.ScrubFailed = true
	d.ScrubDetail = detail
	d.ScrubAt = at
	return nil
}

// Decisions returns every recorded decision in epoch order.
func (l *DecisionLog) Decisions() []Decision {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Decision, 0, len(l.byEpoch))
	for _, d := range l.byEpoch {
		out = append(out, *d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Epoch < out[j].Epoch })
	return out
}

// Get returns the decision for one epoch.
func (l *DecisionLog) Get(epoch int64) (Decision, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	d, ok := l.byEpoch[epoch]
	if !ok {
		return Decision{}, false
	}
	return *d, true
}

// ReadDecisions replays dir's decision log read-only and returns every
// decision in epoch order, without creating the log (or the directory)
// when absent — a missing log surfaces as fs.ErrNotExist. This is the
// offline inspection path (orochi-audit -explain); live processes use
// OpenDecisionLog.
func ReadDecisions(dir string) ([]Decision, error) {
	path := filepath.Join(dir, DecisionLogName)
	if _, err := os.Stat(path); err != nil {
		return nil, err
	}
	l := &DecisionLog{path: path, byEpoch: make(map[int64]*Decision)}
	if _, err := l.replay(); err != nil {
		return nil, err
	}
	return l.Decisions(), nil
}

// Close closes the underlying file. Appends after Close fail.
func (l *DecisionLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f.Close()
}

// decisionFromVerdict converts a ledger Verdict into its durable form.
func decisionFromVerdict(v Verdict) Decision {
	return Decision{
		Epoch:     v.Epoch,
		Accepted:  v.Accepted,
		Reason:    v.Reason,
		Forensics: v.Forensics,
		Events:    v.Events,
		Requests:  v.Requests,
		Timings: DecisionTimings{
			ProcOpRep: v.Stats.ProcOpRep,
			DBRedo:    v.Stats.DBRedo,
			ReExec:    v.Stats.ReExec,
			DBQuery:   v.Stats.DBQuery,
			Other:     v.Stats.Other,
			Total:     v.Stats.Total,
		},
		RequestsReplayed: v.Stats.RequestsReplayed,
		GroupBatches:     v.Stats.GroupBatches,
		DedupHits:        v.Stats.DedupHits,
		DedupMisses:      v.Stats.DedupMisses,
		ManifestSHA:      v.ManifestSHA,
		ChainSHA:         v.ChainSHA,
		DecidedAt:        time.Now().UTC(),
		Resolution:       ResolutionOpen,
	}
}

// verdictFromDecision rebuilds a ledger Verdict from its durable form —
// the rehydration path after a restart. Group-level statistics
// (Stats.Groups) are not persisted; everything the status endpoints and
// metrics read is.
func verdictFromDecision(d Decision) Verdict {
	return Verdict{
		Epoch:     d.Epoch,
		Accepted:  d.Accepted,
		Reason:    d.Reason,
		Forensics: d.Forensics,
		Events:    d.Events,
		Requests:  d.Requests,
		Stats: verifier.Stats{
			ProcOpRep:        d.Timings.ProcOpRep,
			DBRedo:           d.Timings.DBRedo,
			ReExec:           d.Timings.ReExec,
			DBQuery:          d.Timings.DBQuery,
			Other:            d.Timings.Other,
			Total:            d.Timings.Total,
			RequestsReplayed: d.RequestsReplayed,
			GroupBatches:     d.GroupBatches,
			DedupHits:        d.DedupHits,
			DedupMisses:      d.DedupMisses,
		},
		ManifestSHA: d.ManifestSHA,
		ChainSHA:    d.ChainSHA,
	}
}
