package verifier

import (
	"fmt"
	"strings"

	"orochi/internal/core"
)

// Forensics is the structured counterpart of Result.Reason: when an
// audit rejects, it pins *where* the verification failed (phase, check,
// group/chunk, object/log coordinates), *which* request is implicated,
// and — for output mismatches — the traced-vs-re-executed response diff.
// It is operator evidence, assembled from the same deterministic
// first-failure arbitration as the reject reason itself, so the record
// is bit-identical at any Options.Workers setting.
//
// Forensics describe the earliest failure in canonical audit order; a
// misbehaving executor may have corrupted more than one thing, but the
// first divergence is what decides the verdict, and it is what an
// operator drills into. Every field is JSON-stable so decision logs
// (internal/epoch) can persist and re-render it without loss.
type Forensics struct {
	// Phase is the verifier phase that rejected: one of the Phase*
	// constants, or PhaseValidation for pre-phase trace/report checks.
	Phase string `json:"phase"`
	// Check is a short machine-readable slug of the failed check (e.g.
	// "output-mismatch", "op-count", "check-op", "divergence").
	Check string `json:"check"`
	// RequestID names the offending request when the failure is
	// attributable to one.
	RequestID string `json:"request_id,omitempty"`
	// Script is the entry point of the implicated group or request.
	Script string `json:"script,omitempty"`
	// GroupTag is the control-flow group tag (%016x) and Chunk the
	// MaxGroup-batch index within the group, for Phase 3 failures.
	GroupTag string `json:"group_tag,omitempty"`
	Chunk    int    `json:"chunk,omitempty"`
	// GroupSize is the number of requests in the failing batch.
	GroupSize int `json:"group_size,omitempty"`
	// Object names the shared object ("register:user_alice", "kv:main",
	// "db:main") and OpIndex the 1-based operation-log sequence number
	// (the codebase's LogPos.Seq convention; 0 = not applicable), for
	// Phase 2 failures.
	Object  string `json:"object,omitempty"`
	OpIndex int    `json:"op_index,omitempty"`
	// OpsReported / OpsReplayed carry the op-count comparison (report M
	// vs re-execution) when the failure is an op-count mismatch.
	OpsReported int `json:"ops_reported,omitempty"`
	OpsReplayed int `json:"ops_replayed,omitempty"`
	// Diff is the traced-vs-re-executed response comparison for output
	// mismatches (nil otherwise).
	Diff *ResponseDiff `json:"diff,omitempty"`
	// Detail restates the human-readable reason for self-contained
	// rendering.
	Detail string `json:"detail,omitempty"`
}

// PhaseValidation tags forensics for rejects raised before Phase 1 runs
// (unbalanced trace, malformed reports).
const PhaseValidation = "validation"

// ResponseDiff compares the response the trace recorded (what the
// client saw) against the response re-execution produced (what an
// honest executor would have served). Bodies are windowed around the
// first differing byte so forensics stay small even for large pages.
type ResponseDiff struct {
	// TracedLen / ReExecLen are the full body lengths in bytes.
	TracedLen int `json:"traced_len"`
	ReExecLen int `json:"reexec_len"`
	// FirstDiff is the byte offset of the first difference. When one
	// body is a strict prefix of the other it equals the shorter length.
	FirstDiff int `json:"first_diff"`
	// WindowAt is the offset at which the captured windows start.
	WindowAt int `json:"window_at"`
	// Traced / ReExec are the body windows around FirstDiff (at most
	// diffWindow bytes each); Truncated reports whether either side was
	// cut.
	Traced    string `json:"traced"`
	ReExec    string `json:"reexec"`
	Truncated bool   `json:"truncated,omitempty"`
}

// diffWindow bounds how many bytes of each body a ResponseDiff retains:
// a fixed amount of context before the first divergence and the window
// remainder after it.
const (
	diffWindow  = 192
	diffContext = 48
)

// diffResponses builds the deterministic traced-vs-re-executed diff.
func diffResponses(traced, reexec string) *ResponseDiff {
	n := min(len(traced), len(reexec))
	d := 0
	for d < n && traced[d] == reexec[d] {
		d++
	}
	at := max(0, d-diffContext)
	slice := func(s string) (string, bool) {
		if at >= len(s) {
			return "", at > len(s)
		}
		end := min(len(s), at+diffWindow)
		return s[at:end], end < len(s) || at > 0
	}
	tw, tt := slice(traced)
	rw, rt := slice(reexec)
	return &ResponseDiff{
		TracedLen: len(traced),
		ReExecLen: len(reexec),
		FirstDiff: d,
		WindowAt:  at,
		Traced:    tw,
		ReExec:    rw,
		Truncated: tt || rt,
	}
}

// String renders the diff for terminals (orochi-audit -explain, the
// console's drill-down page).
func (d *ResponseDiff) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "first divergence at byte %d (traced %dB, re-executed %dB)\n", d.FirstDiff, d.TracedLen, d.ReExecLen)
	fmt.Fprintf(&b, "  traced    [%d:]: %q\n", d.WindowAt, d.Traced)
	fmt.Fprintf(&b, "  reexec    [%d:]: %q", d.WindowAt, d.ReExec)
	if d.Truncated {
		b.WriteString("\n  (bodies windowed)")
	}
	return b.String()
}

// tagString formats a group tag the way every CLI prints it.
func tagString(tag uint64) string { return fmt.Sprintf("%016x", tag) }

// rejection pairs a reject message with its forensics record as the
// failure travels from the failing check to the verdict. The pair is
// built where the check fails and arbitrated exactly like the message
// alone used to be, so forensics inherit the engine's determinism.
type rejection struct {
	msg string
	f   *Forensics
}

// forensicsFromReject lifts a core.RejectError — the typed reject the
// deeper layers (ProcessOpReports, the audit bridge, the out-of-order
// oracle's scheduler) raise — into a Forensics record. The error's
// Stage becomes the check slug and its RID, when the check attributed
// one, the offending request.
func forensicsFromReject(phase string, rej *core.RejectError) *Forensics {
	return &Forensics{
		Phase:     phase,
		Check:     rej.Stage,
		RequestID: rej.RID,
		Detail:    rej.Msg,
	}
}

// String renders the forensics record as an operator-facing block.
func (f *Forensics) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "failing phase: %s (check: %s)\n", f.Phase, f.Check)
	if f.RequestID != "" {
		fmt.Fprintf(&b, "offending request: %s", f.RequestID)
		if f.Script != "" {
			fmt.Fprintf(&b, " (script %s)", f.Script)
		}
		b.WriteString("\n")
	} else if f.Script != "" {
		fmt.Fprintf(&b, "script: %s\n", f.Script)
	}
	if f.GroupTag != "" {
		fmt.Fprintf(&b, "group: %s chunk %d (%d request(s) in batch)\n", f.GroupTag, f.Chunk, f.GroupSize)
	}
	if f.Object != "" {
		fmt.Fprintf(&b, "object: %s", f.Object)
		if f.OpIndex > 0 {
			fmt.Fprintf(&b, " (log seq %d)", f.OpIndex)
		}
		b.WriteString("\n")
	}
	if f.OpsReported != 0 || f.OpsReplayed != 0 {
		fmt.Fprintf(&b, "op counts: reports claim %d, re-execution issued %d\n", f.OpsReported, f.OpsReplayed)
	}
	if f.Diff != nil {
		b.WriteString(f.Diff.String())
		b.WriteString("\n")
	}
	if f.Detail != "" {
		fmt.Fprintf(&b, "detail: %s", f.Detail)
	}
	return strings.TrimRight(b.String(), "\n")
}
