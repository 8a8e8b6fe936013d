package epoch

import (
	"fmt"
	"time"

	"orochi/internal/verifier"
)

// Progress is a point-in-time view of the epoch audits in flight: the
// epoch the ledger waits on, how far its audit has come, and how many
// epochs are under audit at once. The zero value (Epoch == 0) means no
// verification is running — the auditor is idle, polling, or loading.
// Status endpoints (orochi-serve's /-/epochs) render it next to the
// verdict ledger.
//
// The counters come from the verifier's Observer stream and therefore
// reflect untrusted quantities (group sizes, op counts are the
// executor's claims); they are progress telemetry, not audit evidence.
type Progress struct {
	// Epoch is the oldest epoch under verification — the one the ledger
	// publishes next (0 = idle).
	Epoch int64
	// Phase is the verifier phase currently running (see the
	// verifier.Phase* constants).
	Phase string
	// Units is the number of work items in the current phase (object
	// logs for the redo phase, group batches for re-execution; 0 when
	// the phase has no unit accounting), and Done how many completed.
	Units, Done int
	// OpsReplayed counts operations replayed into the versioned stores
	// so far (cumulative across the redo phase).
	OpsReplayed int64
	// GroupsDone counts control-flow group batches re-executed so far.
	GroupsDone int
	// InFlight counts the epochs under verification at once, Epoch
	// included (at most AuditorOptions.Workers).
	InFlight int
}

// String renders the progress for status endpoints.
func (p Progress) String() string {
	if p.Epoch == 0 {
		return "idle"
	}
	s := fmt.Sprintf("auditing epoch %d: %s", p.Epoch, p.Phase)
	if p.Units > 0 {
		s += fmt.Sprintf(" (%d/%d)", p.Done, p.Units)
	}
	if p.OpsReplayed > 0 {
		s += fmt.Sprintf(", %d ops replayed", p.OpsReplayed)
	}
	return s + fmt.Sprintf("; %d epoch(s) in flight", p.InFlight)
}

// Progress reports the audit progress of the epoch the ledger waits on
// and how many epochs are in flight (zero-valued when idle). Safe to
// call concurrently with a running Run/RunOnce — it is how /-/epochs
// observes a live audit.
func (a *Auditor) Progress() Progress {
	a.mu.Lock()
	defer a.mu.Unlock()
	var p Progress
	for n, q := range a.progress {
		if p.Epoch == 0 || n < p.Epoch {
			p = *q
		}
	}
	p.InFlight = len(a.progress)
	return p
}

// beginProgress arms progress tracking for epoch n and returns the
// verifier.Observer to install for its audit: a tracker that mirrors
// the callback stream into epoch n's progress slot and forwards it to
// the user-supplied observer (AuditorOptions.Observer, falling back to
// Verify.Observer for callers that set it directly).
func (a *Auditor) beginProgress(n int64) verifier.Observer {
	p := &Progress{Epoch: n}
	a.mu.Lock()
	if a.progress == nil {
		a.progress = make(map[int64]*Progress)
	}
	a.progress[n] = p
	a.mu.Unlock()
	user := a.opts.Observer
	if user == nil {
		user = a.opts.Verify.Observer
	}
	return &progressObserver{a: a, p: p, user: user}
}

// endProgress clears epoch n's progress slot once its verification
// finishes (whatever the outcome).
func (a *Auditor) endProgress(n int64) {
	a.mu.Lock()
	delete(a.progress, n)
	a.mu.Unlock()
}

// progressObserver mirrors one epoch audit's observer stream into its
// progress slot. Its callbacks may fire concurrently from verifier pool
// workers; all state lives behind a.mu.
type progressObserver struct {
	a    *Auditor
	p    *Progress
	user verifier.Observer
}

func (o *progressObserver) PhaseStart(phase string, units int) {
	o.a.mu.Lock()
	o.p.Phase = phase
	o.p.Units = units
	o.p.Done = 0
	o.a.mu.Unlock()
	if o.user != nil {
		o.user.PhaseStart(phase, units)
	}
}

func (o *progressObserver) PhaseEnd(phase string, took time.Duration) {
	o.a.mu.Lock()
	o.p.Done = o.p.Units
	o.a.mu.Unlock()
	if o.user != nil {
		o.user.PhaseEnd(phase, took)
	}
}

func (o *progressObserver) GroupReexecuted(script string, tag uint64, requests int) {
	o.a.mu.Lock()
	o.p.Done++
	o.p.GroupsDone++
	o.a.mu.Unlock()
	if o.user != nil {
		o.user.GroupReexecuted(script, tag, requests)
	}
}

func (o *progressObserver) OpsReplayed(ops int) {
	o.a.mu.Lock()
	o.p.Done++
	o.p.OpsReplayed += int64(ops)
	o.a.mu.Unlock()
	if o.user != nil {
		o.user.OpsReplayed(ops)
	}
}

func (o *progressObserver) Verdict(accepted bool, reason string) {
	if o.user != nil {
		o.user.Verdict(accepted, reason)
	}
}

var _ verifier.Observer = (*progressObserver)(nil)
