package verifier

import "time"

// Audit phase names reported to an Observer, in the order they run.
const (
	// PhaseProcessOpReports is Phase 1: ProcessOpReports (Figures 5 & 6).
	PhaseProcessOpReports = "process-op-reports"
	// PhaseRedo is Phase 2: the versioned redo pass over the per-object
	// operation logs (§4.5).
	PhaseRedo = "versioned-redo"
	// PhaseReExec is Phase 3: grouped SIMD re-execution with
	// simulate-and-check (§3.1, §3.3).
	PhaseReExec = "re-execution"
	// PhaseCoverage is Phase 4: the final check that every traced
	// request was re-executed and compared (Fig. 12 lines 55-57).
	PhaseCoverage = "output-coverage"
)

// Observer receives progress callbacks from a running audit. Install
// one via Options.Observer; epoch.AuditorOptions.Observer threads the
// same interface through the background chain auditor.
//
// Observers are for progress reporting (CLI -progress output, the
// operations console) and for tests that need deterministic hooks into
// the audit's timeline (e.g. cancellation-point injection). They see
// untrusted quantities — group sizes and op counts come from the
// executor's reports — so they must never influence the verdict.
//
// With Options.Workers > 1, GroupReexecuted and OpsReplayed fire
// concurrently from pool workers: implementations must be safe for
// concurrent use and fast (they run on the audit's critical path).
type Observer interface {
	// PhaseStart announces a phase. units is the number of work items
	// the phase will process — object logs for PhaseRedo, group batches
	// for PhaseReExec, and 0 for phases without unit accounting.
	PhaseStart(phase string, units int)
	// PhaseEnd reports a completed phase and its wall time. A phase that
	// rejects or is cancelled partway through gets no PhaseEnd.
	PhaseEnd(phase string, took time.Duration)
	// GroupReexecuted reports one re-executed control-flow group batch:
	// its script, group tag, and how many requests ran in the batch.
	GroupReexecuted(script string, tag uint64, requests int)
	// OpsReplayed reports operations replayed into the versioned stores
	// during PhaseRedo. Increments, not cumulative totals: one call per
	// object log as its replay completes.
	OpsReplayed(ops int)
	// Verdict reports the audit outcome — exactly once per audit that
	// reaches a verdict. It is not called when the audit aborts with an
	// error (cancellation or an internal fault): no verdict exists then.
	Verdict(accepted bool, reason string)
}

// hook is the nil-safe adapter the audit calls through, so the hot path
// never branches on Options.Observer being set at each call site.
type hook struct{ o Observer }

func (h hook) phaseStart(phase string, units int) {
	if h.o != nil {
		h.o.PhaseStart(phase, units)
	}
}

func (h hook) phaseEnd(phase string, took time.Duration) {
	if h.o != nil {
		h.o.PhaseEnd(phase, took)
	}
}

func (h hook) groupReexecuted(script string, tag uint64, requests int) {
	if h.o != nil {
		h.o.GroupReexecuted(script, tag, requests)
	}
}

func (h hook) opsReplayed(ops int) {
	if h.o != nil {
		h.o.OpsReplayed(ops)
	}
}

func (h hook) verdict(accepted bool, reason string) {
	if h.o != nil {
		h.o.Verdict(accepted, reason)
	}
}
