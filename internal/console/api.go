package console

import (
	"encoding/json"
	"net/http"
	"strconv"
	"time"

	"orochi/internal/epoch"
)

// The JSON API serves what the index page shows with stable snake_case
// shapes. Decisions are served straight from the durable decision log
// (internal/epoch), so verdict history — including verdicts published
// by an earlier process — survives restarts, and the per-epoch
// drill-down carries the full forensics record for a REJECT.

// EpochsView is the /-/api/epochs response: the pipeline timeline plus
// a summary of the audit's position against it.
type EpochsView struct {
	Dir           string       `json:"dir"`
	CurrentEpoch  int64        `json:"current_epoch"`
	CurrentEvents int          `json:"current_events"`
	PipelineError string       `json:"pipeline_error,omitempty"`
	Sealed        []SealedView `json:"sealed"`
	Audit         *AuditView   `json:"audit,omitempty"`
}

// SealedView is one sealed epoch in the timeline.
type SealedView struct {
	Epoch       int64     `json:"epoch"`
	Events      int       `json:"events"`
	Requests    int       `json:"requests"`
	Bytes       int64     `json:"bytes"`
	ManifestSHA string    `json:"manifest_sha256"`
	SealedAt    time.Time `json:"sealed_at"`
}

// AuditView summarizes the auditor's position and live progress.
type AuditView struct {
	NextEpoch     int64  `json:"next_epoch"`
	ChainAccepted bool   `json:"chain_accepted"`
	Accepted      int    `json:"accepted"`
	Rejected      int    `json:"rejected"`
	Progress      string `json:"progress"`
}

func (c *Console) epochsView() EpochsView {
	st := c.mgr.Status()
	view := EpochsView{
		Dir:           st.Dir,
		CurrentEpoch:  st.CurrentEpoch,
		CurrentEvents: st.CurrentEvents,
		PipelineError: st.Err,
		Sealed:        make([]SealedView, 0, len(st.Sealed)),
	}
	for _, s := range st.Sealed {
		view.Sealed = append(view.Sealed, SealedView{
			Epoch: s.Epoch, Events: s.Events, Requests: s.Requests,
			Bytes: s.Bytes, ManifestSHA: s.ManifestSHA, SealedAt: s.SealedAt,
		})
	}
	if a := c.auditor; a != nil {
		av := &AuditView{
			NextEpoch:     a.NextEpoch(),
			ChainAccepted: a.ChainAccepted(),
			Progress:      a.Progress().String(),
		}
		for _, v := range a.Verdicts() {
			if v.Accepted {
				av.Accepted++
			} else {
				av.Rejected++
			}
		}
		view.Audit = av
	}
	return view
}

func (c *Console) apiEpochs(w http.ResponseWriter, r *http.Request) {
	if c.mgr == nil {
		http.Error(w, "epoch pipeline disabled", http.StatusNotFound)
		return
	}
	writeJSON(w, c.epochsView())
}

// requireLog resolves the decision log behind the verdict endpoints,
// writing the error response itself when none is available.
func (c *Console) requireLog(w http.ResponseWriter) *epoch.DecisionLog {
	if c.auditor == nil {
		http.Error(w, "no auditor wired into the console", http.StatusNotFound)
		return nil
	}
	log := c.auditor.Decisions()
	if log == nil {
		http.Error(w, "decision log unavailable", http.StatusServiceUnavailable)
		return nil
	}
	return log
}

func (c *Console) apiVerdicts(w http.ResponseWriter, r *http.Request) {
	log := c.requireLog(w)
	if log == nil {
		return
	}
	writeJSON(w, log.Decisions())
}

func (c *Console) apiVerdict(w http.ResponseWriter, r *http.Request) {
	log := c.requireLog(w)
	if log == nil {
		return
	}
	n, err := strconv.ParseInt(r.PathValue("epoch"), 10, 64)
	if err != nil {
		http.Error(w, "epoch must be a number", http.StatusBadRequest)
		return
	}
	d, ok := log.Get(n)
	if !ok {
		http.Error(w, "no decision recorded for epoch "+r.PathValue("epoch"), http.StatusNotFound)
		return
	}
	writeJSON(w, d)
}

// AckRequest is the POST /-/api/ack body: transition an epoch's
// decision open → acked with an operator note. Re-acking updates the
// note; the transition is appended to the decision log, so it survives
// restarts.
type AckRequest struct {
	Epoch int64  `json:"epoch"`
	Note  string `json:"note"`
}

func (c *Console) apiAck(w http.ResponseWriter, r *http.Request) {
	log := c.requireLog(w)
	if log == nil {
		return
	}
	var req AckRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "bad ack body: "+err.Error(), http.StatusBadRequest)
		return
	}
	d, err := log.Ack(req.Epoch, req.Note)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	writeJSON(w, d)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
