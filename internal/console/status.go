package console

import (
	"fmt"
	"io"
	"net/http"
	"time"

	"orochi/internal/epoch"
)

// stats serves /-/stats: the live throughput counters, one line of
// key=value pairs. The read path is entirely atomic (no lock shared
// with serving), so polling it under full load never perturbs the
// executor's hot path. The format predates the console (it moved here
// from cmd/orochi-serve) and is kept stable for scripts that scrape it;
// new consumers should prefer /-/metrics.
func (c *Console) stats(w http.ResponseWriter, r *http.Request) {
	if c.srv == nil {
		http.Error(w, "no server wired into the console", http.StatusNotFound)
		return
	}
	cpu, n := c.srv.CPU()
	now := time.Now()
	avgRate := float64(n) / now.Sub(c.started).Seconds()
	// Instantaneous rate over the window since the previous poll.
	c.rateMu.Lock()
	instRate := avgRate
	if dt := now.Sub(c.lastAt).Seconds(); dt > 0 && c.lastReqs <= n {
		instRate = float64(n-c.lastReqs) / dt
	}
	c.lastAt, c.lastReqs = now, n
	c.rateMu.Unlock()
	fmt.Fprintf(w, "requests=%d cpu=%v inflight=%d reqs_per_sec=%.1f reqs_per_sec_avg=%.1f uptime=%v\n",
		n, cpu, c.srv.InFlight(), instRate, avgRate, now.Sub(c.started).Round(time.Millisecond))
}

// epochsText serves /-/epochs: manager state plus the auditor's verdict
// ledger, as human-readable text.
func (c *Console) epochsText(w http.ResponseWriter, r *http.Request) {
	if c.mgr == nil {
		http.Error(w, "epoch pipeline disabled (run with -epoch-dir)", http.StatusNotFound)
		return
	}
	writeEpochStatus(w, c.mgr, c.auditor)
}

// writeEpochStatus renders the /-/epochs body (moved verbatim from
// cmd/orochi-serve so every deployment of the console reads the same).
func writeEpochStatus(wr io.Writer, mgr *epoch.Manager, auditor *epoch.Auditor) {
	st := mgr.Status()
	fmt.Fprintf(wr, "epoch dir: %s\n", st.Dir)
	fmt.Fprintf(wr, "current epoch: %d (%d events buffered)\n", st.CurrentEpoch, st.CurrentEvents)
	if st.Err != "" {
		fmt.Fprintf(wr, "pipeline error: %s\n", st.Err)
	}
	fmt.Fprintf(wr, "sealed epochs: %d\n", len(st.Sealed))
	for _, s := range st.Sealed {
		fmt.Fprintf(wr, "  epoch %d: %d events, %d requests, %d bytes, manifest %.12s\n",
			s.Epoch, s.Events, s.Requests, s.Bytes, s.ManifestSHA)
	}
	if auditor == nil {
		fmt.Fprintln(wr, "background audit: disabled")
		return
	}
	fmt.Fprintf(wr, "background audit: %s\n", auditor.Progress())
	verdicts := auditor.Verdicts()
	fmt.Fprintf(wr, "audited epochs: %d (next: %d)\n", len(verdicts), auditor.NextEpoch())
	for _, v := range verdicts {
		if v.Accepted {
			fmt.Fprintf(wr, "  epoch %d: ACCEPT in %v (chain %.12s)\n", v.Epoch, v.AuditTime, v.ChainSHA)
		} else {
			fmt.Fprintf(wr, "  epoch %d: REJECT — %s (chain %.12s)\n", v.Epoch, v.Reason, v.ChainSHA)
		}
	}
}
