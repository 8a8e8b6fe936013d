// Package console is the operations surface of the reproduction: one
// http.Handler mounted under "/-/" (httpfront.ControlPrefix) that
// exposes what the paper's deployment story (§2, §5) leaves implicit —
// how an operator *watches* an audited server. It serves
//
//   - "/-/"            a minimal server-rendered HTML overview,
//   - "/-/metrics"     Prometheus text exposition (hand-rolled, no deps),
//   - "/-/api/..."     the JSON API (epoch timeline, verdict history,
//     per-epoch drill-down with forensics, and the
//     acknowledge POST).
//
// Everything under ControlPrefix bypasses the collector, so polling any
// of these endpoints never enters the trace or perturbs the audit.
//
// Every component is optional: a Console built with only a Server
// serves the serving counters and metrics; adding a Manager lights up
// the epoch timeline; adding an Auditor lights up verdicts, audit
// metrics, and the decision-log API. Endpoints whose component is absent answer 404,
// so one binary path serves every deployment shape.
package console

import (
	"net/http"
	"time"

	"orochi/internal/epoch"
	"orochi/internal/fleet"
	"orochi/internal/server"
)

// Options selects which live components the console exposes.
type Options struct {
	// Server provides the request/CPU/in-flight counters (the index's
	// serving table and the serving metrics).
	Server *server.Server
	// Manager provides the epoch pipeline status (sealed epochs, bytes
	// logged, current epoch fill).
	Manager *epoch.Manager
	// Auditor provides the verdict ledger, audit progress, audit
	// metrics, and — through its decision log — verdict history and the
	// acknowledge workflow.
	Auditor *epoch.Auditor
	// Scrubber provides the retrievability self-audit counters
	// (/-/metrics scrub families).
	Scrubber *epoch.Scrubber
	// FleetArtifacts provides the chunk-serving counters when this
	// process serves audit artifacts to fleet workers.
	FleetArtifacts *fleet.ArtifactServer
	// FleetCoordinator provides the lease/verdict counters when this
	// process coordinates a distributed audit.
	FleetCoordinator *fleet.Coordinator
	// StartedAt anchors uptime and average-rate computations (default:
	// time of New).
	StartedAt time.Time
}

// Console serves the operations endpoints. Safe for concurrent use; all
// reads go through the components' own synchronized accessors, so
// polling the console under full load does not touch the serving hot
// path.
type Console struct {
	srv       *server.Server
	mgr       *epoch.Manager
	auditor   *epoch.Auditor
	scrubber  *epoch.Scrubber
	artifacts *fleet.ArtifactServer
	coord     *fleet.Coordinator
	started   time.Time
}

// New builds a console over the given components.
func New(opts Options) *Console {
	if opts.StartedAt.IsZero() {
		opts.StartedAt = time.Now()
	}
	return &Console{
		srv:       opts.Server,
		mgr:       opts.Manager,
		auditor:   opts.Auditor,
		scrubber:  opts.Scrubber,
		artifacts: opts.FleetArtifacts,
		coord:     opts.FleetCoordinator,
		started:   opts.StartedAt,
	}
}

// Handler returns the http.Handler for the whole "/-/" surface. Mount
// it at ControlPrefix (httpfront.WithControl does exactly that);
// additional deployment-specific control endpoints can be registered on
// an outer mux with more specific patterns.
func (c *Console) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /-/{$}", c.index)
	mux.HandleFunc("GET /-/metrics", c.metrics)
	mux.HandleFunc("GET /-/api/epochs", c.apiEpochs)
	mux.HandleFunc("GET /-/api/verdicts", c.apiVerdicts)
	mux.HandleFunc("GET /-/api/verdicts/{epoch}", c.apiVerdict)
	mux.HandleFunc("POST /-/api/ack", c.apiAck)
	return mux
}

// decisions returns the auditor's durable decision log, or nil when no
// auditor (or no log) is wired in.
func (c *Console) decisions() *epoch.DecisionLog {
	if c.auditor == nil {
		return nil
	}
	return c.auditor.Decisions()
}
