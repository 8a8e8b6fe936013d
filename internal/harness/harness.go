// Package harness provisions servers with workloads, serves them, and
// audits the results — the shared machinery behind the test suite, the
// benchmark targets (bench_test.go), the examples, and cmd/orochi-bench.
package harness

import (
	"context"
	"fmt"
	"time"

	"orochi/internal/apps"
	"orochi/internal/lang"
	"orochi/internal/object"
	"orochi/internal/reports"
	"orochi/internal/server"
	"orochi/internal/trace"
	"orochi/internal/verifier"
	"orochi/internal/workload"
)

// ServeConfig controls one serving run.
type ServeConfig struct {
	// Record enables OROCHI report collection; false is the legacy
	// baseline of §5.1.
	Record bool
	// Concurrency is the number of in-flight requests.
	Concurrency int
	// Clock overrides the server clock (deterministic runs).
	Clock func() time.Time
	// RandSeed seeds server-side randomness.
	RandSeed int64
	// Shards is the lock-stripe count of the object store and recorder
	// (0 = default). Reports are identical at every setting.
	Shards int
	// TamperResponse is the misbehaving-executor hook.
	TamperResponse func(rid, body string) string
	// Engine is the test seam for the reference engine (nil = the
	// production engine); observables are engine-independent.
	Engine lang.Engine
}

// Served captures everything a serving run produced.
type Served struct {
	App      *apps.App
	Program  *lang.Program
	Server   *server.Server
	Snapshot *object.Snapshot
	Trace    *trace.Trace
	Reports  *reports.Reports // nil when recording was off
	// ServeCPU is the summed handler execution time; ServeWall the
	// end-to-end wall time of the serving phase.
	ServeCPU  time.Duration
	ServeWall time.Duration
	Requests  int
}

// Serve provisions a server with the workload's schema and seed data,
// captures the initial snapshot, and serves every request.
func Serve(w *workload.Workload, cfg ServeConfig) (*Served, error) {
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 4
	}
	prog := w.App.Compile()
	srv := server.New(prog, server.Options{
		Record:         cfg.Record,
		Clock:          cfg.Clock,
		RandSeed:       cfg.RandSeed,
		Shards:         cfg.Shards,
		TamperResponse: cfg.TamperResponse,
		Engine:         cfg.Engine,
	})
	if err := srv.Setup(w.App.Schema); err != nil {
		return nil, fmt.Errorf("harness: schema: %w", err)
	}
	if err := srv.Setup(w.Seed); err != nil {
		return nil, fmt.Errorf("harness: seed: %w", err)
	}
	snap := srv.Snapshot()
	start := time.Now()
	srv.ServeAll(w.Requests, cfg.Concurrency)
	wall := time.Since(start)
	cpu, n := srv.CPU()
	out := &Served{
		App:      w.App,
		Program:  prog,
		Server:   srv,
		Snapshot: snap,
		Trace:    srv.Trace(),
		ServeCPU: cpu, ServeWall: wall, Requests: int(n),
	}
	if cfg.Record {
		out.Reports = srv.Reports()
	}
	return out, nil
}

// AuditContext runs the verifier over the served results. Cancelling
// ctx abandons the audit with an error matching
// verifier.ErrAuditCanceled and no verdict.
func (s *Served) AuditContext(ctx context.Context, opts verifier.Options) (*verifier.Result, error) {
	if s.Reports == nil {
		return nil, fmt.Errorf("harness: serving run did not record reports")
	}
	return verifier.AuditContext(ctx, s.Program, s.Trace, s.Reports, s.Snapshot, opts)
}

// Audit runs the verifier over the served results.
//
// Deprecated: use AuditContext, which supports cancellation.
func (s *Served) Audit(opts verifier.Options) (*verifier.Result, error) {
	return s.AuditContext(context.Background(), opts)
}

// Sizes summarizes the storage-related quantities of Fig. 8: compressed
// trace size, compressed report size, a baseline report size (the
// nondeterminism records only, which any record-replay baseline needs),
// and the plain DB size.
type Sizes struct {
	TraceBytes          int
	ReportBytes         int
	BaselineReportBytes int
	DBPlainBytes        int64
}

// Sizes computes the size accounting for this run.
func (s *Served) Sizes() (*Sizes, error) {
	out := &Sizes{DBPlainBytes: s.Server.Store.DB.SizeBytes()}
	tb, err := encodeTraceSize(s.Trace)
	if err != nil {
		return nil, err
	}
	out.TraceBytes = tb
	if s.Reports != nil {
		enc, err := s.Reports.Encode()
		if err != nil {
			return nil, err
		}
		out.ReportBytes = len(enc)
		// The baseline's reports: nondeterminism only (§5.1 gives the
		// baseline this, since any record-replay system needs it).
		baseline := &reports.Reports{
			Groups:   map[uint64][]string{},
			Scripts:  map[uint64]string{},
			OpCounts: map[string]int{},
			NonDet:   s.Reports.NonDet,
		}
		bEnc, err := baseline.Encode()
		if err != nil {
			return nil, err
		}
		out.BaselineReportBytes = len(bEnc)
	}
	return out, nil
}

func encodeTraceSize(tr *trace.Trace) (int, error) {
	// The trace's wire size: sum of request/response payloads, gzipped
	// via the reports encoder for a like-for-like comparison.
	var total int
	for i := range tr.Events {
		ev := &tr.Events[i]
		total += len(ev.RID) + 9 // rid + kind/time framing
		total += len(ev.Body)
		total += len(ev.In.Script)
		for k, v := range ev.In.Get {
			total += len(k) + len(v) + 2
		}
		for k, v := range ev.In.Post {
			total += len(k) + len(v) + 2
		}
		for k, v := range ev.In.Cookie {
			total += len(k) + len(v) + 2
		}
	}
	return total, nil
}

// BaselineReplay re-executes every request sequentially on a fresh
// server provisioned with the same initial state — the "simple
// re-execution" the paper's speedup compares against (§5.1). It returns
// the wall time of the replay. The baseline is generous: it gets the
// recorded nondeterminism for free and replays in arrival order without
// any checking.
func BaselineReplay(w *workload.Workload, served *Served) (time.Duration, error) {
	prog := w.App.Compile()
	srv := server.New(prog, server.Options{Record: false})
	if err := srv.Setup(w.App.Schema); err != nil {
		return 0, err
	}
	if err := srv.Setup(w.Seed); err != nil {
		return 0, err
	}
	start := time.Now()
	for _, ev := range served.Trace.Events {
		if ev.Kind != trace.Request {
			continue
		}
		srv.Process(ev.RID, ev.In)
	}
	return time.Since(start), nil
}
