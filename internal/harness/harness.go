// Package harness provisions servers with workloads, serves them, and
// audits the results — the shared machinery behind the test suite, the
// examples, and cmd/orochi-bench. PaperRow is the one definition of the
// paper's headline row (Fig. 8 left): every caller that prints an audit
// speedup, a recording overhead or a per-request size prints its fields.
package harness

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"time"

	"orochi/internal/apps"
	"orochi/internal/encio"
	"orochi/internal/lang"
	"orochi/internal/object"
	"orochi/internal/reports"
	"orochi/internal/server"
	"orochi/internal/trace"
	"orochi/internal/verifier"
	"orochi/internal/workload"
)

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

// Serve provisions a server built with opts with the workload's schema
// and seed data, captures the initial snapshot, and serves every
// request with up to concurrency in flight.
func Serve(w *workload.Workload, opts server.Options, concurrency int) (*Served, error) {
	prog := w.App.Compile()
	srv := server.New(prog, opts)
	if err := srv.Setup(w.App.Schema); err != nil {
		return nil, fmt.Errorf("harness: schema: %w", err)
	}
	if err := srv.Setup(w.Seed); err != nil {
		return nil, fmt.Errorf("harness: seed: %w", err)
	}
	snap := srv.Snapshot()
	start := time.Now()
	if err := srv.ServeAllContext(context.Background(), w.Requests, concurrency); err != nil {
		return nil, fmt.Errorf("harness: serve: %w", err)
	}
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
	if opts.Record {
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

// Row is one application's row of the paper's Fig. 8 left table (§5.1,
// §5.2), with the replay and audit timings Fig. 9 decomposes.
type Row struct {
	Requests int
	// Replay is simple re-execution: every request in arrival order on
	// a fresh non-recording server. Audit is the verifier's statistics
	// for the recorded run at Workers 1, so both sides are single-core.
	// Each is the median of paperRuns runs, taken in turn: Replay the
	// median time, Audit the run with the median Total.
	Replay time.Duration
	Audit  verifier.Stats
	// Speedup is Replay / Audit.Total.
	Speedup float64
	// ServerOverhead is the serving CPU recording adds, as a fraction of
	// the plain server's: each side serves sequentially, best of two.
	ServerOverhead float64
	// TraceBytes, ReportBytes and BaselineReportBytes are per request,
	// each the length of the artifact's gzipped encoding. The baseline's
	// reports are the nondeterminism records alone, which any
	// record-replay system needs (§5.1 grants them to the baseline).
	TraceBytes, ReportBytes, BaselineReportBytes float64
	// TempDB is the versioned store's footprint over its live rows'
	// after the audit: the verifier's temporary DB overhead.
	TempDB float64
}

// PaperRow computes the Fig. 8 row for a workload: it serves w without
// and with recording to measure the overhead, serves it once more
// recording at concurrency to get the audited execution, then replays
// that run's trace and audits it, paperRuns times each. A REJECT is an
// error.
func PaperRow(ctx context.Context, w *workload.Workload, concurrency int) (*Row, error) {
	cpuPlain, err := bestServeCPU(w, false)
	if err != nil {
		return nil, err
	}
	cpuRec, err := bestServeCPU(w, true)
	if err != nil {
		return nil, err
	}
	served, err := Serve(w, server.Options{Record: true}, concurrency)
	if err != nil {
		return nil, err
	}
	row, err := served.row(ctx, w)
	if err != nil {
		return nil, err
	}
	row.ServerOverhead = float64(cpuRec-cpuPlain) / float64(cpuPlain)
	return row, nil
}

// paperRuns is how many replays and audits a Row takes the median of.
// One of each made MediaWiki's speedup at -scale 10 read anywhere from
// 6.8 to 11.0× across runs of one build.
const paperRuns = 5

// row fills every column of the Row for this recorded run of w but
// ServerOverhead, which takes serves of its own.
func (s *Served) row(ctx context.Context, w *workload.Workload) (*Row, error) {
	replays := make([]time.Duration, paperRuns)
	audits := make([]verifier.Stats, paperRuns)
	var res *verifier.Result
	for i := range paperRuns {
		var err error
		if replays[i], err = baselineReplay(w, s.Trace); err != nil {
			return nil, err
		}
		if res, err = s.AuditContext(ctx, verifier.Options{Workers: 1}); err != nil {
			return nil, err
		}
		if !res.Accepted {
			return nil, fmt.Errorf("harness: audit rejected: %s", res.Reason)
		}
		audits[i] = res.Stats
	}
	slices.Sort(replays)
	slices.SortFunc(audits, func(a, b verifier.Stats) int { return cmp.Compare(a.Total, b.Total) })
	replay, audit := replays[paperRuns/2], audits[paperRuns/2]
	traceEnc, err := encio.Compress(s.Trace.EncodeRaw())
	if err != nil {
		return nil, err
	}
	repEnc, err := s.Reports.Encode()
	if err != nil {
		return nil, err
	}
	baseline := &reports.Reports{
		Groups:   map[uint64][]string{},
		Scripts:  map[uint64]string{},
		OpCounts: map[string]int{},
		NonDet:   s.Reports.NonDet,
	}
	baseEnc, err := baseline.Encode()
	if err != nil {
		return nil, err
	}
	n := float64(s.Requests)
	row := &Row{
		Requests:            s.Requests,
		Replay:              replay,
		Audit:               audit,
		Speedup:             float64(replay) / float64(audit.Total),
		TraceBytes:          float64(len(traceEnc)) / n,
		ReportBytes:         float64(len(repEnc)) / n,
		BaselineReportBytes: float64(len(baseEnc)) / n,
		TempDB:              1,
	}
	if live := res.FinalDB.LiveSizeBytes(); live > 0 {
		row.TempDB = float64(res.FinalDB.SizeBytes()) / float64(live)
	}
	return row, nil
}

// bestServeCPU serves w sequentially twice and returns the smaller
// summed handler time, keeping scheduler noise out of the small
// difference ServerOverhead measures.
func bestServeCPU(w *workload.Workload, record bool) (time.Duration, error) {
	best := time.Duration(math.MaxInt64)
	for i := 0; i < 2; i++ {
		served, err := Serve(w, server.Options{Record: record}, 1)
		if err != nil {
			return 0, err
		}
		best = min(best, served.ServeCPU)
	}
	return best, nil
}

// baselineReplay re-executes every request of tr sequentially on a
// fresh server provisioned with w's initial state — the "simple
// re-execution" the paper's speedup compares against (§5.1). It returns
// the wall time of the replay. The baseline is generous: it gets the
// recorded nondeterminism for free and replays in arrival order without
// any checking.
func baselineReplay(w *workload.Workload, tr *trace.Trace) (time.Duration, error) {
	prog := w.App.Compile()
	srv := server.New(prog, server.Options{Record: false})
	if err := srv.Setup(w.App.Schema); err != nil {
		return 0, err
	}
	if err := srv.Setup(w.Seed); err != nil {
		return 0, err
	}
	start := time.Now()
	for _, ev := range tr.Events {
		if ev.Kind != trace.Request {
			continue
		}
		srv.Process(ev.RID, ev.In)
	}
	return time.Since(start), nil
}
