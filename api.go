// Package orochi is a Go reproduction of "The Efficient Server Audit
// Problem, Deduplicated Re-execution, and the Web" (Tan, Yu, Leners,
// Walfish — SOSP 2017): the SSCO audit algorithms and the OROCHI system
// built on them.
//
// The model: an untrusted executor (the Server here) runs an application
// Program over concurrent requests; a trusted Collector captures the
// trace of requests and responses; the executor also hands back
// untrusted Reports (control-flow groups, per-object operation logs,
// operation counts, and nondeterminism records). Audit verifies —
// several times faster than re-executing naively — that every response
// in the trace is one a correct execution could have produced
// (Soundness), while always accepting honest executions (Completeness).
//
// Quick start — the HTTP-native front door (the paper's deployment
// model: a trusted collector in front of a real web server):
//
//	prog, _ := orochi.CompileApp(map[string]string{
//	    "hello": `echo "hello " . $_GET["name"];`,
//	})
//	srv := orochi.NewServer(prog, orochi.ServerOptions{Record: true})
//	snap := srv.Snapshot()
//	ts := httptest.NewServer(orochi.HTTPHandler(srv))
//	defer ts.Close()
//	http.Get(ts.URL + "/hello?name=world") // real HTTP traffic
//	res, _ := orochi.AuditContext(ctx, prog, srv.Trace(), srv.Reports(), snap, orochi.AuditOptions{})
//	fmt.Println(res.Accepted) // true
//
// In-process srv.Handle calls record identically — the HTTP layer is a
// canonical mapping, not a requirement. Audits take a context.Context
// and are cancellable (ErrAuditCanceled, never a spurious verdict) and
// observable (AuditObserver).
//
// The building blocks are exposed as aliases so downstream users can
// compose them directly: the application language (lang), the SQL engine
// (sqlmini), versioned storage (vstore), the SSCO graph algorithms
// (core), and the workload generators used by the paper's evaluation
// (workload, apps).
package orochi

import (
	"context"
	"net/http"

	"orochi/internal/apps"
	"orochi/internal/console"
	"orochi/internal/epoch"
	"orochi/internal/httpfront"
	"orochi/internal/lang"
	"orochi/internal/object"
	"orochi/internal/reports"
	"orochi/internal/server"
	"orochi/internal/trace"
	"orochi/internal/verifier"
	"orochi/internal/workload"
)

// Program is a compiled application: entry-point scripts plus a global
// function table, in the reproduction's PHP-like language.
type Program = lang.Program

// Input is one client request: the script to invoke plus superglobals.
type Input = trace.Input

// Trace is the collector's ordered record of requests and responses.
type Trace = trace.Trace

// Collector is the trusted middlebox capturing traces.
type Collector = trace.Collector

// Reports is the executor's untrusted report bundle.
type Reports = reports.Reports

// Server is the executor: it serves requests concurrently and, when
// recording, produces reports.
type Server = server.Server

// ServerOptions configures a Server.
type ServerOptions = server.Options

// Snapshot is the persistent-object state at an audit boundary.
type Snapshot = object.Snapshot

// AuditOptions configures the verifier.
type AuditOptions = verifier.Options

// AuditResult is the verdict plus cost decomposition and group stats.
type AuditResult = verifier.Result

// App bundles a sample application's sources and schema.
type App = apps.App

// CompileApp parses application sources (script name -> source) through
// a process-wide content-keyed cache: identical sources return the same
// *Program, so the server and the verifier share one compiled program
// (and the compiled engine's once-lowered form) instead of recompiling
// per component. Cache counters are exported at /-/metrics as
// orochi_lang_cache_{hits,misses}.
func CompileApp(files map[string]string) (*Program, error) {
	return lang.CompileCached(files)
}

// NewServer builds an executor for prog.
func NewServer(prog *Program, opts ServerOptions) *Server {
	return server.New(prog, opts)
}

// NewCollector builds a standalone trace collector (the Server embeds
// one already; use this when fronting your own execution stack).
func NewCollector() *Collector {
	return trace.NewCollector()
}

// AuditContext verifies that the responses in tr are consistent with
// executing prog over the requests in tr, given the untrusted reports
// and the trusted initial object state. It implements SSCO_AUDIT2
// (Fig. 12 of the paper): balanced-trace validation,
// consistent-ordering checks, versioned redo, grouped SIMD-on-demand
// re-execution with simulate-and-check, and output comparison.
//
// Cancelling ctx abandons the audit with an error matching
// ErrAuditCanceled and produces no verdict — re-auditing later yields
// exactly the verdict the uncancelled run would have reached. Install
// an AuditObserver via AuditOptions.Observer to watch progress.
func AuditContext(ctx context.Context, prog *Program, tr *Trace, rep *Reports, init *Snapshot, opts AuditOptions) (*AuditResult, error) {
	return verifier.AuditContext(ctx, prog, tr, rep, init, opts)
}

// Audit runs AuditContext with a background context.
//
// Deprecated: use AuditContext, which supports cancellation and
// progress observation. This wrapper remains so pre-context callers
// keep compiling.
func Audit(prog *Program, tr *Trace, rep *Reports, init *Snapshot, opts AuditOptions) (*AuditResult, error) {
	return verifier.AuditContext(context.Background(), prog, tr, rep, init, opts)
}

// ErrAuditCanceled is returned (wrapped, with the context's cause) by
// the context-aware audits when their context is cancelled mid-flight.
// Cancellation is never a verdict: no REJECT is recorded, and the same
// period can be re-audited later.
var ErrAuditCanceled = verifier.ErrAuditCanceled

// AuditObserver receives progress callbacks from a running audit —
// phase starts and ends, control-flow groups re-executed, operations
// replayed into the versioned stores, and the verdict. Set it via
// AuditOptions.Observer (or EpochAuditorOptions.Observer for the
// background chain auditor). See verifier.Observer for the callback
// contract; with AuditOptions.Workers > 1 some callbacks fire
// concurrently.
type AuditObserver = verifier.Observer

// Audit phase names an AuditObserver sees, in order.
const (
	AuditPhaseProcessOpReports = verifier.PhaseProcessOpReports
	AuditPhaseRedo             = verifier.PhaseRedo
	AuditPhaseReExec           = verifier.PhaseReExec
	AuditPhaseCoverage         = verifier.PhaseCoverage
)

// OOOAuditContext is the Appendix A out-of-order audit: it re-executes
// each request individually, stepping request goroutines through a
// topological sort of the event graph. Same verdicts as AuditContext,
// no grouping acceleration — useful as an independent cross-check.
func OOOAuditContext(ctx context.Context, prog *Program, tr *Trace, rep *Reports, init *Snapshot) (*AuditResult, error) {
	return verifier.OOOAuditContext(ctx, prog, tr, rep, init)
}

// OOOAudit runs OOOAuditContext with a background context.
//
// Deprecated: use OOOAuditContext, which supports cancellation.
func OOOAudit(prog *Program, tr *Trace, rep *Reports, init *Snapshot) (*AuditResult, error) {
	return verifier.OOOAuditContext(context.Background(), prog, tr, rep, init)
}

// PatchResult classifies each audited request under a patched program.
type PatchResult = verifier.PatchResult

// Patch classifications (see verifier.PatchClass).
const (
	PatchUnchangedClass    = verifier.PatchUnchanged
	PatchChangedClass      = verifier.PatchChanged
	PatchInconclusiveClass = verifier.PatchInconclusive
)

// PatchAuditContext implements patch-based auditing (§7, after Poirot):
// replay an audited period against a patched program and report which
// responses would have differed (unchanged / changed / inconclusive).
func PatchAuditContext(ctx context.Context, patched *Program, tr *Trace, rep *Reports, init *Snapshot) (*PatchResult, error) {
	return verifier.PatchAuditContext(ctx, patched, tr, rep, init)
}

// PatchAudit runs PatchAuditContext with a background context.
//
// Deprecated: use PatchAuditContext, which supports cancellation.
func PatchAudit(patched *Program, tr *Trace, rep *Reports, init *Snapshot) (*PatchResult, error) {
	return verifier.PatchAuditContext(context.Background(), patched, tr, rep, init)
}

// HTTPHandler is the HTTP-native front door: it returns srv as an
// http.Handler — srv's embedded trusted collector in front of its
// executor, exactly the paper's deployment model (§2) over net/http.
// The URL path names the script, query parameters become $_GET, form
// fields $_POST, cookies $_COOKIE; response status codes derive
// canonically from the body (a canonical fault rendering maps to 500).
// Mount it on any mux; paths under "/-/" stay outside the audited
// surface. Audit artifacts come from srv.Trace() and srv.Reports()
// exactly as with in-process srv.Handle calls.
func HTTPHandler(srv *Server) http.Handler {
	return httpfront.Handler(srv)
}

// HTTPCollector is composable reverse-proxy-style middleware playing
// the trusted collector's role in front of ANY handler: each request
// under the audited surface is recorded into c on arrival and the
// response bytes the client receives are recorded on departure. The
// wrapped handler sees the recorded requestID and parsed input via the
// request context (httpfront.RecordedFrom); HTTPExecutor consumes them,
// and custom stacks can too.
func HTTPCollector(c *Collector, next http.Handler) http.Handler {
	return httpfront.Collector(c, next)
}

// HTTPExecutor returns srv's executor as an http.Handler without a
// collector: under an HTTPCollector it runs the recorded input under
// the trace's requestID, standalone it records through srv's embedded
// collector. Compose middleware between HTTPCollector and HTTPExecutor
// to model a misbehaving serving stack — the collector records what
// the client actually sees.
func HTTPExecutor(srv *Server) http.Handler {
	return httpfront.Exec(srv)
}

// HTTPRequestToInput maps an HTTP request onto the model's Input using
// the canonical mapping shared by HTTPHandler, the CLIs, and the tests.
func HTTPRequestToInput(r *http.Request) (Input, error) {
	return httpfront.RequestToInput(r)
}

// NewHTTPRequest is HTTPRequestToInput's inverse: the HTTP request that
// maps back onto in when received by an HTTPHandler at base.
func NewHTTPRequest(base string, in Input) (*http.Request, error) {
	return httpfront.NewRequest(base, in)
}

// EpochManager runs the online half of the epoch pipeline: it streams
// the collector's trace into durable, checksummed, append-only log
// segments and seals serving periods ("epochs") behind content-digest
// manifests chained by hash, without pausing serving.
type EpochManager = epoch.Manager

// EpochManagerOptions tunes epoch rotation and the segmented log.
type EpochManagerOptions = epoch.ManagerOptions

// EpochAuditor verifies a chain of sealed epochs — continuously, in the
// background, concurrently with serving — threading each epoch's
// verified final snapshot into the next epoch's trusted initial state.
type EpochAuditor = epoch.Auditor

// EpochAuditorOptions configures a chain auditor.
type EpochAuditorOptions = epoch.AuditorOptions

// EpochVerdict is one entry of the audit ledger.
type EpochVerdict = epoch.Verdict

// EpochLogWriter is the durable segmented write-ahead log under the
// epoch pipeline: length-prefixed, CRC-checksummed, gzip-framed records
// in rotating append-only segments with torn-tail recovery.
type EpochLogWriter = epoch.LogWriter

// EpochLogWriterOptions tunes segment rotation and batching.
type EpochLogWriterOptions = epoch.LogWriterOptions

// StartEpochManager begins epoch-segmented serving for srv (which must
// record reports) with init as the first epoch's trusted initial
// snapshot. See epoch.StartManager.
func StartEpochManager(dir string, srv *Server, init *Snapshot, opts EpochManagerOptions) (*EpochManager, error) {
	return epoch.StartManager(dir, srv, init, opts)
}

// NewEpochAuditor builds a background auditor over the sealed epoch
// chain in dir.
func NewEpochAuditor(prog *Program, dir string, opts EpochAuditorOptions) *EpochAuditor {
	return epoch.NewAuditor(prog, dir, opts)
}

// Forensics is the structured evidence behind a REJECT: the failing
// phase and check, the offending request, group/chunk or object/log
// coordinates, and — for output mismatches — the traced-vs-re-executed
// response diff. It is assembled by the same deterministic
// first-failure arbitration as the reject reason, so the record is
// bit-identical at any AuditOptions.Workers setting; find it on
// AuditResult.Forensics and EpochVerdict.Forensics.
type Forensics = verifier.Forensics

// ResponseDiff is the windowed traced-vs-re-executed body comparison
// attached to output-mismatch Forensics.
type ResponseDiff = verifier.ResponseDiff

// EpochDecision is the durable form of one epoch's audit verdict —
// verdict, forensics, timings, chain digest, and the open → acked
// resolution state machine — as persisted in the chain directory's
// decision log (decisions.jsonl).
type EpochDecision = epoch.Decision

// EpochDecisionLog is the append-only, fsynced, restart-surviving
// ACCEPT/REJECT ledger of an epoch chain directory. The background
// auditor appends to it automatically; the console serves verdict
// history and acknowledgements from it.
type EpochDecisionLog = epoch.DecisionLog

// OpenEpochDecisionLog opens (creating if needed) the decision log in
// an epoch chain directory and replays it into memory.
func OpenEpochDecisionLog(dir string) (*EpochDecisionLog, error) {
	return epoch.OpenDecisionLog(dir)
}

// ReadEpochDecisions replays an epoch chain's decision log read-only
// and returns every stored decision in epoch order (fs.ErrNotExist when
// the chain has no log) — the offline inspection path behind
// orochi-audit -explain.
func ReadEpochDecisions(dir string) ([]EpochDecision, error) {
	return epoch.ReadDecisions(dir)
}

// Console is the operations surface: one http.Handler under "/-/"
// serving Prometheus metrics (/-/metrics), live counters (/-/stats),
// the epoch timeline and verdict ledger (/-/epochs, /-/api/...), and a
// minimal HTML overview. Every component is optional.
type Console = console.Console

// ConsoleOptions selects which live components a Console exposes.
type ConsoleOptions = console.Options

// NewConsole builds an operations console over the given components;
// mount NewConsole(...).Handler() with HTTPWithControl.
func NewConsole(opts ConsoleOptions) *Console {
	return console.New(opts)
}

// HTTPWithControl composes the complete front door: control (typically
// a Console's handler) under "/-/", the audited handler everywhere
// else.
func HTTPWithControl(control, audited http.Handler) http.Handler {
	return httpfront.WithControl(control, audited)
}

// SampleApps returns the paper's three evaluation applications —
// a MediaWiki-like wiki, a phpBB-like forum, and a HotCRP-like review
// system — reimplemented for this reproduction.
func SampleApps() []*App {
	return apps.All()
}

// WikiWorkload, ForumWorkload and HotCRPWorkload generate the §5
// evaluation workloads at the paper's default parameters.
func WikiWorkload() *workload.Workload { return workload.Wiki(workload.DefaultWikiParams()) }

// ForumWorkload generates the phpBB workload (§5).
func ForumWorkload() *workload.Workload { return workload.Forum(workload.DefaultForumParams()) }

// HotCRPWorkload generates the HotCRP workload (§5).
func HotCRPWorkload() *workload.Workload { return workload.HotCRP(workload.DefaultHotCRPParams()) }

// WithErrors mixes faulting requests (unknown script, undefined
// function, bad SQL) into a workload at the given rate. Faulted
// requests are first-class auditable outcomes: an honest period
// containing them still ACCEPTs.
func WithErrors(w *workload.Workload, rate float64, seed int64) *workload.Workload {
	return workload.WithErrors(w, workload.ErrorMixParams{Rate: rate, Seed: seed})
}

// RenderFault renders a runtime fault as the canonical error-response
// body the server serves and the verifier reproduces during the audit.
func RenderFault(err error) string { return lang.RenderFault(err) }
