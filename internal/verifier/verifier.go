// Package verifier implements OROCHI's audit procedure (SSCO_AUDIT2,
// Fig. 12): balanced-trace validation, ProcessOpReports (consistent
// ordering, §3.5), the versioned redo pass (§4.5), grouped
// SIMD-on-demand re-execution with simulate-and-check (§3.1, §3.3), and
// the final output comparison. The verifier trusts only the trace and
// the program; reports are untrusted.
package verifier

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"orochi/internal/core"
	"orochi/internal/lang"
	"orochi/internal/object"
	"orochi/internal/reports"
	"orochi/internal/sqlmini"
	"orochi/internal/trace"
	"orochi/internal/vstore"
)

// Options configures an audit.
type Options struct {
	// MaxGroup caps requests re-executed in one SIMD batch (the paper's
	// implementation uses 3000 to avoid thrashing, §4.7).
	MaxGroup int
	// CollectStats gathers per-group instruction statistics (Fig. 11).
	CollectStats bool
	// Workers is the number of concurrent audit workers: Phase 2 replays
	// independent object logs in parallel and Phase 3 re-executes
	// control-flow groups on a worker pool ("the verifier can re-execute
	// groups in any order", §3.1/§4.7). <= 0 uses every available CPU;
	// 1 reproduces the sequential audit. Any setting yields a
	// bit-identical verdict: a reject deterministically reports the
	// first failure in group order.
	Workers int
	// Observer, if non-nil, receives progress callbacks (phase starts
	// and ends, groups re-executed, ops replayed, the verdict). With
	// Workers > 1 some callbacks fire concurrently; see Observer.
	Observer Observer
}

// ErrAuditCanceled reports an audit abandoned because its context was
// cancelled. Cancellation is never a verdict: the audit returns this
// error (wrapping the context's cause, so errors.Is matches both) with
// a nil Result, and re-running the audit with a live context yields
// exactly the verdict the uncancelled run would have produced.
var ErrAuditCanceled = errors.New("audit canceled")

// auditCanceled wraps ctx's cause so callers can match either
// ErrAuditCanceled or the underlying context error.
func auditCanceled(ctx context.Context) error {
	return fmt.Errorf("verifier: %w: %w", ErrAuditCanceled, context.Cause(ctx))
}

// GroupStat describes one re-executed control-flow group: the (n_c,
// α_c, ℓ_c) triple of Fig. 11.
type GroupStat struct {
	Tag    uint64
	Script string
	N      int     // requests in the group
	Len    int64   // instructions executed
	Alpha  float64 // fraction executed univalently
}

// Stats carries the audit-time cost decomposition (Fig. 9) and group
// statistics (Fig. 11).
type Stats struct {
	// Phase timings. ReExec is wall time of the (possibly parallel)
	// re-execution phase; DBQuery is versioned-SELECT time summed across
	// workers, so with Workers > 1 it can exceed ReExec.
	ProcOpRep time.Duration // ProcessOpReports (Figures 5 & 6)
	DBRedo    time.Duration // versioned redo pass (§4.5)
	ReExec    time.Duration // grouped re-execution (SIMD + simulate-and-check)
	DBQuery   time.Duration // versioned SELECTs inside ReExec
	Other     time.Duration // input setup, output comparison, etc.
	Total     time.Duration

	// Query dedup effectiveness (§4.5).
	DedupHits, DedupMisses int64
	// Instruction counts across all groups.
	InstrUni, InstrMulti int64
	// BuiltinLaneCalls counts the lanes of pure builtin calls on
	// multivalues across all groups, and BuiltinRuns the builtin runs
	// they took: lanes with identical arguments share one run.
	BuiltinLaneCalls, BuiltinRuns int64
	// Groups re-executed; FallbackRequests counts requests replayed
	// individually after a multivalue-mixture fallback (§4.3).
	Groups           []GroupStat
	FallbackRequests int
	RequestsReplayed int
	// GroupBatches counts the (tag, chunk) batches Phase 3 completed —
	// the denominator of the live dedup ratio (batches re-executed vs
	// requests replayed) surfaced on /-/metrics. Unlike Groups it is
	// collected unconditionally.
	GroupBatches int
}

// Result is the audit outcome.
type Result struct {
	Accepted bool
	// Reason explains a rejection (empty when accepted).
	Reason string
	// Forensics is the structured evidence behind a rejection: the
	// failing phase and check, the implicated request/group/object, and
	// the traced-vs-re-executed diff where one exists. Nil when accepted.
	// Like Reason, it is deterministic at any Workers setting.
	Forensics *Forensics
	Stats     Stats
	// FinalDB holds the versioned database after the redo pass when the
	// audit accepts; its latest state seeds the next audit period
	// (§4.5).
	FinalDB *vstore.VersionedDB

	finalKV   map[string]lang.Value
	finalRegs map[string]lang.Value
}

// FinalSnapshot derives the post-period object state from the audit:
// the migrated database, the KV store's latest values, and each
// register's last logged write. Audit periods chain by feeding this
// snapshot to the next Audit call as its initial state — the verifier
// "produces the required state during the previous audit" (§4.1, §4.5).
// The snapshot's tables share their rows with FinalDB's live versions
// (both treat rows as immutable), so the hand-off copies no table data.
// Only valid on an accepted Result.
func (r *Result) FinalSnapshot() (*object.Snapshot, error) {
	if !r.Accepted {
		return nil, fmt.Errorf("verifier: FinalSnapshot on a rejected audit")
	}
	return finalSnapshot(r.FinalDB, r.finalKV, r.finalRegs)
}

// finalSnapshot assembles a period's final state: the versioned
// database's latest rows, and the final KV and register values, marked
// shared (CloneValue) before the snapshot is handed on.
func finalSnapshot(vdb *vstore.VersionedDB, kv, regs map[string]lang.Value) (*object.Snapshot, error) {
	tables, err := vdb.MigrateFinal()
	if err != nil {
		return nil, err
	}
	snap := &object.Snapshot{
		Registers: make(map[string]lang.Value, len(regs)),
		KV:        make(map[string]lang.Value, len(kv)),
		Tables:    tables,
	}
	for k, v := range regs {
		snap.Registers[k] = lang.CloneValue(v)
	}
	for k, v := range kv {
		snap.KV[k] = lang.CloneValue(v)
	}
	return snap, nil
}

// Prepared is an audit whose Phases 1–2 have passed. The operation logs
// are ordered and redone into the versioned stores, so the period's
// final state is fixed: it is a function of the initial state and the
// reported logs alone, and Candidate reads it off now. What is left,
// ReExec, only vouches for that state — which is why a chain of periods
// can start auditing period n+1 from period n's candidate while period
// n re-executes, as long as the next audit's initial state is believed
// only once this one ACCEPTs.
type Prepared struct {
	tr   *trace.Trace
	rep  *reports.Reports
	init *object.Snapshot
	env  *auditEnv
	// graph is Phase 1's event graph G, whose topological order is the
	// op schedule of the out-of-order oracle in this package's tests.
	graph *core.EventGraph
	stats Stats         // the Phase 1–2 timings
	spent time.Duration // wall time inside Prepare
}

// Prepare validates the trace and reports and runs Phases 1–2
// (ProcessOpReports and the versioned redo). It returns either the
// audit's REJECT, when validation or one of those phases fails, or the
// Prepared audit. A non-nil error is an internal fault or a
// cancellation (ErrAuditCanceled), never a verdict.
func Prepare(ctx context.Context, tr *trace.Trace, rep *reports.Reports, init *object.Snapshot, opts Options) (*Prepared, *Result, error) {
	obs := hook{opts.Observer}
	if init == nil {
		init = object.EmptySnapshot()
	}
	if ctx.Err() != nil {
		return nil, nil, auditCanceled(ctx)
	}
	start := time.Now()
	p := &Prepared{tr: tr, rep: rep, init: init}
	reject := func(reason string, f *Forensics) (*Prepared, *Result, error) {
		return nil, rejectResult(p.stats, p.env, time.Since(start), reason, f, obs), nil
	}

	// The trace must be balanced before SSCO_AUDIT runs (§3).
	if err := tr.Balanced(); err != nil {
		return reject("unbalanced trace: "+err.Error(),
			&Forensics{Phase: PhaseValidation, Check: "unbalanced-trace"})
	}
	if rej := checkObjects(rep); rej != nil {
		return reject(rej.msg, rej.f)
	}

	// Phase 1: ProcessOpReports (Figure 5).
	t0 := time.Now()
	obs.phaseStart(PhaseProcessOpReports, 0)
	proc, err := core.ProcessOpReports(tr, rep)
	p.stats.ProcOpRep = time.Since(t0)
	if err != nil {
		var rej *core.RejectError
		if errors.As(err, &rej) {
			return reject(rej.Error(), forensicsFromReject(PhaseProcessOpReports, rej))
		}
		return nil, nil, err
	}
	obs.phaseEnd(PhaseProcessOpReports, p.stats.ProcOpRep)
	p.graph = proc.Graph
	if ctx.Err() != nil {
		return nil, nil, auditCanceled(ctx)
	}

	// Phase 2: the versioned redo (§4.5).
	t0 = time.Now()
	env, redoRej, err := redoState(ctx, init, rep, opts, obs)
	p.stats.DBRedo = time.Since(t0)
	if err != nil {
		return nil, nil, err
	}
	env.opMap = proc.OpMap
	p.env = env
	if redoRej != nil {
		return reject(redoRej.msg, redoRej.f)
	}
	obs.phaseEnd(PhaseRedo, p.stats.DBRedo)
	p.spent = time.Since(start)
	return p, nil, nil
}

// FinalState runs Phase 2 alone: it redoes rep's operation logs over
// init (nil: the empty state) and returns the period's final state —
// what Prepared.Candidate reads off the same redo, and so the state an
// ACCEPT of the period vouches for — or, when the reports do not name
// one log per object once (checkObjects) or a log fails to redo, the
// REJECT Prepare reaches too. It validates nothing else (no Phase 1)
// and re-executes nothing: a chain driver that holds a period's reports
// derives the state itself with it, and believes it only once the
// period's full audit ACCEPTs. Errors are Prepare's.
func FinalState(ctx context.Context, init *object.Snapshot, rep *reports.Reports, opts Options) (*object.Snapshot, *Result, error) {
	obs := hook{opts.Observer}
	if init == nil {
		init = object.EmptySnapshot()
	}
	if ctx.Err() != nil {
		return nil, nil, auditCanceled(ctx)
	}
	if rej := checkObjects(rep); rej != nil {
		return nil, rejectResult(Stats{}, nil, 0, rej.msg, rej.f, obs), nil
	}
	start := time.Now()
	env, rej, err := redoState(ctx, init, rep, opts, obs)
	if err != nil {
		return nil, nil, err
	}
	spent := time.Since(start)
	if rej != nil {
		return nil, rejectResult(Stats{DBRedo: spent}, env, spent, rej.msg, rej.f, obs), nil
	}
	obs.phaseEnd(PhaseRedo, spent)
	snap, err := env.finalState(init)
	return snap, nil, err
}

// checkObjects is the validation the redo relies on: the reports name
// each object at most once — duplicate identities would let the
// executor split one object's operations across logs, defeating
// per-object ordering — and carry one operation log per object.
func checkObjects(rep *reports.Reports) *rejection {
	seen := make(map[reports.ObjectID]bool, len(rep.Objects))
	for _, o := range rep.Objects {
		if seen[o] {
			return &rejection{fmt.Sprintf("duplicate object %v in reports", o),
				&Forensics{Phase: PhaseValidation, Check: "duplicate-object", Object: o.String()}}
		}
		seen[o] = true
	}
	if len(rep.OpLogs) != len(rep.Objects) {
		return &rejection{fmt.Sprintf("reports carry %d operation logs for %d objects", len(rep.OpLogs), len(rep.Objects)),
			&Forensics{Phase: PhaseValidation, Check: "log-count"}}
	}
	return nil
}

// redoState is Phase 2, the versioned redo (§4.5): it loads init into
// fresh versioned stores and replays rep's object logs into them,
// parallel across independent objects — the DB logs, the KV logs, and
// each register log have no cross-object ordering constraints. It
// returns the stores, with the rejection of the first log in object
// order that failed to redo, if any.
func redoState(ctx context.Context, init *object.Snapshot, rep *reports.Reports, opts Options, obs hook) (*auditEnv, *rejection, error) {
	env := &auditEnv{
		rep:       rep,
		vdb:       vstore.NewVersionedDB(),
		vkv:       vstore.NewVersionedKV(),
		initRegs:  sharedValues(init.Registers),
		sqlCache:  make(map[string]sqlmini.Stmt),
		convCache: make(map[*sqlmini.Result]lang.Value),
	}
	for _, tbl := range init.Tables {
		if err := env.vdb.LoadInitial(tbl); err != nil {
			return nil, nil, err
		}
	}
	kvKeys := make([]string, 0, len(init.KV))
	for k := range init.KV {
		kvKeys = append(kvKeys, k)
	}
	sort.Strings(kvKeys)
	for _, k := range kvKeys {
		env.vkv.LoadInitial(k, init.KV[k])
	}
	rej, done := runRedo(ctx, env, rep, normWorkers(opts.Workers), obs)
	if !done {
		// Cancelled mid-redo: some object logs never replayed, so even an
		// observed failure cannot be arbitrated to the first one in object
		// order. No verdict — the next audit redoes the phase whole.
		return nil, nil, auditCanceled(ctx)
	}
	return env, rej, nil
}

// finalState assembles the final state the redo into env fixed, from
// the period's initial state init.
func (env *auditEnv) finalState(init *object.Snapshot) (*object.Snapshot, error) {
	return finalSnapshot(env.vdb, env.vkv.Final(), finalRegisters(env.rep, init))
}

// rejectResult builds a REJECT verdict with its forensics, reporting the
// versioned-query time the audit spent (the Fig. 9 decomposition; a
// mid-Phase-3 reject would otherwise under-report DBQuery as zero).
func rejectResult(stats Stats, env *auditEnv, total time.Duration, reason string, f *Forensics, obs hook) *Result {
	if f == nil {
		f = &Forensics{Phase: PhaseValidation, Check: "unclassified"}
	}
	if f.Detail == "" {
		f.Detail = reason
	}
	if env != nil {
		stats.DBQuery = env.dbQueryTime()
	}
	stats.Total = total
	obs.verdict(false, reason)
	return &Result{Reason: reason, Forensics: f, Stats: stats}
}

// Candidate returns the period's final state as Phases 1–2 fixed it:
// the state an ACCEPT of this audit vouches for, and what
// Result.FinalSnapshot returns after it. Like FinalSnapshot, its tables
// share rows with the versioned database. Call it before ReExec, not
// during it: Phase 3 builds indexes in the database it migrates.
func (p *Prepared) Candidate() (*object.Snapshot, error) {
	return p.env.finalState(p.init)
}

// ReExec runs Phase 3, grouped re-execution, and Phase 4, the coverage
// check, and returns the verdict. Errors are as in AuditContext.
func (p *Prepared) ReExec(ctx context.Context, prog *lang.Program, opts Options) (*Result, error) {
	if opts.MaxGroup <= 0 {
		opts.MaxGroup = 3000
	}
	obs := hook{opts.Observer}
	start := time.Now()
	res := &Result{Stats: p.stats}
	reject := func(reason string, f *Forensics) (*Result, error) {
		return rejectResult(res.Stats, p.env, p.spent+time.Since(start), reason, f, obs), nil
	}

	// Phase 3: grouped re-execution (Fig. 12 ReExec2) on a worker pool —
	// groups are independent and re-execute "in any order" (§3.1, §4.7).
	// Output comparison happens inside each group, walking output
	// segments; Phase 4 then only checks coverage. Task outcomes are
	// folded in canonical group order, so the verdict, statistics, and
	// final state never depend on worker scheduling.
	inputs := p.tr.Inputs()
	responses := p.tr.Responses()
	produced := make(map[string]bool, len(inputs))

	t0 := time.Now()
	tasks := buildGroupTasks(p.rep, opts.MaxGroup)
	obs.phaseStart(PhaseReExec, len(tasks))
	for _, out := range runGroupTasks(ctx, prog, p.env, tasks, inputs, responses, opts, normWorkers(opts.Workers), obs) {
		if out == nil {
			// This task was never run because ctx was cancelled. Scanning
			// in task order guarantees every task before a published
			// failure ran, so a cancelled slot before any failure means no
			// verdict can be arbitrated — the audit is abandoned whole.
			return nil, auditCanceled(ctx)
		}
		if out.skipped {
			// Only tasks ordered after the deciding failure are skipped,
			// and that failure returns below before the scan gets here.
			break
		}
		mergeStats(&res.Stats, &out.stats)
		for rid := range out.produced {
			produced[rid] = true
		}
		if out.err != nil {
			return nil, out.err
		}
		if out.rej != nil {
			res.Stats.ReExec = time.Since(t0)
			return reject(out.rej.msg, out.rej.f)
		}
		res.Stats.GroupBatches++
	}
	res.Stats.ReExec = time.Since(t0)
	res.Stats.DBQuery = p.env.dbQueryTime()
	obs.phaseEnd(PhaseReExec, res.Stats.ReExec)

	// Phase 4: every traced request must have been re-executed and
	// compared (Fig. 12 lines 55-57). Missing rids are collected and
	// sorted so the reported request is the same on every run — map
	// iteration order must never pick the offender.
	t0 = time.Now()
	obs.phaseStart(PhaseCoverage, 0)
	var missing []string
	for rid := range responses {
		if !produced[rid] {
			missing = append(missing, rid)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		res.Stats.Other = time.Since(t0)
		return reject(fmt.Sprintf("request %s was not re-executed (missing from control-flow groups)", missing[0]),
			&Forensics{Phase: PhaseCoverage, Check: "coverage", RequestID: missing[0]})
	}
	res.Stats.Other = time.Since(t0)
	obs.phaseEnd(PhaseCoverage, res.Stats.Other)
	res.Stats.RequestsReplayed = len(produced)
	res.Stats.Total = p.spent + time.Since(start)
	p.accept(res)
	obs.verdict(true, "")
	return res, nil
}

// accept marks res an ACCEPT and attaches the final state Phases 1–2
// fixed, for FinalSnapshot.
func (p *Prepared) accept(res *Result) {
	res.Accepted = true
	res.FinalDB = p.env.vdb
	res.finalKV = p.env.vkv.Final()
	res.finalRegs = finalRegisters(p.rep, p.init)
}

// AuditContext runs the full audit: Prepare, then ReExec. A non-nil
// error reports an internal fault (not a verification verdict);
// verification verdicts are in Result. Cancelling ctx abandons the
// audit between work items — the worker pools stop pulling tasks,
// AuditContext returns an error matching ErrAuditCanceled, and no
// verdict is produced (cancellation is never a REJECT): re-auditing the
// same period later yields the verdict the uncancelled run would have
// reached, bit for bit.
func AuditContext(ctx context.Context, prog *lang.Program, tr *trace.Trace, rep *reports.Reports, init *object.Snapshot, opts Options) (*Result, error) {
	p, res, err := Prepare(ctx, tr, rep, init, opts)
	if p == nil {
		return res, err
	}
	return p.ReExec(ctx, prog, opts)
}

// sharedValues copies m with every value marked shared (CloneValue), so
// that concurrent readers of the copy never write a mark.
func sharedValues(m map[string]lang.Value) map[string]lang.Value {
	out := make(map[string]lang.Value, len(m))
	for k, v := range m {
		out[k] = lang.CloneValue(v)
	}
	return out
}

// finalRegisters derives each register's post-period value: its last
// logged write, or its initial value if never written. It runs only on
// accepted audits, where Phase 2 has already validated that every
// logged register write decodes.
func finalRegisters(rep *reports.Reports, init *object.Snapshot) map[string]lang.Value {
	out := make(map[string]lang.Value, len(init.Registers))
	for k, v := range init.Registers {
		out[k] = v
	}
	for i, objID := range rep.Objects {
		if objID.Kind != reports.RegisterObj {
			continue
		}
		log := rep.OpLogs[i]
		for j := len(log) - 1; j >= 0; j-- {
			if log[j].Type == lang.RegisterWrite {
				v, err := lang.DecodeValue(log[j].Value)
				if err != nil {
					// Unreachable after Phase 2 validation; never chain a
					// value we could not decode.
					panic(fmt.Sprintf("verifier: undecodable register write survived Phase 2: %v", err))
				}
				out[objID.Name] = v
				break
			}
		}
	}
	return out
}

// runGroup re-executes one batch of a control-flow group. It returns a
// non-nil rejection for verification failures, carrying both the reject
// message and its forensics record.
func runGroup(prog *lang.Program, env *auditEnv, script string, tag uint64, rids []string,
	inputs map[string]trace.Input, responses map[string]string, produced map[string]bool,
	opts Options, stats *Stats) (*rejection, error) {

	// groupRej stamps the batch coordinates common to every failure in
	// this batch; the caller adds the chunk index.
	groupRej := func(msg string, f *Forensics) *rejection {
		f.Phase = PhaseReExec
		if f.Script == "" {
			f.Script = script
		}
		f.GroupTag = tagString(tag)
		f.GroupSize = len(rids)
		return &rejection{msg: msg, f: f}
	}
	gInputs := make([]lang.RequestInput, len(rids))
	for i, rid := range rids {
		in, ok := inputs[rid]
		if !ok {
			return groupRej(fmt.Sprintf("group %x names unknown request %s", tag, rid),
				&Forensics{Check: "unknown-request", RequestID: rid}), nil
		}
		// The group's alleged entry point must be the one the trace
		// recorded for each member. Without this check a malicious
		// executor could deny any request by serving the canonical
		// fault of a nonexistent script and grouping the rid under that
		// script name — re-execution would faithfully reproduce the
		// forged "unknown script" fault and accept it.
		if in.Script != script {
			return groupRej(fmt.Sprintf("group %x claims script %q but request %s arrived for %q",
				tag, script, rid, in.Script),
				&Forensics{Check: "script-mismatch", RequestID: rid}), nil
		}
		gInputs[i] = lang.RequestInput{Get: in.Get, Post: in.Post, Cookie: in.Cookie}
	}
	// The bridge is per-batch: the dedup QueryCache's hit/miss counts
	// feed Stats, and the nondeterminism cursors must restart per batch,
	// so sharing either would change observable audit state.
	bridge := newAuditBridge(env)
	res, err := lang.Run(prog, lang.Config{
		Mode: lang.ModeSIMD, Script: script, RIDs: rids, Inputs: gInputs,
		Bridge: bridge, CollectStats: opts.CollectStats,
	})
	stats.DedupHits += bridge.cache.Hits
	stats.DedupMisses += bridge.cache.Misses
	var fault *lang.RuntimeError
	switch {
	case err == nil:
		// fall through to checks below
	case errors.Is(err, lang.ErrDivergence):
		return groupRej(fmt.Sprintf("group %x diverged during re-execution", tag),
			&Forensics{Check: "divergence"}), nil
	default:
		var fb *lang.FallbackError
		if errors.As(err, &fb) && len(rids) > 1 {
			// Unsupported multivalue mixture: re-execute individually
			// (§4.3). Correctness is unchanged — grouping is only an
			// optimization.
			for _, rid := range rids {
				if rej, err := runGroup(prog, env, script, tag, []string{rid}, inputs, responses, produced, opts, stats); err != nil || rej != nil {
					return rej, err
				}
				stats.FallbackRequests++
			}
			return nil, nil
		}
		var rej *core.RejectError
		if errors.As(err, &rej) {
			return groupRej(rej.Error(), forensicsFromReject(PhaseReExec, rej)), nil
		}
		var rt *lang.RuntimeError
		if !errors.As(err, &rt) {
			return nil, err
		}
		if res == nil {
			return groupRej(fmt.Sprintf("group %x: runtime error during re-execution: %v", tag, rt),
				&Forensics{Check: "runtime-error"}), nil
		}
		// An error group: every lane faulted at the same point with the
		// same fault (anything else surfaced as divergence above). The
		// checks below then hold the group to the same standard as a
		// completed one — partial op counts against M, and the canonical
		// fault rendering against each traced response.
		fault = rt
	}
	// Op-count check (Fig. 12 line 51): each request must have issued
	// exactly M(rid) operations. Exceeding M is caught by CheckOp
	// ((rid,opnum) absent from OpMap); finishing early is caught here.
	// For an error group, M covers the operations issued before the
	// fault, so the same check applies.
	for _, rid := range rids {
		if res.OpCount < env.rep.OpCounts[rid] {
			return groupRej(fmt.Sprintf("request %s finished with %d ops, M says %d", rid, res.OpCount, env.rep.OpCounts[rid]),
				&Forensics{Check: "op-count", RequestID: rid,
					OpsReported: env.rep.OpCounts[rid], OpsReplayed: res.OpCount}), nil
		}
	}
	// Compare outputs against the trace. A completed group walks output
	// segments so shared bytes are compared once per group; an error
	// group compares the canonical fault rendering (what the honest
	// server served) — a tampered error body, a fault relocated to a
	// different site, or a successful request forged into an error
	// group all mismatch here.
	rendered := ""
	if fault != nil {
		rendered = lang.RenderFault(fault)
	}
	for i, rid := range rids {
		want, ok := responses[rid]
		if !ok {
			return groupRej(fmt.Sprintf("group %x names request %s with no response in the trace", tag, rid),
				&Forensics{Check: "missing-response", RequestID: rid}), nil
		}
		if fault != nil {
			if want != rendered {
				return groupRej(fmt.Sprintf("error output mismatch for %s", rid),
					&Forensics{Check: "error-output-mismatch", RequestID: rid,
						Diff: diffResponses(want, rendered)}), nil
			}
		} else if !res.OutputEqual(i, want) {
			return groupRej(fmt.Sprintf("output mismatch for %s", rid),
				&Forensics{Check: "output-mismatch", RequestID: rid,
					Diff: diffResponses(want, res.Output(i))}), nil
		}
		produced[rid] = true
	}
	if opts.CollectStats {
		total := res.InstrUni + res.InstrMulti
		alpha := 1.0
		if total > 0 {
			alpha = float64(res.InstrUni) / float64(total)
		}
		stats.InstrUni += res.InstrUni
		stats.InstrMulti += res.InstrMulti
		stats.BuiltinLaneCalls += res.BuiltinLaneCalls
		stats.BuiltinRuns += res.BuiltinRuns
		stats.Groups = append(stats.Groups, GroupStat{
			Tag: tag, Script: script, N: len(rids), Len: total, Alpha: alpha,
		})
	}
	return nil, nil
}

// dedupeRIDs drops duplicate requestIDs, preserving order (re-execution
// is idempotent, so duplicates are legal but wasteful; §3.1).
func dedupeRIDs(rids []string) []string {
	seen := make(map[string]bool, len(rids))
	out := rids[:0:0]
	for _, r := range rids {
		if !seen[r] {
			seen[r] = true
			out = append(out, r)
		}
	}
	return out
}
