package verifier

import (
	"context"
	"errors"
	"fmt"
	"time"

	"orochi/internal/core"
	"orochi/internal/lang"
	"orochi/internal/object"
	"orochi/internal/reports"
	"orochi/internal/trace"
)

// This file implements OOOAudit from Appendix A of the paper (Fig. 13):
// an audit that re-executes requests *individually*, out of order,
// following an op schedule — a topological sort of the event graph G.
// It is the theoretical bridge between grouped SIMD re-execution and
// physical execution in the correctness proofs (Lemmas 5-8). The
// verifier never runs it, so it lives in the package's tests, as the
// differential oracle for grouped re-execution: the two audits share
// Prepare and must agree on every verdict.
//
// Mechanically, each request runs in its own goroutine in single-lane
// SIMD mode; its bridge blocks before every state operation until the
// scheduler — which walks the topological order of G — hands it the
// turn for that (rid, opnum). This is exactly OOOExec's "run rid up to
// its next event" discipline.

// OOOAuditContext verifies tr against rep by out-of-order, per-request
// re-execution following a topological sort of the event graph. Phases
// 1–2 are the grouped audit's own (Prepare): the two audits differ only
// in how Phase 3 re-executes, as in the paper's construction.
// Cancelling ctx abandons the audit between schedule steps with an
// error matching ErrAuditCanceled; leftover request goroutines are
// unblocked by the scheduler's shutdown, and no verdict is produced.
func OOOAuditContext(ctx context.Context, prog *lang.Program, tr *trace.Trace, rep *reports.Reports, init *object.Snapshot) (*Result, error) {
	p, res, err := Prepare(ctx, tr, rep, init, Options{})
	if p == nil {
		return res, err
	}
	start := time.Now()
	res = &Result{Stats: p.stats}
	reject := func(reason string, f *Forensics) (*Result, error) {
		res.Stats.ReExec = time.Since(start)
		return rejectResult(res.Stats, p.env, p.spent+res.Stats.ReExec, reason, f, hook{}), nil
	}

	// Phase 3, by op schedule: the topological order of G restricted to
	// state-operation nodes; (rid, 0) starts a request lazily and
	// (rid, ∞) collects its output.
	schedule := p.graph.TopoOrder()
	if len(schedule) != p.graph.NumNodes() {
		// Phase 1 rejects a cyclic G, so this is a fault, not a verdict.
		return nil, fmt.Errorf("verifier: event graph has a cycle after Phase 1")
	}

	// rejectRun classifies a failed run of request rid as the grouped
	// audit does: a simulate-and-check reject keeps its check, anything
	// else is a runtime error.
	rejectRun := func(rid, script string, runErr error) (*Result, error) {
		var rej *core.RejectError
		if errors.As(runErr, &rej) {
			f := forensicsFromReject(PhaseReExec, rej)
			f.Script = script
			return reject(rej.Error(), f)
		}
		return reject("re-execution failed for "+rid+": "+runErr.Error(),
			&Forensics{Phase: PhaseReExec, Check: "runtime-error", RequestID: rid, Script: script})
	}
	inputs := tr.Inputs()
	responses := tr.Responses()
	sched := newOOOScheduler(p.env)
	defer sched.shutdown()
	for si, key := range schedule {
		// Operationwise stepping makes the schedule loop the natural
		// cancellation point; check every few steps so a cancelled audit
		// of a long schedule returns promptly without paying ctx.Err()'s
		// cost on every single operation.
		if si&63 == 0 && ctx.Err() != nil {
			return nil, auditCanceled(ctx)
		}
		in, ok := inputs[key.RID]
		if !ok {
			return reject("schedule names unknown request "+key.RID,
				&Forensics{Phase: PhaseReExec, Check: "unknown-request", RequestID: key.RID})
		}
		switch key.Opnum {
		case 0:
			sched.start(prog, key.RID, in)
		case core.OpInf:
			out, runErr := sched.finish(key.RID)
			var fault *lang.RuntimeError
			if runErr != nil {
				var rej *core.RejectError
				if errors.As(runErr, &rej) || !errors.As(runErr, &fault) || out == nil {
					return rejectRun(key.RID, in.Script, runErr)
				}
				// A faulted request: audit its canonical error response
				// below, exactly as the grouped verifier does.
			}
			if out.OpCount != p.rep.OpCounts[key.RID] {
				return reject(fmt.Sprintf("request %s issued %d ops, M says %d",
					key.RID, out.OpCount, p.rep.OpCounts[key.RID]),
					&Forensics{Phase: PhaseReExec, Check: "op-count", RequestID: key.RID, Script: in.Script,
						OpsReported: p.rep.OpCounts[key.RID], OpsReplayed: out.OpCount})
			}
			if fault != nil {
				if responses[key.RID] != lang.RenderFault(fault) {
					return reject("error output mismatch for "+key.RID,
						&Forensics{Phase: PhaseReExec, Check: "error-output-mismatch", RequestID: key.RID, Script: in.Script,
							Diff: diffResponses(responses[key.RID], lang.RenderFault(fault))})
				}
			} else if !out.OutputEqual(0, responses[key.RID]) {
				return reject("output mismatch for "+key.RID,
					&Forensics{Phase: PhaseReExec, Check: "output-mismatch", RequestID: key.RID, Script: in.Script,
						Diff: diffResponses(responses[key.RID], out.Output(0))})
			}
			res.Stats.RequestsReplayed++
		default:
			if err := sched.step(key.RID); err != nil {
				return rejectRun(key.RID, in.Script, err)
			}
		}
	}
	res.Stats.ReExec = time.Since(start)
	res.Stats.DBQuery = p.env.dbQueryTime()
	res.Stats.Total = p.spent + res.Stats.ReExec
	p.accept(res)
	return res, nil
}

// oooScheduler single-steps request goroutines through their state ops.
type oooScheduler struct {
	env  *auditEnv
	reqs map[string]*oooRequest
}

type oooRequest struct {
	// turn receives permission to run one state op; opDone is signalled
	// after the op completes (or the run ends).
	turn   chan struct{}
	done   chan struct{} // closed when the goroutine exits
	result *lang.Result
	err    error
}

func newOOOScheduler(env *auditEnv) *oooScheduler {
	return &oooScheduler{env: env, reqs: make(map[string]*oooRequest)}
}

// start launches the request's goroutine; it runs until its first state
// op (where its bridge blocks) or to completion.
func (s *oooScheduler) start(prog *lang.Program, rid string, in trace.Input) {
	r := &oooRequest{
		turn: make(chan struct{}),
		done: make(chan struct{}),
	}
	s.reqs[rid] = r
	bridge := &oooBridge{
		inner: newAuditBridge(s.env),
		turn:  r.turn,
	}
	go func() {
		defer close(r.done)
		r.result, r.err = lang.Run(prog, lang.Config{
			Mode:   lang.ModeSIMD,
			Script: in.Script,
			RIDs:   []string{rid},
			Inputs: []lang.RequestInput{{Get: in.Get, Post: in.Post, Cookie: in.Cookie}},
			Bridge: bridge,
		})
	}()
}

// step grants the request one state operation. If the request finishes
// (or errors) instead of issuing an op, the mismatch surfaces here or at
// finish.
func (s *oooScheduler) step(rid string) error {
	r, ok := s.reqs[rid]
	if !ok {
		return fmt.Errorf("step for unstarted request %s", rid)
	}
	select {
	case r.turn <- struct{}{}:
		return nil
	case <-r.done:
		// The request ended before issuing the scheduled op: fewer ops
		// than the reports claimed.
		if r.err != nil {
			return r.err
		}
		return &core.RejectError{Stage: "ooo", RID: rid, Msg: fmt.Sprintf(
			"request %s finished before scheduled operation", rid)}
	}
}

// finish waits for the request's goroutine and returns its result.
func (s *oooScheduler) finish(rid string) (*lang.Result, error) {
	r, ok := s.reqs[rid]
	if !ok {
		return nil, fmt.Errorf("finish for unstarted request %s", rid)
	}
	// Allow a request that issues no further ops to run to completion;
	// if it (incorrectly) wants more ops than scheduled, feeding it here
	// would be wrong — but such a request would have failed CheckOp
	// (its (rid,opnum) is not in the OpMap), which unblocks it with an
	// error. So just drain turns until the goroutine exits.
	for {
		select {
		case r.turn <- struct{}{}:
			continue
		case <-r.done:
			delete(s.reqs, rid)
			return r.result, r.err
		}
	}
}

// shutdown unblocks any leftover goroutines (reject paths).
func (s *oooScheduler) shutdown() {
	for _, r := range s.reqs {
		for {
			select {
			case r.turn <- struct{}{}:
				continue
			case <-r.done:
			}
			break
		}
	}
}

// oooBridge wraps the audit bridge, blocking before every state op until
// the scheduler grants the turn (operationwise execution, §A.1).
type oooBridge struct {
	inner *auditBridge
	turn  chan struct{}
}

func (b *oooBridge) await() { <-b.turn }

func (b *oooBridge) RegisterRead(rid string, opnum int, name string) (lang.Value, error) {
	b.await()
	return b.inner.RegisterRead(rid, opnum, name)
}
func (b *oooBridge) RegisterWrite(rid string, opnum int, name string, v lang.Value) error {
	b.await()
	return b.inner.RegisterWrite(rid, opnum, name, v)
}
func (b *oooBridge) KvGet(rid string, opnum int, key string) (lang.Value, error) {
	b.await()
	return b.inner.KvGet(rid, opnum, key)
}
func (b *oooBridge) KvSet(rid string, opnum int, key string, v lang.Value) error {
	b.await()
	return b.inner.KvSet(rid, opnum, key, v)
}
func (b *oooBridge) DBOp(rid string, opnum int, stmts []string) (lang.Value, error) {
	b.await()
	return b.inner.DBOp(rid, opnum, stmts)
}
func (b *oooBridge) NonDet(rid string, fn string, args []lang.Value) (lang.Value, error) {
	// Nondeterminism is not a shared-object op; no turn needed.
	return b.inner.NonDet(rid, fn, args)
}

var _ lang.Bridge = (*oooBridge)(nil)
