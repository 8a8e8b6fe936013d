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

// This file implements OOOAudit from Appendix A of the paper (Fig. 13):
// an audit that re-executes requests *individually*, out of order,
// following an op schedule — a topological sort of the event graph G.
// It is the theoretical bridge between grouped SIMD re-execution and
// physical execution in the correctness proofs (Lemmas 5-8).
//
// In this reproduction it serves three purposes: a differential oracle
// for the production verifier (both must agree on every verdict), the
// ablation baseline that isolates what grouping buys (EXPERIMENTS.md),
// and an executable rendition of the proofs' central construction.
//
// Mechanically, each request runs in its own goroutine in single-lane
// SIMD mode; its bridge blocks before every state operation until the
// scheduler — which walks the topological order of G — hands it the
// turn for that (rid, opnum). This is exactly OOOExec's "run rid up to
// its next event" discipline.

// OOOAuditContext verifies tr against rep by out-of-order, per-request
// re-execution following a topological sort of the event graph.
// Cancelling ctx abandons the audit between schedule steps with an
// error matching ErrAuditCanceled; leftover request goroutines are
// unblocked by the scheduler's shutdown, and no verdict is produced.
func OOOAuditContext(ctx context.Context, prog *lang.Program, tr *trace.Trace, rep *reports.Reports, init *object.Snapshot) (*Result, error) {
	if ctx.Err() != nil {
		return nil, auditCanceled(ctx)
	}
	start := time.Now()
	res := &Result{}
	reject := func(reason string, f *Forensics) (*Result, error) {
		res.Accepted = false
		res.Reason = reason
		if f == nil {
			f = &Forensics{Phase: PhaseValidation, Check: "unclassified"}
		}
		if f.Detail == "" {
			f.Detail = reason
		}
		res.Forensics = f
		res.Stats.Total = time.Since(start)
		return res, nil
	}
	if init == nil {
		init = object.EmptySnapshot()
	}
	if err := tr.Balanced(); err != nil {
		return reject("unbalanced trace: "+err.Error(),
			&Forensics{Phase: PhaseValidation, Check: "unbalanced-trace"})
	}
	seenObj := make(map[reports.ObjectID]bool, len(rep.Objects))
	for _, o := range rep.Objects {
		if seenObj[o] {
			return reject(fmt.Sprintf("duplicate object %v in reports", o),
				&Forensics{Phase: PhaseValidation, Check: "duplicate-object", Object: o.String()})
		}
		seenObj[o] = true
	}
	proc, err := core.ProcessOpReports(tr, rep)
	if err != nil {
		var rej *core.RejectError
		if errors.As(err, &rej) {
			return reject(rej.Error(), forensicsFromReject(PhaseProcessOpReports, rej))
		}
		return nil, err
	}
	env := &auditEnv{
		rep:       rep,
		opMap:     proc.OpMap,
		vdb:       vstore.NewVersionedDB(),
		vkv:       vstore.NewVersionedKV(),
		dbLogIdx:  -1,
		initRegs:  sharedValues(init.Registers),
		sqlCache:  make(map[string]sqlmini.Stmt),
		convCache: make(map[*sqlmini.Result]lang.Value),
	}
	for _, tbl := range init.Tables {
		if err := env.vdb.LoadInitial(tbl); err != nil {
			return nil, err
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
	for i, objID := range rep.Objects {
		if objID.Kind != reports.DBObj && objID.Kind != reports.KVObj {
			continue
		}
		for j, e := range rep.OpLogs[i] {
			switch objID.Kind {
			case reports.DBObj:
				if e.Type != lang.DBOp {
					return reject("non-DB op in DB log",
						&Forensics{Phase: PhaseRedo, Check: "log-shape", Object: objID.String(), OpIndex: j + 1})
				}
				if e.OK {
					if err := env.vdb.ApplyTxnWith(int64(j+1), e.Stmts, env.parseSQL); err != nil {
						return reject("versioned redo failed: "+err.Error(),
							&Forensics{Phase: PhaseRedo, Check: "redo-apply", Object: objID.String(), OpIndex: j + 1})
					}
				}
			case reports.KVObj:
				if e.Type == lang.KvSet {
					v, derr := lang.DecodeValue(e.Value)
					if derr != nil {
						return reject("undecodable KV write",
							&Forensics{Phase: PhaseRedo, Check: "undecodable-write", Object: objID.String(), OpIndex: j + 1})
					}
					env.vkv.AddSet(e.Key, int64(j+1), v)
				}
			}
		}
	}

	// Build the op schedule: the topological order of G restricted to
	// state-operation nodes; (rid, 0) starts a request lazily and
	// (rid, ∞) collects its output.
	schedule := proc.Graph.TopoOrder()
	if len(schedule) != proc.Graph.NumNodes() {
		return reject("event graph has a cycle",
			&Forensics{Phase: PhaseProcessOpReports, Check: "cycle"})
	}

	inputs := tr.Inputs()
	responses := tr.Responses()
	sched := newOOOScheduler(env)
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
				if errors.As(runErr, &rej) {
					return reject(rej.Error(), forensicsFromReject(PhaseReExec, rej))
				}
				if !errors.As(runErr, &fault) || out == nil {
					return reject("re-execution failed for "+key.RID+": "+runErr.Error(),
						&Forensics{Phase: PhaseReExec, Check: "runtime-error", RequestID: key.RID, Script: in.Script})
				}
				// A faulted request: audit its canonical error response
				// below, exactly as the grouped verifier does.
			}
			if out.OpCount != rep.OpCounts[key.RID] {
				return reject(fmt.Sprintf("request %s issued %d ops, M says %d",
					key.RID, out.OpCount, rep.OpCounts[key.RID]),
					&Forensics{Phase: PhaseReExec, Check: "op-count", RequestID: key.RID, Script: in.Script,
						OpsReported: rep.OpCounts[key.RID], OpsReplayed: out.OpCount})
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
				var rej *core.RejectError
				if errors.As(err, &rej) {
					return reject(rej.Error(), forensicsFromReject(PhaseReExec, rej))
				}
				return reject("re-execution failed for "+key.RID+": "+err.Error(),
					&Forensics{Phase: PhaseReExec, Check: "runtime-error", RequestID: key.RID, Script: in.Script})
			}
		}
	}
	res.Stats.Total = time.Since(start)
	res.Stats.ReExec = res.Stats.Total
	res.Accepted = true
	res.FinalDB = env.vdb
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
