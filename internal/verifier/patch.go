package verifier

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"orochi/internal/core"
	"orochi/internal/lang"
	"orochi/internal/object"
	"orochi/internal/reports"
	"orochi/internal/sqlmini"
	"orochi/internal/trace"
	"orochi/internal/vstore"
)

// Patch-based auditing (§7, following Poirot [53]): replay an already-
// audited period against a *patched* program and report which responses
// would have differed. Unlike Poirot, the replay machinery here is the
// same untrusted-report machinery as the audit itself, so the patch
// audit covers the stack the audit covers.
//
// Requests are replayed individually. Reads are fed from the versioned
// stores at the timestamps the original execution's logs pin down; a
// patched program whose state-operation sequence deviates from the
// original's (different write SQL, more operations than were logged,
// different objects) cannot be faithfully simulated from the logs, so
// such requests are classified Inconclusive rather than guessed at.

// PatchClass classifies one request's behaviour under the patch.
type PatchClass uint8

const (
	// PatchUnchanged: the patched program reproduces the original
	// response byte-for-byte.
	PatchUnchanged PatchClass = iota
	// PatchChanged: replay succeeded but the response differs.
	PatchChanged
	// PatchInconclusive: the patched execution departed from the logged
	// operation sequence, so its behaviour cannot be derived from the
	// recorded reports alone.
	PatchInconclusive
)

func (c PatchClass) String() string {
	switch c {
	case PatchUnchanged:
		return "unchanged"
	case PatchChanged:
		return "changed"
	case PatchInconclusive:
		return "inconclusive"
	default:
		return "patchclass(?)"
	}
}

// PatchResult summarizes a patch audit.
type PatchResult struct {
	// Classes maps requestID -> classification.
	Classes map[string]PatchClass
	// Unchanged, Changed and Inconclusive count the classes.
	Unchanged, Changed, Inconclusive int
}

// RIDsIn returns the requestIDs with the given class, sorted.
func (r *PatchResult) RIDsIn(c PatchClass) []string {
	var out []string
	for rid, cl := range r.Classes {
		if cl == c {
			out = append(out, rid)
		}
	}
	sort.Strings(out)
	return out
}

// PatchAudit replays the recorded period under the patched program with
// a background context.
//
// Deprecated: use PatchAuditContext, which supports cancellation.
func PatchAudit(patched *lang.Program, tr *trace.Trace, rep *reports.Reports, init *object.Snapshot) (*PatchResult, error) {
	return PatchAuditContext(context.Background(), patched, tr, rep, init)
}

// PatchAuditContext replays the recorded period under the patched
// program. The reports must come from an execution that a regular Audit
// (under the original program) accepted; the patch audit revalidates
// their structure but not the original outputs. Cancelling ctx abandons
// the replay between requests with an error matching ErrAuditCanceled
// and no (partial) classification.
func PatchAuditContext(ctx context.Context, patched *lang.Program, tr *trace.Trace, rep *reports.Reports, init *object.Snapshot) (*PatchResult, error) {
	if ctx.Err() != nil {
		return nil, auditCanceled(ctx)
	}
	if init == nil {
		init = object.EmptySnapshot()
	}
	if err := tr.Balanced(); err != nil {
		return nil, fmt.Errorf("verifier: patch audit: %w", err)
	}
	proc, err := core.ProcessOpReports(tr, rep)
	if err != nil {
		return nil, fmt.Errorf("verifier: patch audit: reports unusable: %w", err)
	}
	env := &auditEnv{
		rep:       rep,
		opMap:     proc.OpMap,
		vdb:       vstore.NewVersionedDB(),
		vkv:       vstore.NewVersionedKV(),
		dbLogIdx:  -1,
		initRegs:  init.Registers,
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
		switch objID.Kind {
		case reports.DBObj:
			for j, e := range rep.OpLogs[i] {
				if e.Type == lang.DBOp && e.OK {
					if err := env.vdb.ApplyTxnWith(int64(j+1), e.Stmts, env.parseSQL); err != nil {
						return nil, fmt.Errorf("verifier: patch audit: redo: %w", err)
					}
				}
			}
		case reports.KVObj:
			for j, e := range rep.OpLogs[i] {
				if e.Type == lang.KvSet {
					v, derr := lang.DecodeValue(e.Value)
					if derr != nil {
						return nil, fmt.Errorf("verifier: patch audit: %w", derr)
					}
					env.vkv.AddSet(e.Key, int64(j+1), v)
				}
			}
		}
	}

	out := &PatchResult{Classes: make(map[string]PatchClass)}
	responses := tr.Responses()
	for _, ev := range tr.Requests() {
		if ctx.Err() != nil {
			return nil, auditCanceled(ctx)
		}
		rid := ev.RID
		bridge := &patchBridge{inner: newAuditBridge(env)}
		res, runErr := lang.Run(patched, lang.Config{
			Mode:   lang.ModeSIMD,
			Script: ev.In.Script,
			RIDs:   []string{rid},
			Inputs: []lang.RequestInput{{Get: ev.In.Get, Post: ev.In.Post, Cookie: ev.In.Cookie}},
			Bridge: bridge,
		})
		var cls PatchClass
		switch {
		case runErr != nil:
			// Departures from the logged op sequence surface as
			// RejectError from CheckOp; anything else (runtime error in
			// the patch) is equally inconclusive.
			cls = PatchInconclusive
			var rej *core.RejectError
			if !errors.As(runErr, &rej) {
				var rt *lang.RuntimeError
				if !errors.As(runErr, &rt) {
					return nil, runErr
				}
			}
		case bridge.deviated:
			cls = PatchInconclusive
		case res.OutputEqual(0, responses[rid]):
			cls = PatchUnchanged
		default:
			cls = PatchChanged
		}
		out.Classes[rid] = cls
		switch cls {
		case PatchUnchanged:
			out.Unchanged++
		case PatchChanged:
			out.Changed++
		default:
			out.Inconclusive++
		}
	}
	return out, nil
}

// patchBridge feeds reads from the recorded history but tolerates the
// patched program's reads differing textually (a patched SELECT runs
// against the versioned DB at the original timestamp). Write deviations
// and extra operations cannot be simulated and mark the request.
type patchBridge struct {
	inner    *auditBridge
	deviated bool
}

// anchor finds the log position for (rid, opnum) without content checks.
func (b *patchBridge) anchor(rid string, opnum int, kind reports.ObjectKind) (core.LogPos, bool) {
	pos, ok := b.inner.env.opMap[core.OpKey{RID: rid, Opnum: opnum}]
	if !ok {
		return core.LogPos{}, false
	}
	if b.inner.env.rep.Objects[pos.Obj].Kind != kind {
		return core.LogPos{}, false
	}
	return pos, true
}

func (b *patchBridge) RegisterRead(rid string, opnum int, name string) (lang.Value, error) {
	pos, ok := b.anchor(rid, opnum, reports.RegisterObj)
	if !ok || b.inner.env.rep.Objects[pos.Obj].Name != name {
		// The patch reads a different register (or reads where the
		// original didn't): the recorded history cannot place the read.
		b.deviated = true
		return nil, nil
	}
	log := b.inner.env.rep.OpLogs[pos.Obj]
	for j := pos.Seq - 2; j >= 0; j-- {
		if log[j].Type == lang.RegisterWrite {
			v, err := lang.DecodeValue(log[j].Value)
			if err != nil {
				b.deviated = true
				return nil, nil
			}
			return v, nil
		}
	}
	if v, ok := b.inner.env.initRegs[name]; ok {
		return lang.CloneValue(v), nil
	}
	return nil, nil
}

func (b *patchBridge) RegisterWrite(rid string, opnum int, name string, v lang.Value) error {
	// A write whose operands match the log is the original behaviour;
	// anything else deviates (its downstream effects are unknowable).
	pos, ok := b.anchor(rid, opnum, reports.RegisterObj)
	if !ok {
		b.deviated = true
		return nil
	}
	e := b.inner.env.rep.OpLogs[pos.Obj][pos.Seq-1]
	if e.Type != lang.RegisterWrite || e.Key != name || e.Value != lang.EncodeValue(v) {
		b.deviated = true
	}
	return nil
}

func (b *patchBridge) KvGet(rid string, opnum int, key string) (lang.Value, error) {
	pos, ok := b.anchor(rid, opnum, reports.KVObj)
	if !ok {
		b.deviated = true
		return nil, nil
	}
	return lang.CloneValue(b.inner.env.vkv.Get(key, int64(pos.Seq))), nil
}

func (b *patchBridge) KvSet(rid string, opnum int, key string, v lang.Value) error {
	pos, ok := b.anchor(rid, opnum, reports.KVObj)
	if !ok {
		b.deviated = true
		return nil
	}
	e := b.inner.env.rep.OpLogs[pos.Obj][pos.Seq-1]
	if e.Type != lang.KvSet || e.Key != key || e.Value != lang.EncodeValue(v) {
		b.deviated = true
	}
	return nil
}

func (b *patchBridge) DBOp(rid string, opnum int, stmts []string) (lang.Value, error) {
	pos, ok := b.anchor(rid, opnum, reports.DBObj)
	if !ok {
		b.deviated = true
		return lang.NewArray(), nil
	}
	e := b.inner.env.rep.OpLogs[pos.Obj][pos.Seq-1]
	if !e.OK {
		return false, nil
	}
	seq := int64(pos.Seq)
	out := lang.NewArray()
	for q, sql := range stmts {
		st, err := b.inner.env.parseSQL(sql)
		if err != nil {
			b.deviated = true
			return lang.NewArray(), nil
		}
		if sqlmini.IsWrite(st) {
			// Writes must match the logged statement exactly; a patched
			// write changes history, which the logs cannot express.
			if q >= len(e.Stmts) || e.Stmts[q] != sql {
				b.deviated = true
				return lang.NewArray(), nil
			}
			r, werr := b.inner.env.vdb.WriteResult(seq, q)
			if werr != nil {
				b.deviated = true
				return lang.NewArray(), nil
			}
			out.Append(b.inner.env.convert(r))
			continue
		}
		sel, isSel := st.(*sqlmini.Select)
		if !isSel {
			b.deviated = true
			return lang.NewArray(), nil
		}
		// Patched SELECTs are fine: run them against the versioned DB at
		// the original operation's timestamp.
		r, qerr := b.inner.cache.QueryParsed(sql, sel, vstore.Ts(seq, q))
		if qerr != nil {
			b.deviated = true
			return lang.NewArray(), nil
		}
		out.Append(b.inner.env.convert(r))
	}
	return out, nil
}

func (b *patchBridge) NonDet(rid string, fn string, args []lang.Value) (lang.Value, error) {
	list := b.inner.env.rep.NonDet[rid]
	i := b.inner.ndPos[rid]
	if i >= len(list) || list[i].Fn != fn {
		b.deviated = true
		return int64(0), nil
	}
	b.inner.ndPos[rid] = i + 1
	v, err := lang.DecodeValue(list[i].Value)
	if err != nil {
		b.deviated = true
		return int64(0), nil
	}
	return v, nil
}

var _ lang.Bridge = (*patchBridge)(nil)
