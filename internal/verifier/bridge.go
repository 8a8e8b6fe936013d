package verifier

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"orochi/internal/core"
	"orochi/internal/lang"
	"orochi/internal/object"
	"orochi/internal/reports"
	"orochi/internal/sqlmini"
	"orochi/internal/vstore"
)

// auditBridge is the verifier-side lang.Bridge: every state operation is
// validated with CheckOp against the untrusted operation logs and then
// simulated with SimOp (registers walk backward in their log; KV and DB
// reads consult the versioned stores; DB writes return the redo-derived
// results). Non-determinism is replayed from the reports with
// plausibility checks (§4.6).
type auditBridge struct {
	env *auditEnv
	// cache is the per-group read-query dedup cache (§4.5).
	cache *vstore.QueryCache
	// nondet replay cursors and plausibility state, per rid.
	ndPos    map[string]int
	lastTime map[string]int64
	pid      map[string]int64
}

// auditEnv is the audit-wide immutable state shared by all groups.
type auditEnv struct {
	rep   *reports.Reports
	opMap core.OpMap
	vdb   *vstore.VersionedDB
	vkv   *vstore.VersionedKV
	// initRegs holds the initial register values (pre-audit snapshot),
	// marked shared before Phase 3 reads them from every worker.
	initRegs map[string]lang.Value
	// sqlCache memoizes parsed SQL (statements repeat massively across
	// lanes and groups); convCache memoizes the language-value shape of
	// an engine result, so every lane receiving the same deduplicated
	// result also receives the same *Array — which makes the multivalue
	// collapse check O(1) via pointer equality.
	sqlCache  map[string]sqlmini.Stmt
	convCache map[*sqlmini.Result]lang.Value
	// mu guards the caches: the grouped verifier re-executes groups on a
	// worker pool (Options.Workers), and the out-of-order oracle in the
	// tests steps many request goroutines, so bridge calls overlap.
	// Everything else here is either immutable during Phase 3 (rep,
	// opMap, initRegs) or read-only after its Phase 2 build completes
	// (vdb, vkv — versioned reads are pure lookups).
	mu sync.Mutex
	// dbQueryNanos accumulates versioned-SELECT time (atomically).
	dbQueryNanos atomic.Int64
}

func (env *auditEnv) dbQueryTime() time.Duration {
	return time.Duration(env.dbQueryNanos.Load())
}

func (env *auditEnv) parseSQL(sql string) (sqlmini.Stmt, error) {
	env.mu.Lock()
	defer env.mu.Unlock()
	if st, ok := env.sqlCache[sql]; ok {
		return st, nil
	}
	st, err := sqlmini.Parse(sql)
	if err != nil {
		return nil, err
	}
	env.sqlCache[sql] = st
	return st, nil
}

func (env *auditEnv) convert(r *sqlmini.Result) lang.Value {
	env.mu.Lock()
	defer env.mu.Unlock()
	if v, ok := env.convCache[r]; ok {
		return v
	}
	// The online bridge's conversion, so the program receives the query
	// results it was served byte for byte; marked shared before it is
	// published to other workers.
	v := lang.CloneValue(object.ResultToLang(r))
	env.convCache[r] = v
	return v
}

func newAuditBridge(env *auditEnv) *auditBridge {
	return &auditBridge{
		env:      env,
		cache:    vstore.NewQueryCache(env.vdb),
		ndPos:    make(map[string]int),
		lastTime: make(map[string]int64),
		pid:      make(map[string]int64),
	}
}

// checkOp implements CheckOp (Fig. 12 lines 10-15): the operation the
// program produced must exist in the OpMap and match the logged entry's
// object, type, and contents exactly.
func (b *auditBridge) checkOp(rid string, opnum int, wantObj reports.ObjectID, wantType lang.OpType,
	key, value string, stmts []string) (core.LogPos, *reports.OpEntry, error) {

	pos, ok := b.env.opMap[core.OpKey{RID: rid, Opnum: opnum}]
	if !ok {
		return core.LogPos{}, nil, rejectf("check-op", rid, "(%s,%d) not in OpMap", rid, opnum)
	}
	if b.env.rep.Objects[pos.Obj] != wantObj {
		return core.LogPos{}, nil, rejectf("check-op", rid, "(%s,%d): program targeted %v but log %d is %v",
			rid, opnum, wantObj, pos.Obj, b.env.rep.Objects[pos.Obj])
	}
	e := &b.env.rep.OpLogs[pos.Obj][pos.Seq-1]
	if e.Type != wantType {
		return core.LogPos{}, nil, rejectf("check-op", rid, "(%s,%d): type %v logged as %v", rid, opnum, wantType, e.Type)
	}
	if e.Key != key || e.Value != value {
		return core.LogPos{}, nil, rejectf("check-op", rid, "(%s,%d): operands differ from log", rid, opnum)
	}
	if len(stmts) != len(e.Stmts) {
		return core.LogPos{}, nil, rejectf("check-op", rid, "(%s,%d): statement count differs from log", rid, opnum)
	}
	for i := range stmts {
		if stmts[i] != e.Stmts[i] {
			return core.LogPos{}, nil, rejectf("check-op", rid, "(%s,%d): SQL differs from log at stmt %d", rid, opnum, i)
		}
	}
	return pos, e, nil
}

// RegisterRead implements SimOp for registers (Fig. 12 lines 19-23):
// walk backward in the register's log for the latest write; fall back to
// the initial snapshot value (the paper's verifier keeps the pre-audit
// object state, §4.1 — an unwritten register reads as its initial value,
// or null if it never existed, matching the live register object).
func (b *auditBridge) RegisterRead(rid string, opnum int, name string) (lang.Value, error) {
	obj := reports.ObjectID{Kind: reports.RegisterObj, Name: name}
	pos, _, err := b.checkOp(rid, opnum, obj, lang.RegisterRead, name, "", nil)
	if err != nil {
		return nil, err
	}
	log := b.env.rep.OpLogs[pos.Obj]
	for j := pos.Seq - 2; j >= 0; j-- {
		if log[j].Type == lang.RegisterWrite {
			v, derr := lang.DecodeValue(log[j].Value)
			if derr != nil {
				return nil, rejectf("sim-op", rid, "undecodable write value in log %d entry %d: %v", pos.Obj, j, derr)
			}
			return v, nil
		}
	}
	if v, ok := b.env.initRegs[name]; ok {
		return lang.CloneValue(v), nil
	}
	return nil, nil
}

// RegisterWrite checks the write against the log (writes are simulated
// by the log itself; the check is the opportunistic validation of §3.3).
func (b *auditBridge) RegisterWrite(rid string, opnum int, name string, v lang.Value) error {
	obj := reports.ObjectID{Kind: reports.RegisterObj, Name: name}
	_, _, err := b.checkOp(rid, opnum, obj, lang.RegisterWrite, name, lang.EncodeValue(v), nil)
	return err
}

// KvGet reads from the versioned KV store at the op's log sequence.
func (b *auditBridge) KvGet(rid string, opnum int, key string) (lang.Value, error) {
	obj := reports.ObjectID{Kind: reports.KVObj, Name: "apc"}
	pos, _, err := b.checkOp(rid, opnum, obj, lang.KvGet, key, "", nil)
	if err != nil {
		return nil, err
	}
	return lang.CloneValue(b.env.vkv.Get(key, int64(pos.Seq))), nil
}

// KvSet checks the write against the log.
func (b *auditBridge) KvSet(rid string, opnum int, key string, v lang.Value) error {
	obj := reports.ObjectID{Kind: reports.KVObj, Name: "apc"}
	_, _, err := b.checkOp(rid, opnum, obj, lang.KvSet, key, lang.EncodeValue(v), nil)
	return err
}

// DBOp checks the transaction's SQL against the log, then simulates:
// SELECTs go to the versioned DB at ts = seq*MaxQ+q through the dedup
// cache; writes return the redo-derived results; aborted transactions
// return false exactly as the online bridge did.
func (b *auditBridge) DBOp(rid string, opnum int, stmts []string) (lang.Value, error) {
	obj := reports.ObjectID{Kind: reports.DBObj, Name: "main"}
	pos, e, err := b.checkOp(rid, opnum, obj, lang.DBOp, "", "", stmts)
	if err != nil {
		return nil, err
	}
	if !e.OK {
		return false, nil
	}
	seq := int64(pos.Seq)
	out := lang.NewArray()
	for q, sql := range stmts {
		st, perr := b.env.parseSQL(sql)
		if perr != nil {
			// The log says this transaction committed, but its SQL does
			// not parse: the report is spurious.
			return nil, rejectf("sim-op", rid, "logged committed transaction has unparsable SQL: %v", perr)
		}
		if sqlmini.IsWrite(st) {
			r, werr := b.env.vdb.WriteResult(seq, q)
			if werr != nil {
				return nil, rejectf("sim-op", rid, "%v", werr)
			}
			out.Append(b.env.convert(r))
			continue
		}
		sel, isSel := st.(*sqlmini.Select)
		if !isSel {
			return nil, rejectf("sim-op", rid, "unsupported read statement shape")
		}
		start := time.Now()
		r, qerr := b.cache.QueryParsed(sql, sel, vstore.Ts(seq, q))
		b.env.dbQueryNanos.Add(int64(time.Since(start)))
		if qerr != nil {
			return nil, rejectf("sim-op", rid, "versioned query failed: %v", qerr)
		}
		out.Append(b.env.convert(r))
	}
	return out, nil
}

// NonDet replays recorded non-determinism with plausibility checks
// (§4.6): function names must match in order, time must be monotonic
// within a request, pid must be constant, random values must respect
// their requested range. These checks are best-effort by nature — the
// paper documents the same leeway.
func (b *auditBridge) NonDet(rid string, fn string, args []lang.Value) (lang.Value, error) {
	list := b.env.rep.NonDet[rid]
	i := b.ndPos[rid]
	if i >= len(list) {
		return nil, rejectf("nondet", rid, "%s: ran out of recorded values for %s()", rid, fn)
	}
	b.ndPos[rid] = i + 1
	e := list[i]
	if e.Fn != fn {
		return nil, rejectf("nondet", rid, "%s: recorded %s() but program called %s()", rid, e.Fn, fn)
	}
	v, err := lang.DecodeValue(e.Value)
	if err != nil {
		return nil, rejectf("nondet", rid, "%s: undecodable value: %v", rid, err)
	}
	switch fn {
	case "time":
		t, ok := v.(int64)
		if !ok {
			return nil, rejectf("nondet", rid, "%s: time() must be an int", rid)
		}
		if last, seen := b.lastTime[rid]; seen && t < last {
			return nil, rejectf("nondet", rid, "%s: time() went backwards (%d after %d)", rid, t, last)
		}
		b.lastTime[rid] = t
	case "microtime":
		if _, ok := v.(float64); !ok {
			return nil, rejectf("nondet", rid, "%s: microtime() must be a float", rid)
		}
	case "mt_rand", "rand":
		n, ok := v.(int64)
		if !ok {
			return nil, rejectf("nondet", rid, "%s: %s() must be an int", rid, fn)
		}
		if len(args) == 2 {
			lo, hi := lang.ToInt(args[0]), lang.ToInt(args[1])
			if hi >= lo && (n < lo || n > hi) {
				return nil, rejectf("nondet", rid, "%s: %s(%d,%d) returned out-of-range %d", rid, fn, lo, hi, n)
			}
		}
	case "uniqid":
		if _, ok := v.(string); !ok {
			return nil, rejectf("nondet", rid, "%s: uniqid() must be a string", rid)
		}
	case "getmypid":
		p, ok := v.(int64)
		if !ok {
			return nil, rejectf("nondet", rid, "%s: getmypid() must be an int", rid)
		}
		if prev, seen := b.pid[rid]; seen && prev != p {
			return nil, rejectf("nondet", rid, "%s: pid changed within request", rid)
		}
		b.pid[rid] = p
	}
	return v, nil
}

var _ lang.Bridge = (*auditBridge)(nil)

func rejectf(stage, rid, format string, args ...interface{}) error {
	return &core.RejectError{Stage: stage, Msg: fmt.Sprintf(format, args...), RID: rid}
}
