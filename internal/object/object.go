// Package object implements the online shared-object layer (§3.2, §4.4):
// atomic registers for per-client session data, a linearizable key-value
// store modelling the APC, and the strictly serializable SQL database.
// It also provides the server-side Bridge that routes the application
// language's state operations to these objects, recording each operation
// through the reports.Recorder when recording is enabled.
package object

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"orochi/internal/lang"
	"orochi/internal/reports"
	"orochi/internal/sqlmini"
)

// Store holds all shared objects of one server.
//
// Registers and the KV store are lock-striped: object state lives in
// Shards shards, each owning its maps and mutex, with an object assigned
// to the shard its name hashes to. An operation takes exactly its
// object's shard lock, which preserves the paper's consistency
// contracts — a register stays atomic (all ops on one register serialize
// on one shard lock) and the KV store stays linearizable (ops on one key
// serialize on one shard lock; ops on different keys commute, and the
// recorder's ticket counter orders them consistently with real time, see
// reports.Recorder) — while concurrent requests touching different
// objects no longer contend on a global mutex.
//
// Operation recording happens inside the shard's critical section, so
// each object's log order provably matches its serialization order: the
// same lock that orders the state change orders the log append.
type Store struct {
	shards []storeShard

	// DB is the SQL database (exported: the server seeds schemas and
	// benchmarks inspect sizes).
	DB *sqlmini.DB
}

// storeShard is one lock stripe of the store. Registers and KV keys
// hash into stripes independently (the kind participates in the hash).
type storeShard struct {
	mu   sync.Mutex
	regs map[string]lang.Value
	kv   map[string]lang.Value
}

// NewStore returns an empty store with a fresh database and the default
// shard count.
func NewStore() *Store {
	return NewStoreShards(0)
}

// NewStoreShards returns an empty store with n lock stripes (n <= 0
// selects reports.DefaultShards). The stripe count affects only lock
// contention, never consistency or the recorded reports.
func NewStoreShards(n int) *Store {
	n = reports.NormShards(n)
	s := &Store{
		shards: make([]storeShard, n),
		DB:     sqlmini.NewDB(),
	}
	for i := range s.shards {
		s.shards[i].regs = make(map[string]lang.Value)
		s.shards[i].kv = make(map[string]lang.Value)
	}
	return s
}

// ShardCount reports the number of lock stripes.
func (s *Store) ShardCount() int { return len(s.shards) }

func (s *Store) shard(kind reports.ObjectKind, name string) *storeShard {
	return &s.shards[reports.StripeIndex(kind, name, len(s.shards))]
}

// RegisterRead atomically reads register name, logging under the shard
// lock. Stored arrays are shared (marked by the writer before they were
// published), so lang.CloneValue copies nothing and only reads the mark:
// a request that writes the value writes its own copy (lang.Array.Own).
func (s *Store) RegisterRead(name string, rec *reports.Recorder, rid string, opnum int) lang.Value {
	sh := s.shard(reports.RegisterObj, name)
	sh.mu.Lock()
	v := sh.regs[name]
	if rec != nil {
		rec.RecordObjOp(reports.ObjectID{Kind: reports.RegisterObj, Name: name}, reports.OpEntry{
			RID: rid, Opnum: opnum, Type: lang.RegisterRead, Key: name,
		})
	}
	sh.mu.Unlock()
	return lang.CloneValue(v)
}

// RegisterWrite atomically writes register name. The value is marked
// shared (lang.CloneValue) by the writing request, its only holder,
// before it is published under the lock; the canonical encoding is
// computed before the critical section too.
func (s *Store) RegisterWrite(name string, v lang.Value, rec *reports.Recorder, rid string, opnum int) {
	cl := lang.CloneValue(v)
	var enc string
	if rec != nil {
		enc = lang.EncodeValue(v)
	}
	sh := s.shard(reports.RegisterObj, name)
	sh.mu.Lock()
	sh.regs[name] = cl
	if rec != nil {
		rec.RecordObjOp(reports.ObjectID{Kind: reports.RegisterObj, Name: name}, reports.OpEntry{
			RID: rid, Opnum: opnum, Type: lang.RegisterWrite, Key: name, Value: enc,
		})
	}
	sh.mu.Unlock()
}

// KvGet linearizably reads key from the KV store.
func (s *Store) KvGet(key string, rec *reports.Recorder, rid string, opnum int) lang.Value {
	sh := s.shard(reports.KVObj, key)
	sh.mu.Lock()
	v := sh.kv[key]
	if rec != nil {
		rec.RecordObjOp(reports.ObjectID{Kind: reports.KVObj, Name: "apc"}, reports.OpEntry{
			RID: rid, Opnum: opnum, Type: lang.KvGet, Key: key,
		})
	}
	sh.mu.Unlock()
	return lang.CloneValue(v)
}

// KvSet linearizably writes key in the KV store.
func (s *Store) KvSet(key string, v lang.Value, rec *reports.Recorder, rid string, opnum int) {
	cl := lang.CloneValue(v)
	var enc string
	if rec != nil {
		enc = lang.EncodeValue(v)
	}
	sh := s.shard(reports.KVObj, key)
	sh.mu.Lock()
	sh.kv[key] = cl
	if rec != nil {
		rec.RecordObjOp(reports.ObjectID{Kind: reports.KVObj, Name: "apc"}, reports.OpEntry{
			RID: rid, Opnum: opnum, Type: lang.KvSet, Key: key, Value: enc,
		})
	}
	sh.mu.Unlock()
}

// Snapshot is the persistent-object state at an audit boundary; the
// verifier needs the state as of the start of the audited period
// (§4.1/§5.5: "treating those objects as the true initial state").
type Snapshot struct {
	Registers map[string]lang.Value
	KV        map[string]lang.Value
	Tables    []*sqlmini.Table
}

// Snapshot captures the current object state; its values are the stored,
// shared ones (CloneValue only reads their marks). Call it only at balanced
// points (no requests in flight), as the audit boundary requires; shard
// locks are taken one at a time, so a mid-traffic call would not be an
// atomic cut across shards.
func (s *Store) Snapshot() *Snapshot {
	out := &Snapshot{
		Registers: make(map[string]lang.Value),
		KV:        make(map[string]lang.Value),
	}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for k, v := range sh.regs {
			out.Registers[k] = lang.CloneValue(v)
		}
		for k, v := range sh.kv {
			out.KV[k] = lang.CloneValue(v)
		}
		sh.mu.Unlock()
	}
	for _, name := range s.DB.Tables() {
		out.Tables = append(out.Tables, s.DB.TableCopy(name))
	}
	return out
}

// EmptySnapshot is the initial state of a freshly provisioned server.
func EmptySnapshot() *Snapshot {
	return &Snapshot{
		Registers: map[string]lang.Value{},
		KV:        map[string]lang.Value{},
	}
}

// Bridge is the server-side lang.Bridge: it executes state operations
// against the store's objects and records them (when rec is non-nil),
// and it computes + records non-determinism (§4.6).
type Bridge struct {
	store *Store
	rec   *reports.Recorder
	sess  *reports.Session
	// Clock supplies time for time()/microtime(); overridable for
	// deterministic tests. Defaults to the wall clock.
	Clock func() time.Time
	// RandSeed seeds the source of mt_rand() and rand(). The source is
	// built on the first call to either, so a request that draws no
	// random number pays nothing for it.
	RandSeed int64
	rng      *rand.Rand
	// PID is the reported process id.
	PID int64

	lastTime int64
}

// NewBridge returns a bridge for one request handler. rec may be nil
// (recording disabled — the baseline configuration).
func NewBridge(store *Store, rec *reports.Recorder) *Bridge {
	b := &Bridge{store: store, rec: rec, Clock: time.Now, PID: 1}
	if rec != nil {
		b.sess = rec.NewSession()
	}
	return b
}

// Close finishes the bridge's recording session.
func (b *Bridge) Close() {
	if b.sess != nil {
		b.sess.Close()
	}
}

// RegisterRead implements lang.Bridge.
func (b *Bridge) RegisterRead(rid string, opnum int, name string) (lang.Value, error) {
	return b.store.RegisterRead(name, b.rec, rid, opnum), nil
}

// RegisterWrite implements lang.Bridge.
func (b *Bridge) RegisterWrite(rid string, opnum int, name string, v lang.Value) error {
	if err := checkStorable(v); err != nil {
		return err
	}
	b.store.RegisterWrite(name, v, b.rec, rid, opnum)
	return nil
}

// KvGet implements lang.Bridge.
func (b *Bridge) KvGet(rid string, opnum int, key string) (lang.Value, error) {
	return b.store.KvGet(key, b.rec, rid, opnum), nil
}

// KvSet implements lang.Bridge.
func (b *Bridge) KvSet(rid string, opnum int, key string, v lang.Value) error {
	if err := checkStorable(v); err != nil {
		return err
	}
	b.store.KvSet(key, v, b.rec, rid, opnum)
	return nil
}

// DBOp implements lang.Bridge: it commits the transaction against the
// database and logs (stmts, seq, ok) into the session sub-log. On SQL
// failure the application receives `false`, as PHP database APIs do.
func (b *Bridge) DBOp(rid string, opnum int, stmts []string) (lang.Value, error) {
	results, seq, err := b.store.DB.ExecTxnSeq(stmts)
	ok := err == nil
	if b.sess != nil {
		b.sess.RecordDBOp(seq, reports.OpEntry{
			RID: rid, Opnum: opnum, Type: lang.DBOp,
			Stmts: append([]string(nil), stmts...), OK: ok,
		})
	}
	if !ok {
		return false, nil
	}
	return resultsToLang(results), nil
}

// resultsToLang converts engine results into the language-level shape:
// an array of per-statement results, where a SELECT yields an array of
// row maps and a write yields {"affected": n, "insert_id": id}.
func resultsToLang(results []*sqlmini.Result) lang.Value {
	out := lang.NewArrayCap(len(results))
	for _, r := range results {
		out.Append(ResultToLang(r))
	}
	return out
}

// ResultToLang converts one statement result to a language value.
func ResultToLang(r *sqlmini.Result) lang.Value {
	if r.Cols != nil {
		keys := make([]lang.Key, len(r.Cols))
		for i, col := range r.Cols {
			keys[i], _ = lang.NormalizeKey(lang.Value(col))
		}
		rows := lang.NewArrayCap(len(r.Rows))
		for _, row := range r.Rows {
			m := lang.NewArrayCap(len(r.Cols))
			for i, k := range keys {
				m.Set(k, sqlValToLang(row[i]))
			}
			rows.Append(m)
		}
		return rows
	}
	m := lang.NewArrayCap(2)
	ka, _ := lang.NormalizeKey(lang.Value("affected"))
	ki, _ := lang.NormalizeKey(lang.Value("insert_id"))
	m.Set(ka, r.Affected)
	m.Set(ki, r.InsertID)
	return m
}

func sqlValToLang(v sqlmini.Val) lang.Value {
	switch v.(type) {
	case nil, int64, float64, string:
		return v // already a lang value; boxing it again would allocate
	default:
		return fmt.Sprintf("%v", v)
	}
}

// NonDet implements lang.Bridge: compute the real value, record it.
func (b *Bridge) NonDet(rid string, fn string, args []lang.Value) (lang.Value, error) {
	var v lang.Value
	switch fn {
	case "time":
		t := b.Clock().Unix()
		if t < b.lastTime {
			t = b.lastTime // keep time monotonic within a request
		}
		b.lastTime = t
		v = t
	case "microtime":
		v = float64(b.Clock().UnixNano()) / 1e9
	case "mt_rand", "rand":
		lo, hi := int64(0), int64(1<<31-1)
		if len(args) == 2 {
			lo, hi = lang.ToInt(args[0]), lang.ToInt(args[1])
		}
		if hi < lo {
			v = lo
		} else {
			if b.rng == nil {
				b.rng = rand.New(rand.NewSource(b.RandSeed))
			}
			v = lo + b.rng.Int63n(hi-lo+1)
		}
	case "uniqid":
		v = fmt.Sprintf("%x", b.Clock().UnixNano())
	case "getmypid":
		v = b.PID
	default:
		return nil, &lang.RuntimeError{Msg: "unknown nondet builtin " + fn}
	}
	if b.rec != nil {
		b.rec.RecordNonDet(rid, reports.NDEntry{Fn: fn, Value: lang.EncodeValue(v)})
	}
	return v, nil
}

// checkStorable rejects multivalues (which must never reach an object).
func checkStorable(v lang.Value) error {
	if lang.DeepContainsMulti(v) {
		return &lang.RuntimeError{Msg: "cannot store a multivalue in a shared object"}
	}
	return nil
}

var _ lang.Bridge = (*Bridge)(nil)
