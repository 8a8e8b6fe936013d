// Package vstore implements OROCHI's audit-time versioned storage (§4.5):
// a versioned database in the style of Warp — every row version carries a
// [start_ts, end_ts) validity interval — plus a versioned key-value
// store, and the read-query deduplication index.
//
// The verifier performs a "versioned redo pass" over the database
// operation log at the beginning of the audit: every logged transaction
// is applied at timestamp ts = seq*MaxQ + q (seq is the transaction's
// global sequence number from the log, q the statement's position within
// the transaction). During re-execution, read queries are answered from
// the versioned store at the timestamp of the corresponding log entry,
// and write queries return the results that the redo pass derived —
// a deterministic function of the (checked) logged writes.
package vstore

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"orochi/internal/sqlmini"
)

// MaxQ is the maximum number of statements in one transaction; it scales
// transaction sequence numbers into per-query timestamps (§A.7; the
// paper's implementation also uses 10000).
const MaxQ = 10000

// TsInf marks a row version that is still live.
const TsInf = int64(math.MaxInt64)

// Ts computes the timestamp of statement q (0-based) in transaction seq.
func Ts(seq int64, q int) int64 {
	return seq*MaxQ + int64(q) + 1
}

// tsLive is a read timestamp after every write: the version visible at
// tsLive is the live one.
const tsLive = TsInf - 1

// VRow is one version of a row: valid for start <= ts < end. Vals is
// immutable — an UPDATE closes the version and appends a modified copy —
// so versions share their Vals with the snapshot they were loaded from
// and with the tables MigrateFinal hands on.
type VRow struct {
	Vals  []sqlmini.Val
	Start int64
	End   int64
}

// slot is the version chain of one logical row (original insertion
// position). Preserving slot order makes version-visible scans return
// rows in exactly the order the live engine would (the live engine
// replaces an updated row at its scan position).
type slot struct {
	versions []VRow // never empty, increasing Start
}

// at returns the version visible at ts, or nil.
func (s *slot) at(ts int64) *VRow {
	vs := s.versions
	i := len(vs) - 1
	if vs[i].Start > ts {
		// Not the newest version: binary search the older ones for the
		// last with Start <= ts.
		i = sort.Search(i, func(j int) bool { return vs[j].Start > ts }) - 1
		if i < 0 {
			return nil
		}
	}
	if ts < vs[i].End {
		return &vs[i]
	}
	return nil
}

// vtable is one versioned table.
type vtable struct {
	// schema is an empty table: the rows live in slots. It supplies the
	// name, the columns, condition binding and sqlmini's INSERT and
	// UPDATE row rules, and its NextAuto is the table's auto-increment
	// counter, which those rules advance.
	schema *sqlmini.Table
	slots  []slot
	// modTs is the sorted list of timestamps at which this table was
	// modified; it drives read-query deduplication (§4.5).
	modTs []int64
	// idx holds the equality indexes built so far, by column: value ->
	// every slot that held it in some version. Append-only (a slot stays
	// listed under values it no longer holds; readers re-check the
	// visible version), so it serves every timestamp at once. The redo
	// pass maintains built indexes; idxMu orders the lazy builds of
	// concurrent Phase-3 readers.
	idxMu sync.Mutex
	idx   []*sqlmini.EqIndex
}

// VersionedDB is the audit-time versioned database V (with the redo
// buffer M folded in: applying a transaction works on each slot's newest
// version, which plays M's role of a fast buffer in front of the version
// history).
//
// Concurrency contract: the build phase (LoadInitial, ApplyTxn — which
// alone touches the RedoTxns/RedoQueries counters) must run on a single
// goroutine; after it completes, Query/QuerySQL, WriteResult, ModEpoch,
// MigrateFinal and the size accessors only read the version history
// (Query may build a table's index on first probe, under that table's
// mutex) and are safe from any number of goroutines, which is what the
// parallel verifier (verifier.Options.Workers) relies on during grouped
// re-execution.
type VersionedDB struct {
	tables map[string]*vtable
	// writeResults[seq][q] holds the redo-derived result of write
	// statement q of transaction seq (nil for reads).
	writeResults map[int64][]*sqlmini.Result
	// stats
	RedoTxns    int64
	RedoQueries int64
}

// NewVersionedDB returns an empty versioned database.
func NewVersionedDB() *VersionedDB {
	return &VersionedDB{
		tables:       make(map[string]*vtable),
		writeResults: make(map[int64][]*sqlmini.Result),
	}
}

// LoadInitial installs the server's pre-audit table state at timestamp 0
// (the verifier keeps a copy of the persistent state between audits,
// §4.1/§5.3). The rows are shared with t, not copied: the store never
// writes to a version's Vals.
func (v *VersionedDB) LoadInitial(t *sqlmini.Table) error {
	lname := strings.ToLower(t.Name)
	if _, dup := v.tables[lname]; dup {
		return fmt.Errorf("vstore: table %q loaded twice", t.Name)
	}
	vt, err := newVTable(t.Name, t.Cols, t.NextAuto)
	if err != nil {
		return err
	}
	vt.slots = make([]slot, len(t.Rows))
	versions := make([]VRow, len(t.Rows)) // one allocation for every chain's first link
	for i, row := range t.Rows {
		versions[i] = VRow{Vals: row, End: TsInf}
		vt.slots[i].versions = versions[i : i+1 : i+1]
	}
	v.tables[lname] = vt
	return nil
}

func newVTable(name string, cols []sqlmini.Column, next int64) (*vtable, error) {
	schema, err := sqlmini.NewTable(name, append([]sqlmini.Column(nil), cols...), nil, next)
	if err != nil {
		return nil, err
	}
	return &vtable{schema: schema}, nil
}

func (t *vtable) appendNewRow(vals []sqlmini.Val, ts int64) {
	for ci, ix := range t.idx {
		if ix != nil {
			ix.Add(vals[ci], len(t.slots))
		}
	}
	t.slots = append(t.slots, slot{versions: []VRow{{Vals: vals, Start: ts, End: TsInf}}})
}

// index returns the equality index on column ci, building it on first use.
func (t *vtable) index(ci int) *sqlmini.EqIndex {
	t.idxMu.Lock()
	defer t.idxMu.Unlock()
	if t.idx == nil {
		t.idx = make([]*sqlmini.EqIndex, len(t.schema.Cols))
	}
	if t.idx[ci] == nil {
		ix := sqlmini.NewEqIndex()
		for si := range t.slots {
			for _, ver := range t.slots[si].versions {
				ix.Add(ver.Vals[ci], si)
			}
		}
		t.idx[ci] = ix
	}
	return t.idx[ci]
}

// matching returns, ascending, the slots whose version visible at ts
// satisfies cond, through the slot index where cond allows one.
func (t *vtable) matching(cond sqlmini.Cond, ts int64) ([]int, error) {
	return sqlmini.Bind(t.schema, cond).Filter(len(t.slots), t.index, func(si int) []sqlmini.Val {
		if ver := t.slots[si].at(ts); ver != nil {
			return ver.Vals
		}
		return nil
	})
}

func (t *vtable) markModified(ts int64) {
	if n := len(t.modTs); n > 0 && t.modTs[n-1] == ts {
		return
	}
	t.modTs = append(t.modTs, ts)
}

// ApplyTxn redoes one logged transaction (seq = its global sequence
// number in the operation log). Read statements are skipped — they are
// answered at re-execution time via Query. The per-statement results of
// write statements are recorded for SimOp.
func (v *VersionedDB) ApplyTxn(seq int64, stmts []string) error {
	return v.ApplyTxnWith(seq, stmts, sqlmini.Parse)
}

// ApplyTxnWith is ApplyTxn with the caller's statement parser — the
// verifier passes its audit-wide parse cache, so a statement the redo
// pass has parsed is not parsed again at re-execution.
func (v *VersionedDB) ApplyTxnWith(seq int64, stmts []string, parse func(string) (sqlmini.Stmt, error)) error {
	if len(stmts) > MaxQ {
		return fmt.Errorf("vstore: transaction %d has %d statements (max %d)", seq, len(stmts), MaxQ)
	}
	if _, dup := v.writeResults[seq]; dup {
		return fmt.Errorf("vstore: transaction seq %d applied twice", seq)
	}
	v.RedoTxns++
	results := make([]*sqlmini.Result, len(stmts))
	for q, sql := range stmts {
		st, err := parse(sql)
		if err != nil {
			return fmt.Errorf("vstore: redo seq %d stmt %d: %w", seq, q, err)
		}
		if !sqlmini.IsWrite(st) {
			continue
		}
		v.RedoQueries++
		ts := Ts(seq, q)
		res, err := v.applyWrite(st, ts)
		if err != nil {
			return fmt.Errorf("vstore: redo seq %d stmt %d: %w", seq, q, err)
		}
		results[q] = res
	}
	v.writeResults[seq] = results
	return nil
}

// WriteResult returns the redo-derived result for write statement q of
// transaction seq.
func (v *VersionedDB) WriteResult(seq int64, q int) (*sqlmini.Result, error) {
	rs, ok := v.writeResults[seq]
	if !ok {
		return nil, fmt.Errorf("vstore: no redo record for transaction %d", seq)
	}
	if q < 0 || q >= len(rs) || rs[q] == nil {
		return nil, fmt.Errorf("vstore: transaction %d statement %d is not a redone write", seq, q)
	}
	return rs[q], nil
}

func (v *VersionedDB) applyWrite(st sqlmini.Stmt, ts int64) (*sqlmini.Result, error) {
	switch x := st.(type) {
	case *sqlmini.CreateTable:
		lname := strings.ToLower(x.Table)
		if _, dup := v.tables[lname]; dup {
			return nil, fmt.Errorf("table %q already exists", x.Table)
		}
		vt, err := newVTable(x.Table, x.Cols, 1)
		if err != nil {
			return nil, err
		}
		vt.markModified(ts)
		v.tables[lname] = vt
		return &sqlmini.Result{}, nil
	case *sqlmini.Insert:
		vt, err := v.table(x.Table)
		if err != nil {
			return nil, err
		}
		rows, res, err := vt.schema.InsertRows(x)
		if err != nil {
			return nil, err
		}
		for _, row := range rows {
			vt.appendNewRow(row, ts)
		}
		vt.markModified(ts)
		return res, nil
	case *sqlmini.Update:
		vt, err := v.table(x.Table)
		if err != nil {
			return nil, err
		}
		matched, err := vt.matching(x.Where, tsLive)
		if err != nil {
			return nil, err
		}
		plan, err := vt.schema.PlanSets(x)
		if err != nil {
			return nil, err
		}
		if len(matched) == 0 {
			return &sqlmini.Result{}, nil
		}
		for _, si := range matched {
			s := &vt.slots[si]
			cur := &s.versions[len(s.versions)-1]
			newVals, err := plan.Apply(cur.Vals)
			if err != nil {
				return nil, err
			}
			for ci, ix := range vt.idx {
				if ix != nil && newVals[ci] != cur.Vals[ci] {
					ix.Add(newVals[ci], si)
				}
			}
			cur.End = ts
			s.versions = append(s.versions, VRow{Vals: newVals, Start: ts, End: TsInf})
		}
		vt.markModified(ts)
		return &sqlmini.Result{Affected: int64(len(matched))}, nil
	case *sqlmini.Delete:
		vt, err := v.table(x.Table)
		if err != nil {
			return nil, err
		}
		matched, err := vt.matching(x.Where, tsLive)
		if err != nil {
			return nil, err
		}
		if len(matched) == 0 {
			return &sqlmini.Result{}, nil
		}
		for _, si := range matched {
			s := &vt.slots[si]
			s.versions[len(s.versions)-1].End = ts
		}
		vt.markModified(ts)
		return &sqlmini.Result{Affected: int64(len(matched))}, nil
	default:
		return nil, fmt.Errorf("unsupported write statement %T", st)
	}
}

func (v *VersionedDB) table(name string) (*vtable, error) {
	t, ok := v.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("vstore: no such table %q", name)
	}
	return t, nil
}

// Query answers a parsed SELECT as of timestamp ts: only row versions
// with Start <= ts < End are visible, in original insertion order.
func (v *VersionedDB) Query(sel *sqlmini.Select, ts int64) (*sqlmini.Result, error) {
	vt, err := v.table(sel.Table)
	if err != nil {
		return nil, err
	}
	slots, err := vt.matching(sel.Where, ts)
	if err != nil {
		return nil, err
	}
	rows := make([][]sqlmini.Val, len(slots))
	for i, si := range slots {
		rows[i] = vt.slots[si].at(ts).Vals
	}
	return sqlmini.SelectMatched(vt.schema, sel, rows)
}

// QuerySQL parses and answers a SELECT at ts.
func (v *VersionedDB) QuerySQL(sql string, ts int64) (*sqlmini.Result, error) {
	st, err := sqlmini.Parse(sql)
	if err != nil {
		return nil, err
	}
	sel, ok := st.(*sqlmini.Select)
	if !ok {
		return nil, fmt.Errorf("vstore: QuerySQL requires a SELECT")
	}
	return v.Query(sel, ts)
}

// ModEpoch returns, for the named table, the index of the last
// modification at or before ts (-1 if none). Two SELECTs over the same
// tables with equal epochs see identical data — the dedup rule of §4.5.
func (v *VersionedDB) ModEpoch(table string, ts int64) int {
	vt, ok := v.tables[strings.ToLower(table)]
	if !ok {
		return -1
	}
	return sort.Search(len(vt.modTs), func(i int) bool { return vt.modTs[i] > ts }) - 1
}

// MigrateFinal extracts the final ("latest") state of every table, sorted
// by name, as plain sqlmini tables — the migration of M's final state
// that seeds the next audit period's database (§4.5: "the verifier dumps
// each table... After the audit, OROCHI needs only the latest state").
// Each table is built directly from the live versions, in slot order,
// sharing their Vals, and carries the redo pass's auto-increment counter.
func (v *VersionedDB) MigrateFinal() ([]*sqlmini.Table, error) {
	names := make([]string, 0, len(v.tables))
	for n := range v.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]*sqlmini.Table, 0, len(names))
	for _, n := range names {
		vt := v.tables[n]
		rows := make([][]sqlmini.Val, 0, len(vt.slots))
		for si := range vt.slots {
			if ver := vt.slots[si].at(tsLive); ver != nil {
				rows = append(rows, ver.Vals)
			}
		}
		t, err := sqlmini.NewTable(vt.schema.Name, vt.schema.Cols, rows, vt.schema.NextAuto)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// SizeBytes estimates the full versioned footprint (all versions), the
// numerator of Fig. 8's "temp" DB overhead.
func (v *VersionedDB) SizeBytes() int64 {
	var total int64
	for _, vt := range v.tables {
		for _, s := range vt.slots {
			for _, ver := range s.versions {
				total += rowBytes(ver.Vals) + 16 // two timestamps
			}
		}
	}
	return total
}

// LiveSizeBytes estimates the live-rows-only footprint (the denominator
// of the overhead ratio and the "permanent" state after migration).
func (v *VersionedDB) LiveSizeBytes() int64 {
	var total int64
	for _, vt := range v.tables {
		for si := range vt.slots {
			if ver := vt.slots[si].at(tsLive); ver != nil {
				total += rowBytes(ver.Vals)
			}
		}
	}
	return total
}

func rowBytes(r []sqlmini.Val) int64 {
	var n int64
	for _, v := range r {
		switch x := v.(type) {
		case string:
			n += int64(len(x)) + 8
		default:
			n += 8
		}
	}
	return n
}
