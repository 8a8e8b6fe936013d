// Package sqlmini is an embedded SQL engine: the database substrate of
// this OROCHI reproduction (standing in for MySQL, §4.4). It supports the
// dialect the applications need — CREATE TABLE, INSERT, SELECT with
// WHERE/ORDER BY/LIMIT, UPDATE, DELETE, COUNT(*), AUTOINCREMENT — and
// executes multi-statement transactions atomically under a writer-
// exclusive lock (read-only transactions share a read lock), which
// yields strict serializability (the paper's first DB requirement).
//
// Execution is fully deterministic: table scans run in insertion order
// and ORDER BY uses a stable sort, so re-executing the logged statement
// sequence always reproduces identical results. The versioned store
// (internal/vstore) shares this package's parser and AST.
package sqlmini

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Val is a SQL value: nil, int64, float64 or string.
type Val interface{}

// ColType is a column type.
type ColType uint8

const (
	IntCol ColType = iota + 1
	FloatCol
	TextCol
)

func (t ColType) String() string {
	switch t {
	case IntCol:
		return "INT"
	case FloatCol:
		return "FLOAT"
	case TextCol:
		return "TEXT"
	default:
		return "?"
	}
}

// Column describes one table column.
type Column struct {
	Name    string
	Type    ColType
	AutoInc bool
}

// Result is the outcome of one statement.
type Result struct {
	// Cols and Rows are set for SELECT.
	Cols []string
	Rows [][]Val
	// Affected is the number of rows touched by INSERT/UPDATE/DELETE.
	Affected int64
	// InsertID is the auto-increment id assigned by an INSERT (0 if the
	// table has no auto-increment column).
	InsertID int64
}

// Table holds rows in insertion order. A row is immutable once it is in
// a table: UPDATE installs a modified copy, so row slices may be shared
// with snapshots, undo journals and the versioned store without copying.
type Table struct {
	Name     string
	Cols     []Column
	colIdx   map[string]int
	Rows     [][]Val
	NextAuto int64
	autoCol  int // index of the auto-increment column, -1 if none

	// idx holds the equality indexes built so far, by column (nil until a
	// statement first probes that column). idxMu orders the lazy builds of
	// concurrent read-only transactions; writers hold the database's
	// exclusive lock and maintain the indexes in place.
	idxMu sync.Mutex
	idx   []*EqIndex
}

func newTable(name string, cols []Column) (*Table, error) {
	t := &Table{Name: name, Cols: cols, colIdx: make(map[string]int, len(cols)), NextAuto: 1, autoCol: -1}
	for i, c := range cols {
		lc := strings.ToLower(c.Name)
		if _, dup := t.colIdx[lc]; dup {
			return nil, fmt.Errorf("sqlmini: duplicate column %q", c.Name)
		}
		t.colIdx[lc] = i
		if c.AutoInc {
			if t.autoCol != -1 {
				return nil, fmt.Errorf("sqlmini: multiple auto-increment columns")
			}
			if c.Type != IntCol {
				return nil, fmt.Errorf("sqlmini: auto-increment column must be INT")
			}
			t.autoCol = i
		}
	}
	return t, nil
}

// NewTable builds a Table from explicit columns, rows and auto-increment
// counter (the decoded form of a stored snapshot, or the versioned
// store's migrated final state). The table takes ownership of rows.
func NewTable(name string, cols []Column, rows [][]Val, nextAuto int64) (*Table, error) {
	t, err := newTable(name, cols)
	if err != nil {
		return nil, err
	}
	t.Rows, t.NextAuto = rows, nextAuto
	return t, nil
}

// ColIndex returns the index of the named column, or -1.
func (t *Table) ColIndex(name string) int {
	if i, ok := t.colIdx[strings.ToLower(name)]; ok {
		return i
	}
	return -1
}

// index returns the equality index on column ci, building it on first use.
func (t *Table) index(ci int) *EqIndex {
	t.idxMu.Lock()
	defer t.idxMu.Unlock()
	if t.idx == nil {
		t.idx = make([]*EqIndex, len(t.Cols))
	}
	if t.idx[ci] == nil {
		ix := NewEqIndex()
		for pos, row := range t.Rows {
			ix.Add(row[ci], pos)
		}
		t.idx[ci] = ix
	}
	return t.idx[ci]
}

// DB is a deterministic in-memory SQL database. All public methods are
// safe for concurrent use. Writing transactions serialize on an
// exclusive lock; read-only transactions (all statements SELECT) share a
// read lock and run concurrently with each other. This preserves strict
// serializability: readers exclude writers, so every transaction sees a
// state that some prefix of the writers produced, and the sequence
// number drawn inside each transaction's critical section is a legal
// serialization order (concurrent readers commute, and a reader's
// number is always ordered correctly against every writer it excludes
// or waits for). The order is also consistent with real time — a
// transaction that completes before another begins draws a smaller
// number — which is what OROCHI's DB log stitching relies on (§4.7).
type DB struct {
	mu     sync.RWMutex
	tables map[string]*Table
	seq    atomic.Int64
	// journal is the running write transaction's undo log (guarded by the
	// exclusive lock, reused across transactions).
	journal []undoEntry
}

// NewDB returns an empty database.
func NewDB() *DB {
	return &DB{tables: make(map[string]*Table)}
}

// Exec parses and executes a single statement.
func (db *DB) Exec(sql string) (*Result, error) {
	rs, _, err := db.ExecTxnSeq([]string{sql})
	if err != nil {
		return nil, err
	}
	return rs[0], nil
}

// ExecTxn executes the statements as one atomic transaction. On error the
// transaction's effects are rolled back.
func (db *DB) ExecTxn(stmts []string) ([]*Result, error) {
	rs, _, err := db.ExecTxnSeq(stmts)
	return rs, err
}

// ExecTxnSeq is ExecTxn that also returns the transaction's global
// sequence number, assigned inside the commit critical section. The
// sequence numbers totally order transactions in their serialization
// order — the property OROCHI's DB logging relies on (§4.7). A sequence
// number is consumed even when the transaction fails (it is the logged
// identity of the aborted attempt).
func (db *DB) ExecTxnSeq(stmts []string) ([]*Result, int64, error) {
	parsed := make([]Stmt, len(stmts))
	readOnly := true
	for i, s := range stmts {
		p, err := Parse(s)
		if err != nil {
			return nil, db.seq.Add(1), err
		}
		if _, sel := p.(*Select); !sel {
			readOnly = false
		}
		parsed[i] = p
	}
	if readOnly {
		// Read-only fast path: SELECTs never mutate table state, so the
		// transaction runs under the shared lock, concurrently with other
		// readers. No undo journal is needed.
		db.mu.RLock()
		defer db.mu.RUnlock()
		seq := db.seq.Add(1)
		out := make([]*Result, len(parsed))
		for i, p := range parsed {
			r, err := db.execStmt(p)
			if err != nil {
				return nil, seq, err
			}
			out[i] = r
		}
		return out, seq, nil
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	seq := db.seq.Add(1)
	defer func() {
		clear(db.journal) // drop the pre-images
		db.journal = db.journal[:0]
	}()
	out := make([]*Result, len(parsed))
	for i, p := range parsed {
		r, err := db.execStmt(p)
		if err != nil {
			db.rollback()
			return nil, seq, err
		}
		out[i] = r
	}
	return out, seq, nil
}

// undoEntry is one step of a write transaction's undo journal. Each
// write statement logs what it is about to overwrite — never the table —
// so a transaction costs what it touches: an INSERT its pre-statement
// row count and counter, an UPDATE the replaced row, a DELETE the row
// slice it compacted away from, a CREATE the table it added.
type undoEntry struct {
	kind     undoKind
	t        *Table
	n        int     // undoInsert: row count before; undoUpdate: row position
	nextAuto int64   // undoInsert
	row      []Val   // undoUpdate: the replaced row
	rows     [][]Val // undoDelete: the rows before compaction
}

type undoKind uint8

const (
	undoInsert undoKind = iota
	undoUpdate
	undoDelete
	undoCreate
)

// rollback undoes the journal newest-first, restoring rows, row order,
// counters and the table set. Indexes of touched tables are dropped
// rather than repaired (the next probe rebuilds them): aborts are rare.
func (db *DB) rollback() {
	for i := len(db.journal) - 1; i >= 0; i-- {
		e := &db.journal[i]
		switch e.kind {
		case undoInsert:
			clear(e.t.Rows[e.n:])
			e.t.Rows, e.t.NextAuto = e.t.Rows[:e.n], e.nextAuto
		case undoUpdate:
			e.t.Rows[e.n] = e.row
		case undoDelete:
			e.t.Rows = e.rows
		case undoCreate:
			delete(db.tables, strings.ToLower(e.t.Name))
		}
		e.t.idx = nil
	}
}

// Tables returns the table names, sorted.
func (db *DB) Tables() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	names := make([]string, 0, len(db.tables))
	for n := range db.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TableCopy returns a deep copy of the named table (nil if absent); used
// for state snapshots handed to the verifier.
func (db *DB) TableCopy(name string) *Table {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[strings.ToLower(name)]
	if !ok {
		return nil
	}
	out := &Table{
		Name: t.Name, Cols: append([]Column(nil), t.Cols...),
		colIdx: make(map[string]int, len(t.colIdx)), NextAuto: t.NextAuto, autoCol: t.autoCol,
	}
	for k, v := range t.colIdx {
		out.colIdx[k] = v
	}
	out.Rows = make([][]Val, len(t.Rows))
	for i, r := range t.Rows {
		rc := make([]Val, len(r))
		copy(rc, r)
		out.Rows[i] = rc
	}
	return out
}

// RowCount returns the total number of live rows.
func (db *DB) RowCount() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	n := 0
	for _, t := range db.tables {
		n += len(t.Rows)
	}
	return n
}
