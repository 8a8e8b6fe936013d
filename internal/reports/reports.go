// Package reports defines the executor's reports (§3, §4.6) and the
// server-side recording library that produces them. Reports are
// UNTRUSTED: the verifier validates them (internal/core, internal/
// verifier); a misbehaving executor may hand back arbitrary contents.
//
// The four report kinds are:
//
//  1. Control flow groupings C: opaque tag -> set of requestIDs (§3.1).
//  2. Operation logs OL_i: per shared object, the ordered list of
//     operations with their operands (§3.3).
//  3. Operation counts M: requestID -> number of state ops (§3.3).
//  4. Non-determinism records: per requestID, the return values of
//     non-deterministic builtins, in program order (§4.6).
package reports

import (
	"fmt"
	"sort"

	"orochi/internal/encio"
	"orochi/internal/lang"
)

// ObjectKind classifies a shared object (§4.4).
type ObjectKind uint8

const (
	// RegisterObj is an atomic register holding per-client session data.
	RegisterObj ObjectKind = iota + 1
	// KVObj is the linearizable key-value store (APC).
	KVObj
	// DBObj is the strictly serializable SQL database.
	DBObj
)

func (k ObjectKind) String() string {
	switch k {
	case RegisterObj:
		return "register"
	case KVObj:
		return "kv"
	case DBObj:
		return "db"
	default:
		return "object(?)"
	}
}

// ObjectID identifies one shared object: a named register, the KV store,
// or the database. Each object has its own operation log.
type ObjectID struct {
	Kind ObjectKind
	Name string
}

func (o ObjectID) String() string { return fmt.Sprintf("%s:%s", o.Kind, o.Name) }

// OpEntry is one operation-log record (§3.3): the (requestID, opnum)
// identity plus the type-specific operands.
type OpEntry struct {
	RID   string
	Opnum int
	Type  lang.OpType
	// Key is the register name (RegisterRead/Write) or the KV key
	// (KvGet/KvSet).
	Key string
	// Value is the canonically encoded written value (RegisterWrite,
	// KvSet).
	Value string
	// Stmts holds a DB transaction's SQL statements (DBOp).
	Stmts []string
	// OK records whether the DB transaction committed (DBOp); aborts are
	// a form of non-determinism the verifier honours (§4.6).
	OK bool
}

// NDEntry is one recorded non-deterministic return value.
type NDEntry struct {
	Fn    string
	Value string // canonically encoded
}

// Reports bundles everything the executor hands the verifier.
type Reports struct {
	// Groups maps control-flow tag -> requestIDs (report C).
	Groups map[uint64][]string
	// Scripts maps control-flow tag -> script name, so the verifier
	// knows which entry point to re-execute for a group. (A correct
	// executor derives tags from digests seeded by script name, so a
	// tag determines the script; this field is untrusted like the rest
	// and mismatches surface as divergence or output mismatch.)
	Scripts map[uint64]string
	// Objects lists the shared objects; OpLogs[i] is the log of
	// Objects[i] (reports OL_i).
	Objects []ObjectID
	OpLogs  [][]OpEntry
	// OpCounts is report M: requestID -> total state ops issued.
	OpCounts map[string]int
	// NonDet holds the per-request nondeterminism records, in program
	// order.
	NonDet map[string][]NDEntry
}

// Clone deep-copies the reports (tamper tests mutate copies): the copy
// is the decoding of their encoding.
func (r *Reports) Clone() *Reports {
	raw, _ := r.EncodeRaw() // never fails
	out, err := DecodeRaw(raw)
	if err != nil {
		panic("reports: clone: " + err.Error())
	}
	return out
}

// LogIndex returns the index of the object's log, or -1.
func (r *Reports) LogIndex(id ObjectID) int {
	for i, o := range r.Objects {
		if o == id {
			return i
		}
	}
	return -1
}

// TotalOps returns the total number of logged operations.
func (r *Reports) TotalOps() int {
	n := 0
	for _, log := range r.OpLogs {
		n += len(log)
	}
	return n
}

// SortGroups returns the control-flow tags in a deterministic order.
func (r *Reports) SortGroups() []uint64 {
	tags := make([]uint64, 0, len(r.Groups))
	for t := range r.Groups {
		tags = append(tags, t)
	}
	sort.Slice(tags, func(i, j int) bool { return tags[i] < tags[j] })
	return tags
}

const reportsMagic = "ORPT"

// EncodeRaw serializes the reports uncompressed, in the canonical form
// (encio): every map in key order, the object list and the logs in
// their stored order. It is the logical form the content-addressed store
// chunks, so consecutive epochs' shared report structure dedups
// (compression moves down to the chunk layer), and its digest is the
// reports' identity: two Reports values describing the same recorded
// history encode to the same bytes, however many recorder stripes
// collected them. It never fails.
func (r *Reports) EncodeRaw() ([]byte, error) {
	w := encio.NewWriter(reportsMagic)
	encio.WriteMap(w, r.Groups, func(tag uint64, rids []string) {
		w.Uint(tag)
		encio.WriteList(w, rids, w.String)
	})
	encio.WriteMap(w, r.Scripts, func(tag uint64, script string) {
		w.Uint(tag)
		w.String(script)
	})
	encio.WriteList(w, r.Objects, func(id ObjectID) {
		w.Byte(byte(id.Kind))
		w.String(id.Name)
	})
	encio.WriteList(w, r.OpLogs, func(log []OpEntry) {
		encio.WriteList(w, log, func(e OpEntry) {
			w.String(e.RID)
			w.Int(int64(e.Opnum))
			w.Byte(byte(e.Type))
			w.String(e.Key)
			w.String(e.Value)
			encio.WriteList(w, e.Stmts, w.String)
			w.Bool(e.OK)
		})
	})
	encio.WriteMap(w, r.OpCounts, func(rid string, n int) {
		w.String(rid)
		w.Int(int64(n))
	})
	encio.WriteMap(w, r.NonDet, func(rid string, nd []NDEntry) {
		w.String(rid)
		encio.WriteList(w, nd, func(e NDEntry) {
			w.String(e.Fn)
			w.String(e.Value)
		})
	})
	return w.Bytes(), nil
}

// DecodeRaw deserializes reports produced by EncodeRaw. Input is
// untrusted: anything but the canonical encoding of some Reports value,
// trailing bytes included, is an error. (The sizes handed to ReadList
// and ReadMap are the fewest bytes an entry encodes to.)
func DecodeRaw(data []byte) (*Reports, error) {
	r := encio.NewReader(data, reportsMagic)
	strs := func() []string { return encio.ReadList(r, 1, r.String) }
	out := &Reports{
		Groups:  encio.ReadMap(r, 2, func() (uint64, []string) { return r.Uint(), strs() }),
		Scripts: encio.ReadMap(r, 2, func() (uint64, string) { return r.Uint(), r.String() }),
		Objects: encio.ReadList(r, 2, func() ObjectID { return ObjectID{Kind: ObjectKind(r.Byte()), Name: r.String()} }),
		OpLogs: encio.ReadList(r, 1, func() []OpEntry {
			return encio.ReadList(r, 7, func() OpEntry {
				return OpEntry{RID: r.String(), Opnum: int(r.Int()), Type: lang.OpType(r.Byte()),
					Key: r.String(), Value: r.String(), Stmts: strs(), OK: r.Bool()}
			})
		}),
		OpCounts: encio.ReadMap(r, 2, func() (string, int) { return r.String(), int(r.Int()) }),
		NonDet: encio.ReadMap(r, 2, func() (string, []NDEntry) {
			return r.String(), encio.ReadList(r, 2, func() NDEntry { return NDEntry{Fn: r.String(), Value: r.String()} })
		}),
	}
	if err := r.Close(); err != nil {
		return nil, fmt.Errorf("reports: decode: %w", err)
	}
	return out, nil
}

// Encode serializes the reports gzipped — the wire format the verifier
// downloads, and the basis of the report-size accounting in Fig. 8.
func (r *Reports) Encode() ([]byte, error) {
	return encio.Compress(r.EncodeRaw())
}

// Decode deserializes reports produced by Encode. Truncated input and
// trailing garbage are errors, so a corrupted on-disk bundle can never
// pass silently as a shortened one.
func Decode(data []byte) (*Reports, error) {
	return encio.Decompress("reports", data, DecodeRaw)
}
