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
	"bytes"
	"encoding/gob"
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

// Clone deep-copies the reports (tamper tests mutate copies).
func (r *Reports) Clone() *Reports {
	out := &Reports{
		Groups:   make(map[uint64][]string, len(r.Groups)),
		Scripts:  make(map[uint64]string, len(r.Scripts)),
		Objects:  append([]ObjectID(nil), r.Objects...),
		OpLogs:   make([][]OpEntry, len(r.OpLogs)),
		OpCounts: make(map[string]int, len(r.OpCounts)),
		NonDet:   make(map[string][]NDEntry, len(r.NonDet)),
	}
	for k, v := range r.Groups {
		out.Groups[k] = append([]string(nil), v...)
	}
	for k, v := range r.Scripts {
		out.Scripts[k] = v
	}
	for i, log := range r.OpLogs {
		cl := make([]OpEntry, len(log))
		copy(cl, log)
		for j := range cl {
			cl[j].Stmts = append([]string(nil), cl[j].Stmts...)
		}
		out.OpLogs[i] = cl
	}
	for k, v := range r.OpCounts {
		out.OpCounts[k] = v
	}
	for k, v := range r.NonDet {
		out.NonDet[k] = append([]NDEntry(nil), v...)
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

// CanonicalBytes renders the reports into a deterministic byte form.
// Encode (gob) is not canonical — Go randomizes map iteration order — so
// equivalence tests and content comparisons use this rendering: every
// map is emitted in sorted key order, slices in their stored order, and
// every OpEntry field is spelled out. Two Reports values describing the
// same recorded history produce identical CanonicalBytes regardless of
// how (or with how many recorder stripes) they were collected.
func (r *Reports) CanonicalBytes() []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "groups %d\n", len(r.Groups))
	for _, tag := range r.SortGroups() {
		fmt.Fprintf(&b, "group %x script %q rids %q\n", tag, r.Scripts[tag], r.Groups[tag])
	}
	fmt.Fprintf(&b, "objects %d\n", len(r.Objects))
	for i, id := range r.Objects {
		fmt.Fprintf(&b, "object %d %v ops %d\n", i, id, len(r.OpLogs[i]))
		for j, e := range r.OpLogs[i] {
			fmt.Fprintf(&b, "  op %d rid %q opnum %d type %d key %q value %q stmts %q ok %v\n",
				j, e.RID, e.Opnum, e.Type, e.Key, e.Value, e.Stmts, e.OK)
		}
	}
	rids := make([]string, 0, len(r.OpCounts))
	for rid := range r.OpCounts {
		rids = append(rids, rid)
	}
	sort.Strings(rids)
	fmt.Fprintf(&b, "opcounts %d\n", len(rids))
	for _, rid := range rids {
		fmt.Fprintf(&b, "m %q %d\n", rid, r.OpCounts[rid])
	}
	nds := make([]string, 0, len(r.NonDet))
	for rid := range r.NonDet {
		nds = append(nds, rid)
	}
	sort.Strings(nds)
	fmt.Fprintf(&b, "nondet %d\n", len(nds))
	for _, rid := range nds {
		fmt.Fprintf(&b, "nd %q", rid)
		for _, e := range r.NonDet[rid] {
			fmt.Fprintf(&b, " %q=%q", e.Fn, e.Value)
		}
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// EncodeRaw serializes the reports with gob, uncompressed — the
// logical form the content-addressed store chunks so consecutive
// epochs' shared report structure actually dedups (compression moves
// down to the chunk layer).
func (r *Reports) EncodeRaw() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(r); err != nil {
		return nil, fmt.Errorf("reports: encode: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeRaw deserializes reports produced by EncodeRaw. Trailing
// garbage is an error, matching Decode's strictness.
func DecodeRaw(data []byte) (*Reports, error) {
	br := bytes.NewReader(data)
	var r Reports
	if err := gob.NewDecoder(br).Decode(&r); err != nil {
		return nil, fmt.Errorf("reports: decode: %w", err)
	}
	if err := encio.ExpectEOF(br); err != nil {
		return nil, fmt.Errorf("reports: decode: %w", err)
	}
	return &r, nil
}

// Encode serializes the reports with gob and gzip — the wire format the
// verifier downloads, and the basis of the report-size accounting in
// Fig. 8.
func (r *Reports) Encode() ([]byte, error) {
	raw, err := r.EncodeRaw()
	if err != nil {
		return nil, err
	}
	data, err := encio.Gzip(raw)
	if err != nil {
		return nil, fmt.Errorf("reports: encode: %w", err)
	}
	return data, nil
}

// Decode deserializes reports produced by Encode. Truncated input and
// trailing garbage are errors, so a corrupted on-disk bundle can never
// pass silently as a shortened one.
func Decode(data []byte) (*Reports, error) {
	raw, err := encio.Gunzip(data)
	if err != nil {
		return nil, fmt.Errorf("reports: decode: %w", err)
	}
	return DecodeRaw(raw)
}
