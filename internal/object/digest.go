package object

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"sort"
	"strconv"

	"orochi/internal/lang"
)

// CanonicalDigest returns a SHA-256 over a canonical rendering of the
// snapshot's logical content: registers and KV pairs in sorted key
// order, tables sorted by name with rows in order. Two snapshots with
// the same state always produce the same digest, and the digest does
// not depend on the serialized form (it is unchanged across the wire
// formats EncodeRaw has had). This is the comparison key for
// distributed audit: a coordinator cross-checking final snapshots
// posted by independent workers compares these digests, and any
// disagreement is evidence.
func (s *Snapshot) CanonicalDigest() string {
	h := sha256.New()
	var lenBuf [8]byte
	emit := func(field string) {
		binary.BigEndian.PutUint64(lenBuf[:], uint64(len(field)))
		h.Write(lenBuf[:])
		h.Write([]byte(field))
	}
	sortedKeys := func(m map[string]lang.Value) []string {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		return keys
	}
	emit("registers")
	for _, k := range sortedKeys(s.Registers) {
		emit(k)
		emit(lang.EncodeValue(s.Registers[k]))
	}
	emit("kv")
	for _, k := range sortedKeys(s.KV) {
		emit(k)
		emit(lang.EncodeValue(s.KV[k]))
	}
	emit("tables")
	tables := make([]int, len(s.Tables))
	for i := range tables {
		tables[i] = i
	}
	sort.Slice(tables, func(a, b int) bool { return s.Tables[tables[a]].Name < s.Tables[tables[b]].Name })
	for _, i := range tables {
		t := s.Tables[i]
		emit(t.Name)
		cols, _ := json.Marshal(t.Cols)
		emit(string(cols))
		emit(strconv.FormatInt(t.NextAuto, 10))
		emit(strconv.Itoa(len(t.Rows)))
		for _, row := range t.Rows {
			for _, v := range row {
				emit(encodeSQLVal(v))
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
