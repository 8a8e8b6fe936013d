package object

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"orochi/internal/encio"
	"orochi/internal/lang"
	"orochi/internal/sqlmini"
)

// fixedSnapshot builds one fixed state, inserting the map entries in
// the order rng dictates — the state is the same whatever the order.
func fixedSnapshot(t *testing.T, rng *rand.Rand) *Snapshot {
	t.Helper()
	snap := &Snapshot{Registers: map[string]lang.Value{}, KV: map[string]lang.Value{}}
	for _, i := range rng.Perm(40) {
		arr := lang.NewArray()
		arr.Append(int64(i))
		arr.Append(fmt.Sprintf("session-%d", i))
		snap.Registers[fmt.Sprintf("sess:%03d", i)] = arr
	}
	for _, i := range rng.Perm(60) {
		snap.KV[fmt.Sprintf("apc/%d", i)] = fmt.Sprintf("cached page %d", i*i)
	}
	cols := []sqlmini.Column{{Name: "id", Type: sqlmini.IntCol, AutoInc: true}, {Name: "title", Type: sqlmini.TextCol}}
	for _, name := range []string{"pages", "users"} {
		rows := make([][]sqlmini.Val, 25)
		for r := range rows {
			rows[r] = []sqlmini.Val{int64(r + 1), fmt.Sprintf("%s row %d", name, r)}
		}
		tbl, err := sqlmini.NewTable(name, cols, rows, int64(len(rows)+1))
		if err != nil {
			t.Fatal(err)
		}
		snap.Tables = append(snap.Tables, tbl)
	}
	return snap
}

// TestEncodeRawIsCanonical: the raw form is a function of the state —
// not of map insertion or iteration order, nor of the order the tables
// were listed in — because the fleet hands snapshots off as chunk refs
// and equal states must cut to equal chunks everywhere.
func TestEncodeRawIsCanonical(t *testing.T) {
	want, err := fixedSnapshot(t, rand.New(rand.NewSource(0))).EncodeRaw()
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 50; i++ {
		snap := fixedSnapshot(t, rand.New(rand.NewSource(int64(i))))
		if i%2 == 0 {
			snap.Tables[0], snap.Tables[1] = snap.Tables[1], snap.Tables[0]
		}
		got, err := snap.EncodeRaw()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("encode %d of the same state produced different bytes", i)
		}
	}
	back, err := DecodeSnapshotRaw(want)
	if err != nil {
		t.Fatal(err)
	}
	again, err := back.EncodeRaw()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, want) {
		t.Fatal("decode then encode is not the identity on the raw form")
	}
	if len(back.Registers) != 40 || len(back.KV) != 60 || len(back.Tables) != 2 || back.Tables[0].Name != "pages" {
		t.Fatalf("round trip lost state: %d registers, %d kv, %d tables", len(back.Registers), len(back.KV), len(back.Tables))
	}
}

// TestDecodeSnapshotRawRejectsUnsortedKeys: a pair list that repeats a
// key or is out of order is not something EncodeRaw writes, and loading
// it would silently keep one of the duplicates.
func TestDecodeSnapshotRawRejectsUnsortedKeys(t *testing.T) {
	for name, keys := range map[string][]string{
		"duplicate":    {"a", "a"},
		"out of order": {"b", "a"},
	} {
		w := encio.NewWriter(snapshotMagic)
		w.Uint(0) // registers
		w.Uint(uint64(len(keys)))
		for _, k := range keys {
			w.String(k)
			w.String(lang.EncodeValue("1"))
		}
		w.Uint(0) // tables
		if _, err := DecodeSnapshotRaw(w.Bytes()); err == nil || !strings.Contains(err.Error(), "out of order") {
			t.Fatalf("%s keys: err = %v, want keys out of order", name, err)
		}
	}
}
