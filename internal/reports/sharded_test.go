package reports

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"orochi/internal/lang"
)

// driveRecorder replays a fixed, deterministic recording history into
// rec: registers across several names, KV ops across several keys, DB
// sessions with out-of-order engine seqs, groups, op counts and nondet.
func driveRecorder(rec *Recorder) {
	for i := 0; i < 40; i++ {
		rid := fmt.Sprintf("r%03d", i)
		reg := fmt.Sprintf("sess:%d", i%5)
		rec.RecordObjOp(ObjectID{Kind: RegisterObj, Name: reg}, OpEntry{
			RID: rid, Opnum: 1, Type: lang.RegisterWrite, Key: reg, Value: fmt.Sprintf("i:%d;", i),
		})
		key := fmt.Sprintf("k%d", i%7)
		rec.RecordObjOp(ObjectID{Kind: KVObj, Name: "apc"}, OpEntry{
			RID: rid, Opnum: 2, Type: lang.KvSet, Key: key, Value: fmt.Sprintf("i:%d;", i*i),
		})
		rec.RecordObjOp(ObjectID{Kind: KVObj, Name: "apc"}, OpEntry{
			RID: rid, Opnum: 3, Type: lang.KvGet, Key: fmt.Sprintf("k%d", (i+1)%7),
		})
		sess := rec.NewSession()
		// Engine seqs deliberately not in recording order.
		sess.RecordDBOp(int64(100-i), OpEntry{
			RID: rid, Opnum: 4, Type: lang.DBOp, Stmts: []string{fmt.Sprintf("INSERT INTO t (a) VALUES (%d)", i)}, OK: true,
		})
		sess.Close()
		rec.RecordGroup(uint64(i%3), fmt.Sprintf("script%d", i%3), rid)
		rec.RecordOpCount(rid, 4)
		rec.RecordNonDet(rid, NDEntry{Fn: "time", Value: fmt.Sprintf("i:%d;", 1000+i)})
	}
}

func rawReports(t *testing.T, rep *Reports) []byte {
	t.Helper()
	raw, err := rep.EncodeRaw()
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestShardedRecorderEquivalence pins the canonicalization claim: for
// the same recorded history, a recorder with one stripe and a recorder
// with many stripes serialize to byte-identical reports.
func TestShardedRecorderEquivalence(t *testing.T) {
	var bundles [][]byte
	for _, shards := range []int{1, 2, 8, 64} {
		rec := NewRecorderShards(shards)
		driveRecorder(rec)
		bundles = append(bundles, rawReports(t, rec.Finalize()))
	}
	for i := 1; i < len(bundles); i++ {
		if !bytes.Equal(bundles[0], bundles[i]) {
			t.Fatalf("reports differ between stripe counts (shards=1: %d bytes, variant %d: %d bytes)",
				len(bundles[0]), i, len(bundles[i]))
		}
	}
}

// TestEncodeRawDeterministic guards against map-iteration order leaking
// into the encoding.
func TestEncodeRawDeterministic(t *testing.T) {
	rec := NewRecorder()
	driveRecorder(rec)
	rep := rec.Finalize()
	a := rawReports(t, rep)
	for i := 0; i < 20; i++ {
		if !bytes.Equal(a, rawReports(t, rep)) {
			t.Fatal("EncodeRaw is not deterministic")
		}
	}
	// And a re-finalized recorder yields the same bytes.
	if !bytes.Equal(a, rawReports(t, rec.Finalize())) {
		t.Fatal("Finalize is not stable for an unchanged recorder")
	}
}

// TestKVLogMergePreservesPerKeyOrder issues concurrent KV ops on many
// keys and checks the merged apc log: per key, the sets appear in their
// issue order (each goroutine owns one key and writes ascending values).
func TestKVLogMergePreservesPerKeyOrder(t *testing.T) {
	rec := NewRecorderShards(8)
	const keys, opsPerKey = 10, 50
	var wg sync.WaitGroup
	for k := 0; k < keys; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			key := fmt.Sprintf("key%d", k)
			for i := 0; i < opsPerKey; i++ {
				rec.RecordObjOp(ObjectID{Kind: KVObj, Name: "apc"}, OpEntry{
					RID: fmt.Sprintf("r-%d-%d", k, i), Opnum: 1, Type: lang.KvSet,
					Key: key, Value: fmt.Sprintf("i:%d;", i),
				})
			}
		}(k)
	}
	wg.Wait()
	rep := rec.Finalize()
	idx := rep.LogIndex(ObjectID{Kind: KVObj, Name: "apc"})
	if idx < 0 {
		t.Fatal("apc log missing")
	}
	log := rep.OpLogs[idx]
	if len(log) != keys*opsPerKey {
		t.Fatalf("merged log has %d entries, want %d", len(log), keys*opsPerKey)
	}
	next := make(map[string]int, keys)
	for i, e := range log {
		want := fmt.Sprintf("i:%d;", next[e.Key])
		if e.Value != want {
			t.Fatalf("entry %d key %s: value %q out of per-key order (want %q)", i, e.Key, e.Value, want)
		}
		next[e.Key]++
	}
}

// TestFinalizeObjectOrderCanonical: objects are emitted sorted by
// (Kind, Name) no matter the touch order, so the artifact cannot leak
// stripe layout or discovery timing.
func TestFinalizeObjectOrderCanonical(t *testing.T) {
	rec := NewRecorder()
	// Touch in reverse-canonical order.
	sess := rec.NewSession()
	sess.RecordDBOp(1, OpEntry{RID: "r1", Opnum: 1, Type: lang.DBOp, Stmts: []string{"SELECT a FROM t"}, OK: true})
	sess.Close()
	rec.RecordObjOp(ObjectID{Kind: KVObj, Name: "apc"}, OpEntry{RID: "r1", Opnum: 2, Type: lang.KvGet, Key: "k"})
	rec.RecordObjOp(ObjectID{Kind: RegisterObj, Name: "zz"}, OpEntry{RID: "r1", Opnum: 3, Type: lang.RegisterRead, Key: "zz"})
	rec.RecordObjOp(ObjectID{Kind: RegisterObj, Name: "aa"}, OpEntry{RID: "r1", Opnum: 4, Type: lang.RegisterRead, Key: "aa"})
	rec.RecordOpCount("r1", 4)
	rep := rec.Finalize()
	want := []ObjectID{
		{Kind: RegisterObj, Name: "aa"},
		{Kind: RegisterObj, Name: "zz"},
		{Kind: KVObj, Name: "apc"},
		{Kind: DBObj, Name: "main"},
	}
	if len(rep.Objects) != len(want) {
		t.Fatalf("objects = %v", rep.Objects)
	}
	for i, id := range want {
		if rep.Objects[i] != id {
			t.Fatalf("object %d = %v, want %v (full: %v)", i, rep.Objects[i], id, rep.Objects)
		}
	}
}
