package object

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"orochi/internal/lang"
	"orochi/internal/reports"
)

func TestRegistersBasic(t *testing.T) {
	s := NewStore()
	if v := s.RegisterRead("r", nil, "rid", 1); v != nil {
		t.Fatalf("unset register = %v", v)
	}
	s.RegisterWrite("r", lang.Value("x"), nil, "rid", 2)
	if v := s.RegisterRead("r", nil, "rid", 3); v != "x" {
		t.Fatalf("register = %v", v)
	}
}

func TestRegisterCloneIsolation(t *testing.T) {
	s := NewStore()
	arr := lang.NewArray()
	arr.Append("a")
	s.RegisterWrite("r", arr, nil, "rid", 1)
	arr = arr.Own() // the writer's next write takes a copy
	arr.Append("mutated")
	got := s.RegisterRead("r", nil, "rid", 2).(*lang.Array)
	if got.Len() != 1 {
		t.Fatal("a write after RegisterWrite reached the register")
	}
	got = got.Own()
	got.Append("reader-mutation")
	got2 := s.RegisterRead("r", nil, "rid", 3).(*lang.Array)
	if got2.Len() != 1 {
		t.Fatal("a reader's write reached the register")
	}
}

func TestKVBasic(t *testing.T) {
	s := NewStore()
	if v := s.KvGet("k", nil, "rid", 1); v != nil {
		t.Fatalf("unset kv = %v", v)
	}
	s.KvSet("k", int64(42), nil, "rid", 2)
	if v := s.KvGet("k", nil, "rid", 3); v != int64(42) {
		t.Fatalf("kv = %v", v)
	}
}

func TestRecordingOrderMatchesLinearization(t *testing.T) {
	// Concurrent writers to one register: log order must be a legal
	// linearization (every logged value visible at the final read).
	s := NewStore()
	rec := reports.NewRecorder()
	const n = 50
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s.RegisterWrite("reg", int64(i), rec, fmt.Sprintf("r%d", i), 1)
		}(i)
	}
	wg.Wait()
	rep := rec.Finalize()
	idx := rep.LogIndex(reports.ObjectID{Kind: reports.RegisterObj, Name: "reg"})
	if idx < 0 {
		t.Fatal("register log missing")
	}
	log := rep.OpLogs[idx]
	if len(log) != n {
		t.Fatalf("log length = %d", len(log))
	}
	// The register's final value must equal the last logged write.
	final := s.RegisterRead("reg", nil, "x", 1)
	lastVal, err := lang.DecodeValue(log[len(log)-1].Value)
	if err != nil {
		t.Fatal(err)
	}
	if !lang.Equal(final, lastVal) {
		t.Fatalf("final %v != last logged %v", final, lastVal)
	}
}

func TestBridgeDBOpLogsSeq(t *testing.T) {
	s := NewStore()
	rec := reports.NewRecorder()
	if _, err := s.DB.Exec(`CREATE TABLE t (n INT)`); err != nil {
		t.Fatal(err)
	}
	b := NewBridge(s, rec)
	if _, err := b.DBOp("r1", 1, []string{`INSERT INTO t (n) VALUES (1)`}); err != nil {
		t.Fatal(err)
	}
	v, err := b.DBOp("r1", 2, []string{`SELECT n FROM t`})
	if err != nil {
		t.Fatal(err)
	}
	b.Close()
	arr := v.(*lang.Array)
	if arr.Len() != 1 {
		t.Fatalf("result shape: %v", arr)
	}
	rep := rec.Finalize()
	idx := rep.LogIndex(reports.ObjectID{Kind: reports.DBObj, Name: "main"})
	if idx < 0 {
		t.Fatal("db log missing")
	}
	if len(rep.OpLogs[idx]) != 2 {
		t.Fatalf("db log length = %d", len(rep.OpLogs[idx]))
	}
	if !rep.OpLogs[idx][0].OK {
		t.Fatal("committed txn must log OK")
	}
}

func TestBridgeDBOpFailureLogsAbort(t *testing.T) {
	s := NewStore()
	rec := reports.NewRecorder()
	b := NewBridge(s, rec)
	v, err := b.DBOp("r1", 1, []string{`SELECT x FROM missing`})
	if err != nil {
		t.Fatal(err)
	}
	if v != false {
		t.Fatalf("failed query must return false, got %v", v)
	}
	b.Close()
	rep := rec.Finalize()
	idx := rep.LogIndex(reports.ObjectID{Kind: reports.DBObj, Name: "main"})
	if idx < 0 || len(rep.OpLogs[idx]) != 1 {
		t.Fatal("aborted txn must still be logged")
	}
	if rep.OpLogs[idx][0].OK {
		t.Fatal("aborted txn must log OK=false")
	}
}

func TestBridgeStitchingOrder(t *testing.T) {
	// Many concurrent sessions write the DB; after stitching, the log's
	// statements replay to the same final state as the live DB.
	s := NewStore()
	rec := reports.NewRecorder()
	if _, err := s.DB.Exec(`CREATE TABLE c (id INT, v INT)`); err != nil {
		t.Fatal(err)
	}
	if _, err := s.DB.Exec(`INSERT INTO c (id, v) VALUES (1, 0)`); err != nil {
		t.Fatal(err)
	}
	const n = 40
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b := NewBridge(s, rec)
			defer b.Close()
			if _, err := b.DBOp(fmt.Sprintf("r%d", i), 1,
				[]string{`UPDATE c SET v = v + 1 WHERE id = 1`}); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	rep := rec.Finalize()
	idx := rep.LogIndex(reports.ObjectID{Kind: reports.DBObj, Name: "main"})
	log := rep.OpLogs[idx]
	if len(log) != n {
		t.Fatalf("stitched log length = %d", len(log))
	}
	final, _ := s.DB.Exec(`SELECT v FROM c WHERE id = 1`)
	if final.Rows[0][0] != int64(n) {
		t.Fatalf("live count = %v", final.Rows[0][0])
	}
}

func TestBridgeNonDetRecording(t *testing.T) {
	s := NewStore()
	rec := reports.NewRecorder()
	b := NewBridge(s, rec)
	fixed := time.Unix(1700000000, 0)
	b.Clock = func() time.Time { return fixed }
	v, err := b.NonDet("r1", "time", nil)
	if err != nil {
		t.Fatal(err)
	}
	if v != int64(1700000000) {
		t.Fatalf("time = %v", v)
	}
	if _, err := b.NonDet("r1", "getmypid", nil); err != nil {
		t.Fatal(err)
	}
	r, err := b.NonDet("r1", "mt_rand", []lang.Value{int64(5), int64(10)})
	if err != nil {
		t.Fatal(err)
	}
	if n := r.(int64); n < 5 || n > 10 {
		t.Fatalf("mt_rand out of range: %d", n)
	}
	if _, err := b.NonDet("r1", "bogus", nil); err == nil {
		t.Fatal("unknown nondet must error")
	}
	b.Close()
	rep := rec.Finalize()
	if len(rep.NonDet["r1"]) != 3 {
		t.Fatalf("nondet records = %d", len(rep.NonDet["r1"]))
	}
	if rep.NonDet["r1"][0].Fn != "time" {
		t.Fatalf("first record = %+v", rep.NonDet["r1"][0])
	}
}

func TestBridgeTimeMonotonic(t *testing.T) {
	s := NewStore()
	b := NewBridge(s, nil)
	times := []time.Time{
		time.Unix(100, 0), time.Unix(99, 0), time.Unix(101, 0),
	}
	i := 0
	b.Clock = func() time.Time { t := times[i]; i++; return t }
	v1, _ := b.NonDet("r", "time", nil)
	v2, _ := b.NonDet("r", "time", nil)
	v3, _ := b.NonDet("r", "time", nil)
	if v2.(int64) < v1.(int64) {
		t.Fatal("time must be monotonic within a request")
	}
	if v3 != int64(101) {
		t.Fatalf("v3 = %v", v3)
	}
}

func TestBridgeRejectsMultivalueStores(t *testing.T) {
	s := NewStore()
	b := NewBridge(s, nil)
	mv := &lang.Multi{V: []lang.Value{int64(1), int64(2)}}
	if err := b.RegisterWrite("r", 1, "reg", mv); err == nil {
		t.Fatal("multivalue register write must fail")
	}
	if err := b.KvSet("r", 1, "k", mv); err == nil {
		t.Fatal("multivalue kv set must fail")
	}
}

func TestSnapshotIsolation(t *testing.T) {
	s := NewStore()
	if _, err := s.DB.Exec(`CREATE TABLE t (n INT)`); err != nil {
		t.Fatal(err)
	}
	if _, err := s.DB.Exec(`INSERT INTO t (n) VALUES (1)`); err != nil {
		t.Fatal(err)
	}
	s.RegisterWrite("reg", "v", nil, "", 0)
	s.KvSet("key", int64(9), nil, "", 0)
	snap := s.Snapshot()
	// Later mutation must not leak into the snapshot.
	s.RegisterWrite("reg", "changed", nil, "", 0)
	s.KvSet("key", int64(10), nil, "", 0)
	if _, err := s.DB.Exec(`INSERT INTO t (n) VALUES (2)`); err != nil {
		t.Fatal(err)
	}
	if snap.Registers["reg"] != "v" || snap.KV["key"] != int64(9) {
		t.Fatal("snapshot register/kv leaked")
	}
	if len(snap.Tables) != 1 || len(snap.Tables[0].Rows) != 1 {
		t.Fatal("snapshot table leaked")
	}
	if EmptySnapshot().Registers == nil {
		t.Fatal("EmptySnapshot maps must be non-nil")
	}
}

func TestResultToLangShapes(t *testing.T) {
	s := NewStore()
	if _, err := s.DB.Exec(`CREATE TABLE t (a INT, b TEXT)`); err != nil {
		t.Fatal(err)
	}
	if _, err := s.DB.Exec(`INSERT INTO t (a, b) VALUES (1, 'x')`); err != nil {
		t.Fatal(err)
	}
	r, _ := s.DB.Exec(`SELECT a, b FROM t`)
	v := ResultToLang(r).(*lang.Array)
	row, _ := v.Get(lang.Key{I: 0, IsInt: true})
	m := row.(*lang.Array)
	ka, _ := lang.NormalizeKey(lang.Value("a"))
	if got, _ := m.Get(ka); got != int64(1) {
		t.Fatalf("a = %v", got)
	}
	w, _ := s.DB.Exec(`INSERT INTO t (a, b) VALUES (2, 'y')`)
	wm := ResultToLang(w).(*lang.Array)
	kaff, _ := lang.NormalizeKey(lang.Value("affected"))
	if got, _ := wm.Get(kaff); got != int64(1) {
		t.Fatalf("affected = %v", got)
	}
}

func TestDecodeSnapshotRejectsTruncatedAndTrailing(t *testing.T) {
	s := NewStore()
	s.KvSet("k", lang.Value("v"), nil, "", 0)
	snap := s.Snapshot()
	data, err := snap.EncodeRaw()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeSnapshotRaw(data[:len(data)-1]); err == nil {
		t.Fatal("DecodeSnapshotRaw accepted truncated input")
	}
	if _, err := DecodeSnapshotRaw(append(data, 0x00, 0x01)); err == nil {
		t.Fatal("DecodeSnapshotRaw accepted trailing garbage")
	}
	if _, err := DecodeSnapshotRaw(data); err != nil {
		t.Fatalf("clean encoding rejected: %v", err)
	}
}
