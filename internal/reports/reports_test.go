package reports

import (
	"bytes"
	"sync"
	"testing"

	"orochi/internal/lang"
)

func sampleReports() *Reports {
	rec := NewRecorder()
	rec.RecordObjOp(ObjectID{Kind: RegisterObj, Name: "A"},
		OpEntry{RID: "r1", Opnum: 1, Type: lang.RegisterWrite, Key: "A", Value: "i:1;"})
	rec.RecordObjOp(ObjectID{Kind: RegisterObj, Name: "A"},
		OpEntry{RID: "r2", Opnum: 1, Type: lang.RegisterRead, Key: "A"})
	rec.RecordObjOp(ObjectID{Kind: KVObj, Name: "apc"},
		OpEntry{RID: "r1", Opnum: 2, Type: lang.KvSet, Key: "k", Value: "s:1:x;"})
	sess := rec.NewSession()
	sess.RecordDBOp(2, OpEntry{RID: "r2", Opnum: 2, Type: lang.DBOp, Stmts: []string{"SELECT a FROM t"}, OK: true})
	sess.RecordDBOp(1, OpEntry{RID: "r1", Opnum: 3, Type: lang.DBOp, Stmts: []string{"INSERT INTO t (a) VALUES (1)"}, OK: true})
	sess.Close()
	rec.RecordGroup(7, "view", "r1")
	rec.RecordGroup(7, "view", "r2")
	rec.RecordOpCount("r1", 3)
	rec.RecordOpCount("r2", 2)
	rec.RecordNonDet("r1", NDEntry{Fn: "time", Value: "i:100;"})
	return rec.Finalize()
}

func TestRecorderFinalize(t *testing.T) {
	rep := sampleReports()
	if len(rep.Objects) != 3 {
		t.Fatalf("objects = %v", rep.Objects)
	}
	if rep.OpCounts["r1"] != 3 || rep.OpCounts["r2"] != 2 {
		t.Fatalf("op counts = %v", rep.OpCounts)
	}
	if got := rep.Groups[7]; len(got) != 2 {
		t.Fatalf("group = %v", got)
	}
	if rep.Scripts[7] != "view" {
		t.Fatalf("script = %v", rep.Scripts[7])
	}
	if len(rep.NonDet["r1"]) != 1 {
		t.Fatalf("nondet = %v", rep.NonDet)
	}
	if rep.TotalOps() != 5 {
		t.Fatalf("total ops = %d", rep.TotalOps())
	}
}

func TestDBStitchingSortsBySeq(t *testing.T) {
	rep := sampleReports()
	idx := rep.LogIndex(ObjectID{Kind: DBObj, Name: "main"})
	if idx < 0 {
		t.Fatal("db log missing")
	}
	log := rep.OpLogs[idx]
	if len(log) != 2 {
		t.Fatalf("db log = %v", log)
	}
	// seq 1 (the INSERT) must come first despite being recorded second.
	if log[0].RID != "r1" || log[1].RID != "r2" {
		t.Fatalf("stitching order wrong: %v then %v", log[0].RID, log[1].RID)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rep := sampleReports()
	data, err := rep.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.TotalOps() != rep.TotalOps() {
		t.Fatal("ops lost in round trip")
	}
	if back.OpCounts["r1"] != 3 {
		t.Fatal("op counts lost")
	}
	if len(back.Groups[7]) != 2 || back.Scripts[7] != "view" {
		t.Fatal("groups lost")
	}
	idx := back.LogIndex(ObjectID{Kind: DBObj, Name: "main"})
	if idx < 0 || len(back.OpLogs[idx]) != 2 || back.OpLogs[idx][0].Stmts[0] != "INSERT INTO t (a) VALUES (1)" {
		t.Fatal("db log lost")
	}
}

func TestDecodeGarbage(t *testing.T) {
	if _, err := Decode([]byte("not gzip")); err == nil {
		t.Fatal("expected error")
	}
}

func TestCloneIndependence(t *testing.T) {
	rep := sampleReports()
	cl := rep.Clone()
	cl.OpCounts["r1"] = 99
	cl.Groups[7][0] = "mutated"
	cl.OpLogs[0][0].Value = "mutated"
	cl.OpLogs[0][0].Stmts = append(cl.OpLogs[0][0].Stmts, "x")
	cl.NonDet["r1"][0].Value = "mutated"
	if rep.OpCounts["r1"] != 3 || rep.Groups[7][0] == "mutated" ||
		rep.OpLogs[0][0].Value == "mutated" || rep.NonDet["r1"][0].Value == "mutated" {
		t.Fatal("Clone must deep-copy")
	}
}

func TestSortGroupsDeterministic(t *testing.T) {
	rec := NewRecorder()
	rec.RecordGroup(30, "a", "r1")
	rec.RecordGroup(10, "b", "r2")
	rec.RecordGroup(20, "c", "r3")
	rep := rec.Finalize()
	tags := rep.SortGroups()
	if len(tags) != 3 || tags[0] != 10 || tags[1] != 20 || tags[2] != 30 {
		t.Fatalf("tags = %v", tags)
	}
}

func TestLogIndexMiss(t *testing.T) {
	rep := sampleReports()
	if rep.LogIndex(ObjectID{Kind: RegisterObj, Name: "nope"}) != -1 {
		t.Fatal("expected -1 for unknown object")
	}
}

func TestRecorderConcurrentSafety(t *testing.T) {
	rec := NewRecorder()
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rid := "r" + string(rune('a'+i%26))
			rec.RecordObjOp(ObjectID{Kind: RegisterObj, Name: "x"},
				OpEntry{RID: rid, Opnum: 1, Type: lang.RegisterRead, Key: "x"})
			rec.RecordGroup(uint64(i%3), "s", rid)
			rec.RecordOpCount(rid, 1)
			rec.RecordNonDet(rid, NDEntry{Fn: "time", Value: "i:1;"})
			s := rec.NewSession()
			s.RecordDBOp(int64(i), OpEntry{RID: rid, Opnum: 2, Type: lang.DBOp, Stmts: []string{"SELECT a FROM t"}, OK: true})
			s.Close()
		}(i)
	}
	wg.Wait()
	rep := rec.Finalize()
	if rep.TotalOps() != 40 {
		t.Fatalf("total ops = %d", rep.TotalOps())
	}
}

func TestFinalizeIdempotentSnapshot(t *testing.T) {
	rec := NewRecorder()
	rec.RecordOpCount("r1", 1)
	rep1 := rec.Finalize()
	rec.RecordOpCount("r2", 2)
	rep2 := rec.Finalize()
	if len(rep1.OpCounts) != 1 {
		t.Fatal("first finalize must not see later recording")
	}
	if len(rep2.OpCounts) != 2 {
		t.Fatal("second finalize must see all recording")
	}
}

func TestObjectIDString(t *testing.T) {
	if s := (ObjectID{Kind: RegisterObj, Name: "A"}).String(); s != "register:A" {
		t.Fatalf("ObjectID string = %q", s)
	}
	if RegisterObj.String() != "register" || KVObj.String() != "kv" || DBObj.String() != "db" {
		t.Fatal("kind strings")
	}
}

func TestDecodeRejectsTruncatedAndTrailing(t *testing.T) {
	r := &Reports{
		Groups:   map[uint64][]string{1: {"r1"}},
		Scripts:  map[uint64]string{1: "s"},
		OpCounts: map[string]int{"r1": 0},
		NonDet:   map[string][]NDEntry{},
	}
	data, err := r.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(data[:len(data)-4]); err == nil {
		t.Fatal("Decode accepted truncated input")
	}
	if _, err := Decode(append(data, 'j', 'u', 'n', 'k')); err == nil {
		t.Fatal("Decode accepted trailing garbage")
	}
	if _, err := Decode(data); err != nil {
		t.Fatalf("clean stream rejected: %v", err)
	}
}

func TestEncodeRawRoundTrip(t *testing.T) {
	rep := sampleReports()
	raw, err := rep.EncodeRaw()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeRaw(raw)
	if err != nil {
		t.Fatal(err)
	}
	if back.TotalOps() != rep.TotalOps() || back.OpCounts["r1"] != 3 {
		t.Fatal("raw round trip lost data")
	}
	// Raw and compressed forms must agree on the logical content.
	zdata, err := rep.Encode()
	if err != nil {
		t.Fatal(err)
	}
	zback, err := Decode(zdata)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rawReports(t, zback), raw) || !bytes.Equal(rawReports(t, back), raw) {
		t.Fatal("a decoded bundle does not encode back to the raw bytes")
	}
	if _, err := DecodeRaw(append(raw, 0x00)); err == nil {
		t.Fatal("trailing garbage after raw stream must be an error")
	}
}
