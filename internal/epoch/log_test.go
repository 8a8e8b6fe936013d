package epoch

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"orochi/internal/trace"
)

func mkEvents(n, from int) []trace.Event {
	var out []trace.Event
	t := int64(1)
	for i := 0; i < n; i++ {
		rid := fmt.Sprintf("r%06d", from+i)
		out = append(out, trace.Event{Kind: trace.Request, RID: rid, Time: t,
			In: trace.Input{Script: "view", Get: map[string]string{"i": fmt.Sprint(from + i)}}})
		t++
		out = append(out, trace.Event{Kind: trace.Response, RID: rid, Time: t, Body: "ok " + rid})
		t++
	}
	return out
}

func appendAll(t *testing.T, w *LogWriter, evs []trace.Event) {
	t.Helper()
	for _, ev := range evs {
		if err := w.AppendEvent(ev); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
}

func TestLogRoundTripAndRotation(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenLogWriter(dir, LogWriterOptions{SegmentEvents: 50, BatchEvents: 8})
	if err != nil {
		t.Fatal(err)
	}
	evs := mkEvents(100, 1) // 200 events -> at least 4 segments of <=50
	appendAll(t, w, evs)
	segs, err := w.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 4 {
		t.Fatalf("expected >=4 rotated segments, got %d", len(segs))
	}
	total := 0
	for i, s := range segs {
		if s.Events == 0 || s.Records == 0 || s.SHA256 == "" {
			t.Fatalf("segment %d has empty metadata: %+v", i, s)
		}
		if i < len(segs)-1 && s.Events < 50 {
			t.Fatalf("segment %d rotated early at %d events", i, s.Events)
		}
		total += s.Events
	}
	if total != len(evs) {
		t.Fatalf("segments hold %d events, appended %d", total, len(evs))
	}
	got, err := ReadLogEvents(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(evs) {
		t.Fatalf("read back %d events, want %d", len(got), len(evs))
	}
	for i := range got {
		if got[i].RID != evs[i].RID || got[i].Kind != evs[i].Kind || got[i].Body != evs[i].Body {
			t.Fatalf("event %d mismatch: got %+v want %+v", i, got[i], evs[i])
		}
		if got[i].Kind == trace.Request && got[i].In.Get["i"] != evs[i].In.Get["i"] {
			t.Fatalf("event %d input mismatch", i)
		}
	}
}

func TestLogRotationByBytes(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenLogWriter(dir, LogWriterOptions{SegmentBytes: 2048, BatchEvents: 4})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, w, mkEvents(200, 1))
	segs, err := w.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("byte threshold never rotated: %d segments", len(segs))
	}
}

// TestTornTailRecovery simulates a crash mid-write: the active segment
// loses its tail partway through a record. Reopening must keep every
// fully written record, drop the torn tail, and resume appending.
func TestTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenLogWriter(dir, LogWriterOptions{SegmentEvents: 1000, BatchEvents: 10})
	if err != nil {
		t.Fatal(err)
	}
	evs := mkEvents(30, 1) // 60 events -> 6 full records of 10
	appendAll(t, w, evs)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	w.Abort() // crash: no finalize, segment keeps its .open name

	openPath := filepath.Join(dir, "seg-000001.open")
	data, err := os.ReadFile(openPath)
	if err != nil {
		t.Fatal(err)
	}
	// Tear mid-record: cut 3 bytes off the end.
	if err := os.WriteFile(openPath, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	w2, err := OpenLogWriter(dir, LogWriterOptions{SegmentEvents: 1000, BatchEvents: 10})
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	// The torn record held events 51..60; 50 must have survived.
	if got := w2.Events(); got != 50 {
		t.Fatalf("recovered %d events, want 50", got)
	}
	appendAll(t, w2, mkEvents(5, 1000))
	if _, err := w2.Finalize(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadLogEvents(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 60 {
		t.Fatalf("after recovery+append read %d events, want 60", len(got))
	}
	if got[50].RID != "r001000" {
		t.Fatalf("resumed events out of place: got %s at index 50", got[50].RID)
	}
}

// TestTornTailRecoveryCorruptCRC flips a byte inside the LAST record of
// an active segment: recovery must truncate exactly that record.
func TestTornTailRecoveryCorruptCRC(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenLogWriter(dir, LogWriterOptions{SegmentEvents: 1000, BatchEvents: 10})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, w, mkEvents(20, 1)) // 4 records
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	w.Abort()
	openPath := filepath.Join(dir, "seg-000001.open")
	data, err := os.ReadFile(openPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-10] ^= 0xFF
	if err := os.WriteFile(openPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	w2, err := OpenLogWriter(dir, LogWriterOptions{SegmentEvents: 1000, BatchEvents: 10})
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	if got := w2.Events(); got != 30 {
		t.Fatalf("recovered %d events, want 30 (last record dropped)", got)
	}
}

// TestFinalizedSegmentTamperDetected: a finalized segment must fail
// strict reading after any byte flips.
func TestFinalizedSegmentTamperDetected(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenLogWriter(dir, LogWriterOptions{SegmentEvents: 20, BatchEvents: 5})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, w, mkEvents(20, 1))
	if _, err := w.Finalize(); err != nil {
		t.Fatal(err)
	}
	segPath := filepath.Join(dir, "seg-000001.seg")
	data, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(segPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := readSegmentFile(segPath, true); err == nil {
		t.Fatal("strict read accepted a tampered finalized segment")
	}
	if _, err := ReadLogEvents(dir); err == nil {
		t.Fatal("ReadLogEvents accepted a tampered finalized segment")
	}
}

func TestStaleOpenSegmentRemoved(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenLogWriter(dir, LogWriterOptions{SegmentEvents: 10, BatchEvents: 5})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, w, mkEvents(5, 1)) // exactly one full segment, rotated
	if _, err := w.Finalize(); err != nil {
		t.Fatal(err)
	}
	// Simulate debris: an .open file with a sequence older than the
	// finalized segment.
	stale := filepath.Join(dir, "seg-000001.open")
	if err := os.WriteFile(stale, []byte(segMagic), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenLogWriter(dir, LogWriterOptions{}); err != nil {
		t.Fatalf("reopen with stale .open debris: %v", err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatal("stale .open segment was not removed")
	}
}

func TestParseSegmentStrictRejectsJunk(t *testing.T) {
	img := segmentBytes(record{typ: recEvents, payload: []byte("x")})
	if _, _, err := parseSegment(append(img, 0xAB), true); err == nil {
		t.Fatal("strict parse accepted trailing junk")
	}
	if _, _, err := parseSegment([]byte("NOPE"), true); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("bad magic not rejected: %v", err)
	}
}

// segmentBytes frames records into a complete standalone segment image.
func segmentBytes(recs ...record) []byte {
	var buf bytes.Buffer
	buf.WriteString(segMagic)
	for _, r := range recs {
		buf.Write(encodeRecord(r.typ, r.payload))
	}
	return buf.Bytes()
}

// TestUnknownRecordTypeRefused: recEvents is the only record type, so a
// CRC-valid record of any other type is refused rather than skipped —
// by the strict reader of finalized segments and by crash recovery of
// an active one alike.
func TestUnknownRecordTypeRefused(t *testing.T) {
	events, err := new(trace.Encoder).Encode(mkEvents(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	img := segmentBytes(record{typ: recEvents, payload: events}, record{typ: 2, payload: []byte("not events")})
	for _, name := range []string{segmentName(1, true), segmentName(1, false)} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, name), img, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadLogEvents(dir); err == nil || !strings.Contains(err.Error(), "unknown type 2") {
			t.Fatalf("%s: ReadLogEvents = %v, want the type-2 record refused", name, err)
		}
		if _, err := OpenLogWriter(dir, LogWriterOptions{}); err == nil || !strings.Contains(err.Error(), "unknown type 2") {
			t.Fatalf("%s: OpenLogWriter = %v, want the type-2 record refused", name, err)
		}
	}
}
