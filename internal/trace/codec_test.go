package trace

import (
	"bytes"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"orochi/internal/encio"
	"orochi/internal/lang"
	"orochi/internal/object"
	"orochi/internal/reports"
	"orochi/internal/sqlmini"
)

// eventsFromBytes builds an event list out of fuzz input, three bytes
// per event. Bodies come from a small alphabet so they repeat, and the
// shapes Balanced would refuse — an empty body, a body on a Request, an
// Input on a Response, duplicate RIDs — all occur: the codec must carry
// them, judging them is Balanced's job.
func eventsFromBytes(data []byte) []Event {
	var out []Event
	for ; len(data) >= 3; data = data[3:] {
		a, b, c := data[0], data[1], data[2]
		ev := Event{
			Kind: EventKind(a % 2),
			RID:  "r" + string(rune('0'+b%8)),
			Time: int64(c) - 100,
		}
		if a&4 != 0 {
			ev.Body = strings.Repeat(string(rune('a'+b%5)), int(c%64))
		}
		if a&8 != 0 {
			ev.In.Script = "s" + string(rune('0'+c%4))
		}
		if a&16 != 0 {
			ev.In.Get = map[string]string{"k": string(rune('a' + c%26)), "": ""}
		}
		if a&32 != 0 {
			ev.In.Post = map[string]string{}
		}
		if a&64 != 0 {
			ev.In.Cookie = map[string]string{"user": ev.RID}
		}
		out = append(out, ev)
	}
	return out
}

// sameEvents is reflect.DeepEqual, except that no events at all compare
// equal whether nil or empty (the codec has one form for both).
func sameEvents(a, b []Event) bool {
	return len(a) == 0 && len(b) == 0 || reflect.DeepEqual(a, b)
}

// artifactSeeds are the raw encodings, less their magic, of one small
// reports bundle and one small snapshot: starting points from which the
// fuzzer mutates real layouts rather than searching for them.
func artifactSeeds(t testing.TB) [][]byte {
	rep := &reports.Reports{
		Groups:   map[uint64][]string{3: {"r1", "r2"}, 9: {"r3"}},
		Scripts:  map[uint64]string{3: "view", 9: "edit"},
		Objects:  []reports.ObjectID{{Kind: reports.RegisterObj, Name: "s"}, {Kind: reports.DBObj, Name: "main"}},
		OpLogs:   [][]reports.OpEntry{{{RID: "r1", Opnum: 1, Type: lang.RegisterWrite, Key: "s", Value: "i:1;"}}, {{RID: "r3", Opnum: 1, Type: lang.DBOp, Stmts: []string{"SELECT 1"}, OK: true}}},
		OpCounts: map[string]int{"r1": 1, "r3": 1},
		NonDet:   map[string][]reports.NDEntry{"r1": {{Fn: "time", Value: "i:7;"}}},
	}
	table, err := sqlmini.NewTable("t", []sqlmini.Column{{Name: "id", Type: sqlmini.IntCol, AutoInc: true}, {Name: "x", Type: sqlmini.FloatCol}, {Name: "y", Type: sqlmini.TextCol}},
		[][]sqlmini.Val{{int64(1), 0.5, "a"}, {int64(2), nil, ""}}, 3)
	if err != nil {
		t.Fatal(err)
	}
	snap := &object.Snapshot{Registers: map[string]lang.Value{"s": int64(1)}, KV: map[string]lang.Value{"k": "v"}, Tables: []*sqlmini.Table{table}}
	var out [][]byte
	for _, enc := range []func() ([]byte, error){rep.EncodeRaw, snap.EncodeRaw} {
		raw, err := enc()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, raw[4:])
	}
	return out
}

// decodeCanonically hands input to one raw decoder and requires that it
// neither panics nor allocates more than a fixed multiple of the input,
// and that whatever decodes encodes back to exactly the input.
func decodeCanonically[T any](t *testing.T, name string, in []byte, decode func([]byte) (T, error), encode func(T) ([]byte, error)) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	v, err := decode(in)
	runtime.ReadMemStats(&after)
	if alloc, bound := after.TotalAlloc-before.TotalAlloc, uint64(64*len(in)+1<<16); alloc > bound {
		t.Fatalf("%s: decoding %d bytes allocated %d, more than %d", name, len(in), alloc, bound)
	}
	if err != nil {
		return
	}
	out, err := encode(v)
	if err != nil {
		t.Fatalf("%s: decoded input does not encode: %v", name, err)
	}
	if !bytes.Equal(out, in) {
		t.Fatalf("%s: decode then encode changed the bytes:\n got %x\nwant %x", name, out, in)
	}
}

// FuzzCodec covers the one artifact codec (encio) through its three
// users. Any bytes, behind each artifact's magic, go to the trace,
// reports and snapshot decoders, which must fail cleanly or decode to a
// value whose encoding is those bytes. Events built from the same bytes
// must survive the trace codec.
func FuzzCodec(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{5, 1, 9, 5, 1, 9, 4, 2, 0, 1, 0, 0})
	f.Add([]byte{0x7d, 3, 40, 0x7c, 3, 40, 0x05, 3, 40, 0x06, 3, 40, 0x05, 3, 40})
	f.Add(bytes.Repeat([]byte{5, 7, 63}, 40))
	for _, seed := range artifactSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		behind := func(magic string) []byte { return append([]byte(magic), data...) }
		decodeCanonically(t, "trace", behind(traceMagic), DecodeRaw, (*Trace).EncodeRaw)
		decodeCanonically(t, "reports", behind("ORPT"), reports.DecodeRaw, (*reports.Reports).EncodeRaw)
		decodeCanonically(t, "snapshot", behind("OSNP"), object.DecodeSnapshotRaw, (*object.Snapshot).EncodeRaw)

		events := eventsFromBytes(data[:min(len(data), 3*256)])
		raw, err := (&Trace{Events: events}).EncodeRaw()
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeRaw(raw)
		if err != nil {
			t.Fatalf("DecodeRaw: %v", err)
		}
		if !sameEvents(got.Events, events) {
			t.Fatalf("EncodeRaw/DecodeRaw changed the events:\n got %+v\nwant %+v", got.Events, events)
		}
	})
}

// TestEqualBodiesEncodeOnce pins the point of the body table: N equal
// responses cost one body on the wire, and decode to one string.
func TestEqualBodiesEncodeOnce(t *testing.T) {
	body := strings.Repeat("<tr><td>row</td></tr>\n", 400) // ~8.8 KB
	for _, n := range []int{1, 10, 200} {
		var events []Event
		for i := 0; i < n; i++ {
			events = append(events, req("r", int64(2*i)), Event{Kind: Response, RID: "r", Time: int64(2*i + 1), Body: body})
		}
		raw, err := (&Trace{Events: events}).EncodeRaw()
		if err != nil {
			t.Fatal(err)
		}
		// One body, plus at most a dozen bytes per event and a few for
		// the magic and the counts.
		if limit := len(body) + 12*len(events) + 16; len(raw) > limit {
			t.Fatalf("%d equal bodies of %d bytes encode to %d bytes, want at most %d", n, len(body), len(raw), limit)
		}
		if got := bytes.Count(raw, []byte(body)); got != 1 {
			t.Fatalf("%d equal bodies: blob holds the body %d times, want once", n, got)
		}
		dec, err := DecodeRaw(raw)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(dec.Events, events) {
			t.Fatalf("%d equal bodies did not round-trip", n)
		}
		first := unsafe.StringData(dec.Events[1].Body)
		for i := 1; i < len(dec.Events); i += 2 {
			if unsafe.StringData(dec.Events[i].Body) != first {
				t.Fatalf("response %d decoded to its own copy of the body", i/2)
			}
		}
	}
}

// TestDecodeRejectsMalformedRecords feeds the decoder blobs EncodeRaw
// never writes. Each must fail with an error — not panic, and not decode to a
// trace that differs from what was sealed.
func TestDecodeRejectsMalformedRecords(t *testing.T) {
	// event writes one event field by field; params are the request's
	// $_GET pairs, and a Response's ref is its body reference.
	event := func(w *encio.Writer, kind EventKind, params []string, ref ...uint64) {
		w.Byte(byte(kind))
		w.String("r1")
		w.Int(1)
		w.String("s")
		w.Bool(params != nil)
		if params != nil {
			w.Uint(uint64(len(params) / 2))
			for _, p := range params {
				w.String(p)
			}
		}
		w.Bool(false)
		w.Bool(false)
		if kind != Response {
			w.String("")
		}
		for _, r := range ref {
			w.Uint(r)
		}
	}
	record := func(n int, events ...func(*encio.Writer)) []byte {
		w := encio.NewWriter(traceMagic)
		w.Uint(uint64(n))
		for _, ev := range events {
			ev(w)
		}
		return w.Bytes()
	}
	rq := func(w *encio.Writer) { event(w, Request, nil) }
	rs := func(ref ...uint64) func(*encio.Writer) {
		return func(w *encio.Writer) { event(w, Response, nil, ref...) }
	}
	bodies := func(bs ...string) func(*encio.Writer) {
		return func(w *encio.Writer) {
			for _, b := range bs {
				w.String(b)
			}
		}
	}
	valid := record(2, rq, rs(0), bodies("x"))
	if _, err := DecodeRaw(valid); err != nil {
		t.Fatalf("the hand-written record does not decode: %v", err)
	}
	cases := []struct {
		name string
		raw  []byte
		want string
	}{
		{"index outside the table", record(3, rq, rs(0), rs(2), bodies("x")), "references body 2 of a table of 1"},
		{"index into an empty table", record(2, rq, rs(1)), "references body 1 of a table of 0"},
		{"response without a reference", record(2, rq, rs()), "unexpected end of input"},
		{"new body missing", record(2, rq, rs(0)), "unexpected end of input"},
		{"request carrying a reference", record(1, rq, func(w *encio.Writer) { w.Uint(0) }), ": 1 trailing bytes"},
		{"references without events", record(0, rs(0), bodies("x")), "trailing bytes"},
		{"inline response body", record(3, rq, rs(0), rs(1), bodies("x", "x")), "body 1 repeats body 0"},
		{"trailing bytes", append(valid, 0), ": 1 trailing bytes"},
		{"unknown event kind", record(1, func(w *encio.Writer) { event(w, Response+1, nil) }), "unknown kind 2"},
		{"parameters out of order", record(1, func(w *encio.Writer) { event(w, Request, []string{"b", "1", "a", "2"}) }), "out of order"},
		{"count past the input", record(1000, rq), "1000 entries"},
		{"non-minimal varint", []byte(traceMagic + "\x80\x00"), "non-minimal varint"},
		{"bad boolean", record(1, func(w *encio.Writer) {
			w.Byte(0)
			w.String("r")
			w.Int(0)
			w.String("")
			w.Byte(2)
			w.Uint(0)
			w.Uint(0)
			w.String("")
		}), "boolean byte 2"},
		{"another artifact", []byte("ORPT\x00"), "not a \"OTRC\" artifact"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := DecodeRaw(tc.raw); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("DecodeRaw: err = %v, want one containing %q", err, tc.want)
			}
		})
	}
	if _, err := (&Trace{Events: []Event{{Kind: Response + 1, RID: "r1"}}}).EncodeRaw(); err == nil {
		t.Fatal("an event of unknown kind encoded")
	}
}
