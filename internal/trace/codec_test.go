package trace

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

// eventsFromBytes builds an event list out of fuzz input, three bytes
// per event. Bodies come from a small alphabet so they repeat, and the
// shapes Balanced would refuse — an empty body, a body on a Request, an
// Input on a Response, duplicate RIDs, an unknown kind — all occur: the
// codec must carry them, judging them is Balanced's job.
func eventsFromBytes(data []byte) []Event {
	var out []Event
	for ; len(data) >= 3; data = data[3:] {
		a, b, c := data[0], data[1], data[2]
		ev := Event{
			Kind: EventKind(a % 3), // 2 is no kind the package defines
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
// equal whether nil or empty (gob has one form for both).
func sameEvents(a, b []Event) bool {
	return len(a) == 0 && len(b) == 0 || reflect.DeepEqual(a, b)
}

// streamRoundTrip writes events as records whose lengths come from cuts
// (cycled; a zero is an empty record) through one Encoder, and reads
// them back through one Decoder — in the gzipped form the log stores, or
// raw, which is what the fuzzer can afford one event at a time.
func streamRoundTrip(t *testing.T, events []Event, cuts []byte, gz bool) []Event {
	t.Helper()
	var enc Encoder
	var dec Decoder
	var out []Event
	empty := false
	for i, rest := 0, events; ; i++ {
		n := len(rest)
		if len(cuts) > 0 {
			n = min(n, int(cuts[i%len(cuts)])%33)
			if n == 0 && empty {
				n = min(1, len(rest)) // cuts of all zeros would never finish
			}
		}
		empty = n == 0
		encode, decode := enc.encodeRaw, dec.decodeRaw
		if gz {
			encode, decode = enc.Encode, dec.Decode
		}
		data, err := encode(rest[:n])
		if err != nil {
			t.Fatalf("record %d: encode: %v", i, err)
		}
		got, err := decode(data)
		if err != nil {
			t.Fatalf("record %d: decode: %v", i, err)
		}
		out = append(out, got...)
		if rest = rest[n:]; len(rest) == 0 {
			break
		}
	}
	return out
}

func FuzzTraceCodec(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte{5, 1, 9, 5, 1, 9, 4, 2, 0, 1, 0, 0}, []byte{1})
	f.Add([]byte{0x7d, 3, 40, 0x7c, 3, 40, 0x05, 3, 40, 0x06, 3, 40, 0x05, 3, 40}, []byte{2, 0, 3})
	f.Add(bytes.Repeat([]byte{5, 7, 63}, 40), []byte{16, 1})
	f.Fuzz(func(t *testing.T, data, cuts []byte) {
		events := eventsFromBytes(data[:min(len(data), 3*256)])
		tr := &Trace{Events: events}

		raw, err := tr.EncodeRaw()
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

		zdata, err := tr.Encode()
		if err != nil {
			t.Fatal(err)
		}
		got, err = Decode(zdata)
		if err != nil {
			t.Fatalf("Decode: %v", err)
		}
		if !sameEvents(got.Events, events) {
			t.Fatalf("Encode/Decode changed the events:\n got %+v\nwant %+v", got.Events, events)
		}

		// Wherever the record boundaries fall, the same events come back.
		if got := streamRoundTrip(t, events, cuts, true); !sameEvents(got, events) {
			t.Fatalf("streaming with cuts %v changed the events:\n got %+v\nwant %+v", cuts, got, events)
		}
		if got := streamRoundTrip(t, events, []byte{1}, false); !sameEvents(got, events) {
			t.Fatalf("one event per record changed the events:\n got %+v\nwant %+v", got, events)
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
		// One body, plus a few dozen bytes per event and gob's type
		// descriptions.
		if limit := len(body) + 64*len(events) + 1024; len(raw) > limit {
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

// TestStreamRecordsCarryOnlyNewBodies checks the cross-record table: a
// body an earlier record introduced is not written again, and a record
// cannot be decoded without the records before it.
func TestStreamRecordsCarryOnlyNewBodies(t *testing.T) {
	page := strings.Repeat("page ", 1000)
	other := strings.Repeat("other ", 1000)
	var enc Encoder
	first, err := enc.Encode([]Event{req("r1", 1), {Kind: Response, RID: "r1", Time: 2, Body: page}})
	if err != nil {
		t.Fatal(err)
	}
	second, err := enc.Encode([]Event{
		req("r2", 3), {Kind: Response, RID: "r2", Time: 4, Body: page},
		req("r3", 5), {Kind: Response, RID: "r3", Time: 6, Body: other},
	})
	if err != nil {
		t.Fatal(err)
	}
	var dec Decoder
	a, err := dec.Decode(first)
	if err != nil {
		t.Fatal(err)
	}
	b, err := dec.Decode(second)
	if err != nil {
		t.Fatal(err)
	}
	if a[1].Body != page || b[1].Body != page || b[3].Body != other {
		t.Fatal("bodies did not survive the stream")
	}
	if unsafe.StringData(a[1].Body) != unsafe.StringData(b[1].Body) {
		t.Fatal("a body referenced across records decoded to a second copy")
	}
	// The second record alone names a body outside its own table.
	if _, err := new(Decoder).Decode(second); err == nil || !strings.Contains(err.Error(), "references body") {
		t.Fatalf("decoding a record without its predecessor: err = %v, want an out-of-table reference", err)
	}
	// A recovered writer continues the table: no body is written twice.
	third, err := dec.Encoder().Encode([]Event{req("r4", 7), {Kind: Response, RID: "r4", Time: 8, Body: other}})
	if err != nil {
		t.Fatal(err)
	}
	c, err := dec.Decode(third)
	if err != nil {
		t.Fatal(err)
	}
	if unsafe.StringData(c[1].Body) != unsafe.StringData(b[3].Body) {
		t.Fatal("a record written after recovery carried a body the table already held")
	}
}

// TestDecodeRejectsMalformedRecords feeds the decoder blobs no Encoder
// writes. Each must fail with an error — not panic, and not decode to a
// trace that differs from what was sealed.
func TestDecodeRejectsMalformedRecords(t *testing.T) {
	rq := Event{Kind: Request, RID: "r1", Time: 1, In: Input{Script: "s"}}
	rs := Event{Kind: Response, RID: "r1", Time: 2}
	cases := []struct {
		name string
		rec  wireRecord
		tail []byte
		want string
	}{
		{"index outside the table", wireRecord{Events: []Event{rq, rs}, Bodies: []string{"x"}, Refs: []uint32{1}}, nil, "references body 1 of a table of 1"},
		{"index into an empty table", wireRecord{Events: []Event{rq, rs}, Refs: []uint32{0}}, nil, "references body 0 of a table of 0"},
		{"response without a reference", wireRecord{Events: []Event{rq, rs}, Bodies: []string{"x"}}, nil, "0 body references for 1 response events"},
		// References are positional, one per Response event, so one
		// meant for a Request can only show up as one too many.
		{"request carrying a reference", wireRecord{Events: []Event{rq, rs}, Bodies: []string{"x"}, Refs: []uint32{0, 0}}, nil, "2 body references for 1 response events"},
		{"references without events", wireRecord{Bodies: []string{"x"}, Refs: []uint32{0}}, nil, "1 body references for 0 response events"},
		{"inline response body", wireRecord{Events: []Event{rq, {Kind: Response, RID: "r1", Time: 2, Body: "y"}}, Bodies: []string{"x"}, Refs: []uint32{0}}, nil, "carries its body inline"},
		{"trailing bytes", wireRecord{Events: []Event{rq, rs}, Bodies: []string{"x"}, Refs: []uint32{0}}, []byte{0}, "trailing data"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(&tc.rec); err != nil {
				t.Fatal(err)
			}
			raw := append(buf.Bytes(), tc.tail...)
			if _, err := DecodeRaw(raw); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("DecodeRaw: err = %v, want one containing %q", err, tc.want)
			}
		})
	}
}
