package trace

import (
	"fmt"
	"maps"
	"os"

	"orochi/internal/encio"
)

// A web server's responses repeat (the same page, the same error, the
// same redirect), so every serialized form of a trace stores each
// distinct response body once, in a body table. A record is the magic
// "OTRC", the event count, per event its kind, RID, time, input and
// body, and then the bodies the record adds to the table, in table
// order. A Response's body is a reference into the table, where a
// reference equal to the table's size so far means a new body. (The new
// bodies come after the events, not after each reference: events and
// bodies each compress better among their own kind.) A table can span
// several records: the live log writes one record per batch of events,
// and a record carries only the bodies no earlier record of its segment
// introduced. A whole trace (EncodeRaw, Encode, WriteFile) is a single
// record over an empty table.

const traceMagic = "OTRC"

// Encoder writes the records that share one body table. The zero value
// is an encoder over an empty table. An Encoder whose Encode returned an
// error must not be used again: its table may be ahead of what was
// written.
type Encoder struct {
	index map[string]uint64 // response body → table index
}

// Encode serializes events as the next record, gzipped. Decoding it
// needs every record the encoder wrote before it, in order.
func (e *Encoder) Encode(events []Event) ([]byte, error) {
	return encio.Compress(e.encodeRaw(events))
}

func (e *Encoder) encodeRaw(events []Event) ([]byte, error) {
	if e.index == nil {
		e.index = make(map[string]uint64)
	}
	w := encio.NewWriter(traceMagic)
	w.Uint(uint64(len(events)))
	var added []string
	for i := range events {
		ev := &events[i]
		if ev.Kind > Response {
			return nil, fmt.Errorf("trace: encode: event %d has unknown kind %d", i, ev.Kind)
		}
		w.Byte(byte(ev.Kind))
		w.String(ev.RID)
		w.Int(ev.Time)
		w.String(ev.In.Script)
		writeParams(w, ev.In.Get)
		writeParams(w, ev.In.Post)
		writeParams(w, ev.In.Cookie)
		if ev.Kind != Response {
			w.String(ev.Body)
			continue
		}
		ref, ok := e.index[ev.Body]
		if !ok {
			ref = uint64(len(e.index))
			e.index[ev.Body] = ref
			added = append(added, ev.Body)
		}
		w.Uint(ref)
	}
	for _, body := range added {
		w.String(body)
	}
	return w.Bytes(), nil
}

// writeParams writes a request parameter map: whether it is non-nil,
// then its pairs.
func writeParams(w *encio.Writer, m map[string]string) {
	w.Bool(m != nil)
	if m != nil {
		encio.WriteMap(w, m, func(k, v string) {
			w.String(k)
			w.String(v)
		})
	}
}

func readParams(r *encio.Reader) map[string]string {
	if !r.Bool() {
		return nil
	}
	return encio.ReadMap(r, 2, func() (string, string) { return r.String(), r.String() })
}

// Decoder reads back, in order, the records an Encoder wrote. The zero
// value is a decoder over an empty table. Responses with equal bodies
// decode to strings that share one backing array. Input is untrusted: a
// record that does not decode exactly is an error, never a panic or a
// shortened result, and a Decoder whose Decode returned an error must
// not be used again.
type Decoder struct {
	bodies []string
	index  map[string]uint64 // body → table index, to refuse a body added twice
}

// Decode deserializes the next record produced by Encoder.Encode.
func (d *Decoder) Decode(data []byte) ([]Event, error) {
	return encio.Decompress("trace", data, d.decodeRaw)
}

// minEvent is the fewest bytes an event encodes to: kind, RID, time,
// script, three parameter maps, body.
const minEvent = 8

func (d *Decoder) decodeRaw(data []byte) ([]Event, error) {
	if d.index == nil {
		d.index = make(map[string]uint64)
	}
	r := encio.NewReader(data, traceMagic)
	events := make([]Event, r.Len(minEvent))
	refs := make([]uint64, len(events)) // each Response's body reference
	size := uint64(len(d.bodies))       // the table's, with the bodies this record adds
	for i := range events {
		ev := &events[i]
		ev.Kind = EventKind(r.Byte())
		if ev.Kind > Response {
			r.Failf("event %d has unknown kind %d", i, ev.Kind)
		}
		ev.RID = r.String()
		ev.Time = r.Int()
		ev.In.Script = r.String()
		ev.In.Get = readParams(r)
		ev.In.Post = readParams(r)
		ev.In.Cookie = readParams(r)
		if ev.Kind != Response {
			ev.Body = r.String()
			continue
		}
		switch refs[i] = r.Uint(); {
		case refs[i] == size:
			size++
		case refs[i] > size:
			r.Failf("response event %d references body %d of a table of %d", i, refs[i], size)
		}
	}
	for ref := uint64(len(d.bodies)); ref < size; ref++ {
		body := r.String()
		if prev, dup := d.index[body]; dup {
			r.Failf("body %d repeats body %d", ref, prev)
		}
		d.index[body] = ref
		d.bodies = append(d.bodies, body)
	}
	if err := r.Close(); err != nil {
		return nil, fmt.Errorf("trace: decode: %w", err)
	}
	for i := range events {
		if events[i].Kind == Response {
			events[i].Body = d.bodies[refs[i]]
		}
	}
	return events, nil
}

// Encoder returns an encoder that continues d's table: its next record
// may reference every body d has decoded. This is how a log writer
// resumes a segment it recovered after a crash.
func (d *Decoder) Encoder() *Encoder {
	return &Encoder{index: maps.Clone(d.index)}
}

// EncodeRaw serializes the trace uncompressed: one record
// over an empty table. This is the logical form the content-addressed
// store chunks, with compression pushed down to the chunk layer.
func (t *Trace) EncodeRaw() ([]byte, error) {
	return new(Encoder).encodeRaw(t.Events)
}

// DecodeRaw deserializes a trace produced by EncodeRaw. Trailing
// garbage is an error, matching Decode's strictness.
func DecodeRaw(data []byte) (*Trace, error) {
	events, err := new(Decoder).decodeRaw(data)
	if err != nil {
		return nil, err
	}
	return &Trace{Events: events}, nil
}

// Encode serializes the trace gzipped — the format the collector
// ships to the verifier and cmd/orochi-audit reads from disk.
func (t *Trace) Encode() ([]byte, error) {
	return new(Encoder).Encode(t.Events)
}

// Decode deserializes a trace produced by Encode. Truncated input and
// trailing garbage are errors: on-disk segments must decode exactly or
// not at all, so corruption can never pass silently as an empty or
// shortened trace.
func Decode(data []byte) (*Trace, error) {
	return encio.Decompress("trace", data, DecodeRaw)
}

// WriteFile stores the encoded trace at path.
func (t *Trace) WriteFile(path string) error {
	data, err := t.Encode()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// ReadFile loads a trace stored by WriteFile.
func ReadFile(path string) (*Trace, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(data)
}
