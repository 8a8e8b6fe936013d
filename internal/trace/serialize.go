package trace

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"os"

	"orochi/internal/encio"
)

// A web server's responses repeat (the same page, the same error, the
// same redirect), so every serialized form of a trace stores each
// distinct response body once, in a body table, and each Response event
// carries an index into the table instead of its body. A table can span
// several records: the live log writes one record per batch of events,
// and a record lists only the bodies no earlier record of its segment
// introduced. A whole trace (EncodeRaw, Encode, WriteFile) is a single
// record over an empty table.

// wireRecord is the serialized form of a run of events.
type wireRecord struct {
	// Events holds the events in order. The Body of a Response event is
	// empty here and travels through Refs; every other field, and the
	// Body of any other kind of event, is stored as is.
	Events []Event
	// Bodies are the response bodies this record adds to the table, in
	// order of first occurrence.
	Bodies []string
	// Refs holds one table index per Response event, in event order. An
	// index may name any body added by this record or an earlier one.
	Refs []uint32
}

// Encoder writes the records that share one body table. The zero value
// is an encoder over an empty table. An Encoder whose Encode returned an
// error must not be used again: its table may be ahead of what was
// written.
type Encoder struct {
	index map[string]uint32 // response body → table index
	size  uint32            // bodies in the table
}

// Encode serializes events as the next record (gob+gzip). Decoding it
// needs every record the encoder wrote before it, in order.
func (e *Encoder) Encode(events []Event) ([]byte, error) {
	raw, err := e.encodeRaw(events)
	if err != nil {
		return nil, err
	}
	data, err := encio.Gzip(raw)
	if err != nil {
		return nil, fmt.Errorf("trace: encode: %w", err)
	}
	return data, nil
}

func (e *Encoder) encodeRaw(events []Event) ([]byte, error) {
	if e.index == nil {
		e.index = make(map[string]uint32)
	}
	rec := wireRecord{Events: make([]Event, len(events))}
	copy(rec.Events, events)
	for i := range rec.Events {
		ev := &rec.Events[i]
		if ev.Kind != Response {
			continue
		}
		ref, ok := e.index[ev.Body]
		if !ok {
			ref = e.size
			e.size++
			e.index[ev.Body] = ref
			rec.Bodies = append(rec.Bodies, ev.Body)
		}
		rec.Refs = append(rec.Refs, ref)
		ev.Body = ""
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&rec); err != nil {
		return nil, fmt.Errorf("trace: encode: %w", err)
	}
	return buf.Bytes(), nil
}

// Decoder reads back, in order, the records an Encoder wrote. The zero
// value is a decoder over an empty table. Responses with equal bodies
// decode to strings that share one backing array. Input is untrusted: a
// record that does not decode exactly is an error, never a panic or a
// shortened result, and a Decoder whose Decode returned an error must
// not be used again.
type Decoder struct {
	bodies []string
}

// Decode deserializes the next record produced by Encoder.Encode.
func (d *Decoder) Decode(data []byte) ([]Event, error) {
	raw, err := encio.Gunzip(data)
	if err != nil {
		return nil, fmt.Errorf("trace: decode: %w", err)
	}
	return d.decodeRaw(raw)
}

func (d *Decoder) decodeRaw(data []byte) ([]Event, error) {
	r := bytes.NewReader(data)
	var rec wireRecord
	if err := gob.NewDecoder(r).Decode(&rec); err != nil {
		return nil, fmt.Errorf("trace: decode: %w", err)
	}
	if err := encio.ExpectEOF(r); err != nil {
		return nil, fmt.Errorf("trace: decode: %w", err)
	}
	responses := 0
	for i := range rec.Events {
		if rec.Events[i].Kind == Response {
			responses++
		}
	}
	if responses != len(rec.Refs) {
		return nil, fmt.Errorf("trace: decode: %d body references for %d response events", len(rec.Refs), responses)
	}
	d.bodies = append(d.bodies, rec.Bodies...)
	refs := rec.Refs
	for i := range rec.Events {
		ev := &rec.Events[i]
		if ev.Kind != Response {
			continue
		}
		if ev.Body != "" {
			return nil, fmt.Errorf("trace: decode: response event %d carries its body inline", i)
		}
		if int(refs[0]) >= len(d.bodies) {
			return nil, fmt.Errorf("trace: decode: response event %d references body %d of a table of %d", i, refs[0], len(d.bodies))
		}
		ev.Body = d.bodies[refs[0]]
		refs = refs[1:]
	}
	return rec.Events, nil
}

// Encoder returns an encoder that continues d's table: its next record
// may reference every body d has decoded. This is how a log writer
// resumes a segment it recovered after a crash.
func (d *Decoder) Encoder() *Encoder {
	e := &Encoder{index: make(map[string]uint32, len(d.bodies)), size: uint32(len(d.bodies))}
	for i, b := range d.bodies {
		// Only a foreign writer lists a body twice; referencing either
		// copy decodes the same.
		e.index[b] = uint32(i)
	}
	return e
}

// EncodeRaw serializes the trace with gob, uncompressed: one record
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

// Encode serializes the trace with gob+gzip — the format the collector
// ships to the verifier and cmd/orochi-audit reads from disk.
func (t *Trace) Encode() ([]byte, error) {
	return new(Encoder).Encode(t.Events)
}

// Decode deserializes a trace produced by Encode. Truncated input and
// trailing garbage are errors: on-disk segments must decode exactly or
// not at all, so corruption can never pass silently as an empty or
// shortened trace.
func Decode(data []byte) (*Trace, error) {
	events, err := new(Decoder).Decode(data)
	if err != nil {
		return nil, err
	}
	return &Trace{Events: events}, nil
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
