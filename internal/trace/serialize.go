package trace

import (
	"fmt"

	"orochi/internal/encio"
)

// A web server's responses repeat (the same page, the same error, the
// same redirect), so the serialized form of a trace stores each
// distinct response body once, in a body table. It is the magic "OTRC",
// the event count, per event its kind, RID, time, input and body, and
// then the table's bodies, in table order. A Response's body is a
// reference into the table, where a reference equal to the table's size
// so far means a new body. (The bodies come after the events, not after
// each reference: events and bodies each compress better among their
// own kind.)

const traceMagic = "OTRC"

// EncodeRaw serializes the trace uncompressed. This is the logical form
// the content-addressed store chunks, with compression pushed down to
// the chunk layer.
func (t *Trace) EncodeRaw() ([]byte, error) {
	index := make(map[string]uint64) // response body → table index
	var bodies []string
	w := encio.NewWriter(traceMagic)
	w.Uint(uint64(len(t.Events)))
	for i := range t.Events {
		ev := &t.Events[i]
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
		ref, ok := index[ev.Body]
		if !ok {
			ref = uint64(len(bodies))
			index[ev.Body] = ref
			bodies = append(bodies, ev.Body)
		}
		w.Uint(ref)
	}
	for _, body := range bodies {
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

// minEvent is the fewest bytes an event encodes to: kind, RID, time,
// script, three parameter maps, body.
const minEvent = 8

// DecodeRaw deserializes a trace produced by EncodeRaw. Responses with
// equal bodies decode to strings that share one backing array. Input is
// untrusted: anything EncodeRaw would not write, trailing bytes
// included, is an error, never a panic or a shortened trace.
func DecodeRaw(data []byte) (*Trace, error) {
	r := encio.NewReader(data, traceMagic)
	events := make([]Event, r.Len(minEvent))
	refs := make([]uint64, len(events)) // each Response's body reference
	var size uint64                     // the table's, as the references grow it
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
	bodies := make([]string, 0, size)
	index := make(map[string]uint64, size) // body → table index, to refuse a body added twice
	for ref := uint64(0); ref < size; ref++ {
		body := r.String()
		if prev, dup := index[body]; dup {
			r.Failf("body %d repeats body %d", ref, prev)
		}
		index[body] = ref
		bodies = append(bodies, body)
	}
	if err := r.Close(); err != nil {
		return nil, fmt.Errorf("trace: decode: %w", err)
	}
	for i := range events {
		if events[i].Kind == Response {
			events[i].Body = bodies[refs[i]]
		}
	}
	return &Trace{Events: events}, nil
}
