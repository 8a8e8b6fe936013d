package encio

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// The chain's artifacts — trace records, reports and snapshots — share
// one canonical binary form: a 4-byte magic naming the artifact kind,
// then fields in a fixed order as varint integers and length-prefixed
// strings, every map in ascending key order. A value has exactly one
// encoding, so equal values give equal bytes, the digest of the bytes
// identifies the value, and decoding then encoding gives the input back.

// Writer appends the canonical encoding of an artifact. Its methods
// cannot fail.
type Writer struct {
	buf []byte
}

// NewWriter starts an artifact of the kind magic names.
func NewWriter(magic string) *Writer {
	return &Writer{buf: append(make([]byte, 0, 256), magic...)}
}

// Bytes returns the encoding written so far.
func (w *Writer) Bytes() []byte { return w.buf }

// Uint writes x as an unsigned varint.
func (w *Writer) Uint(x uint64) { w.buf = binary.AppendUvarint(w.buf, x) }

// Int writes x as a zig-zag varint.
func (w *Writer) Int(x int64) { w.buf = binary.AppendVarint(w.buf, x) }

// Byte writes one byte.
func (w *Writer) Byte(b byte) { w.buf = append(w.buf, b) }

// Bool writes a byte, 1 for true and 0 for false.
func (w *Writer) Bool(b bool) {
	if b {
		w.Byte(1)
	} else {
		w.Byte(0)
	}
}

// String writes s's length as a varint, then its bytes.
func (w *Writer) String(s string) {
	w.Uint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// Reader decodes an artifact a Writer produced. Input is untrusted: the
// first malformed field — a varint that is not minimal or overflows, a
// length past the end of the input, a bad boolean — sets an error that
// every later read keeps, and every later read returns a zero value
// without consuming input, so a decoder reads its whole layout and asks
// for the error once, at Close. Decoders report their own violations
// (keys out of order, an unknown tag) through Failf.
type Reader struct {
	data []byte
	err  error
}

// NewReader starts reading an artifact that must be of the kind magic
// names.
func NewReader(data []byte, magic string) *Reader {
	r := &Reader{data: data}
	if len(data) < len(magic) || string(data[:len(magic)]) != magic {
		r.Failf("not a %q artifact", magic)
		return r
	}
	r.data = data[len(magic):]
	return r
}

// Failf records a decoding error unless one is already recorded.
func (r *Reader) Failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

// Close returns the first error recorded, or an error if input is left
// over: an artifact is its whole input.
func (r *Reader) Close() error {
	if r.err == nil && len(r.data) > 0 {
		r.err = fmt.Errorf("%d trailing bytes", len(r.data))
	}
	return r.err
}

var errEOF = errors.New("unexpected end of input")

// Uint reads an unsigned varint in its minimal form.
func (r *Reader) Uint() uint64 {
	if r.err != nil {
		return 0
	}
	x, n := binary.Uvarint(r.data)
	switch {
	case n == 0:
		r.err = errEOF
	case n < 0:
		r.err = errors.New("varint overflows 64 bits")
	case n > 1 && r.data[n-1] == 0:
		// A varint whose last byte is zero has a shorter form.
		r.err = errors.New("non-minimal varint")
	default:
		r.data = r.data[n:]
		return x
	}
	return 0
}

// Int reads a zig-zag varint.
func (r *Reader) Int() int64 {
	u := r.Uint()
	return int64(u>>1) ^ -int64(u&1)
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if len(r.data) == 0 {
		r.err = errEOF
		return 0
	}
	b := r.data[0]
	r.data = r.data[1:]
	return b
}

// Bool reads a byte that must be 0 or 1.
func (r *Reader) Bool() bool {
	switch b := r.Byte(); b {
	case 0, 1:
		return b == 1
	default:
		r.Failf("boolean byte %d", b)
		return false
	}
}

// String reads a length-prefixed string.
func (r *Reader) String() string {
	n := r.Uint()
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.data)) {
		r.Failf("string of %d bytes with %d left", n, len(r.data))
		return ""
	}
	s := string(r.data[:n])
	r.data = r.data[n:]
	return s
}

// Len reads the length of a list or map whose entries each encode to at
// least min bytes (min >= 1). A length the rest of the input cannot
// hold is an error, so no decoder allocates for more entries than its
// input could describe.
func (r *Reader) Len(min int) int {
	n := r.Uint()
	if r.err != nil {
		return 0
	}
	if n > uint64(len(r.data)/min) {
		r.Failf("%d entries of at least %d bytes with %d left", n, min, len(r.data))
		return 0
	}
	return int(n)
}

// WriteList writes s's length, then each element with put.
func WriteList[T any](w *Writer, s []T, put func(T)) {
	w.Uint(uint64(len(s)))
	for _, v := range s {
		put(v)
	}
}

// ReadList reads a list WriteList wrote, whose elements each encode to
// at least min bytes, with get reading one. An empty list reads as nil.
func ReadList[T any](r *Reader, min int, get func() T) []T {
	n := r.Len(min)
	if n == 0 {
		return nil
	}
	s := make([]T, n)
	for i := range s {
		s[i] = get()
	}
	return s
}

// WriteMap writes m's size, then each entry with put, in ascending key
// order.
func WriteMap[K cmp.Ordered, V any](w *Writer, m map[K]V, put func(K, V)) {
	w.Uint(uint64(len(m)))
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		put(k, m[k])
	}
}

// ReadMap reads a map WriteMap wrote, whose entries each encode to at
// least min bytes, with get reading one. Keys must ascend strictly.
func ReadMap[K cmp.Ordered, V any](r *Reader, min int, get func() (K, V)) map[K]V {
	n := r.Len(min)
	m := make(map[K]V, n)
	var prev K
	for i := 0; i < n; i++ {
		k, v := get()
		if i > 0 && k <= prev {
			r.Failf("keys out of order at %v", k)
		}
		m[k], prev = v, k
	}
	return m
}
