// Package encio holds the canonical codec that trace, reports and
// object encode their artifacts with, and the gzip helpers those
// artifacts and the chunk store's at-rest form share.
package encio

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
)

// gzipLevel is the deflate level of every stream Gzip writes, a
// measured constant. On sealed artifacts cut into 32 KiB chunks,
// level 4 deflates up to ~3× faster than the default level 6, and the
// larger chunks win back the bytes it gives up: stored bytes per
// request moved by at most +0.5 % on the bench workloads. Readers do
// not depend on the level.
const gzipLevel = 4

// A gzip.Writer carries about a megabyte of deflate state and a
// gzip.Reader its window and Huffman tables; sealing builds one per
// chunk and readers one per chunk read, so both are reused. Reset
// returns them to their initial state, so reused and fresh instances
// produce the same bytes. Writers are kept on a free list rather than
// in a sync.Pool, which every GC empties: a pool made the next seal
// chunk or coordinator filing after each GC build a fresh compressor.
var (
	gzipWriters struct {
		sync.Mutex
		idle []*gzip.Writer
	}
	gzipReaders = sync.Pool{New: func() any { return new(gunzipper) }}
)

// maxIdleGzipWriters bounds the writers kept between streams: as many
// as streams are compressed at once in one process (the sealer's and a
// coordinator's), with room to spare.
const maxIdleGzipWriters = 4

// gzipWriter returns an idle writer reset to write to w, or a new one.
func gzipWriter(w io.Writer) *gzip.Writer {
	gzipWriters.Lock()
	defer gzipWriters.Unlock()
	if n := len(gzipWriters.idle); n > 0 {
		zw := gzipWriters.idle[n-1]
		gzipWriters.idle = gzipWriters.idle[:n-1]
		zw.Reset(w)
		return zw
	}
	zw, _ := gzip.NewWriterLevel(w, gzipLevel) // fails only for a level outside [-2, 9]
	return zw
}

// idleGzipWriter keeps zw for a later stream, unless enough are idle.
func idleGzipWriter(zw *gzip.Writer) {
	gzipWriters.Lock()
	defer gzipWriters.Unlock()
	if len(gzipWriters.idle) < maxIdleGzipWriters {
		gzipWriters.idle = append(gzipWriters.idle, zw)
	}
}

// gunzipper is a pooled gzip.Reader with the bytes.Reader it reads
// from, so inflating a stream allocates little beyond its output.
type gunzipper struct {
	zr  gzip.Reader
	src bytes.Reader
}

// maxDeflateRatio bounds how far deflate can expand: a 258-byte match
// costs at least two bits, so no stream inflates past about 1032 times
// its length.
const maxDeflateRatio = 1032

// Gzip compresses data into one gzip stream at gzipLevel.
func Gzip(data []byte) ([]byte, error) {
	var buf bytes.Buffer
	zw := gzipWriter(&buf)
	defer idleGzipWriter(zw)
	if _, err := zw.Write(data); err != nil {
		return nil, err
	}
	if err := zw.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Gunzip inflates a stream produced by Gzip. The stream must inflate
// exactly: truncated input, a checksum mismatch, and trailing garbage
// are all errors, so stored bytes either decode whole or not at all.
func Gunzip(data []byte) ([]byte, error) {
	return GunzipMax(data, 0)
}

// GunzipMax is Gunzip for streams that arrive from another process: a
// stream inflating to more than max bytes (max > 0) is an error, so a
// few hostile kilobytes cannot ask the reader for gigabytes.
//
// The output is sized up front from the gzip trailer's ISIZE, capped by
// max and by deflate's expansion bound (so a lying trailer asks for no
// more than a stream that really inflates that far would take), so an
// honest stream inflates into one buffer. The trailer is only a hint: a
// stream whose ISIZE lies fails gzip's own trailer check, and a stream
// of several members (whose trailer sizes only the last) still reads
// whole, the buffer growing as it must.
func GunzipMax(data []byte, max int64) ([]byte, error) {
	g := gzipReaders.Get().(*gunzipper)
	defer gzipReaders.Put(g)
	g.src.Reset(data)
	if err := g.zr.Reset(&g.src); err != nil {
		return nil, err
	}
	var r io.Reader = &g.zr
	if max > 0 {
		r = io.LimitReader(r, max+1)
	}
	// The spare MinRead bytes let ReadFrom meet the end of an honest
	// stream without growing the buffer. ReadFrom runs to the end of
	// input: it checks the trailer checksum, and bytes after the stream
	// fail as a bad next-member header.
	buf := bytes.NewBuffer(make([]byte, 0, sizeHint(data, max)+bytes.MinRead))
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, err
	}
	out := buf.Bytes()
	if max > 0 && int64(len(out)) > max {
		return nil, fmt.Errorf("stream inflates past %d bytes", max)
	}
	if err := g.zr.Close(); err != nil {
		return nil, err
	}
	return out, nil
}

// sizeHint is what the gzip stream data claims to inflate to — its
// trailer's ISIZE — capped at max (max > 0) and at what deflate can
// expand data's length to.
func sizeHint(data []byte, max int64) int {
	if len(data) < 18 { // a gzip header and trailer
		return 0
	}
	n := min(int64(binary.LittleEndian.Uint32(data[len(data)-4:])), int64(len(data))*maxDeflateRatio)
	if max > 0 {
		n = min(n, max)
	}
	return int(n)
}

// Compress gzips the raw encoding an artifact's EncodeRaw returned.
func Compress(raw []byte, err error) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	return Gzip(raw)
}

// Decompress inflates a gzipped artifact and decodes the raw encoding
// inside with decodeRaw; what names the artifact in a gzip error.
func Decompress[T any](what string, data []byte, decodeRaw func([]byte) (T, error)) (T, error) {
	raw, err := Gunzip(data)
	if err != nil {
		var zero T
		return zero, fmt.Errorf("%s: decode: %w", what, err)
	}
	return decodeRaw(raw)
}
