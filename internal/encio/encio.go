// Package encio holds the canonical codec that trace, reports and
// object encode their artifacts with, and the gzip helpers those
// artifacts and the chunk store's at-rest form share.
package encio

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"sync"
)

// A gzip.Writer carries about a megabyte of deflate state and a
// gzip.Reader its window and Huffman tables; sealing builds one per
// chunk and the live log one per record, so both are reused. Reset
// returns them to their initial state, so pooled and fresh instances
// produce the same bytes.
var (
	gzipWriters = sync.Pool{New: func() any { return gzip.NewWriter(nil) }}
	gzipReaders = sync.Pool{New: func() any { return new(gzip.Reader) }}
)

// Gzip compresses data into one gzip stream at the default level.
func Gzip(data []byte) ([]byte, error) {
	var buf bytes.Buffer
	zw := gzipWriters.Get().(*gzip.Writer)
	defer gzipWriters.Put(zw)
	zw.Reset(&buf)
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
func GunzipMax(data []byte, max int64) ([]byte, error) {
	zr := gzipReaders.Get().(*gzip.Reader)
	defer gzipReaders.Put(zr)
	if err := zr.Reset(bytes.NewReader(data)); err != nil {
		return nil, err
	}
	var r io.Reader = zr
	if max > 0 {
		r = io.LimitReader(zr, max+1)
	}
	// ReadAll runs to the end of input: it checks the trailer checksum,
	// and bytes after the stream fail as a bad next-member header.
	out, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	if max > 0 && int64(len(out)) > max {
		return nil, fmt.Errorf("stream inflates past %d bytes", max)
	}
	if err := zr.Close(); err != nil {
		return nil, err
	}
	return out, nil
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
