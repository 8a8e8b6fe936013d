// Package cas is a content-addressed chunk store for sealed epoch
// artifacts. Blobs (epoch traces, report bundles, snapshots) are cut
// into chunks, each keyed by the SHA-256 of its bytes; a blob is then
// just an ordered list of chunk references, and two blobs that cut to
// an identical chunk store it once. How a blob is cut depends on
// whether its kind is ever shared. Snapshots are (consecutive states of
// a chain differ only where an epoch wrote), so DefaultChunker cuts
// them by content. Traces and reports never are — every stretch
// carries per-request ids, and repeated responses are deduplicated
// above this layer, by the trace codec's body table — so LogChunker
// cuts them at fixed offsets of the largest chunk a reader accepts:
// each chunk costs the writer a file, an fsync and a fresh deflate
// window, and sharing would buy nothing back. For logs this layer
// contributes addressing, integrity and compression at rest. The model
// follows the gapid isolate-server design: writers upload only chunks
// the store lacks, readers verify every chunk against its digest, so
// integrity checking comes for free on every read.
package cas

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
)

// Ref names one chunk of a blob: the SHA-256 of the chunk's
// (uncompressed) bytes and its length. Length is pinned separately so
// a manifest fixes the exact byte extent of every chunk before any
// store IO happens.
type Ref struct {
	SHA256 string `json:"sha256"`
	Bytes  int64  `json:"bytes"`
}

// SumHex returns the lowercase hex SHA-256 of data — the digest form
// used throughout the epoch manifests and the chunk store.
func SumHex(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// ErrNotFound reports a chunk absent from a store.
var ErrNotFound = errors.New("cas: chunk not found")

// ChunkError is the typed failure for a chunk that is missing or whose
// bytes no longer match its digest. It names the offending chunk so
// audit forensics can pin exactly which content-addressed unit was
// lost or altered.
type ChunkError struct {
	Digest string // expected chunk SHA-256
	Index  int    // position within the blob's chunk list
	Err    error  // underlying cause (ErrNotFound, digest mismatch, ...)
}

func (e *ChunkError) Error() string {
	return fmt.Sprintf("cas: chunk %d (%s): %v", e.Index, short(e.Digest), e.Err)
}

func (e *ChunkError) Unwrap() error { return e.Err }

func short(sha string) string {
	if len(sha) > 12 {
		return sha[:12]
	}
	return sha
}

// Store is what sealing and auditing need of a chunk store: Put a
// chunk under its digest, Get it back verified. *FS is the chain's
// store of record; Memory, Tiered and HTTPStore compose a fleet
// worker's view of it. Put must be atomic and idempotent (a chunk is
// immutable once written) and both methods must tolerate concurrent
// callers. Listing and deleting chunks — GC's business — stay on *FS,
// where the chunks live.
type Store interface {
	// Put stores data under its digest. Writing a chunk that already
	// exists is a cheap no-op.
	Put(sha string, data []byte) error
	// Get returns the chunk's bytes, verified against sha, in a slice
	// the caller owns. A missing chunk yields an error wrapping
	// ErrNotFound; bytes that no longer hash to sha yield a
	// digest-mismatch error.
	Get(sha string) ([]byte, error)
}

// WriteBlob cuts data into chunks with c and stores each in s,
// returning the ordered refs that reconstruct the blob.
// Chunks already present are not rewritten — that is the dedup, and it
// is Put's to do: every store's Put is a cheap no-op on a chunk it
// holds.
func WriteBlob(s Store, c ChunkerOptions, data []byte) ([]Ref, error) {
	chunks := c.Split(data)
	refs := make([]Ref, 0, len(chunks))
	for i, chunk := range chunks {
		sha := SumHex(chunk)
		if err := s.Put(sha, chunk); err != nil {
			return nil, &ChunkError{Digest: sha, Index: i, Err: err}
		}
		refs = append(refs, Ref{SHA256: sha, Bytes: int64(len(chunk))})
	}
	return refs, nil
}

// ReadBlob reassembles a blob from its ordered chunk refs, verifying
// every chunk's digest and length. Any missing or corrupt chunk
// surfaces as a *ChunkError naming the chunk. A one-chunk blob is the
// chunk as Get returned it, not a copy.
func ReadBlob(s Store, refs []Ref) ([]byte, error) {
	var out []byte
	if len(refs) > 1 {
		out = make([]byte, 0, BlobBytes(refs))
	}
	for i, r := range refs {
		data, err := s.Get(r.SHA256)
		if err != nil {
			var ce *ChunkError
			if errors.As(err, &ce) {
				ce.Index = i
				return nil, ce
			}
			return nil, &ChunkError{Digest: r.SHA256, Index: i, Err: err}
		}
		if int64(len(data)) != r.Bytes {
			return nil, &ChunkError{Digest: r.SHA256, Index: i,
				Err: fmt.Errorf("chunk is %d bytes, manifest pins %d", len(data), r.Bytes)}
		}
		if len(refs) == 1 {
			return data, nil
		}
		out = append(out, data...)
	}
	return out, nil
}

// BlobBytes sums the logical (uncompressed) size of a chunked blob.
func BlobBytes(refs []Ref) int64 {
	var n int64
	for _, r := range refs {
		n += r.Bytes
	}
	return n
}
